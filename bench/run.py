"""Benchmark of the dimest pipeline: point cloud in, dimension report out.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-henon --seed 0 --seconds 40 --trace 0

Workloads (closed loop, one client, one step at a time; ``BENCHMARK.json``
says why each was chosen):

  cli-henon        ``dimest generate henon --samples 200000`` writes the
                   orbit, then ``dimest report --kmin 3 --kmax 7`` reads it.
  library-deep     the README quick start: ``henon_orbit`` (10^6 points),
                   then ``count_series`` + ``entropy_series`` +
                   ``build_report`` + ``to_json`` on
                   ``ScaleSchedule.dyadic(3, 14)``; no file I/O.
  volume-explicit  ``dimest generate sierpinski --samples 100000``, then
                   ``dimest report --volume --epsilons 0.012,0.008,0.006,0.004``.

``--seed 0`` gives the canonical inputs (orbit start (0, 0), chaos-game
``rng_seed`` 0); other seeds move the orbit start and the chaos-game stream.

The steps run in a worker process (``steps.py``) that imports ``dimest``
once and then runs the workload's steps once per request: the ``dimest``
commands through ``dimest.cli.run``, the quick start as library calls. The
cost of starting an interpreter and importing ``dimest.cli`` is ``setup_s``,
measured apart in fresh interpreters. The worker's first pass is an untimed
warm-up.

A run repeats rounds until ``--seconds`` have passed (at least two). A round
runs every step of the workload once and, every other round, one fresh
``import dimest.cli`` interpreter, so host drift hits every metric alike.
Each metric is the median over the run's samples.

Every timed step is bracketed by passes of the frozen calibration kernel
(``calib.py``), run in the worker, and its wall time is reported scaled to
the reference host on which one pass takes ``calib.REFERENCE_S``:
wall * REFERENCE_S / (mean of the two passes). On a shared 2-vCPU cloud
guest (Xeon, no PMU) the host runs fast and slow spells of tens of seconds,
up to 1.7x apart: over ten 36-s runs per workload the wall-time medians of
the steps spread (IQR / median) 0.14-0.33, the scaled ones 0.03-0.10. The
wall times are kept in the details file. ``setup_s`` stays a wall time:
process start-up and imports do not follow the kernel (scaling widened its
spread from 0.09-0.14 to about 0.20).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (wall time),
``generate_s`` and ``estimate_s`` (scaled time of each step) and
``peak_rss_mb`` (peak RSS of
the worker after its warm-up pass, which runs each step once and no
calibration, as one ``dimest`` process per step would). ``--trace 1`` runs
every step in an untraced and a traced worker in each round and reports the
per-layer metrics: the self time of the spans around each layer's public
functions (``spans.py``), the layer counts, the step time the spans do not
cover (``cli.self_s``), the traced-minus-untraced step time
(``trace.overhead_s``), ``host.calib_s`` and ``error_rate``. These are wall
times, not scaled.

Every step's output is checked: the report validates against
``REPORT_JSON_SCHEMA`` and is byte-identical across rounds, its counts and
dimensions equal the library's on the same points, and ``dim_box`` falls in
the workload's acceptance window. A failed check or a non-zero exit counts as
a failed operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Quartiles, sample counts, checks,
spans and a host probe (load average, steal time, CPU model, versions) go to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``. The benchmark drops no
caches and pins no CPUs. It exits with code 2 and prints no result when the
checkout holds no ``src/dimest``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
STEPS = BENCH / "steps.py"

# A run must end within 180 s; a worker still running at this point is killed.
RUN_LIMIT_S = 170.0
SETUP_EVERY = 2  # rounds per fresh-interpreter setup sample
LIBRARY_KMIN, LIBRARY_KMAX = 3, 14
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

SIERPINSKI_DIM = math.log2(3.0)


@dataclass(frozen=True)
class Inputs:
    seed: int
    orbit_seed: tuple
    rng_seed: int


def make_inputs(seed: int) -> Inputs:
    """Seed 0 is the canonical input; any other seed perturbs it reproducibly."""
    if seed == 0:
        return Inputs(seed, (0.0, 0.0), 0)
    rng = random.Random(seed)
    # Starts this close to the origin reach the attractor, as (0, 0) does.
    return Inputs(seed, (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)), seed % 2**63)


@dataclass(frozen=True)
class Workload:
    kind: str  # "henon" or "sierpinski"
    samples: int
    window: tuple  # acceptance window of dim_box (and dim_box_volume)
    report_flags: tuple  # scale flags of `dimest report`; empty for the library
    volume: bool = False

    @property
    def cli(self) -> bool:
        return bool(self.report_flags)

    def command(self, inputs: Inputs) -> dict:
        """The worker request for one repetition of the workload's steps."""
        if not self.cli:
            return {"library": {"seed": list(inputs.orbit_seed), "samples": self.samples,
                                "kmin": LIBRARY_KMIN, "kmax": LIBRARY_KMAX}}
        if self.kind == "henon":
            x, y = inputs.orbit_seed
            generate = ["generate", "henon", "--seed-x", repr(x), "--seed-y", repr(y)]
        else:
            generate = ["generate", "sierpinski", "--rng-seed", str(inputs.rng_seed)]
        generate += ["--transient", "1000", "--samples", str(self.samples), "--out", "points.csv"]
        report = ["report", "--in", "points.csv", *self.report_flags,
                  *(["--volume"] if self.volume else []), "--json", "report.json"]
        return {"cli": [["generate", generate], ["estimate", report]]}


WORKLOADS = {
    "cli-henon": Workload("henon", 200_000, (1.20, 1.30), ("--kmin", "3", "--kmax", "7")),
    "library-deep": Workload("henon", 1_000_000, (1.20, 1.30), ()),
    "volume-explicit": Workload(
        "sierpinski",
        100_000,
        (SIERPINSKI_DIM - 0.05, SIERPINSKI_DIM + 0.05),
        ("--epsilons", "0.012,0.008,0.006,0.004"),
        volume=True,
    ),
}


def summary(values: list) -> dict:
    """Median, quartiles and sample count."""
    vals = sorted(values)
    if not vals:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1 = q3 = vals[0]
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def _read(path: str):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _last_line(path: Path) -> str:
    lines = (_read(str(path)) or "").strip().splitlines()
    return lines[-1] if lines else ""


def host_probe() -> dict:
    """Load average and cumulative steal time, read from /proc."""
    loadavg = _read("/proc/loadavg")
    stat = _read("/proc/stat")
    steal = None
    if stat:
        fields = stat.splitlines()[0].split()
        if fields[0] == "cpu" and len(fields) > 8:
            steal = int(fields[8])
    return {
        "unix_time": time.time(),
        "loadavg": [float(v) for v in loadavg.split()[:3]] if loadavg else None,
        "steal_jiffies": steal,
    }


def host_info() -> dict:
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    models = {line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": sorted(models),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches_dropped": False,
        "cpus_pinned": False,
        "note": "no caches were dropped and no CPUs were pinned; only the benchmark's own processes were measured",
    }


class Worker:
    """A ``steps.py`` process that runs the workload's steps on request."""

    def __init__(self, workdir: Path, traced: bool, deadline: float):
        self.err_path = workdir / f"worker{'-traced' if traced else ''}.err"
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(STEPS), *(["--spans"] if traced else [])],
                cwd=workdir, env=CHILD_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err, text=True,
            )
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def ask(self, command: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        if not line:
            return {"error": f"worker ended: {_last_line(self.err_path)}"}
        return json.loads(line)

    @property
    def killed(self) -> bool:
        return self.proc.poll() is not None and self.proc.returncode < 0

    def close(self) -> None:
        """End the worker and wait for it."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.close()


class Run:
    """State of one benchmark run: samples, failures and traces."""

    def __init__(self, workload: Workload, inputs: Inputs, trace: bool, workdir: Path, deadline: float):
        self.workload = workload
        self.inputs = inputs
        self.trace = trace
        self.workdir = workdir
        self.deadline = deadline
        self.samples: dict = defaultdict(list)
        self.attempted = 0
        self.failures: list = []
        self.first_report: str | None = None
        self.first_csv_digest: str | None = None
        self.traced_steps: list = []
        self.missing_spans: set = set()
        self.workers: dict = {}

    # -- processes -------------------------------------------------------

    def setup_sample(self) -> None:
        """Time one fresh interpreter that imports ``dimest.cli``."""
        err_path = self.workdir / "setup.err"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", "import dimest.cli"],
                                    cwd=self.workdir, env=CHILD_ENV, stdout=err, stderr=err)
            # A blocking wait: ``wait(timeout=...)`` polls, which rounds the
            # time up to its 50-ms polling steps.
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        if self.operation("setup", [] if code == 0 else [f"exit code {code}: {_last_line(err_path)}"]):
            self.samples["setup_s"].append(wall)

    def operation(self, what: str, problems: list) -> bool:
        """Count one attempted operation; record it as failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failures.append({"operation": what, "problems": problems})
        return not problems

    # -- checks ----------------------------------------------------------

    def check_report(self, text: str, ref) -> list:
        """Problems with one report text; ``ref`` holds the library's numbers."""
        import jsonschema
        from dimest import REPORT_JSON_SCHEMA

        problems = []
        try:
            report = json.loads(text)
            jsonschema.validate(report, REPORT_JSON_SCHEMA)
        except (ValueError, jsonschema.ValidationError) as exc:
            return [f"report is not valid: {str(exc).splitlines()[0]}"]
        if self.first_report is None:
            self.first_report = text
        elif text != self.first_report:
            problems.append("report differs from the first round's")
        lo, hi = self.workload.window
        if not lo <= report["dim_box"] <= hi:
            problems.append(f"dim_box {report['dim_box']} outside [{lo}, {hi}]")
        fit = report["fit_box"]
        implied = [
            round(2.0 ** (fit["slope"] * k + fit["intercept"] + r))
            for k, r in zip(ref["ks"], fit["residuals"])
        ]
        if implied != ref["counts"]:
            problems.append(f"report counts {implied} != library count_series {ref['counts']}")
        for key in ("dim_box", "dim_info"):
            if key in ref and report[key] != ref[key]:
                problems.append(f"{key} {report[key]} != library {ref[key]}")
        if report["config"].get("n_points") != self.workload.samples:
            problems.append(f"n_points {report['config'].get('n_points')} != {self.workload.samples}")
        if self.workload.volume:
            vol = report["dim_box_volume"]
            if vol is None or not lo <= vol <= hi:
                problems.append(f"dim_box_volume {vol} outside [{lo}, {hi}]")
        return problems

    def check_csv(self) -> list:
        path = self.workdir / "points.csv"
        if not path.is_file():
            return ["no points.csv written"]
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.first_csv_digest is None:
            self.first_csv_digest = digest
        elif digest != self.first_csv_digest:
            return ["points.csv differs from the first round's"]
        return []

    def check_library(self, answer: dict, ref) -> list:
        import dimest
        import numpy as np

        counts = answer["counts"]
        fit = dimest.loglog_fit(answer["ks"], np.log2(counts))
        problems = self.check_report(answer["report"], dict(ref, ks=answer["ks"], counts=counts,
                                                            dim_box=fit.slope))
        if answer["occupied"] != counts:
            problems.append("entropy_series occupied != count_series counts")
        if any(not (a <= b <= 4 * a) for a, b in zip(counts, counts[1:])):
            problems.append(f"counts {counts} break n_k <= n_k+1 <= 4 n_k")
        return problems

    # -- steps -----------------------------------------------------------

    def repetition(self, ref, traced: bool, calibrate: bool = True):
        """One pass of the workload's steps in a worker; its answer or None."""
        for name in ("points.csv", "report.json"):
            (self.workdir / name).unlink(missing_ok=True)
        command = dict(self.workload.command(self.inputs), calibrate=calibrate)
        answer = self.workers[traced].ask(command)
        label = " (traced)" if traced else ""
        if "error" in answer:
            for step in ("generate", "estimate"):
                self.operation(f"{step}{label}", [answer["error"]])
            return None
        ok = True
        for step in ("generate", "estimate"):
            code = answer.get("codes", {}).get(step, 0 if step in answer["times"] else None)
            if code is None:
                problems = ["not run: generate failed"]
            elif code != 0:
                problems = [f"exit code {code}: {_last_line(self.workers[traced].err_path)}"]
            elif not self.workload.cli:
                problems = self.check_library(answer, ref) if step == "estimate" else []
            elif step == "generate":
                problems = self.check_csv()
            else:
                text = _read(str(self.workdir / "report.json"))
                problems = self.check_report(text, ref) if text else ["no report.json written"]
            ok = self.operation(f"{step}{label}", problems) and ok
        if not ok:
            return None
        if traced:
            self.missing_spans.update(answer["missing"])
            for step, wall in answer["times"].items():
                self.traced_steps.append({"step": step, "wall_s": wall, "spans": answer["spans"][step]})
        self.samples["host.calib_s"] += answer["calib"]
        return answer

    # -- rounds ----------------------------------------------------------

    def round(self, index: int, ref) -> None:
        if not self.trace and index % SETUP_EVERY == 0:
            self.setup_sample()
        if self.trace:
            # Alternate which goes first, so drift does not favour either.
            order = (False, True) if index % 2 == 0 else (True, False)
            mark = len(self.traced_steps)
            results = {traced: self.repetition(ref, traced) for traced in order}
            if None not in results.values():
                overhead = sum(results[True]["times"].values()) - sum(results[False]["times"].values())
                self.samples["trace.overhead_s"].append(overhead)
                for metric, value in layer_metrics(self.traced_steps[mark:]).items():
                    self.samples[metric].append(value)
        else:
            answer = self.repetition(ref, False)
            if answer is not None:
                calibs = answer["calib"]
                for i, step in enumerate(("generate", "estimate")):
                    wall = answer["times"][step]
                    self.samples[f"{step}_wall_s"].append(wall)
                    self.samples[f"{step}_s"].append(calib.scaled(wall, calibs[i], calibs[i + 1]))

    @property
    def killed(self) -> bool:
        return any(worker.killed for worker in self.workers.values())


def layer_metrics(steps: list) -> dict:
    """Per-layer self times and counts of one round's traced steps.

    A span's self time is its duration minus that of its child spans; the
    step time not covered by top-level spans is ``cli.self_s``. So the
    ``*_s`` layer metrics and ``cli.self_s`` add up to the step times.
    """
    from spans import SPAN_METRIC

    values = defaultdict(float)
    for metric in set(SPAN_METRIC.values()):
        values[metric] = 0.0
    for key in ("fileio.csv_bytes", "geometry.points_indexed", "boxcount.occupancy_scans",
                "boxcount.occupied_cells", "boxcount.volume_cells_queried",
                "boxcount.volume_cells_marked"):
        values[key] = 0
    values["cli.self_s"] = 0.0
    for step in steps:
        children = defaultdict(float)
        for span in step["spans"]:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        covered = 0.0
        for span in step["spans"]:
            duration = span["end"] - span["start"]
            values[SPAN_METRIC[span["name"]]] += duration - children[span["id"]]
            if span["parent"] is None:
                covered += duration
            for key, count in span["counts"].items():
                values[key] += count
        values["cli.self_s"] += step["wall_s"] - covered
    queried = values["boxcount.volume_cells_queried"]
    values["boxcount.volume_useful_ratio"] = (
        values["boxcount.volume_cells_marked"] / queried if queried else 0.0
    )
    return dict(values)


def reference(workload: Workload, inputs: Inputs) -> dict:
    """The library's counts and dimensions on the points the CLI writes."""
    import dimest

    if not workload.cli:
        return {}
    if workload.kind == "henon":
        cloud = dimest.henon_orbit(dimest.HenonParams(seed=inputs.orbit_seed, transient=1000,
                                                      samples=workload.samples))
    else:
        cloud = dimest.ifs_chaos_game(dimest.sierpinski_spec(
            workload.samples, rng_seed=inputs.rng_seed, transient=1000))
    flags = dict(zip(workload.report_flags[::2], workload.report_flags[1::2]))
    if "--epsilons" in flags:
        schedule = dimest.ScaleSchedule.from_epsilons(float(v) for v in flags["--epsilons"].split(","))
    else:
        schedule = dimest.ScaleSchedule.dyadic(int(flags["--kmin"]), int(flags["--kmax"]))
    counts = dimest.count_series(cloud, schedule)
    report = dimest.build_report(counts, dimest.entropy_series(cloud, schedule))
    return {
        "ks": [float(k) for k in schedule.ks],
        "counts": [int(c) for c in counts.counts],
        "dim_box": report.dim_box,
        "dim_info": report.dim_info,
    }


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "seconds": spec["run_seconds"],
        "e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "dimest" / "__init__.py").is_file():
        print(f"bench: no dimest package under {SRC}; run from a dimest checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dimest

    if Path(dimest.__file__).resolve().parent != (SRC / "dimest").resolve():
        print(f"bench: imported dimest from {dimest.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    inputs = make_inputs(args.seed)
    run = Run(WORKLOADS[args.workload], inputs, bool(args.trace), workdir, started + RUN_LIMIT_S)
    before = host_probe()
    try:
        for traced in ((False, True) if run.trace else (False,)):
            run.workers[traced] = Worker(workdir, traced, run.deadline)
        ref = reference(run.workload, inputs)
        # Untimed warm-up: the first pass fills the page cache and lazy imports.
        for traced in run.workers:
            warm_up = run.repetition(ref, traced, calibrate=False)
            if warm_up is None:
                print(f"bench: warm-up failed: {run.failures[-1]}", file=sys.stderr)
                return 1
        run.traced_steps.clear()
        run.samples.clear()
        if not run.trace:
            run.samples["peak_rss_mb"].append(warm_up["maxrss_mb"])
        measure_start = time.monotonic()
        rounds = 0
        while True:
            run.round(rounds, ref)
            rounds += 1
            now = time.monotonic()
            mean_round = (now - measure_start) / rounds
            if run.killed or now + mean_round > run.deadline:
                break
            # Stop when the next round would end nearer past --seconds than
            # stopping now ends before it.
            if rounds >= 2 and now - measure_start + mean_round / 2 > args.seconds:
                break
        measured_s = time.monotonic() - measure_start
        for worker in run.workers.values():
            worker.close()
    finally:
        for worker in run.workers.values():
            worker.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    after = host_probe()

    failed = len(run.failures)
    run.samples["error_rate"].append(failed / max(run.attempted, 1))
    wanted = spec["layer"] if run.trace else spec["e2e"]
    stats = {name: dict(summary(run.samples.get(name, [])), unit=unit) for name, unit in wanted.items()}
    correct = failed == 0 and all(s["n"] > 0 for s in stats.values())

    detail = {
        "workload": args.workload,
        "why": spec["why"].get(args.workload),
        "seed": args.seed,
        "inputs": {"orbit_seed": list(inputs.orbit_seed), "rng_seed": inputs.rng_seed},
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": rounds,
        "measured_s": measured_s,
        "metrics": stats,
        "samples": dict(run.samples),
        "checks": {"attempted": run.attempted, "failed": failed, "failures": run.failures},
        "host": dict(host_info(), before=before, after=after),
    }
    if run.trace:
        detail["spans"] = {
            "steps": run.traced_steps,
            "missing": sorted(run.missing_spans),
            "volume_cells_queried": "computed from the bounding box inflated by eps and the fine step eps/4",
        }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds in "
          f"{measured_s:.1f} s, {run.attempted} operations, {failed} failed")
    for name, s in stats.items():
        if s["n"]:
            print(f"  {name:32s} {s['median']:.6g} {s['unit']}  "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        else:
            print(f"  {name:32s} no samples")
    for failure in run.failures:
        print(f"  FAILED {failure['operation']}: {'; '.join(failure['problems'])}")
    print(f"  details: {result_path.relative_to(ROOT)}")
    metrics = {
        name: {"value": s["median"] if s["n"] else 0.0, "unit": s["unit"]} for name, s in stats.items()
    }
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
