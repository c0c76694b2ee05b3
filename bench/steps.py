"""Step worker of the benchmark.

    python3 bench/steps.py [--spans]

Imports ``dimest`` once, then runs one repetition of a workload's steps for
each JSON command line it reads on standard input, in its working directory,
and answers each with one JSON line on standard output. It exits when
standard input closes. Anything the steps print goes to ``step.out``.

Commands:

    {"cli": [[STEP, DIMEST_ARGS], ...], "calibrate": BOOL}
        Runs each ``dimest`` command in process through ``dimest.cli.run``,
        in order, and stops at the first non-zero exit code. Answers
        ``{"times": {STEP: s}, "codes": {STEP: code}}``.

    {"library": {"seed": [X, Y], "samples": N, "kmin": K0, "kmax": K1}, "calibrate": BOOL}
        The README quick start: ``henon_orbit`` (the generate step), then
        ``count_series`` + ``entropy_series`` + ``build_report`` + ``to_json``
        on ``ScaleSchedule.dyadic(K0, K1)`` (the estimate step). Answers the
        step times, the report text and the two series.

Each answer also holds ``"maxrss_mb"``, the worker's peak RSS so far, and
``"calib"``: with ``"calibrate": true``, the times of the calibration kernel
(``calib.py``) run right before the first step and right after each step.
The kernel's input is made on the first such request, so the peak RSS after
an uncalibrated first request is that of the steps alone.

With ``--spans`` every layer is traced (``spans.py``) and each answer also
holds ``{"spans": {STEP: [span, ...]}, "missing": [...]}``. An exception a
step raises is answered as ``{"error": "..."}``.

``dimest`` must be importable (the benchmark puts the checkout's ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import calib
import spans


def _cli(commands, timed) -> dict:
    from dimest.cli import run

    answer = {"codes": {}}
    for step, args in commands:
        code = answer["codes"][step] = timed(step, run, args)
        if code != 0:
            break
    return answer


def _library(params, timed) -> dict:
    import dimest

    cloud = timed("generate", dimest.henon_orbit,
                  dimest.HenonParams(seed=tuple(params["seed"]), samples=params["samples"]))

    def estimate():
        schedule = dimest.ScaleSchedule.dyadic(params["kmin"], params["kmax"])
        counts = dimest.count_series(cloud, schedule)
        entropies = dimest.entropy_series(cloud, schedule)
        return schedule, counts, entropies, dimest.build_report(counts, entropies).to_json()

    schedule, counts, entropies, text = timed("estimate", estimate)
    return {
        "report": text,
        "ks": [float(k) for k in schedule.ks],
        "counts": [int(c) for c in counts.counts],
        "occupied": [int(n) for n in entropies.occupied],
    }


def main(argv) -> int:
    traced = argv == ["--spans"]
    recorder = spans.Recorder()
    if traced:
        recorder.install()
    import dimest.cli  # noqa: F401  (imported before the first command, not during it)

    # Answers go to the original standard output; the steps' own output to a file.
    answers = os.fdopen(os.dup(1), "w")
    sink = os.open("step.out", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    os.dup2(sink, 1)
    os.close(sink)

    keys = None
    for line in sys.stdin:
        command = json.loads(line)
        calibrate = command.get("calibrate", False)
        if calibrate and keys is None:
            keys = calib.make_keys()
        steps = {"times": {}, "spans": {}, "calib": [calib.run_kernel(keys)] if calibrate else []}

        def timed(step, fn, *args):
            mark = len(recorder.spans)
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                steps["times"][step] = time.perf_counter() - start
                steps["spans"][step] = recorder.take(mark)
                if calibrate:
                    steps["calib"].append(calib.run_kernel(keys))

        try:
            if "cli" in command:
                answer = dict(_cli(command["cli"], timed), **steps)
            else:
                answer = dict(_library(command["library"], timed), **steps)
        except Exception:
            answer = {"error": traceback.format_exc().strip().splitlines()[-1]}
        if traced:
            answer["missing"] = recorder.missing
        else:
            answer.pop("spans", None)
        del recorder.spans[:]
        answer["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        answers.write(json.dumps(answer) + "\n")
        answers.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
