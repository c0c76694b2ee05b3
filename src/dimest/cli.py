"""Command-line front end.

Four subcommands form reproducible pipelines over point-cloud CSV files:

    dimest generate {henon|cantor|sierpinski|segment|square} --out points.csv
    dimest count   --in points.csv --kmin 3 --kmax 7
    dimest entropy --in points.csv --kmin 3 --kmax 7
    dimest report  --in points.csv --kmin 3 --kmax 7 --json report.json

All state comes from flags (environment variables are never consulted) and
every generator is seeded, so running the same command twice produces byte
identical output. Files are written atomically (temp file + rename). Exit
codes: 0 success, 1 input error (or scipy missing for --volume), 2
numerical/degenerate-fit error; errors are single lines on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import __version__
from .boxcount import count_series, occupancy_series, volume_estimates
from .errors import InputError, NumericalError
from .estimation import build_report
from .fileio import atomic_open, load_points_csv, save_points_csv
from .generators import (
    HenonParams,
    cantor_points,
    henon_orbit,
    ifs_chaos_game,
    sierpinski_spec,
    uniform_segment,
    uniform_square,
)
from .geometry import ScaleSchedule
from .infodim import entropy_series

__all__ = ["build_parser", "run", "main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as input errors (exit 1)."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    """Full-precision, round-trippable float formatting."""
    return repr(float(value))


def _fmt_k(k: float) -> str:
    k = float(k)
    return str(int(k)) if k.is_integer() else repr(k)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dimest", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dimest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="generate a point cloud CSV")
    gen.add_argument("kind", choices=list(_GENERATORS))
    gen.add_argument("--a", type=float, default=1.4, help="quadratic coefficient (default 1.4)")
    gen.add_argument("--b", type=float, default=0.3, help="linear coefficient (default 0.3)")
    gen.add_argument("--seed-x", type=float, default=0.0, help="orbit start x (default 0)")
    gen.add_argument("--seed-y", type=float, default=0.0, help="orbit start y (default 0)")
    gen.add_argument(
        "--transient", type=int, default=1000, help="iterates discarded before sampling"
    )
    gen.add_argument(
        "--samples", type=int, default=1_000_000, help="points kept (default 1000000)"
    )
    gen.add_argument("--level", type=int, default=12, help="construction depth for cantor")
    gen.add_argument("--rng-seed", type=int, default=0, help="chaos-game stream seed")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(func=_cmd_generate)

    def scale_flags(p):
        p.add_argument("--in", dest="infile", required=True, help="input points CSV")
        p.add_argument("--kmin", type=int, default=3, help="coarsest dyadic exponent (default 3)")
        p.add_argument("--kmax", type=int, default=7, help="finest dyadic exponent (default 7)")
        p.add_argument(
            "--epsilons",
            default=None,
            help="explicit comma-separated scales, overrides --kmin/--kmax",
        )
        p.add_argument(
            "--anchor",
            choices=["min", "origin"],
            default="min",
            help="grid anchor: cloud bounding-box minimum (default) or the origin",
        )
        p.add_argument(
            "--workers", type=int, default=1, help="ignored (no-op), kept so old command lines run"
        )

    cnt = sub.add_parser("count", help="occupied-box counts per scale")
    scale_flags(cnt)
    cnt.add_argument("--out", default=None, help="output CSV path (default stdout)")
    cnt.add_argument("--histogram", default=None, help="also dump per-cell counts as JSON")
    cnt.set_defaults(func=_cmd_count)

    ent = sub.add_parser("entropy", help="occupancy Shannon information per scale")
    scale_flags(ent)
    ent.add_argument("--out", default=None, help="output CSV path (default stdout)")
    ent.set_defaults(func=_cmd_entropy)

    rep = sub.add_parser("report", help="consolidated dimension report as JSON")
    scale_flags(rep)
    rep.add_argument(
        "--reference-dim",
        type=float,
        default=None,
        help="analytic reference dimension to check the ordering against",
    )
    rep.add_argument(
        "--volume",
        action="store_true",
        help="also run the neighborhood-volume estimator (d <= 3)",
    )
    rep.add_argument(
        "--tolerance", type=float, default=0.05, help="ordering-check slack (default 0.05)"
    )
    rep.add_argument(
        "--gap-threshold",
        type=float,
        default=0.1,
        help="max per-scale log2(n)-S gap for the uniform-occupancy check (default 0.1)",
    )
    rep.add_argument("--json", dest="json_out", default=None, help="report path (default stdout)")
    rep.set_defaults(func=_cmd_report)
    return parser


def _resolve_schedule(args) -> ScaleSchedule:
    if args.epsilons is not None:
        try:
            values = [float(v) for v in args.epsilons.split(",") if v.strip()]
        except ValueError:
            raise InputError(f"cannot parse --epsilons {args.epsilons!r}") from None
        return ScaleSchedule.from_epsilons(values)
    return ScaleSchedule.dyadic(args.kmin, args.kmax)


def _emit(*outputs) -> None:
    """Write each ``(text, path)``: every file opened first, stdout (path None) last."""
    with contextlib.ExitStack() as stack:
        files = [(stack.enter_context(atomic_open(p)), t) for t, p in outputs if p is not None]
        for handle, text in files:
            handle.write(text)
    sys.stdout.write("".join(text for text, path in outputs if path is None))


# kind -> (cloud from the flags, provenance after "dimest generate <kind>"). Names
# are looked up at call time, so wrappers set on this module's names see each call.
_GENERATORS = {
    "henon": (
        lambda a: henon_orbit(HenonParams(a.a, a.b, (a.seed_x, a.seed_y), a.transient, a.samples)),
        lambda a: f"a={_fmt(a.a)} b={_fmt(a.b)} seed=({_fmt(a.seed_x)},{_fmt(a.seed_y)})"
        f" transient={a.transient} samples={a.samples}",
    ),
    "cantor": (lambda a: cantor_points(a.level), lambda a: f"level={a.level}"),
    "sierpinski": (
        lambda a: ifs_chaos_game(sierpinski_spec(a.samples, a.rng_seed, a.transient)),
        lambda a: f"samples={a.samples} rng_seed={a.rng_seed} transient={a.transient}",
    ),
    "segment": (lambda a: uniform_segment(a.samples), lambda a: f"samples={a.samples}"),
    "square": (lambda a: uniform_square(a.samples), lambda a: f"samples={a.samples}"),
}


def _cmd_generate(args) -> int:
    make, about = _GENERATORS[args.kind]
    save_points_csv(make(args), args.out, comments=[f"dimest generate {args.kind} {about(args)}"])
    return EXIT_OK


def _load_with_schedule(args):
    cloud = load_points_csv(args.infile)
    anchor = np.zeros(cloud.dim) if args.anchor == "origin" else None
    return cloud, _resolve_schedule(args), anchor


def _cmd_count(args) -> int:
    cloud, schedule, anchor = _load_with_schedule(args)
    # Histograms first: the counts then reuse their pass.
    hists = occupancy_series(cloud, schedule, anchor) if args.histogram is not None else None
    series = count_series(cloud, schedule, anchor)
    lines = ["k,epsilon,count"]
    lines += [f"{_fmt_k(k)},{_fmt(e)},{c}" for k, e, c in series.entries]
    outputs = [("\n".join(lines) + "\n", args.out)]
    if hists is not None:
        scales = []
        for k, hist in zip(schedule.ks, hists):
            rows, counts = hist.indices.tolist(), hist.counts.tolist()
            cells = {",".join(map(str, row)): c for row, c in zip(rows, counts)}
            scales.append(
                {
                    "k": float(k),
                    "epsilon": hist.epsilon,
                    "total": hist.total,
                    "cells": cells,
                }
            )
        dump = {"anchor": [float(a) for a in series.anchor], "scales": scales}
        outputs.append((json.dumps(dump, indent=2) + "\n", args.histogram))
    _emit(*outputs)
    return EXIT_OK


def _cmd_entropy(args) -> int:
    series = entropy_series(*_load_with_schedule(args))
    lines = ["k,epsilon,occupied,entropy_bits"]
    lines += [
        f"{_fmt_k(k)},{_fmt(e)},{n},{_fmt(s)}"
        for k, (e, s, n) in zip(series.ks, series.entries)
    ]
    _emit(("\n".join(lines) + "\n", args.out))
    return EXIT_OK


def _cmd_report(args) -> int:
    cloud, schedule, anchor = _load_with_schedule(args)
    counts = count_series(cloud, schedule, anchor)
    entropies = entropy_series(cloud, schedule, anchor)
    volumes = None
    if args.volume:
        volumes = volume_estimates(cloud, schedule.epsilons)
    # The no-op thread-count flag is deliberately absent, so reports from
    # any setting of it are byte identical.
    config = {
        "command": "report",
        "input": args.infile,
        "kmin": args.kmin,
        "kmax": args.kmax,
        "explicit_epsilons": args.epsilons,
        "anchor_mode": args.anchor,
        "volume": bool(args.volume),
        "version": __version__,
    }
    report = build_report(
        counts,
        entropies,
        volume_estimates=volumes,
        reference_dim=args.reference_dim,
        tolerance=args.tolerance,
        gap_threshold=args.gap_threshold,
        config=config,
    )
    _emit((report.to_json(), args.json_out))
    return EXIT_OK


def run(argv=None) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except InputError as exc:
        print(f"dimest: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"dimest: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ImportError) as exc:  # ImportError: scipy missing for --volume
        print(f"dimest: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"dimest: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
