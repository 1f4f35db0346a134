"""Command-line interface.

Subcommands: check, build, entropy, optimize, compare, sample, freq,
generic, estimate. Exit codes: 0 success, 1 infeasible or invalid
input, 2 internal failure. All randomness flows from --seed (a fixed
default, never the clock), so identical invocations produce identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .estimators import entropy_estimates
# Kept as cli names because perfbench/spans.py wraps them; cmd_estimate calls neither.
from .estimators import katok_entropy, word_count_entropy  # noqa: F401
from .measures import (OrbitSample, entropy_ladder, load_table,
                       sample_orbits, table_text)
# Kept as a cli name because perfbench/spans.py wraps it; no command calls it.
from .measures import table_to_json  # noqa: F401
from .optimize import ConstraintSet, compare_with_closed_form, solve
from .orbits import generic_point_half, recurrence_profile
from .zeroblock import (FrequencySpec, build_max_entropy_table, check_feasible,
                        entropy_closed_form, telescoping_increments)

DEFAULT_SEED = 123456789


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_spec_flags(p):
    p.add_argument("--a", help="comma-separated target frequencies, e.g. 1/2,1/4")
    p.add_argument("--spec", help="JSON spec file {\"a\": [...], \"tail\": ...}")
    p.add_argument("--geometric", help="ratio r for a_k = r^k")
    p.add_argument("--terms", type=int,
                   help="prefix length for --geometric (default 64)")
    p.add_argument("--tail", choices=["constant", "affine"],
                   help="tail policy for --a (default constant)")


def _spec_from_args(args):
    given = [x for x in (args.a, args.spec, args.geometric) if x is not None]
    if len(given) != 1:
        raise _UsageError("give exactly one of --a, --spec, --geometric")
    if args.tail is not None and args.a is None:
        raise _UsageError("--tail applies only to --a")
    if args.terms is not None and args.geometric is None:
        raise _UsageError("--terms applies only to --geometric")
    if args.a is not None:
        return FrequencySpec.parse(args.a, tail=args.tail or "constant")
    if args.geometric is not None:
        return FrequencySpec.geometric(
            args.geometric, terms=64 if args.terms is None else args.terms)
    with open(args.spec, "r", encoding="utf-8") as fh:
        return FrequencySpec.from_json(json.load(fh))


def _emit(text, path=None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_samples(paths):
    samples = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    samples.append(OrbitSample.from_line(line, source=f"file:{path}"))
    if not samples:
        raise ValueError("no samples found in the given files")
    return samples


def cmd_check(args):
    spec = _spec_from_args(args)
    report = check_feasible(spec, upto=args.upto)
    print("feasible" if report.feasible else report.describe())
    return 0 if report.feasible else 1


def cmd_build(args):
    spec = _spec_from_args(args)
    table = build_max_entropy_table(spec, args.depth)
    _emit(table_text(table), args.out)
    return 0


def cmd_entropy(args):
    spec = _spec_from_args(args)
    units = "bits" if args.bits else "nats"
    closed = entropy_closed_form(spec, truncation=args.truncation, units=units)
    scale = math.log(2) if args.bits else 1.0
    table = build_max_entropy_table(spec, args.depth)
    ladder = entropy_ladder(table)
    phis = telescoping_increments(spec, args.depth - 2) if args.depth >= 3 else []
    worst = 0.0
    for i in range(1, len(ladder)):
        worst = max(worst, abs(phis[i - 1] / scale
                               - (ladder[i][1] - ladder[i - 1][1]) / scale))
    tag = "exact" if closed.exact else "truncated"
    print(f"entropy={closed.value:.6f} {units} ({tag}, J={closed.truncation})")
    print(f"value={closed.value!r}")
    for n, h in ladder:
        print(f"h({n})={h / scale!r}")
    print(f"telescoping_check={worst!r}")
    print(f"ladder_gap={(ladder[-1][1] / scale - closed.value)!r}")
    return 0


def cmd_optimize(args):
    with open(args.constraints, "r", encoding="utf-8") as fh:
        cset = ConstraintSet.from_json(json.load(fh))
    result = solve(args.depth, cset)
    if result.table is not None:
        _emit(table_text(result.table), args.out)
    else:
        print(json.dumps(result.certificate, indent=2, sort_keys=True))
    print(result.summary())
    if result.status == "optimal":
        return 0
    return 1 if result.status == "infeasible" else 2


def cmd_compare(args):
    spec = _spec_from_args(args)
    report = compare_with_closed_form(spec, args.depth)
    print(report.describe())
    print(f"solver_objective={report.solver_objective!r}")
    print(f"built_objective={report.built_objective!r}")
    print(report.result.summary())
    return 0 if report.result.status == "optimal" else 2


def cmd_sample(args):
    if args.table is not None:
        spec_flags = [flag for flag, value in (
            ("--a", args.a), ("--spec", args.spec),
            ("--geometric", args.geometric), ("--tail", args.tail),
            ("--terms", args.terms), ("--depth", args.depth))
            if value is not None]
        if spec_flags:
            raise _UsageError(
                f"--table cannot be combined with {', '.join(spec_flags)}")
        table = load_table(args.table)
    else:
        spec = _spec_from_args(args)
        table = build_max_entropy_table(spec, 6 if args.depth is None else args.depth)
    samples = sample_orbits(table, args.length, args.count, args.seed)
    _emit("".join(s.to_line() + "\n" for s in samples), args.out)
    return 0


def cmd_freq(args):
    samples = _load_samples([args.sample])
    if not 0 <= args.line < len(samples):
        raise ValueError(f"--line {args.line} outside 0..{len(samples) - 1}")
    x = samples[args.line]
    words = [w.strip() for w in args.words.split(",") if w.strip()]
    if not words:
        raise ValueError("--words names no word")
    horizon = args.horizon if args.horizon is not None else len(x)
    targets = None if args.targets is None else args.targets.split(",")
    profile = recurrence_profile(x, words, horizon, targets=targets)
    _emit("\n".join(profile.csv_rows()) + "\n", args.out)
    return 0


def cmd_generic(args):
    point = generic_point_half(args.length)
    _emit(point.to_line() + "\n", args.out)
    return 0


def cmd_estimate(args):
    samples = _load_samples(args.samples)
    total = sum(len(s) for s in samples)
    scale = math.log(2) if args.bits else 1.0
    word_count, katok = (h / scale for h in entropy_estimates(samples, args.n, args.delta))
    print(f"samples={len(samples)} total_bits={total} n={args.n} delta={args.delta}")
    print(f"word_count_entropy={word_count!r}")
    print(f"katok_entropy={katok!r}")
    return 0


@functools.cache   # one parser per process; parsing never mutates it
def _build_parser():
    parser = _Parser(prog="shiftmaxent",
                     description="maximum-entropy invariant measures on the "
                                 "binary shift under cylinder-frequency "
                                 "constraints")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="feasibility of a frequency spec")
    _add_spec_flags(p)
    p.add_argument("--upto", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="build the maximal-entropy table")
    _add_spec_flags(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("entropy", help="closed-form entropy plus the ladder")
    _add_spec_flags(p)
    p.add_argument("--depth", type=int, default=8, help="ladder depth")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("optimize", help="constrained maximum-entropy solve")
    p.add_argument("--constraints", required=True, help="JSON constraint file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compare", help="optimizer vs the explicit table")
    _add_spec_flags(p)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sample", help="draw orbits from a table or spec")
    _add_spec_flags(p)
    p.add_argument("--table", default=None, help="table JSON file")
    p.add_argument("--depth", type=int, default=None,
                   help="build depth for specs (default 6)")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("freq", help="recurrence frequencies of words")
    p.add_argument("--sample", required=True, help="sample file (0/1 lines)")
    p.add_argument("--line", type=int, default=0)
    p.add_argument("--words", required=True, help="comma-separated words")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--targets", default=None, help="comma-separated targets")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("generic", help="the deterministic 0^k 1^k point")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generic)

    p = sub.add_parser("estimate", help="empirical entropy estimators")
    p.add_argument("--samples", nargs="+", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=cmd_estimate)
    return parser


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
