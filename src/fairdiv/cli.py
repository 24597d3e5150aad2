"""Command-line interface.

Subcommands::

    fairdiv gen --family ef1-unscaled --n 4 -o inst.json
    fairdiv gen --family random --n 4 --m 7 --seed 42 -o inst.json
    fairdiv check --property ef1 --instance f.json --allocation a.json
    fairdiv solve --alg ef1 --instance f.json -o alloc.json [--trace]
    fairdiv solve --alg half-mms --instance f.json --epsilon 1/10 -o a.json
    fairdiv mms --instance f.json [--epsilon p/q]
    fairdiv pof --instance f.json --property ef1
    fairdiv rescale --instance f.json -o scaled.json
    fairdiv experiment --config exp.json -o report/

`check` exits 0 when the property holds and 1 when it fails, printing the
JSON verdict either way. An error, a file that cannot be read or written
included, exits 2 with one ``error:`` line, and so does an option the
chosen algorithm or property does not take (`--alpha` belongs to the mms
property, `--reference` to ef1 on a scaled instance and `--epsilon` to
half-mms). `solve --trace` adds the high-welfare run's steps as
``"trace": [{"phase", "agent", "bundle", "label"}, ...]`` (1-based agent
and goods; see `fairdiv.model.Event`).

`main` may be called repeatedly in one process; every call reuses one
parser.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .errors import FairdivError
from .fairness import is_alpha_mms, is_ef1, is_prop1, nonnegative_alpha
from .generators import RANDOM_DISTRIBUTIONS, generate
from .mms import run_solve_half_mms
from .ef1 import run_solve_ef1
from .model import (allocation_to_json, format_decimal, format_rational,
                    instance_to_json, json_text, load_allocation,
                    load_instance, parse_rational, rescale_instance,
                    save_allocation, save_instance)
from .oracles import mms_profile, price_of_fairness


def _emit(data) -> None:
    sys.stdout.write(json_text(data))


def _cmd_gen(args) -> int:
    eps = None if args.epsilon is None else parse_rational(args.epsilon)
    inst = generate(args.family, args.n, args.m, eps, args.distribution,
                    args.seed)
    if args.output:
        save_instance(inst, args.output)
        _emit({"family": args.family, "n": inst.n, "m": inst.m,
               "scaled": inst.scaled, "path": args.output})
    else:
        _emit(instance_to_json(inst))
    return 0


def _refuse(name: str, option: str, value) -> None:
    """Refuse an option the chosen algorithm or property does not take."""
    if value is not None:
        raise FairdivError(f"{name} takes no {option}")


def _alpha(args):
    """`--alpha` as a nonnegative Fraction, 1/2 if not given, for the mms
    property; None for the others, which refuse it."""
    if args.property != "mms":
        _refuse(f"property {args.property}", "--alpha", args.alpha)
        return None
    if args.alpha is None:
        return Fraction(1, 2)
    return nonnegative_alpha(parse_rational(args.alpha))


def _epsilon(args) -> Fraction:
    """`--epsilon` as a Fraction, 0 if not given."""
    return (Fraction(0) if args.epsilon is None
            else parse_rational(args.epsilon))


def _cmd_check(args) -> int:
    # Checked before the profile, whose oracle is exponential.
    alpha = _alpha(args)
    inst = load_instance(args.instance)
    alloc = load_allocation(args.allocation)
    if args.property == "ef1":
        verdict = is_ef1(inst, alloc)
    elif args.property == "prop1":
        verdict = is_prop1(inst, alloc)
    else:
        verdict = is_alpha_mms(inst, alloc, alpha, mms_profile(inst))
    _emit(verdict.to_json())
    return 0 if verdict.holds else 1


def _cmd_solve(args) -> int:
    ignored = {"ef1": ("--epsilon", args.epsilon),
               "half-mms": ("--reference", args.reference)}[args.alg]
    _refuse(f"algorithm {args.alg}", *ignored)
    inst = load_instance(args.instance)
    if args.alg == "ef1":
        reference = (None if args.reference is None
                     else load_allocation(args.reference))
        run = run_solve_ef1(inst, reference=reference)
    else:
        run = run_solve_half_mms(inst, epsilon=_epsilon(args))
    summary = {"algorithm": args.alg, "branch": run.branch,
               "welfare": format_rational(run.welfare)}
    if args.alg == "half-mms":
        summary["opt"] = format_rational(run.opt)
    if args.trace and run.high_run is not None:
        summary["trace"] = [e.to_json() for e in run.high_run.trace]
    if args.output:
        save_allocation(run.allocation, args.output)
        summary["path"] = args.output
    else:
        summary["allocation"] = allocation_to_json(run.allocation)["bundles"]
    _emit(summary)
    return 0


def _cmd_mms(args) -> int:
    inst = load_instance(args.instance)
    profile = mms_profile(inst, epsilon=_epsilon(args))
    _emit({"mms": [format_rational(x) for x in profile.mms],
           "estimates": [format_rational(x) for x in profile.estimates],
           "epsilon": format_rational(profile.epsilon)})
    return 0


def _cmd_pof(args) -> int:
    alpha = _alpha(args)
    inst = load_instance(args.instance)
    prop = "alpha-mms" if args.property == "mms" else args.property
    opt, price = price_of_fairness(inst, prop, alpha=alpha)
    _emit({"property": args.property, "opt": format_rational(opt),
           "price": "infinite" if price is None else format_rational(price),
           "price_dec": "inf" if price is None else format_decimal(price)})
    return 0


def _cmd_rescale(args) -> int:
    inst = load_instance(args.instance)
    save_instance(rescale_instance(inst), args.output)
    _emit({"path": args.output, "scaled": True})
    return 0


def _cmd_experiment(args) -> int:
    # Imported here, so a one-shot `solve` or `check` does not load the
    # sweep and its process pool.
    from .experiment import load_config, run_experiment
    config = load_config(args.config)
    report = run_experiment(config, outdir=args.output)
    _emit({"rows": len(report.rows), "outdir": args.output})
    return 0


# Built once per process: tests, benchmarks and embedding callers call
# `main` many times, and building the parsers costs more than a small solve.
# An argparse parser is reusable (`parse_args` builds a new Namespace each
# call and leaves the parser unchanged), and no `_cmd_*` handler bound by
# `set_defaults` below is ever rebound.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdiv",
        description="Exact fair-division solvers, oracles, and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--epsilon", help="for the mms-unscaled and supermodular "
                                      "families, which need it")
    p.add_argument("--seed", type=int,
                   help="random seed for the random families, an integer "
                        ">= 0 (default 0; "
                        "the adversarial families are deterministic and "
                        "refuse it)")
    p.add_argument("--distribution", choices=RANDOM_DISTRIBUTIONS,
                   help="for the random family (default uniform-rational)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="check a fairness property")
    p.add_argument("--property", required=True,
                   choices=["ef1", "prop1", "mms"])
    p.add_argument("--alpha", help="for the mms property (default 1/2)")
    p.add_argument("--instance", required=True)
    p.add_argument("--allocation", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="run a fair-allocation solver")
    p.add_argument("--alg", required=True, choices=["ef1", "half-mms"])
    p.add_argument("--instance", required=True)
    p.add_argument("--reference",
                   help="for the ef1 algorithm on a scaled instance")
    p.add_argument("--epsilon", help="for the half-mms algorithm")
    p.add_argument("--trace", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mms", help="exact maximin-share profile")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon")
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("pof", help="per-instance price of fairness")
    p.add_argument("--instance", required=True)
    p.add_argument("--property", required=True,
                   choices=["ef1", "prop1", "mms"])
    p.add_argument("--alpha", help="for the mms property (default 1/2)")
    p.set_defaults(func=_cmd_pof)

    p = sub.add_parser("rescale", help="rescale an additive instance")
    p.add_argument("--instance", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_rescale)

    p = sub.add_parser("experiment", help="run an experiment sweep")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FairdivError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
