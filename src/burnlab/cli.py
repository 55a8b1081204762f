"""Command line front end: ironing tables, single-profile evaluation, the
prior-free benchmark, incentive audits, and experiment reproduction."""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys

import numpy as np

from .audit import (DSIC_TOL, audit_mechanism, check_dsic,
                    check_payment_identity, extract_interim_rule)
from .benchmark import two_price_benchmark
from .benchmark import full_surplus as profile_full_surplus
from .common import VERSION, MechanismEval, substream
from .distributions import distribution_from_spec, load_profile, sample_profile
from .ironing import DEFAULT_GRID, iron
from .mechanisms import (RSOL_EXACT_CAP, bayes_optimal_outcome,
                         expected_log_price, expected_p_lottery,
                         expected_pq_lottery, expected_rsol,
                         mixed_vickrey_lottery, vickrey)
from .simlab import EXPERIMENT_NAMES, parse_config, run_experiment, write_rows


@contextlib.contextmanager
def _out_stream(path: str | None):
    if path:
        with open(path, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_csv(path: str | None, header, rows) -> None:
    with _out_stream(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_iron(args) -> int:
    iv = iron(distribution_from_spec(args.dist), grid=args.grid)
    _write_csv(args.out, ["q", "v", "theta", "H", "G", "phibar", "ironed_flag"],
               zip(iv.q, iv.v, iv.theta, iv.H, iv.G, iv.phibar,
                   iv.ironed_flag.astype(int)))
    return 0


def _exact(value: float) -> MechanismEval:
    return MechanismEval(float(value), 0.0, "exact", 1)


def _eval_bayes(args, prof):
    if not args.dist:
        raise ValueError("--dist: eval --mech bayes requires it")
    grid = DEFAULT_GRID if args.grid is None else args.grid
    iv = iron(distribution_from_spec(args.dist), grid=grid)
    return (_exact(bayes_optimal_outcome(iv, prof, args.k).residual_surplus),
            f"dist={args.dist};grid={grid}")


def _eval_rsol(args, prof):
    exact = args.exact or (args.reps is None and prof.n <= RSOL_EXACT_CAP)
    ev = expected_rsol(prof, args.k, mode="exact" if exact else "mc",
                       reps=10_000 if args.reps is None else args.reps,
                       seed=args.seed)
    return ev, "mode=exact" if exact else f"mode=mc;reps={ev.replicates}"


# mechanism -> (the optional eval flags it reads, giving it any other is an
# error; its evaluator (args, profile) -> (MechanismEval, params column))
EVALUATORS = {
    "plottery": (("p",), lambda a, prof: (
        _exact(expected_p_lottery(prof, a.k, a.p or 0.0)), f"p={a.p or 0.0}")),
    "pqlottery": (("p", "q"), lambda a, prof: (
        _exact(expected_pq_lottery(prof, a.k, a.p or 0.0, a.q or 0.0)),
        f"p={a.p or 0.0};q={a.q or 0.0}")),
    "vickrey": ((), lambda a, prof: (
        _exact(vickrey(prof, a.k).residual_surplus), "-")),
    "bayes": (("dist", "grid"), _eval_bayes),
    "rsol": (("reps", "exact"), _eval_rsol),
    "mix": ((), lambda a, prof: (mixed_vickrey_lottery(prof, a.k), "-")),
    "logprice": ((), lambda a, prof: (
        _exact(expected_log_price(prof, a.k)), "-")),
}
EVAL_MECHS = tuple(EVALUATORS)
AUDIT_MECHS = EVAL_MECHS + ("firstprice",)


def _cmd_eval(args) -> int:
    flags, evaluate = EVALUATORS[args.mech]
    for flag in sorted({f for fl, _ in EVALUATORS.values() for f in fl}):
        if getattr(args, flag) is not None and flag not in flags:
            raise ValueError(f"--{flag}: eval --mech {args.mech} does not read it")
    if args.exact and args.reps is not None:
        raise ValueError("--exact: exact mode takes no --reps")
    prof = load_profile(args.profile)
    ev, params = evaluate(args, prof)
    _write_csv(args.out, ["mech", "n", "k", "params", "expected_residual",
                          "ci_lo", "ci_hi", "seed"],
               [[args.mech, prof.n, args.k, params, ev.mean, ev.ci[0], ev.ci[1],
                 args.seed]])
    return 0


def _cmd_benchmark(args) -> int:
    prof = load_profile(args.profile)
    res = two_price_benchmark(prof, args.k)
    _write_csv(args.out, ["G", "p", "q", "best_single_value", "best_single_p",
                          "full_surplus"],
               [[res.value, res.p, res.q, res.single_value, res.single_p,
                 profile_full_surplus(prof, args.k)]])
    return 0


def _cmd_audit(args) -> int:
    if args.profiles < 1:
        raise ValueError(f"--profiles: need at least 1, got {args.profiles}")
    d = distribution_from_spec(args.dist)
    iv = iron(d) if args.mech == "bayes" else None
    mech = audit_mechanism(args.mech, args.k, p=args.p, q=args.q, iv=iv)
    rows = []
    all_passed = True
    for idx in range(args.profiles):
        prof = sample_profile(d, args.n, substream(args.seed, "audit", idx))
        hi = 1.25 * max(float(prof.values.max()), args.p, args.q, 1e-9)
        dsic = check_dsic(mech, prof, np.linspace(0.0, hi, 64), tol=DSIC_TOL)
        rows.append([args.mech, idx, "dsic", dsic.passed, dsic.max_gain,
                     dsic.agent, dsic.bid])
        pays = [check_payment_identity(
                    extract_interim_rule(mech, prof, i, np.linspace(0.0, hi, 256)),
                    tol=DSIC_TOL) for i in range(prof.n)]
        worst = max(pays, key=lambda rep: rep.max_error)
        ok = all(rep.passed for rep in pays)
        rows.append([args.mech, idx, "payment", ok, worst.max_error, worst.agent, ""])
        all_passed &= dsic.passed and ok
    _write_csv(args.out, ["mech", "profile", "check", "passed", "max_violation",
                          "agent", "bid"], rows)
    return 0 if all_passed else 1


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        config = parse_config(fh.read(), experiment=args.name)
    rows = run_experiment(config)
    out = args.out or config.out or None
    with _out_stream(out) as fh:
        write_rows(rows, fh, config.seed)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burnlab",
        description="Laboratory for mechanisms that maximize residual surplus "
                    "when payments are burned.")
    parser.add_argument("--version", action="version",
                        version=f"burnlab {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iron", help="tabulate the ironed virtual value")
    p.add_argument("--dist", required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_iron)

    p = sub.add_parser("eval", help="evaluate one mechanism on one profile")
    p.add_argument("--mech", required=True, choices=EVAL_MECHS)
    p.add_argument("--profile", required=True)
    p.add_argument("--k", type=int, required=True)
    # optional flags default to None, so that _cmd_eval sees which were given
    p.add_argument("--p", type=float, help="price (default 0)")
    p.add_argument("--q", type=float, help="lower price (default 0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int)
    p.add_argument("--exact", action="store_true", default=None)
    p.add_argument("--dist")
    p.add_argument("--grid", type=int, help=f"default {DEFAULT_GRID}")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("benchmark", help="two-price benchmark for a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_benchmark)

    p = sub.add_parser("audit", help="incentive checks on sampled profiles")
    p.add_argument("--mech", required=True, choices=AUDIT_MECHS)
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--profiles", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("experiment", help="run a reproducible experiment")
    p.add_argument("--name", required=True, choices=EXPERIMENT_NAMES)
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    """Run one command. Exit status 0 on success, 1 when an audit finds a
    violation, 2 on bad input (one line on stderr, no traceback)."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"burnlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
