"""Command line front end: ironing tables, single-profile evaluation, the
prior-free benchmark, incentive audits, and experiment reproduction."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
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

EVAL_MECHS = ("plottery", "pqlottery", "vickrey", "bayes", "rsol", "mix",
              "logprice")
AUDIT_MECHS = EVAL_MECHS + ("firstprice",)


@contextlib.contextmanager
def _out_stream(path: str | None):
    if path:
        with open(path, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _cmd_iron(args) -> int:
    d = distribution_from_spec(args.dist)
    iv = iron(d, grid=args.grid)
    flags = iv.ironed_flag.astype(int)
    with _out_stream(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "v", "theta", "H", "G", "phibar", "ironed_flag"])
        for j in range(iv.q.size):
            writer.writerow([iv.q[j], iv.v[j], iv.theta[j], iv.H[j], iv.G[j],
                             iv.phibar[j], flags[j]])
    return 0


def _exact(value: float, replicates: int = 1) -> MechanismEval:
    return MechanismEval(float(value), 0.0, "exact", replicates)


def _cmd_eval(args) -> int:
    prof = load_profile(args.profile)
    n, k = prof.n, args.k
    params = "-"
    if args.mech == "plottery":
        ev = _exact(expected_p_lottery(prof, k, args.p))
        params = f"p={args.p}"
    elif args.mech == "pqlottery":
        ev = _exact(expected_pq_lottery(prof, k, args.p, args.q))
        params = f"p={args.p};q={args.q}"
    elif args.mech == "vickrey":
        ev = _exact(vickrey(prof, k).residual_surplus)
    elif args.mech == "bayes":
        if not args.dist:
            raise SystemExit("eval --mech bayes requires --dist")
        iv = iron(distribution_from_spec(args.dist), grid=args.grid)
        ev = _exact(bayes_optimal_outcome(iv, prof, k).residual_surplus)
        params = f"dist={args.dist};grid={args.grid}"
    elif args.mech == "rsol":
        exact = args.exact or (args.reps is None and n <= RSOL_EXACT_CAP)
        if exact:
            ev = expected_rsol(prof, k, mode="exact")
            params = "mode=exact"
        else:
            reps = args.reps or 10_000
            ev = expected_rsol(prof, k, mode="mc", reps=reps, seed=args.seed)
            params = f"mode=mc;reps={reps}"
    elif args.mech == "mix":
        if k != 1:
            raise SystemExit("the mixture mechanism allocates a single unit")
        ev = mixed_vickrey_lottery(prof)
    else:
        ev = _exact(expected_log_price(prof, k))
    with _out_stream(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["mech", "n", "k", "params", "expected_residual",
                         "ci_lo", "ci_hi", "seed"])
        writer.writerow([args.mech, n, k, params, ev.mean, ev.ci[0], ev.ci[1],
                         args.seed])
    return 0


def _cmd_benchmark(args) -> int:
    prof = load_profile(args.profile)
    res = two_price_benchmark(prof, args.k)
    with _out_stream(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["G", "p", "q", "best_single_value", "best_single_p",
                         "full_surplus"])
        writer.writerow([res.value, res.p, res.q, res.single_value,
                         res.single_p, profile_full_surplus(prof, args.k)])
    return 0


def _cmd_audit(args) -> int:
    d = distribution_from_spec(args.dist)
    iv = iron(d) if args.mech == "bayes" else None
    mech = audit_mechanism(args.mech, args.k, p=args.p, q=args.q, iv=iv)
    rows = []
    all_passed = True
    for idx in range(args.profiles):
        prof = sample_profile(d, args.n, substream(args.seed, "audit", idx))
        hi = 1.25 * max(float(prof.values.max()), args.p, args.q, 1e-9)
        dsic = check_dsic(mech, prof, np.linspace(0.0, hi, 64), tol=DSIC_TOL)
        rows.append([args.mech, idx, "dsic", dsic.passed, dsic.max_gain])
        worst = 0.0
        ok = True
        for i in range(prof.n):
            rule = extract_interim_rule(mech, prof, i, np.linspace(0.0, hi, 256))
            rep = check_payment_identity(rule, tol=DSIC_TOL)
            ok &= rep.passed
            worst = max(worst, rep.max_error)
        rows.append([args.mech, idx, "payment", ok, worst])
        all_passed &= dsic.passed and ok
    with _out_stream(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["mech", "profile", "check", "passed", "max_violation"])
        writer.writerows(rows)
    return 0 if all_passed else 1


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        config = parse_config(fh.read())
    config = dataclasses.replace(config, experiment=args.name)
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
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--dist")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
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
