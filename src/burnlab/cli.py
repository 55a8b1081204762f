"""Command line front end: ironing tables, single-profile evaluation, the
prior-free benchmark, incentive audits, and experiment reproduction."""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys

import numpy as np

from .audit import (CONTROLS, audit_mechanism, check_dsic,
                    check_payment_identity, extract_interim_rule)
from .benchmark import optimal_p_lottery, two_price_benchmark
from .benchmark import full_surplus as profile_full_surplus
from .common import VERSION, MechanismEval, substream
from .distributions import distribution_from_spec, load_profile, sample_profile
from .ironing import DEFAULT_GRID, iron
from .mechanisms import MECHANISMS, evaluate
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


# the optional flags that set each Params field; above its cap an entry's
# Monte Carlo mode also reads --reps and --seed
_FLAGS = {"p": ("p",), "q": ("q",), "iv": ("dist", "grid")}
_MC_FLAGS = ("reps", "seed")


def _reject_unread(args, flags, read, command: str) -> None:
    """Reject the first given flag, in sorted order, not in read."""
    for flag in sorted(flags):
        if getattr(args, flag) is not None and flag not in read:
            raise ValueError(f"--{flag}: {command} does not read it")


def _cmd_eval(args) -> int:
    mech = MECHANISMS[args.mech]
    command = f"eval --mech {args.mech}"
    _reject_unread(args, (*sum(_FLAGS.values(), ()), *_MC_FLAGS),
                   sum((_FLAGS[field] for field in mech.reads),
                       _MC_FLAGS if mech.mc else ()), command)
    prof = load_profile(args.profile)
    mc = prof.n > mech.cap
    if not mc:
        _reject_unread(args, _MC_FLAGS, (), f"{command}, exact on profiles of "
                       f"at most {mech.cap} agents,")
    # the prices default to 0, as in mechanisms.Params
    kw = {f: getattr(args, f) or 0.0 for f in mech.reads if f != "iv"}
    params = [f"{field}={value}" for field, value in kw.items()]
    if "iv" in mech.reads:
        if not args.dist:
            raise ValueError(f"--dist: eval --mech {args.mech} requires it")
        grid = DEFAULT_GRID if args.grid is None else args.grid
        kw["iv"] = iron(distribution_from_spec(args.dist), grid=grid)
        params.append(f"dist={args.dist};grid={grid}")
    if mc:
        ev = mech.mc(prof, args.k, 10_000 if args.reps is None else args.reps,
                     args.seed or 0)
        params.append(f"mode=mc;reps={ev.replicates}")
    else:
        ev = MechanismEval(evaluate(args.mech, prof, args.k, **kw), 0.0,
                           "exact", 1)
        if mech.mc:
            params.append("mode=exact")
    # an exact row's seed is None, written as an empty cell
    _write_csv(args.out, ["mech", "n", "k", "params", "expected_residual",
                          "ci_lo", "ci_hi", "seed"],
               [[args.mech, prof.n, args.k, ";".join(params) or "-", ev.mean,
                 ev.ci[0], ev.ci[1], ev.seed]])
    return 0


def _cmd_benchmark(args) -> int:
    prof = load_profile(args.profile)
    res = two_price_benchmark(prof, args.k)
    _write_csv(args.out, ["G", "p", "q", "best_single_value", "best_single_p",
                          "full_surplus"],
               [[res.value, res.p, res.q, *optimal_p_lottery(prof, args.k),
                 profile_full_surplus(prof, args.k)]])
    return 0


def _cmd_audit(args) -> int:
    if args.profiles < 1:
        raise ValueError(f"--profiles: need at least 1, got {args.profiles}")
    reads = {**MECHANISMS, **CONTROLS}[args.mech].reads
    _reject_unread(args, ("p", "q"), reads, f"audit --mech {args.mech}")
    # only the prices given: the entry defaults the others, as in Params
    prices = {field: getattr(args, field) for field in ("p", "q")
              if getattr(args, field) is not None}
    d = distribution_from_spec(args.dist)
    iv = {"iv": iron(d)} if "iv" in reads else {}
    mech = audit_mechanism(args.mech, args.k, **prices, **iv)
    rows = []
    all_passed = True
    for idx in range(args.profiles):
        prof = sample_profile(d, args.n, substream(args.seed, "audit", idx))
        hi = 1.25 * max(float(prof.values.max()), *prices.values(), 1e-9)
        dsic = check_dsic(mech, prof, np.linspace(0.0, hi, 64))
        rows.append([args.mech, idx, "dsic", dsic.passed, dsic.max_gain,
                     dsic.agent, dsic.bid])
        pays = [check_payment_identity(
                    extract_interim_rule(mech, prof, i, np.linspace(0.0, hi, 256)))
                for i in range(prof.n)]
        worst = max(pays, key=lambda rep: rep.max_error)
        ok = all(rep.passed for rep in pays)
        rows.append([args.mech, idx, "payment", ok, worst.max_error, worst.agent,
                     worst.bid])
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


class _Parser(argparse.ArgumentParser):
    """Parse errors, in subcommands too, exit 2 with one line, no usage."""

    def error(self, message):
        self.exit(2, f"burnlab: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--mech", required=True, choices=MECHANISMS)
    p.add_argument("--profile", required=True)
    p.add_argument("--k", type=int, required=True)
    # optional flags default to None, so that _reject_unread sees which were
    # given
    p.add_argument("--p", type=float, help="price (default 0)")
    p.add_argument("--q", type=float, help="lower price (default 0)")
    p.add_argument("--seed", type=int, help="Monte Carlo mode only (default 0)")
    p.add_argument("--reps", type=int,
                   help="Monte Carlo mode only (default 10000)")
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
    p.add_argument("--mech", required=True, choices=[*MECHANISMS, *CONTROLS])
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
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
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:
            raise ValueError(f"{unknown[0]}: {args.command} takes no such "
                             "argument")
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"burnlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
