"""Compare two sets of run records, and time the ROADMAP baseline layers.

    python3 perfbench/run.py compare OLD NEW
    python3 perfbench/run.py roadmap

OLD and NEW are record files written by run.py, or directories holding them.
compare prints, per workload, the ratio NEW/OLD of the median of each
end-to-end metric over the untraced runs, flagging one that is worse by more
than its bound in BENCHMARK.json; then whether each output digest is equal
for every seed run on both sides, flagging one that differs, since the exact
paths must match bit for bit; then the per-layer ratios of the traced runs as
a report only, marking a metric whose trace target is missing on either side
instead of giving a ratio against 0; then the ROADMAP layers when both sides
hold a roadmap record. It exits 0 either way.

roadmap times each layer named in ROADMAP.md's baseline at its stated size
and writes .bench_out/roadmap.json. The machine's speed drifts by about 15%
between passes, so a layer is noted as differing from ROADMAP only outside
that band.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
from time import perf_counter

import numpy as np

from tracing import TARGETS

DRIFT = 0.15
ROADMAP_SEED = 0
# Per-layer metrics named apart from the trace target that counts them.
COUNTED_BY = {"ironing.hull_vertices": "ironing.lower_convex_hull"}

# (case, ROADMAP seconds): the baseline measured at the re-anchor.
ROADMAP_BASELINE = {
    "reproduce_results full": 5.3,
    "balanced_sampling_probe n=1e4, 1e5 trials": 8.8,
    "two_price_benchmark n=128": 0.081,
    "two_price_benchmark n=512": 2.6,
    "expected_rsol exact n=16": 0.166,
    "expected_rsol exact n=20": 2.6,
    "rsol interim n=12, 256 bids": 0.171,
    "estimate logprice 1e4 reps": 0.293,
    "lower_convex_hull 2^14 points": 0.037,
    "iron two_piece": 0.032,
    "bayes_optimal_with_costs n=16": 0.206,
}


def load_records(path: str) -> list[dict]:
    """The record in a file, or the records in a directory's *.json files."""
    p = pathlib.Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def _runs(records, workload):
    return [r for r in records if r.get("kind") == "run" and r["workload"] == workload]


def _medians(records, workload, trace):
    values: dict[str, list[float]] = {}
    for r in _runs(records, workload):
        if r["trace"] == trace:
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    return {k: (statistics.median(v), len(v)) for k, v in values.items()}


def _digests(records, workload) -> dict[int, dict[str, set[str]]]:
    """Output digests by seed and digest name, traced and untraced runs alike."""
    out: dict[int, dict[str, set[str]]] = {}
    for r in _runs(records, workload):
        by_name = out.setdefault(r["provenance"]["seed"], {})
        for name, value in r["digests"].items():
            by_name.setdefault(name, set()).add(value)
    return out


def _missing(records, workload) -> set[str]:
    """Trace targets ("module.attr") that a traced run could not patch."""
    return {t for r in _runs(records, workload) for t in r.get("trace_missing_targets", [])}


def _targets_of(metric: str) -> set[str]:
    """The trace targets ("module.attr") that feed a per-layer metric."""
    name = COUNTED_BY.get(metric, metric)
    return {f"{module}.{attr}" for module, attr, target, *_ in TARGETS
            if name.startswith(target + ".")}


def _ratio(new, old):
    return new / old if old else float("nan")


def compare(old_path, new_path, spec) -> int:
    old, new = load_records(old_path), load_records(new_path)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    flagged = differing = 0
    for w in workloads:
        if not (_runs(old, w) and _runs(new, w)):
            continue
        o, n = _medians(old, w, 0), _medians(new, w, 0)
        if o and n:
            print(f"{w}: end to end, median of {o[next(iter(o))][1]} old and "
                  f"{n[next(iter(n))][1]} new runs")
        for name, m in bounds.items():
            if name not in o or name not in n:
                continue
            r = _ratio(n[name][0], o[name][0])
            worse = r - 1.0 if m["better"] == "lower" else 1.0 - r
            flag = "  FLAG: worse than its bound" if worse > m["bound"] else ""
            flagged += bool(flag)
            print(f"  {name:14s} {o[name][0]:12.6g} -> {n[name][0]:12.6g} {m['unit']:5s} "
                  f"x{r:.3f} (bound {m['bound']:.0%}){flag}")
        do, dn = _digests(old, w), _digests(new, w)
        seeds = sorted(do.keys() & dn.keys())
        print(f"{w}: output digests, {len(seeds)} seed(s) run on both sides")
        for name in sorted({k for s in seeds for k in (*do[s], *dn[s])}):
            # Equal means one digest per side for the seed, and the same one.
            differ = [s for s in seeds
                      if do[s].get(name) != dn[s].get(name) or len(do[s].get(name) or ()) != 1]
            flag = f"  FLAG: differs on seed(s) {differ}" if differ else ""
            differing += bool(differ)
            print(f"  {name:14s} equal on {len(seeds) - len(differ)} of {len(seeds)}{flag}")
        lo, ln = _medians(old, w, 1), _medians(new, w, 1)
        if lo and ln:
            print(f"{w}: per layer (report only)")
            gone = _missing(old, w) | _missing(new, w)
            for m in spec["per_layer"]:
                lost = sorted(gone & _targets_of(m["name"]))
                if lost:
                    print(f"  {m['name']:56s} target missing: {', '.join(lost)}")
                    continue
                a, b = lo.get(m["name"], (0.0, 0))[0], ln.get(m["name"], (0.0, 0))[0]
                if a or b:
                    print(f"  {m['name']:56s} {a:12.6g} -> {b:12.6g} {m['unit']:5s} "
                          f"x{_ratio(b, a):.3f}")
    ro = [r for r in old if r.get("kind") == "roadmap"]
    rn = [r for r in new if r.get("kind") == "roadmap"]
    if ro and rn:
        print("ROADMAP layers (report only)")
        for case, base in ROADMAP_BASELINE.items():
            a, b = ro[-1]["cases"].get(case), rn[-1]["cases"].get(case)
            if a and b:
                print(f"  {case:44s} {a:9.4f} -> {b:9.4f} s x{b / a:.3f} (ROADMAP {base} s)")
    print(f"{flagged} end-to-end metric(s) worse than their bound, "
          f"{differing} output digest(s) differing")
    return 0


def _time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def roadmap() -> int:
    from run import load_package, provenance
    from workloads import Ops, Reproduce

    bl = load_package()
    rng = np.random.default_rng(ROADMAP_SEED)
    dist = bl.distributions
    exp1 = dist.exponential(1.0)
    iv = bl.ironing.iron(dist.two_piece())
    reproduce = Reproduce()
    inputs = reproduce.setup(bl, ROADMAP_SEED)
    v128, v512 = rng.random(128), rng.random(512)
    v16, v20, v12 = rng.random(16), rng.random(20), rng.random(12)
    rsol_mech = bl.audit.audit_mechanism("rsol", 1)
    bids = np.linspace(0.0, 1.25, 256)
    problem = bl.mechanisms.CostProblem(
        (iv.value,) * 16, lambda s: float("inf") if len(s) > 4 else 0.0)
    costs16 = rng.random(16) * 2.0
    cases = {
        "reproduce_results full": (lambda: reproduce.run_pass(bl, inputs, Ops()), 1),
        "balanced_sampling_probe n=1e4, 1e5 trials": (
            lambda: bl.audit.balanced_sampling_probe(
                10 ** 4, trials=10 ** 5, seed=ROADMAP_SEED), 1),
        "two_price_benchmark n=128": (lambda: bl.benchmark.two_price_benchmark(v128, 1), 5),
        "two_price_benchmark n=512": (lambda: bl.benchmark.two_price_benchmark(v512, 1), 1),
        "expected_rsol exact n=16": (lambda: bl.mechanisms.expected_rsol(v16, 2), 5),
        "expected_rsol exact n=20": (lambda: bl.mechanisms.expected_rsol(v20, 2), 1),
        "rsol interim n=12, 256 bids": (lambda: rsol_mech.interim(v12, 0, bids), 5),
        "estimate logprice 1e4 reps": (
            lambda: bl.simlab.estimate("logprice", exp1, 8, 2, 10 ** 4, ROADMAP_SEED), 5),
        "lower_convex_hull 2^14 points": (lambda: bl.ironing.lower_convex_hull(iv.q, iv.H), 5),
        "iron two_piece": (lambda: bl.ironing.iron(dist.two_piece()), 5),
        "bayes_optimal_with_costs n=16": (
            lambda: bl.mechanisms.bayes_optimal_with_costs(problem, costs16), 5),
    }
    measured = {}
    print(f"{'ROADMAP layer':44s} {'ROADMAP':>9s} {'now':>9s}  ratio")
    for case, (fn, reps) in cases.items():
        measured[case] = _time(fn, reps)
        base = ROADMAP_BASELINE[case]
        r = measured[case] / base
        note = "" if abs(r - 1.0) <= DRIFT else "  differs beyond the drift band"
        print(f"{case:44s} {base:9.3f} {measured[case]:9.3f}  x{r:.2f}{note}")
    out = pathlib.Path(".bench_out")
    out.mkdir(exist_ok=True)
    (out / "roadmap.json").write_text(json.dumps(
        {"kind": "roadmap", "provenance": provenance(ROADMAP_SEED, reproduce), "cases": measured},
        indent=1))
    return 0


def main(argv, spec) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    sub.add_parser("roadmap")
    args = parser.parse_args(argv)
    if args.cmd == "compare":
        return compare(args.old, args.new, spec)
    return roadmap()
