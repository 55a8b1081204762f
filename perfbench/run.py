"""burnlab's benchmark: one workload, timed end to end, checked, optionally traced.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py compare OLD NEW     # OLD, NEW: record files or dirs
    python3 perfbench/run.py roadmap             # ROADMAP baseline layers

A run repeats full passes for --seconds, starting no pass that would end
after them; before each pass the workload's inputs are set up afresh from the
seed (set-up time is the median of these). Load is a closed loop: one process, one caller, each call
starting after the previous one returns. Outputs are checked after each pass,
outside the timed region.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 passes alternate between untraced and traced, and the last line
holds the per-layer metrics of one traced pass (plus the traced set-up) and
the tracing overhead. Each run writes its full record (provenance, sizes,
correctness margins, output digests, per-layer figures) to
.bench_out/<workload>-seed<seed>-trace<t>.json; a traced run also writes its
spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from speed import REFERENCE_S, SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS, Checks, Ops

BENCH_DIR = pathlib.Path(__file__).resolve().parent
OUT_DIR = pathlib.Path(".bench_out")
# A fresh interpreter importing the package from ./src, timing only that
# import. numpy comes first, untimed: its import time is the file system's
# (it varies twofold between runs here), not burnlab's.
IMPORT_PROBE = ("import sys, time; import numpy; sys.path.insert(0, 'src'); "
                "t = time.perf_counter(); import burnlab; print(time.perf_counter() - t)")


def load_package():
    """Import burnlab from ./src, and only from there."""
    src = pathlib.Path("src").resolve()
    if not (src / "burnlab" / "__init__.py").is_file():
        sys.exit("perfbench: src/burnlab not found; run from the repository root")
    sys.path.insert(0, str(src))
    import burnlab
    if pathlib.Path(burnlab.__file__).resolve().parent != src / "burnlab":
        sys.exit(f"perfbench: imported burnlab from {burnlab.__file__}, not ./src")
    return burnlab


def time_import() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def scaled(metrics: dict, factor: float) -> dict:
    """Times (names ending in _s) to reference seconds; counts unchanged."""
    return {k: v * factor if k.endswith("_s") else v for k, v in metrics.items()}


def provenance(seed: int, workload) -> dict:
    sha = dirty = None
    if pathlib.Path(".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=60).stdout.strip() or None
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=60).stdout.strip())
        except OSError:
            pass
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "env": {k: os.environ.get(k) for k in
                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed, "sizes": workload.sizes,
    }


def run(args) -> int:
    bl = load_package()
    workload = WORKLOADS[args.workload]()
    t_zero = perf_counter()
    tracer = Tracer() if args.trace else None

    def set_up():
        """A fresh import plus the workload's input generation, timed."""
        import_s = time_import()
        start = perf_counter()
        inputs = workload.setup(bl, args.seed)
        return inputs, import_s + perf_counter() - start

    setup_layers = {}
    if tracer:
        probe = SpeedProbe()
        probe.sample(3)
        tracer.begin_phase("setup")
        tracer.install()
        inputs, _ = set_up()
        tracer.uninstall()
        probe.sample(3)
        setup_layers = scaled(tracer.phase_metrics("setup"), probe.factor)

    checks = Checks()
    walls = {False: [], True: []}   # reference seconds, by traced
    raw_walls = {False: [], True: []}
    factors = {False: [], True: []}
    latencies, raw_latencies, errors, layer_passes = [], [], [], []
    setup_raw, setup_ref = [], []
    start_run = perf_counter()
    durations = []
    while True:
        began = perf_counter()
        traced = bool(tracer) and len(walls[False]) > len(walls[True])
        probe = SpeedProbe()
        probe.sample(3)
        if not traced:
            # The inputs are set up afresh before every untraced pass, so the
            # set-up samples are spread over the run like the passes are.
            inputs, setup_time = set_up()
            setup_raw.append(setup_time)
            probe.sample(3)
        ops = Ops(tracer if traced else None, probe)
        if traced:
            phase = f"pass{len(walls[True])}"
            tracer.begin_phase(phase)
            tracer.install(workload.instance_targets(inputs))
        spent = probe.spent
        start = perf_counter()
        out = workload.run_pass(bl, inputs, ops)
        raw = perf_counter() - start - (probe.spent - spent)
        if traced:
            tracer.uninstall()
        probe.sample(3)
        op_ref = [t * probe.factor_at(m) for t, m in zip(ops.latencies, ops.marks)]
        raw_walls[traced].append(raw)
        factors[traced].append(probe.factor)
        walls[traced].append(sum(op_ref) + (raw - sum(ops.latencies)) * probe.factor)
        if traced:
            layer_passes.append(scaled(tracer.phase_metrics(phase), probe.factor))
        else:
            latencies.extend(op_ref)
            raw_latencies.append(ops.latencies)
            setup_ref.append(setup_raw[-1] * probe.factor)
        for err in ops.errors:
            checks.fail(f"op raised {err}")
        errors.extend(ops.errors)
        workload.check(inputs, out, checks)
        durations.append(perf_counter() - began)
        # Stop before a pass that would end after --seconds, once there is
        # at least one (one traced) pass.
        enough = walls[True] if tracer else walls[False]
        elapsed = perf_counter() - start_run
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break

    wall_s = statistics.median(walls[False])
    record = {
        "kind": "run", "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "provenance": provenance(args.seed, workload),
        "reference_s": REFERENCE_S,
        "passes": {f"{kind}_{what}": table[traced]
                   for traced, kind in ((False, "untraced"), (True, "traced"))
                   for what, table in (("wall_s", walls), ("raw_wall_s", raw_walls),
                                       ("speed_factor", factors))},
        "setup": {"s": setup_ref, "raw_s": setup_raw},
        "op_samples": len(latencies), "raw_op_latencies_s": raw_latencies,
        "checks": {"attempted": checks.attempted, "failed": len(checks.failures),
                   "fail_ratio": len(checks.failures) / checks.attempted,
                   "failures": checks.failures, "errors": errors},
        "margins": checks.margins, "digests": checks.digests,
    }
    if tracer:
        keys = set(setup_layers).union(*layer_passes)
        layers = {key: setup_layers.get(key, 0.0)
                  + statistics.median(p.get(key, 0.0) for p in layer_passes) for key in keys}
        layers["trace.wall_s"] = statistics.median(walls[True])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall_s
        record["layers"] = dict(sorted(layers.items()))
        record["trace_missing_targets"] = tracer.missing
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in args.spec["per_layer"]}
    else:
        values = {
            "wall_s": wall_s,
            "op_p50_ms": 1e3 * quantile(latencies, 0.50),
            "op_p95_ms": 1e3 * quantile(latencies, 0.95),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in args.spec["end_to_end"]}
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        record["spans_file"] = str(OUT_DIR / f"{stem}.spans.jsonl")
        tracer.write_spans(record["spans_file"], t_zero)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload}: {len(walls[False])} untraced and {len(walls[True])} traced "
          f"passes, {len(latencies)} timed ops, {checks.attempted} checks, "
          f"{len(checks.failures)} failed")
    for failure in checks.failures[:20]:
        print(f"  FAILED {failure}")
    if tracer and tracer.missing:
        print(f"  trace targets missing, their metrics read 0: {', '.join(tracer.missing)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if argv and argv[0] in ("compare", "roadmap"):
        import report
        return report.main(argv, spec)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    args.spec = spec
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
