"""Regenerate the four experiment CSVs behind the headline numbers.

Run from the repository root:

    python3 scripts/reproduce_results.py --outdir results

Pass --quick for a fast smoke run at reduced replicate counts.
"""

import argparse
import pathlib
import time

from burnlab.simlab import (ExperimentConfig, rows_to_csv, run_experiment)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced replicate counts for a smoke run")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    reps_big = 10_000 if args.quick else 1_000_000

    configs = [
        ExperimentConfig("lb43", reps=reps_big, seed=args.seed),
        ExperimentConfig("surplus-gap", n=(32, 1024), k=(1,), seed=args.seed),
        ExperimentConfig("rsol-ratio", n=(4, 8, 16), k=(1, 2, 4),
                         reps=1, seed=args.seed),
        ExperimentConfig("thmub", n=(4, 8, 16), k=(1, 2, 4), reps=1,
                         seed=args.seed),
    ]
    for config in configs:
        t0 = time.perf_counter()
        rows = run_experiment(config)
        path = outdir / f"{config.experiment}.csv"
        path.write_text(rows_to_csv(rows, config.seed))
        print(f"{config.experiment}: {len(rows)} rows -> {path} "
              f"({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
