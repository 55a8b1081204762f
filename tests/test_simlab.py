import csv
import math
import os
import pathlib
import statistics
import subprocess
import sys

import numpy as np
import pytest

from burnlab.benchmark import full_surplus
from burnlab.common import VERSION, Z99, substream
from burnlab.distributions import exponential, uniform
from burnlab.simlab import (EXPERIMENT_NAMES, ExperimentConfig, estimate,
                            experiment_lb43, experiment_rsol_ratio,
                            experiment_surplus_gap, experiment_thmub,
                            parse_config, rows_to_csv, run_experiment,
                            worst_case_corpus, write_rows)


# ---------------------------------------------------------------------------
# prior-expectation estimator


def test_estimate_closed_forms():
    ev = estimate("lottery", exponential(1.0), 3, 3, 20000, 1)
    assert ev.mode == "mc" and ev.replicates == 20000
    assert ev.mean == pytest.approx(3.0, abs=2 * ev.ci_halfwidth)
    ev = estimate("lottery", uniform(0.0, 1.0), 2, 1, 20000, 1)
    assert ev.mean == pytest.approx(0.5, abs=2 * ev.ci_halfwidth)
    ev = estimate("vickrey", exponential(1.0), 2, 1, 20000, 1)
    assert ev.mean == pytest.approx(1.0, abs=2 * ev.ci_halfwidth)
    ev = estimate("mix", exponential(1.0), 2, 1, 20000, 1)
    assert ev.mean == pytest.approx(1.0, abs=2 * ev.ci_halfwidth)
    ev = estimate("bayes", exponential(1.0), 2, 1, 20000, 1)
    assert ev.mean == pytest.approx(1.0, abs=2 * ev.ci_halfwidth)
    ev = estimate("plottery0", exponential(1.0), 4, 2, 500, 1)
    assert ev.mean == pytest.approx(2.0, abs=2 * ev.ci_halfwidth)


def test_estimate_callable_mechanism():
    ev = estimate(lambda prof, k: full_surplus(prof, k), exponential(1.0),
                  2, 1, 5000, 1)
    assert ev.mean == pytest.approx(1.5, abs=2 * ev.ci_halfwidth)


def test_estimate_deterministic():
    a = estimate("rsol", uniform(0.0, 1.0), 3, 1, 200, 9)
    b = estimate("rsol", uniform(0.0, 1.0), 3, 1, 200, 9)
    assert a.mean == b.mean and a.ci == b.ci


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate("lottery", uniform(0.0, 1.0), 2, 1, 29, 0)
    with pytest.raises(ValueError):
        estimate("nosuch", uniform(0.0, 1.0), 2, 1, 100, 0)
    with pytest.raises(ValueError):
        estimate("mix", uniform(0.0, 1.0), 3, 1, 100, 0)


# ---------------------------------------------------------------------------
# worst-case corpus


def test_worst_case_corpus_shape():
    corpus = worst_case_corpus(3)
    assert len(corpus) == 15
    names = [name for name, _ in corpus]
    assert "geometric-4" in names and "twolevel-16" in names
    lookup = dict(corpus)
    assert np.array_equal(lookup["geometric-4"].values,
                          [0.5, 0.25, 0.125, 0.0625])
    assert np.array_equal(lookup["equal-8"].values, np.ones(8))
    spike = lookup["spike-16"].values
    assert spike[0] == 1.0 and spike[1:].sum() == 0.0
    two = lookup["twolevel-8"].values
    assert (two == 1.0).sum() == 2 and (two == 0.1).sum() == 6
    again = dict(worst_case_corpus(3))
    assert np.array_equal(lookup["random-8"].values, again["random-8"].values)


# ---------------------------------------------------------------------------
# experiments


def test_lb43_experiment():
    row = experiment_lb43(20000, 4)
    assert row["experiment"] == "lb43" and (row["n"], row["k"]) == (2, 1)
    assert row["g_mean"] == pytest.approx(4.0 / 3.0, abs=0.05)
    assert row["g_ci_lo"] < row["g_mean"] < row["g_ci_hi"]
    assert row["opt_mean"] == pytest.approx(1.0, abs=0.05)
    assert row["ratio"] == pytest.approx(row["g_mean"] / row["opt_mean"])
    assert row["cond_g"] == pytest.approx(row["cond_pred"], abs=0.15)


def harmonic_top_k(n, k):
    # E[top-k sum of n i.i.d. exp(1)] = sum_i (H_n - H_{i-1}) = sum_j min(j, k)/j
    return math.fsum(min(j, k) / j for j in range(1, n + 1))


def test_surplus_gap_experiment():
    rows = experiment_surplus_gap((2, 4), 1) + experiment_surplus_gap((4,), 2)
    assert [(row["n"], row["k"]) for row in rows] == [(2, 1), (4, 1), (4, 2)]
    for row, full in zip(rows, (1.5, 25.0 / 12.0, 38.0 / 12.0)):
        assert set(row) == {"experiment", "n", "k", "full", "opt_residual",
                            "ratio"}
        assert row["full"] == pytest.approx(full, rel=1e-15)
        assert row["opt_residual"] == row["k"]
        assert row["ratio"] == row["full"] / row["k"]
    for n in (1, 3, 7, 1024):
        for k in (n, n + 5):
            row, = experiment_surplus_gap((n,), k)
            assert row["full"] == pytest.approx(n, rel=1e-14)
            assert row["opt_residual"] == n
    for row in experiment_surplus_gap((1, 5, 32, 1024), 3):
        assert row["full"] == pytest.approx(harmonic_top_k(row["n"], 3),
                                            rel=1e-13)


def surplus_gap_mc(n, k, seed, reps=10 ** 5, block=4_000):
    """Plain Monte Carlo oracle: the 99% normal interval of the top-k sum of
    n i.i.d. exp(1) values over reps rows drawn, in blocks, from the
    experiment's substream."""
    rng = substream(seed, "surplus-gap", n)
    sums = []
    for start in range(0, reps, block):
        V = rng.exponential(1.0, size=(min(block, reps - start), n))
        sums.append(-np.partition(-V, k - 1, axis=1)[:, :k].sum(axis=1))
    samples = np.concatenate(sums)
    half = Z99 * samples.std(ddof=1) / math.sqrt(reps)
    return samples.mean() - half, samples.mean() + half


@pytest.mark.parametrize("n, k, seed", [
    (1024, 1, 0),
    *((32, k, seed) for seed in (0, 20260823) for k in (1, 2, 4)),
])
def test_surplus_gap_within_mc_interval(n, k, seed):
    row, = experiment_surplus_gap((n,), k)
    lo, hi = surplus_gap_mc(n, k, seed)
    assert lo <= row["full"] <= hi


def test_rsol_ratio_experiment():
    rows = experiment_rsol_ratio(worst_case_corpus(0, sizes=(4,)), (1, 2))
    assert len(rows) == 10
    ratios = [row["ratio"] for row in rows]
    for row in rows:
        assert row["min_ratio"] == min(ratios)
        assert row["median_ratio"] == statistics.median(ratios)
        assert row["ratio"] == pytest.approx(row["rsol"] / row["g"])
        assert row["ratio"] <= 1.0 + 1e-9
    assert min(ratios) > 0.05


def test_thmub_experiment():
    rows = experiment_thmub(worst_case_corpus(0, sizes=(4, 8)), (1, 4, 16))
    assert len(rows) == 20
    for row in rows:
        assert row["k"] <= row["n"]
        assert row["slack"] == pytest.approx(row["logprice"] - row["bound"])
        assert row["passed"]


# ---------------------------------------------------------------------------
# config parsing and CSV output


def test_parse_config_full():
    text = """
    # run the lb43 experiment
    experiment = lb43
    dist = exp(1)
    reps = 1000   # small smoke run
    seed = 7
    out = results.csv
    """
    assert parse_config(text) == ExperimentConfig(
        "lb43", "exp(1)", (32, 1024), (1,), 1000, 7, "results.csv")
    text = """
    experiment = surplus-gap
    dist = exp(1)
    n = 4, 8,16
    k = 2
    seed = 7   # exact, but the seed still goes into the CSV trailer
    out = gap.csv
    """
    assert parse_config(text) == ExperimentConfig(
        "surplus-gap", "exp(1)", (4, 8, 16), (2,), 100_000, 7, "gap.csv")


def test_parse_config_defaults():
    cfg = parse_config("# nothing but comments\n\n")
    assert cfg == ExperimentConfig()
    assert cfg.experiment == "lb43" and cfg.n == (32, 1024)


def test_parse_config_lb43_takes_no_n_k():
    # lb43 runs two agents and one unit whatever n and k say
    for text in ("n = 5", "k = 3", "experiment = lb43\nk = 1"):
        with pytest.raises(ValueError, match="lb43"):
            parse_config(text)
    with pytest.raises(ValueError, match="^n: lb43"):
        parse_config("experiment = thmub\nn = 4", experiment="lb43")
    assert parse_config("n = 4", experiment="thmub").n == (4,)
    assert parse_config("reps = 50", experiment="lb43").experiment == "lb43"


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config("volume = 11")
    with pytest.raises(ValueError):
        parse_config("just some words")
    with pytest.raises(ValueError):
        parse_config("experiment = nosuch")
    with pytest.raises(ValueError):
        parse_config("reps = 0")
    with pytest.raises(ValueError, match="dist"):
        parse_config("dist = uniform(0,1)")
    with pytest.raises(ValueError, match="single k"):
        parse_config("experiment = surplus-gap\nk = 1, 2")
    with pytest.raises(ValueError, match="single k"):
        ExperimentConfig("surplus-gap", k=(1, 2))
    assert parse_config("experiment = surplus-gap\nk = 2").k == (2,)
    for text in ("experiment = surplus-gap\nn = 0",
                 "experiment = rsol-ratio\nn = 0",
                 "experiment = thmub\nn = 4, -3"):
        with pytest.raises(ValueError, match="^n: "):
            parse_config(text)
    with pytest.raises(ValueError, match="^k: "):
        parse_config("experiment = surplus-gap\nk = 0")
    with pytest.raises(ValueError, match="^k: "):
        ExperimentConfig("thmub", k=(1, 0))
    for name in ("surplus-gap", "rsol-ratio", "thmub"):
        with pytest.raises(ValueError, match=f"reps: {name}"):
            parse_config(f"experiment = {name}\nreps = 1")
        with pytest.raises(ValueError, match=f"reps: {name}"):
            parse_config("reps = 1000", experiment=name)
        assert parse_config("n = 4", experiment=name).reps == 100_000
        assert ExperimentConfig(name, reps=1).reps == 1
    assert "lb43" in EXPERIMENT_NAMES


def test_run_experiment_dispatch():
    cfg = ExperimentConfig("rsol-ratio", n=(4,), k=(1,), reps=100, seed=2)
    rows = run_experiment(cfg)
    assert rows and all(row["experiment"] == "rsol-ratio" for row in rows)


def test_write_rows_sorted_with_trailer(tmp_path):
    rows = [
        {"experiment": "b", "n": 4, "k": 1, "value": 2.0},
        {"experiment": "a", "n": 8, "k": 2, "value": 3.0},
        {"experiment": "a", "n": 8, "k": 1, "value": 1.0},
    ]
    path = tmp_path / "rows.csv"
    with open(path, "w") as fh:
        write_rows(rows, fh, seed=7)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,n,k,value"
    assert lines[1].startswith("a,8,1") and lines[2].startswith("a,8,2")
    assert lines[3].startswith("b,4,1")
    assert lines[4] == f"# burnlab {VERSION} seed=7"


def test_write_rows_empty():
    import io
    with pytest.raises(ValueError):
        write_rows([], io.StringIO(), seed=0)


def test_experiment_csv_reproducible():
    cfg = ExperimentConfig("lb43", reps=5000, seed=3)
    first = rows_to_csv(run_experiment(cfg), cfg.seed)
    second = rows_to_csv(run_experiment(cfg), cfg.seed)
    assert first == second
    assert first.rstrip().endswith(f"# burnlab {VERSION} seed=3")


def test_reproduce_script_quick(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    script = root / "scripts" / "reproduce_results.py"
    subprocess.run([sys.executable, str(script), "--quick", "--outdir",
                    str(tmp_path)], env=env, check=True, capture_output=True)
    counts = {"lb43": 1, "surplus-gap": 2, "rsol-ratio": 45, "thmub": 45}
    for name, count in counts.items():
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "experiment" and {"n", "k"} <= set(header)
        assert lines[-1] == f"# burnlab {VERSION} seed=0"
        rows = list(csv.DictReader(lines[:-1]))
        assert len(rows) == count
        assert all(row["experiment"] == name for row in rows)
        if name == "surplus-gap":
            assert [(row["n"], row["k"]) for row in rows] == [("32", "1"),
                                                              ("1024", "1")]
            for row in rows:
                assert float(row["full"]) == pytest.approx(
                    harmonic_top_k(int(row["n"]), 1), rel=1e-13)
