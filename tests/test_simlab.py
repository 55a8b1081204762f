import statistics

import numpy as np
import pytest

from burnlab.benchmark import full_surplus
from burnlab.common import VERSION
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


def test_surplus_gap_experiment():
    rows = experiment_surplus_gap((2, 4), 1, 20000, 4)
    assert [row["n"] for row in rows] == [2, 4]
    harmonic = {2: 1.5, 4: 25.0 / 12.0}
    for row in rows:
        assert row["opt_residual"] == 1.0
        assert row["full_mean"] == pytest.approx(harmonic[row["n"]], abs=0.05)
        assert row["ratio"] == pytest.approx(row["full_mean"])


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
    # run the surplus-gap experiment
    experiment = surplus-gap
    dist = exp(1)
    n = 4, 8,16
    k = 2
    reps = 1000   # small smoke run
    seed = 7
    out = results.csv
    """
    cfg = parse_config(text)
    assert cfg == ExperimentConfig("surplus-gap", "exp(1)", (4, 8, 16), (2,),
                                   1000, 7, "results.csv")


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
    for name in ("rsol-ratio", "thmub"):
        with pytest.raises(ValueError, match=f"reps: {name}"):
            parse_config(f"experiment = {name}\nreps = 1")
        with pytest.raises(ValueError, match=f"reps: {name}"):
            parse_config("reps = 1000", experiment=name)
        assert parse_config("n = 4", experiment=name).reps == 100_000
        assert ExperimentConfig(name, reps=1).reps == 1
    assert parse_config("reps = 5", experiment="surplus-gap").reps == 5
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
    cfg = ExperimentConfig("surplus-gap", n=(2, 4), k=(1,), reps=5000, seed=3)
    first = rows_to_csv(run_experiment(cfg), cfg.seed)
    second = rows_to_csv(run_experiment(cfg), cfg.seed)
    assert first == second
    assert first.rstrip().endswith(f"# burnlab {VERSION} seed=3")
