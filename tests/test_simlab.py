import csv
import gc
import math
import os
import pathlib
import re
import runpy
import statistics
import subprocess
import sys

import numpy as np
import pytest
from test_audit import UNPRICED, ladder_oracle, mc_estimate, refusal, rejects
from test_mechanisms import grid_tol

from burnlab import audit, common, ironing, mechanisms, simlab
from burnlab.benchmark import two_price_benchmark
from burnlab.common import VERSION, Z99, MechanismEval, mc_eval, substream
from burnlab.distributions import exponential, uniform
from burnlab.ironing import DEFAULT_GRID, iron
from burnlab.mechanisms import (ALIASES, MECHANISMS, _bayes_rule, _residual,
                                unpriced)
from burnlab.simlab import (EXPERIMENT_NAMES, ExperimentConfig, estimate,
                            experiment_lb43, experiment_rsol_ratio,
                            experiment_surplus_gap, experiment_thmub,
                            parse_config, rows_to_csv, run_experiment,
                            worst_case_corpus, write_rows)


# ---------------------------------------------------------------------------
# prior-expectation estimator


exp1, unif = exponential(1.0), uniform(0.0, 1.0)
# (prior, n, k, reps, exact mean) for each name the estimator takes
ESTIMATE_CLOSED_FORMS = {
    # the free lottery sells min(k, n) units at the prior mean
    "lottery": [(exp1, 3, 3, 20000, 3.0), (unif, 2, 1, 20000, 0.5)],
    "plottery0": [(exp1, 4, 2, 500, 2.0)],
    # exp(1)'s inverse hazard rate is 1, so Vickrey and Bayes (which irons
    # nothing there) earn the k units they sell
    "vickrey": [(exp1, 2, 1, 20000, 1.0)],
    "bayes": [(exp1, 2, 1, 20000, 1.0)],
    # 2/3 of E[max] = 3/2 and 2/3
    "mix": [(exp1, 2, 1, 20000, 1.0), (unif, 2, 1, 20000, 4 / 9)],
    # rungs L = 1 and 2: E[v1 - v2] = 1 and E[(v1 + v2)/2] = 1
    "logprice": [(exp1, 2, 1, 20000, 1.0)],
    # of the four halvings, both agents in the pool earn 0; one serving
    # alone learns price 0 and earns its value, 1 on average; both serving
    # earn (v1 + v2)/2 or v1 - v2 by the coin, also 1 on average
    "rsol": [(exp1, 2, 1, 20000, 0.75)],
}
# the free lottery's value is a closed form, one replicate; the other rank
# rules integrate on the default ironing grid
CLOSED_FORM = ("lottery", "plottery0")


def test_estimate_closed_forms():
    # every table name and alias: one that reads a price is not the
    # estimator's, a rank rule is exact and meets its closed form within the
    # grid's error, and RSOL's Monte Carlo covers it
    for name in dict.fromkeys([*MECHANISMS, *ALIASES]):
        if name in MECHANISMS and {"p", "q"} & set(MECHANISMS[name].reads):
            assert rejects(lambda: estimate(name, exp1, 2, 1, 100, 1)), name
            continue
        for d, n, k, reps, want in ESTIMATE_CLOSED_FORMS[name]:
            ev = estimate(name, d, n, k, reps, 1)
            if unpriced(name).prior is None:
                assert ev.mode == "mc" and ev.replicates == reps
                assert ev.mean == pytest.approx(want, abs=2 * ev.ci_halfwidth), name
                continue
            grid = 1 if name in CLOSED_FORM else DEFAULT_GRID
            assert ev == MechanismEval(ev.mean, 0.0, "exact", grid, None), name
            assert abs(ev.mean - want) <= grid_tol(DEFAULT_GRID, n), (name, ev)


def test_estimate_logprice_is_ladder_rule():
    # the Monte Carlo oracle's mean is the independent ladder oracle
    # averaged over the oracle's own draws: this pins the rule behind the
    # table's value view, not only its value. The exact estimate lies inside
    # that oracle's 99% interval
    d = exponential(1.0)
    for n, k in [(3, 1), (6, 2), (8, 3)]:
        mc = mc_estimate("logprice", d, n, k, 300, 4)
        V = d.quantile(substream(4, "estimate", "logprice", n, k).random((300, n)))
        ref = sum(ladder_oracle(row.tolist(), k) for row in V) / len(V)
        assert mc.mean == pytest.approx(ref, rel=1e-12), (n, k)
        ev = estimate("logprice", d, n, k, 300, 4)
        assert mc.ci[0] <= ev.mean <= mc.ci[1], (n, k, ev, mc)


def test_estimate_deterministic():
    a = estimate("rsol", uniform(0.0, 1.0), 3, 1, 200, 9)
    b = estimate("rsol", uniform(0.0, 1.0), 3, 1, 200, 9)
    assert a.mean == b.mean and a.ci == b.ci


def counted_ironings(monkeypatch) -> list:
    """A list that grows by one each time iron irons afresh, starting with
    its memo holding no exp(1) result: another prior takes the most recent
    slot and the collector frees the rest."""
    iron(uniform(0.0, 1.0), grid=64)
    gc.collect()
    calls, hull = [], ironing.lower_convex_hull
    monkeypatch.setattr(ironing, "lower_convex_hull",
                        lambda *a: calls.append(1) or hull(*a))
    return calls


def test_estimate_rank_rules_iron_once(monkeypatch):
    # neither call keeps an iv, and the second reads the first's ironing
    calls = counted_ironings(monkeypatch)
    d = exponential(1.0)
    a = estimate("vickrey", d, 4, 1, 100, 0)
    b = estimate("logprice", d, 4, 1, 100, 0)
    assert len(calls) == 1
    assert (a.mean, b.mean) == (estimate("vickrey", d, 4, 1, 100, 0).mean,
                                estimate("logprice", d, 4, 1, 100, 0).mean)


def test_estimate_validation():
    # reps below 30 and n below 1 fail for every name, exact or Monte Carlo,
    # each with one line
    d = uniform(0.0, 1.0)
    cases = [(("nosuch", d, 2, 1, 100, 0), "unknown mechanism 'nosuch'"),
             (("mix", d, 3, 1, 100, 0), "n=2, k=1"),
             (("vickrey", d, 2, 0, 100, 0), "k >= 1"),
             (("rsol", d, 2, 0, 100, 0), "at least one unit")]
    for name in UNPRICED:
        cases += [((name, d, 2, 1, 29, 0), "need at least 30 replicates, got 29"),
                  ((name, d, 0, 1, 100, 0), "need at least one agent, got n=0"),
                  ((name, d, -1, 1, 100, 0), "need at least one agent, got n=-1")]
    for args, message in cases:
        with pytest.raises(ValueError, match=message) as err:
            estimate(*args)
        assert "\n" not in str(err.value), args


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


def lb43_draws(reps, seed):
    return substream(seed, "lb43").exponential(1.0, size=(reps, 2))


def lb43_benchmark_rowwise(V):
    """The two-agent benchmark max{(hi + lo)/2, hi - lo/2} of each row of V,
    from its rowwise max hi and min lo, and lo itself."""
    hi, lo = V.max(axis=1), V.min(axis=1)
    return np.maximum(0.5 * (hi + lo), hi - 0.5 * lo), lo


def lb43_opt_mc(reps, seed):
    """The optimum as the experiment used to estimate it: Monte Carlo over
    the seeded draws of the Bayes rule's residual, with its 99% interval."""
    V = lb43_draws(reps, seed)
    return mc_eval(_residual(V, *_bayes_rule(iron(exponential(1.0)), V, 1)), seed)


LB43_COLUMNS = ["experiment", "n", "k", "g_mean", "opt_mean", "opt_grid", "ratio"]


def test_lb43_experiment():
    row = experiment_lb43()
    assert list(row) == LB43_COLUMNS
    assert row["experiment"] == "lb43" and (row["n"], row["k"]) == (2, 1)
    assert abs(row["g_mean"] - 4.0 / 3.0) <= 1e-15
    assert row["opt_grid"] == DEFAULT_GRID
    assert abs(row["opt_mean"] - 1.0) <= grid_tol(row["opt_grid"], 2)
    assert row["ratio"] == row["g_mean"] / row["opt_mean"]


def test_lb43_irons_once(monkeypatch):
    calls = counted_ironings(monkeypatch)
    assert experiment_lb43() == experiment_lb43()
    assert len(calls) == 1


def test_lb43_benchmark_rowwise_is_two_price_benchmark():
    # the closed form's benchmark is the two-price benchmark at n = 2, k = 1,
    # on draws, ties and zeros
    V = substream(11, "lb43-benchmark").exponential(1.0, size=(2400, 2))
    V[:400] = np.round(V[:400], 1)  # ties, zeros among them
    V[400:600, 1] = V[400:600, 0]
    V[600:700, 0] = 0.0
    V[700:720] = 0.0
    g, _ = lb43_benchmark_rowwise(V)
    for v, want in zip(V, g):
        got = two_price_benchmark(v, 1).value
        assert abs(got - want) <= 1e-12 * want, (v, got, want)


def lb43_cond_mean(c):
    """E[G | lo < c] in closed form: E[lo + 1/2 + e^-lo/2 | lo < c] for lo
    ~ exp(2), the smaller of two exp(1) values."""
    p = -math.expm1(-2.0 * c)
    mean_lo = 0.5 - c * math.exp(-2.0 * c) / p
    laplace_lo = 2.0 / 3.0 * -math.expm1(-3.0 * c) / p
    return mean_lo + 0.5 + 0.5 * laplace_lo


# seeds the suite already ran lb43's Monte Carlo on; at seed 0 the optimum's
# 99% interval misses 1 by z = -2.81, and the benchmark's misses 4/3 by
# z = -2.59, as a 99% interval does on about one seed in a hundred
@pytest.mark.parametrize("seed", [3, 4, 7, 20260823])
def test_lb43_against_old_monte_carlo(seed):
    row = experiment_lb43()
    V = lb43_draws(10 ** 6, seed)
    g, lo = lb43_benchmark_rowwise(V)
    # the draws' 99% interval covers the closed form
    ev = mc_eval(g, seed)
    assert ev.ci[0] <= row["g_mean"] <= ev.ci[1]
    # and so does the bin of smaller values below 0.02, about 4% of them
    near = g[lo < 0.02]
    assert lb43_cond_mean(0.02) == pytest.approx(1.0049995039932949, rel=1e-15)
    se = near.std(ddof=1) / math.sqrt(near.size)
    assert abs(near.mean() - lb43_cond_mean(0.02)) <= Z99 * se
    # the old estimate of the optimum covers the exact value, and would
    # reject it times 1.01
    ev = lb43_opt_mc(10 ** 6, seed)
    assert ev.ci[0] <= row["opt_mean"] <= ev.ci[1]
    assert not ev.ci[0] <= 1.01 * row["opt_mean"] <= ev.ci[1]


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


def test_rsol_ratio_near_spike_closed_form():
    # on (1, eps, ..., eps) with k = 1 the top agent serves with chance 1/2,
    # and the pool's best strict-lottery price is then 0: RSOL's Vickrey half
    # earns about 1 and its free-lottery half about 1/(1 + S), S ~ Bin(n - 1,
    # 1/2) the eps agents beside the top, so RSOL/G tends to
    # f = (1 + E[1/(1 + S)])/4 = (1 + (2/n)(1 - 2^-n))/4. The eps agents move
    # each half by at most eps (one unit, the top's price at most eps), and
    # the sampled top leaves at most eps, so RSOL lies in
    # [f - eps/4, f + 3 eps/4]; G lies in [1 - eps, 1]. Hence
    # |RSOL/G - f| <= (3/4 + f) eps/(1 - eps) <= 1.25 eps/(1 - eps)
    eps = 1e-6
    sizes = (2, 4, 8, 12, 16, 20)
    corpus = [(f"near-spike-{n}", np.r_[1.0, np.full(n - 1, eps)]) for n in sizes]
    rows = experiment_rsol_ratio(corpus, (1,))
    assert [row["n"] for row in rows] == list(sizes)
    for n, row in zip(sizes, rows):
        f = 0.25 * (1.0 + 2.0 / n * (1.0 - 2.0 ** -n))
        assert abs(row["ratio"] - f) <= 1.25 * eps / (1.0 - eps), (n, row["ratio"])


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
    seed = 7   # exact, but the seed still goes into the CSV trailer
    out = results.csv
    """
    assert parse_config(text) == ExperimentConfig(
        "lb43", (32, 1024), (1,), None, 7, "results.csv")
    text = """
    experiment = surplus-gap
    n = 4, 8,16
    k = 2
    seed = 7   # exact, but the seed still goes into the CSV trailer
    out = gap.csv
    """
    assert parse_config(text) == ExperimentConfig(
        "surplus-gap", (4, 8, 16), (2,), None, 7, "gap.csv")


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
    assert parse_config("seed = 50", experiment="lb43").experiment == "lb43"


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config("volume = 11")
    with pytest.raises(ValueError):
        parse_config("just some words")
    with pytest.raises(ValueError):
        parse_config("experiment = nosuch")
    with pytest.raises(ValueError):
        parse_config("reps = 0")
    with pytest.raises(ValueError, match="^line 1: unknown key 'dist'$"):
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
    for name in EXPERIMENT_NAMES:
        with pytest.raises(ValueError, match=f"^reps: {name} is exact"):
            parse_config(f"experiment = {name}\nreps = 1")
        with pytest.raises(ValueError, match=f"^reps: {name} is exact"):
            parse_config("reps = 1000", experiment=name)
        assert parse_config("seed = 4", experiment=name).reps is None
    assert "lb43" in EXPERIMENT_NAMES


def test_experiment_config_reps_is_deprecated():
    # kept for callers that still pass it; nothing reads it
    for name in EXPERIMENT_NAMES:
        with pytest.warns(DeprecationWarning, match="reps is ignored"):
            cfg = ExperimentConfig(name, n=(4,), reps=10)
        assert run_experiment(cfg) == run_experiment(ExperimentConfig(name, n=(4,)))


def one_line_error(call, message):
    with pytest.raises(ValueError, match=message) as err:
        call()
    assert "\n" not in str(err.value), str(err.value)


def test_config_rejects_empty_sizes():
    # rejected with the config, before an experiment runs on no sizes
    for name in EXPERIMENT_NAMES:
        for key in ("n", "k"):
            one_line_error(lambda: ExperimentConfig(name, **{key: ()}),
                           f"^{key}: give at least one size$")


def test_config_rejects_negative_seed():
    # lb43 and surplus-gap draw nothing, so only the config can see the seed;
    # it once went into their CSV trailers as given
    for name in EXPERIMENT_NAMES:
        assert refusal(lambda: ExperimentConfig(name, seed=-3)) == (
            "seed: need at least 0, got -3")
        assert refusal(lambda: parse_config("seed = -1", experiment=name)) == (
            "seed: need at least 0, got -1")
    assert ExperimentConfig("thmub", seed=0).seed == 0


def test_substream_rejects_negative_seed():
    # numpy's own message, "expected non-negative integer", names no seed
    assert refusal(lambda: substream(-2, "audit", 0)) == "seed: need at least 0, got -2"
    assert substream(0, "audit", 0).random() == substream(0, "audit", 0).random()


def test_parse_config_rejects_repeated_key():
    # no later line silently overrides an earlier one
    for text, key in [("seed = 1\nseed = 2", "seed"),
                      ("experiment = thmub\nn = 4\n# c\nn = 8", "n"),
                      ("out = a.csv\nout = a.csv", "out")]:
        line = len(text.splitlines())
        one_line_error(lambda: parse_config(text, experiment="thmub"),
                       f"^line {line}: {key} is set twice$")


def test_parse_config_malformed_integer_names_line_and_key():
    # int()'s own message names neither the line nor the key
    for text, key, value in [("n = 4,", "n", "4,"),
                             ("seed = 3\nk = 1;2", "k", "1;2"),
                             ("seed = x", "seed", "x"), ("n =", "n", "")]:
        line = len(text.splitlines())
        one_line_error(lambda: parse_config(text, experiment="thmub"),
                       f"^line {line}: {key}: expected integers, got {value!r}$")


def test_run_experiment_dispatch():
    cfg = ExperimentConfig("rsol-ratio", n=(4,), k=(1,), seed=2)
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
    cfg = ExperimentConfig("lb43", seed=3)
    first = rows_to_csv(run_experiment(cfg), cfg.seed)
    second = rows_to_csv(run_experiment(cfg), cfg.seed)
    assert first == second
    assert first.rstrip().endswith(f"# burnlab {VERSION} seed=3")
    row, = csv.DictReader(first.splitlines()[:-1])
    assert abs(float(row["g_mean"]) - 4.0 / 3.0) <= 1e-15


REPRODUCE_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"


def test_reproduce_pass_draws_nothing(monkeypatch, tmp_path):
    # every experiment is exact: a pass of the script's four configs calls
    # neither Monte Carlo helper, under any name a module imported it as
    def drawn(*args, **kwargs):
        raise AssertionError("a reproduce pass drew Monte Carlo samples")

    for module in (common, simlab, mechanisms, audit):
        for name in ("mc_blocks", "mc_eval"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, drawn)
    monkeypatch.setattr(sys, "argv", [str(REPRODUCE_SCRIPT), "--outdir", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(REPRODUCE_SCRIPT), run_name="__main__")
    assert done.value.code == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"{name}.csv" for name in sorted(EXPERIMENT_NAMES)]


def test_reproduce_script(tmp_path):
    root = REPRODUCE_SCRIPT.parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(REPRODUCE_SCRIPT), "--outdir",
                          str(tmp_path)], env=env, check=True, capture_output=True,
                         text=True).stdout
    counts = {"lb43": 1, "surplus-gap": 2, "rsol-ratio": 45, "thmub": 45}
    # one line per experiment, timed in milliseconds
    assert [re.fullmatch(r"(\S+): (\d+) rows -> .+ \(\d+\.\d ms\)", line).groups()
            for line in out.splitlines()] == [(name, str(c)) for name, c in counts.items()]
    for name, count in counts.items():
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "experiment" and {"n", "k"} <= set(header)
        assert lines[-1] == f"# burnlab {VERSION} seed=0"
        rows = list(csv.DictReader(lines[:-1]))
        assert len(rows) == count
        assert all(row["experiment"] == name for row in rows)
        if name == "lb43":
            assert header == LB43_COLUMNS
            assert abs(float(rows[0]["g_mean"]) - 4.0 / 3.0) <= 1e-15
            opt = float(rows[0]["opt_mean"])
            assert abs(opt - 1.0) <= grid_tol(int(rows[0]["opt_grid"]), 2)
        if name == "surplus-gap":
            assert [(row["n"], row["k"]) for row in rows] == [("32", "1"),
                                                              ("1024", "1")]
            for row in rows:
                assert float(row["full"]) == pytest.approx(
                    harmonic_top_k(int(row["n"]), 1), rel=1e-13)
