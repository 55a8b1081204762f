"""Experiment orchestration: Monte Carlo estimation over priors, the
worst-case profile corpus, and the four reproducible experiments behind the
headline quantitative claims. Results are flat CSV rows, bit-for-bit
reproducible from (config, seed). Only the estimate of RSOL is Monte Carlo,
drawn in blocks of at most 2^13 values (common.mc_blocks) and summarized by
common.mc_eval; the estimate of every rank rule and the four experiments
are exact.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .benchmark import two_price_benchmark_rows
from .common import (VERSION, MechanismEval, check_draws, mc_blocks, mc_eval,
                     quantile_draw, substream)
from .distributions import (ValuationProfile, ValueDistribution, as_profile,
                            exponential)
from .ironing import iron
from .mechanisms import (PRIOR_OPTIMAL, Params, _ladder_rule, _residual,
                         _rsol_exact, expected_under_prior, unpriced)


# ---------------------------------------------------------------------------
# prior-expectation estimator


def estimate(mechanism: str, d: ValueDistribution, n: int, k: int, reps: int,
             seed: int) -> MechanismEval:
    """Expected residual on n values drawn i.i.d. from d, k units, of a
    mechanism that reads no price (mechanisms.unpriced).

    A rank rule (the lotteries, Vickrey, Bayes, the ladder and the mixture)
    returns its table entry's exact prior view, integrated on iron(d)'s
    grid, which the record's replicate count gives (1 for the lottery's
    closed form); it uses neither reps nor seed. RSOL, no rank rule, returns
    the Monte Carlo mean over reps profiles of each one's exact value, run
    on blocks of at most 2^13 values (common.mc_blocks), whose float
    temporaries fit under glibc's mmap threshold; mc_eval joins the reps
    values, so the summary is that of one (reps, n) draw. reps below
    MIN_REPLICATES and n below 1 are rejected for every mechanism."""
    entry = unpriced(mechanism)
    check_draws(reps, n)
    if entry.prior is not None:
        return entry.prior(d, n, k, None)[0]
    rng = substream(seed, "estimate", mechanism, n, k)
    return mc_eval(mc_blocks(quantile_draw(d, rng), reps, n,
                             lambda V: entry.value(V, k, Params())), seed)


# ---------------------------------------------------------------------------
# worst-case corpus


def worst_case_corpus(seed: int, sizes=(4, 8, 16)) -> list[tuple[str, ValuationProfile]]:
    """Named adversarial profiles stressing lottery and Vickrey extremes."""
    corpus = []
    for n in sizes:
        geometric = 2.0 ** -np.arange(1, n + 1)
        spike = np.zeros(n)
        spike[0] = 1.0
        rnd = substream(seed, "corpus-random", n).random(n)
        twolevel = np.full(n, 0.1)
        twolevel[:max(1, n // 4)] = 1.0
        corpus.extend([
            (f"geometric-{n}", ValuationProfile(geometric)),
            (f"equal-{n}", ValuationProfile(np.ones(n))),
            (f"spike-{n}", ValuationProfile(spike)),
            (f"random-{n}", ValuationProfile(rnd)),
            (f"twolevel-{n}", ValuationProfile(twolevel)),
        ])
    return corpus


# ---------------------------------------------------------------------------
# experiments


_EXP1 = exponential(1.0)


def experiment_lb43() -> dict:
    """Two exponential agents, one unit: the benchmark mean is 4/3 while the
    prior-optimal mechanism earns 1.

    The benchmark of values hi >= lo is G = max{(hi + lo)/2, hi - lo/2}.
    The smaller value lo is exp(2), and D = hi - lo is exp(1), independent
    of lo. Then G = lo/2 + D/2 + max(lo, D)/2, and E[max(lo, D) | lo = l] =
    l + e^-l, so E[G | lo = l] = l + 1/2 + e^-l/2 and
    E[G] = E[lo] + 1/2 + E[e^-lo]/2 = 1/2 + 1/2 + (2/3)/2. The optimum
    (opt_mean) is expected_under_prior on the opt_grid-point ironing grid
    of one module-level exp(1) prior, so iron's memo serves repeat calls."""
    iv = iron(_EXP1)
    opt = expected_under_prior(PRIOR_OPTIMAL, iv.dist, 2, 1, iv)
    mean_lo, laplace_lo = 1.0 / 2.0, 2.0 / (2.0 + 1.0)  # E[lo], E[e^-lo]
    g_mean = mean_lo + 0.5 + 0.5 * laplace_lo
    return {"experiment": "lb43", "n": 2, "k": 1, "g_mean": g_mean,
            "opt_mean": opt, "opt_grid": iv.grid, "ratio": g_mean / opt}


def experiment_surplus_gap(n_list, k: int) -> list[dict]:
    """Exponential prior: full surplus E[top-k sum] grows like harmonic
    numbers while the optimal residual stays exactly k (free lottery under
    a constant hazard rate). Exact: the i-th largest of n i.i.d. exp(1)
    values has mean H_n - H_{i-1}, so full = sum_{i<=min(k,n)} (H_n - H_{i-1})."""
    inv = 1.0 / np.arange(1, max(n_list, default=0) + 1)
    H = np.concatenate(([0.0], np.cumsum(inv)))  # H[m] = 1 + 1/2 + ... + 1/m
    rows = []
    for n in n_list:
        full = float((H[n] - H[:min(k, n)]).sum())
        opt = float(min(k, n))
        rows.append({
            "experiment": "surplus-gap", "n": n, "k": k, "full": full,
            "opt_residual": opt, "ratio": full / opt,
        })
    return rows


def _by_size(corpus, k_list, values) -> list[tuple]:
    """(name, profile, k, value) for each corpus profile and k in order, the
    value from values(V, ks), (rows, len(ks), ...), on each size's profiles
    stacked as the rows of V, one call per size, each row bit for bit its own."""
    corpus = [(name, as_profile(prof)) for name, prof in corpus]
    ks, out = tuple(k_list), {}
    for n in dict.fromkeys(prof.n for _, prof in corpus):
        block = [i for i, (_, prof) in enumerate(corpus) if prof.n == n]
        V = np.array([corpus[i][1].values for i in block])
        for i, row in zip(block, values(V, ks).tolist()):
            out.update(zip([(i, k) for k in ks], row))
    return [(name, prof, k, out[i, k]) for i, (name, prof) in enumerate(corpus)
            for k in ks]


def experiment_rsol_ratio(corpus, k_list) -> list[dict]:
    """Exact random-sampling-lottery value against the two-price benchmark
    on every corpus profile; min and median ratios are repeated on each row
    so the CSV is self-contained. RSOL's exact pass takes each size's profiles
    and every k in one call, the benchmark one call per k (_by_size)."""
    rows = []
    for name, prof, k, (r, g) in _by_size(corpus, k_list, lambda V, ks: np.dstack((
            _rsol_exact(V, ks), np.transpose([two_price_benchmark_rows(V, k)[0] for k in ks])))):
        rows.append({"experiment": "rsol-ratio", "profile": name, "n": prof.n, "k": k,
                     "rsol": r, "g": g, "ratio": r / g if g > 0 else float("inf")})
    ratios = sorted(row["ratio"] for row in rows)
    mid = len(ratios) // 2
    med = ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2
    for row in rows:
        row.update(min_ratio=ratios[0], median_ratio=med)
    return rows


def experiment_thmub(profile_corpus, k_list) -> list[dict]:
    """Log-price ladder mechanism against the full-surplus guarantee
    V*/(2(1+log2(n/k))) on every corpus profile with k <= n. The profiles of
    one size take one ladder rule call per k (_by_size), and the full
    surplus is the top-k sum of their sorted rows."""
    # each row's ladder value and full surplus
    values = _by_size(profile_corpus, k_list, lambda V, ks: np.array([
        (_residual(V, *_ladder_rule(V, k)), np.sort(V)[:, ::-1][:, :k].sum(axis=1))
        for k in ks]).transpose(2, 0, 1))
    rows = []
    for name, prof, k, (lp, full) in values:
        if k > prof.n:
            continue
        bound = full / (2.0 * (1.0 + math.log2(prof.n / k)))
        rows.append({"experiment": "thmub", "profile": name, "n": prof.n, "k": k,
                     "logprice": lp, "full": full, "bound": bound,
                     "slack": lp - bound, "passed": lp >= bound})
    return rows


# ---------------------------------------------------------------------------
# config and CSV plumbing


EXPERIMENT_NAMES = ("lb43", "surplus-gap", "rsol-ratio", "thmub")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings; every experiment is exact, so reps is
    deprecated and ignored. seed, at least 0, draws the worst-case corpus's
    random profiles."""
    experiment: str = "lb43"
    n: tuple[int, ...] = (32, 1024)
    k: tuple[int, ...] = (1,)
    reps: int | None = None
    seed: int = 0
    out: str = ""

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.reps is not None:
            warnings.warn("ExperimentConfig: every experiment is exact, so "
                          "reps is ignored", DeprecationWarning, stacklevel=3)
        for key in ("n", "k"):
            sizes = getattr(self, key)
            if not sizes:
                raise ValueError(f"{key}: give at least one size")
            if min(sizes) < 1:
                raise ValueError(f"{key}: every size must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed: need at least 0, got {self.seed}")
        if self.experiment == "surplus-gap" and len(self.k) != 1:
            raise ValueError("k: surplus-gap takes a single k")


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse flat `key = value` config text (# starts a comment); experiment
    overrides the text's own. A key may appear once. lb43 takes no n or k,
    and no experiment takes reps: each is exact."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ("n", "k", "reps", "seed", "experiment", "out"):
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: {key} is set twice")
        try:
            if key in ("n", "k"):
                value = tuple(int(tok) for tok in value.split(","))
            elif key == "seed":
                value = int(value)
        except ValueError:
            raise ValueError(f"line {lineno}: {key}: expected integers, got "
                             f"{value!r}") from None
        fields[key] = value
    if experiment is not None:
        fields["experiment"] = experiment
    name = fields.get("experiment", "lb43")
    for key in ("n", "k"):
        if key in fields and name == "lb43":
            raise ValueError(f"{key}: lb43 always runs two agents, one unit")
    if "reps" in fields:
        raise ValueError(f"reps: {name} is exact and draws no replicates")
    return ExperimentConfig(**fields)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    if config.experiment == "lb43":
        return [experiment_lb43()]
    if config.experiment == "surplus-gap":
        return experiment_surplus_gap(config.n, config.k[0])
    corpus = worst_case_corpus(config.seed, sizes=config.n)
    if config.experiment == "rsol-ratio":
        return experiment_rsol_ratio(corpus, config.k)
    return experiment_thmub(corpus, config.k)


def write_rows(rows: list[dict], out, seed: int) -> None:
    """Write experiment rows as CSV sorted by (experiment, n, k), with a
    trailing comment recording version and master seed."""
    if not rows:
        raise ValueError("no rows to write")
    ordered = sorted(rows, key=lambda r: (r["experiment"], r["n"], r["k"]))
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(ordered)
    out.write(f"# burnlab {VERSION} seed={seed}\n")


def rows_to_csv(rows: list[dict], seed: int) -> str:
    buf = io.StringIO()
    write_rows(rows, buf, seed)
    return buf.getvalue()
