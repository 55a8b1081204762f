"""Experiment orchestration: Monte Carlo estimation over priors, the
worst-case profile corpus, and the four reproducible experiments behind the
headline quantitative claims. Results are flat CSV rows, bit-for-bit
reproducible from (config, seed).
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .benchmark import full_surplus, two_price_benchmark
from .common import MIN_REPLICATES, VERSION, MechanismEval, mc_eval, substream
from .distributions import (ValuationProfile, ValueDistribution, as_profile,
                            exponential)
from .ironing import iron
from .mechanisms import (_bayes_rule, _ladder_rule, _lottery_rule, _mix_rule,
                         _residual, _rsol_exact, _vickrey_rule,
                         expected_log_price, expected_rsol)


# ---------------------------------------------------------------------------
# prior-expectation estimator


# registry name -> (V, k, d) -> exact expected residual of every sampled
# profile at once: its marginal rule's row residual, or rsol's enumeration
_REGISTRY = {
    "lottery": lambda V, k, d: _residual(V, *_lottery_rule(V, k, 0.0)),
    "plottery0": lambda V, k, d: _residual(V, *_lottery_rule(V, k, 0.0)),
    "vickrey": lambda V, k, d: _residual(V, *_vickrey_rule(V, k)),
    "bayes": lambda V, k, d: _residual(V, *_bayes_rule(iron(d), V, k)),
    "mix": lambda V, k, d: _residual(V, *_mix_rule(V, k)),
    "logprice": lambda V, k, d: _residual(V, *_ladder_rule(V, k)),
    "rsol": lambda V, k, d: _rsol_exact(V, k),
}


def estimate(mechanism, d: ValueDistribution, n: int, k: int, reps: int,
             seed: int) -> MechanismEval:
    """MC mean over profiles from d of each one's exact expected residual,
    for all profiles at once with a registry name (lottery, vickrey, bayes,
    mix, rsol, logprice, plottery0), one call per profile with a callable
    (profile, k) -> expected residual."""
    if reps < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates")
    name = mechanism if isinstance(mechanism, str) else getattr(
        mechanism, "__name__", "custom")
    if isinstance(mechanism, str) and mechanism not in _REGISTRY:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    rng = substream(seed, "estimate", name, n, k)
    V = np.asarray(d.quantile(rng.random((reps, n))), dtype=float)
    if isinstance(mechanism, str):
        samples = _REGISTRY[mechanism](V, k, d)
    else:
        samples = np.array([mechanism(ValuationProfile(row), k) for row in V])
    return mc_eval(samples, seed)


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


def _benchmark_two_exp(V: np.ndarray) -> np.ndarray:
    """Closed-form two-agent benchmark max{(v1+v2)/2, v1 - v2/2}."""
    hi = V.max(axis=1)
    lo = V.min(axis=1)
    return np.maximum(0.5 * (hi + lo), hi - 0.5 * lo)


def experiment_lb43(reps: int, seed: int) -> dict:
    """Two exponential agents, one unit: benchmark mean tends to 4/3 while
    the prior-optimal mechanism earns 1. Also spot-checks the conditional
    benchmark mean near the smaller value being 0."""
    rng = substream(seed, "lb43")
    V = rng.exponential(1.0, size=(reps, 2))
    g = _benchmark_two_exp(V)
    opt = _residual(V, *_bayes_rule(iron(exponential(1.0)), V, 1))
    g_eval = mc_eval(g, seed)
    opt_eval = mc_eval(opt, seed)
    lo = V.min(axis=1)
    bin_mask = lo < 0.02
    cond_g = float(g[bin_mask].mean())
    v2 = float(lo[bin_mask].mean())
    cond_pred = v2 + 0.5 * (1.0 + math.exp(-v2))
    return {
        "experiment": "lb43", "n": 2, "k": 1, "reps": reps, "seed": seed,
        "g_mean": g_eval.mean, "g_ci_lo": g_eval.ci[0], "g_ci_hi": g_eval.ci[1],
        "opt_mean": opt_eval.mean, "opt_ci_lo": opt_eval.ci[0],
        "opt_ci_hi": opt_eval.ci[1],
        "ratio": g_eval.mean / opt_eval.mean,
        "cond_g": cond_g, "cond_pred": cond_pred,
    }


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


def experiment_rsol_ratio(corpus, k_list) -> list[dict]:
    """Exact random-sampling-lottery value against the two-price benchmark
    on every corpus profile; min and median ratios are repeated on each row
    so the CSV is self-contained."""
    rows = []
    for name, prof in corpus:
        prof = as_profile(prof)
        for k in k_list:
            r = expected_rsol(prof, k, mode="exact").mean
            g = two_price_benchmark(prof, k).value
            rows.append({
                "experiment": "rsol-ratio", "profile": name,
                "n": prof.values.size, "k": k, "rsol": r, "g": g,
                "ratio": r / g if g > 0 else float("inf"),
            })
    ratios = [row["ratio"] for row in rows]
    lo, med = min(ratios), statistics.median(ratios)
    for row in rows:
        row["min_ratio"] = lo
        row["median_ratio"] = med
    return rows


def experiment_thmub(profile_corpus, k_list) -> list[dict]:
    """Log-price ladder mechanism against the full-surplus guarantee
    V*/(2(1+log2(n/k))) on every corpus profile."""
    rows = []
    for name, prof in profile_corpus:
        prof = as_profile(prof)
        n = prof.values.size
        for k in k_list:
            if k > n:
                continue
            lp = expected_log_price(prof, k)
            full = full_surplus(prof, k)
            bound = full / (2.0 * (1.0 + math.log2(n / k)))
            rows.append({
                "experiment": "thmub", "profile": name, "n": n, "k": k,
                "logprice": lp, "full": full, "bound": bound,
                "slack": lp - bound, "passed": lp >= bound,
            })
    return rows


# ---------------------------------------------------------------------------
# config and CSV plumbing


EXPERIMENT_NAMES = ("lb43", "surplus-gap", "rsol-ratio", "thmub")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "lb43"
    dist: str = "exp(1)"
    n: tuple[int, ...] = (32, 1024)
    k: tuple[int, ...] = (1,)
    reps: int = 100_000
    seed: int = 0
    out: str = ""

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.reps < 1:
            raise ValueError("need at least one replicate")
        for key in ("n", "k"):
            if min(getattr(self, key), default=1) < 1:
                raise ValueError(f"{key}: every size must be at least 1")
        if self.dist != "exp(1)":
            raise ValueError(f"dist = {self.dist}: every experiment fixes "
                             "its prior, so dist must be exp(1)")
        if self.experiment == "surplus-gap" and len(self.k) != 1:
            raise ValueError("k: surplus-gap takes a single k")


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse flat `key = value` config text (# starts a comment); experiment
    overrides the text's own. lb43 takes no n or k; the exact surplus-gap,
    rsol-ratio and thmub take no reps."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in ("n", "k"):
            fields[key] = tuple(int(tok) for tok in value.split(","))
        elif key in ("reps", "seed"):
            fields[key] = int(value)
        elif key in ("experiment", "dist", "out"):
            fields[key] = value
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if experiment is not None:
        fields["experiment"] = experiment
    for key in ("n", "k"):
        if key in fields and fields.get("experiment", "lb43") == "lb43":
            raise ValueError(f"{key}: lb43 always runs two agents, one unit")
    if "reps" in fields and fields.get("experiment") in ("surplus-gap",
                                                         "rsol-ratio", "thmub"):
        raise ValueError(f"reps: {fields['experiment']} is exact and draws "
                         "no replicates")
    return ExperimentConfig(**fields)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    if config.experiment == "lb43":
        return [experiment_lb43(config.reps, config.seed)]
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
