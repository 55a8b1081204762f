"""Acceptance checklist. Each test prints one pass/fail line; run with
pytest -s to see all nine lines."""

import time

import numpy as np
from test_mechanisms import grid_tol

from burnlab.audit import (audit_mechanism, audit_profiles,
                           balanced_sampling_probe, check_dsic,
                           check_payment_identity, extract_interim_rule,
                           verify_ironing_dominance, verify_utility_identity)
from burnlab.benchmark import (optimal_p_lottery, two_price_benchmark,
                               two_price_benchmark_rows)
from burnlab.common import substream
from burnlab.distributions import (exponential, pareto,
                                   piecewise_inverse_hazard, two_piece,
                                   uniform)
from burnlab.ironing import iron
from burnlab.mechanisms import MECHANISMS, Params, evaluate, expected_rsol
from burnlab.simlab import (experiment_lb43, experiment_rsol_ratio,
                            experiment_surplus_gap, experiment_thmub,
                            worst_case_corpus)

SEED = 20260823


def report(num, name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] A{num} {name}: {detail}")
    return passed


def test_a1_ironed_virtual_constant():
    devs = []
    times = []
    for d, const in [(uniform(0.0, 1.0), 0.5), (exponential(1.0), 1.0)]:
        t0 = time.perf_counter()
        iv = iron(d, grid=2 ** 14)
        times.append(time.perf_counter() - t0)
        devs.append(float(np.max(np.abs(iv.phibar - const))))
    ok = max(devs) <= 1e-3 and max(times) < 1.0
    detail = (f"max dev {max(devs):.2e} (tol 1e-3), "
              f"slowest {max(times):.3f}s (limit 1s)")
    assert report(1, "ironed virtual value constant", ok, detail), detail


def test_a2_two_agent_gap():
    t0 = time.perf_counter()
    row = experiment_lb43()
    elapsed = time.perf_counter() - t0
    g_dev = abs(row["g_mean"] - 4.0 / 3.0)
    opt_dev = abs(row["opt_mean"] - 1.0)
    # the exact optimum's trapezoid error bound on its grid, n = 2
    opt_tol = grid_tol(row["opt_grid"], 2)
    ok = (g_dev <= 1e-15 and opt_dev <= opt_tol
          and row["ratio"] == row["g_mean"] / row["opt_mean"] and elapsed < 60.0)
    detail = (f"benchmark mean {row['g_mean']!r} (exact, target 4/3 +-1e-15), "
              f"optimal {row['opt_mean']:.9f} (exact on {row['opt_grid']} "
              f"points, target 1 +-{opt_tol:.1e}), {elapsed:.1f}s")
    assert report(2, "4/3 benchmark gap", ok, detail), detail


def test_a3_mixture_guarantee():
    rng = substream(SEED, "acceptance", 3)
    V = rng.uniform(0.0, 10.0, (10 ** 4, 2))
    # the mixture's rule rows, each bit for bit evaluate("mix", row, 1)
    value = MECHANISMS["mix"].value(V, 1, Params())
    worst_eq = float(np.abs(value - 2.0 / 3.0 * V.max(axis=1)).max())
    worst_dom = float((value - 2.0 / 3.0 * two_price_benchmark_rows(V, 1)[0]).min())
    ok = worst_eq <= 1e-12 and worst_dom >= -1e-12
    detail = (f"max |value - (2/3) top| {worst_eq:.1e}, "
              f"min margin over (2/3) benchmark {worst_dom:.1e} (tol 1e-12)")
    assert report(3, "mixture equals and covers 2/3", ok, detail), detail


def test_a4_lottery_inequalities():
    rng = substream(SEED, "acceptance", 4)
    worst_sub = -np.inf
    worst_half = -np.inf
    by_k = {}
    for _ in range(10 ** 4):
        n = int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-1, 1)
        vals = rng.uniform(0.0, 10.0, n) * scale
        k = int(rng.integers(1, 5))
        q, p = np.sort(rng.uniform(0.0, 12.0, 2) * scale)
        combined = evaluate("pqlottery", vals, k, p=p, q=q)
        split = (evaluate("plottery", vals, k, p=p)
                 + evaluate("plottery", vals, k, p=q))
        worst_sub = max(worst_sub, combined - split)
        single, _ = optimal_p_lottery(vals, k)
        by_k.setdefault(k, []).append((vals, single))
    # the benchmark of each k's profiles at once, zero-padded to 8 values
    for k, cases in by_k.items():
        V = np.zeros((len(cases), 8))
        for row, (vals, _) in zip(V, cases):
            row[:vals.size] = vals
        G = two_price_benchmark_rows(V, k)[0]
        worst_half = max(worst_half, (G / 2.0 - [s for _, s in cases]).max())
    ok = worst_sub <= 1e-9 and worst_half <= 1e-9
    detail = (f"max two-price excess {worst_sub:.1e}, "
              f"max half-benchmark deficit {worst_half:.1e} (tol 1e-9)")
    assert report(4, "sublottery and half-benchmark bounds", ok, detail), detail


def test_a5_log_price_guarantee():
    t0 = time.perf_counter()
    rows = experiment_thmub(worst_case_corpus(SEED), (1, 2, 4))
    elapsed = time.perf_counter() - t0
    ok = (len(rows) == 45 and all(r["passed"] for r in rows)
          and all(r["logprice"] >= r["bound"] for r in rows)
          and elapsed < 10.0)
    detail = (f"{len(rows)} corpus rows, min slack "
              f"{min(r['slack'] for r in rows):.3f}, {elapsed:.2f}s")
    assert report(5, "price ladder covers scaled surplus", ok, detail), detail


def test_a6_surplus_gap_scaling():
    rows = experiment_surplus_gap((32, 1024), 1)
    measured = rows[1]["ratio"] / rows[0]["ratio"]
    inv = 1.0 / np.arange(1.0, 1025.0)
    target = float(inv.sum() / inv[:32].sum())
    ok = abs(measured / target - 1.0) <= 1e-12
    detail = (f"ratio(1024)/ratio(32) = {measured:.6f}, harmonic target "
              f"{target:.6f}, relative error "
              f"{abs(measured / target - 1.0):.1e} (tol 1e-12)")
    assert report(6, "surplus gap grows harmonically", ok, detail), detail


def test_a7_sampling_lottery_floor():
    rows = experiment_rsol_ratio(worst_case_corpus(SEED), (1, 2, 4))
    floor = rows[0]["min_ratio"]
    worked = expected_rsol((3.0, 1.0), 1).mean / two_price_benchmark(
        (3.0, 1.0), 1).value
    ok = floor >= 0.05 and abs(worked - 0.6) <= 1e-12
    detail = (f"corpus floor {floor:.4f} (limit 0.05), worked ratio "
              f"{worked:.3f} (target 0.6)")
    assert report(7, "sampling lottery benchmark floor", ok, detail), detail


def _corpus_clean(mech, corpus, pmax):
    for prof in corpus:
        hi = 1.25 * max(float(prof.values.max()), pmax, 1e-9)
        if not check_dsic(mech, prof, np.linspace(0.0, hi, 64)).passed:
            return False
        for i in range(prof.n):
            rule = extract_interim_rule(mech, prof, i,
                                        np.linspace(0.0, hi, 256))
            if not check_payment_identity(rule).passed:
                return False
    return True


def test_a8_incentive_audits():
    shared = audit_profiles(17, count=100, n_range=(2, 8))
    bridge = piecewise_inverse_hazard([0.0, 1.0, 1.5, 2.0],
                                      [1.0, 3.0, 1.2, 4.0])
    suites = [
        (audit_mechanism("plottery", 2, p=0.2), shared, 0.2),
        (audit_mechanism("pqlottery", 2, p=0.5, q=0.1), shared, 0.5),
        (audit_mechanism("vickrey", 2), shared, 0.0),
        (audit_mechanism("logprice", 2), shared, 0.0),
        (audit_mechanism("rsol", 1), shared, 0.0),
        (audit_mechanism("bayes", 1, iv=iron(bridge)),
         audit_profiles(17, count=100, n_range=(2, 6), dist=bridge), 0.0),
        (audit_mechanism("mix"),
         audit_profiles(17, count=100, n_range=(2, 2)), 0.0),
    ]
    clean = {m.name: _corpus_clean(m, corpus, pmax)
             for m, corpus, pmax in suites}
    control = check_dsic(audit_mechanism("firstprice", 1), (3.0, 1.0),
                         np.linspace(0.0, 4.0, 64))
    ok = all(clean.values()) and not control.passed and control.max_gain > 0
    detail = (f"{len(clean)} mechanisms x 100 profiles clean "
              f"({', '.join(k for k, v in clean.items() if not v) or 'none failing'}), "
              f"control gain {control.max_gain:.3f}")
    assert report(8, "truthfulness and payment audits", ok, detail), detail


def test_a9_identity_and_dominance():
    priors = [uniform(0.0, 1.0), exponential(1.0), pareto(1.0, 2.0),
              two_piece()]
    failures = []
    for d in priors:
        iv = iron(d)
        for rule in ("lottery", "vickrey", "bayes"):
            idr = verify_utility_identity(d, rule, 2, 6, 10 ** 5, 11, iv=iv)
            dom = verify_ironing_dominance(d, rule, 10 ** 5, 11, k=2, n=6,
                                           iv=iv)
            if not (idr.passed and dom.inequality_passed):
                failures.append(f"{d.name}/{rule}")
    probe = balanced_sampling_probe(10 ** 4)
    ok = not failures and probe >= 0.9
    detail = (f"12 prior x rule validations at 1e5 reps "
              f"({', '.join(failures) or 'all pass'}), split probe "
              f"{probe:.4f} >= 0.9")
    assert report(9, "virtual-value lemmas and split probe", ok, detail), detail
