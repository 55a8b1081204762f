"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one full pass
of package calls in ``run_pass`` (one call at a time, each starting after the
previous one returns) and checks the pass's outputs in ``check``, outside the
timed region. Every package call goes through a module attribute looked up at
call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from time import perf_counter

import numpy as np

import oracles


def sub_seed(seed: int, *tags) -> int:
    """A seed for one input family, derived from the workload seed."""
    words = [seed] + [int.from_bytes(hashlib.sha256(str(t).encode()).digest()[:4], "little")
                      for t in tags]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def digest(obj) -> str:
    """SHA-256 of a canonical JSON form; floats are written with every digit."""
    text = json.dumps(obj, sort_keys=True, default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()


def le(a: float, b: float) -> bool:
    """a <= b up to the oracle tolerance."""
    return a <= b + oracles.TOL * max(1.0, abs(b))


class Ops:
    """Times each op of a pass; with a tracer, the op is also a root span.
    With a speed probe, the machine's speed is sampled between ops."""

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.latencies: list[float] = []
        self.marks: list[int] = []
        self.errors: list[str] = []

    def run(self, label, fn, *args, **kwargs):
        if self.probe:
            self.probe.maybe_sample()
            self.marks.append(self.probe.mark)
        sid = self.tracer.begin_op(len(self.latencies), label) if self.tracer else None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed op is counted, and the run goes on
            self.errors.append(f"{label}: {exc!r}")
            return None
        finally:
            end = perf_counter()
            self.latencies.append(end - start)
            if self.tracer:
                self.tracer.end_op(sid, start, end)


class Checks:
    """Correctness checks of one run, with the margins and output digests."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.margins: dict[str, float] = {}
        self.digests: dict[str, str] = {}

    def add(self, name: str, predicate) -> bool:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:  # a check that cannot be evaluated fails
            ok = False
            name = f"{name}: {exc!r}"
        if not ok:
            self.failures.append(name)
        return ok

    def fail(self, name: str):
        self.add(name, lambda: False)

    def margin(self, name: str, value):
        self.margins[name] = float(value)

    def digest(self, name: str, outputs):
        """Record a digest; later passes must reproduce the first one."""
        value = digest(outputs)
        if name not in self.digests:
            self.digests[name] = value
        else:
            self.add(f"{name} digest equal across passes",
                     lambda: self.digests[name] == value)


# ---------------------------------------------------------------------------


class Reproduce:
    """The four configs of scripts/reproduce_results.py at full size.

    The paper-table path users run: big-array Monte Carlo (lb43, surplus-gap)
    and exact RSOL enumeration (rsol-ratio) do the work; the two-price sweep
    runs only at n <= 16 and no audit code runs. surplus-gap and thmub run one
    n per op, which gives the same rows (each n has its own substream) and
    seven ops per pass, so that p50 falls inside one op's samples (lb43)
    instead of between two.
    """

    name = "reproduce"
    sizes = {"lb43_reps": 10 ** 6, "surplus_gap_n": [32, 1024],
             "surplus_gap_reps": 10 ** 5, "corpus_n": [4, 8, 16], "k": [1, 2, 4]}

    def __init__(self):
        self._rsol_refs: dict = {}

    def setup(self, bl, seed):
        cfg = bl.simlab.ExperimentConfig
        k = (1, 2, 4)
        configs = [
            cfg("lb43", reps=10 ** 6, seed=seed),
            cfg("surplus-gap", n=(32,), k=(1,), reps=10 ** 5, seed=seed),
            cfg("surplus-gap", n=(1024,), k=(1,), reps=10 ** 5, seed=seed),
            cfg("rsol-ratio", n=(4, 8, 16), k=k, reps=1, seed=seed),
            *(cfg("thmub", n=(n,), k=k, reps=1, seed=seed) for n in (4, 8, 16)),
        ]
        corpus4 = {name: [float(v) for v in prof.values]
                   for name, prof in bl.simlab.worst_case_corpus(seed, sizes=(4,))}
        return {"configs": configs, "corpus4": corpus4}

    def instance_targets(self, inputs):
        return []

    def run_pass(self, bl, inputs, ops):
        out = {}
        for cfg in inputs["configs"]:
            res = ops.run(cfg.experiment, self._experiment, bl, cfg)
            out.setdefault(cfg.experiment, []).append(res)
        return out

    @staticmethod
    def _experiment(bl, cfg):
        rows = bl.simlab.run_experiment(cfg)
        return rows, bl.simlab.rows_to_csv(rows, cfg.seed)

    def check(self, inputs, out, checks: Checks):
        def rows(exp):
            return [row for rows, _ in out[exp] for row in rows]

        lb = lambda: rows("lb43")[0]  # noqa: E731
        checks.add("lb43 benchmark mean within 1% of 4/3",
                   lambda: abs(lb()["g_mean"] - 4 / 3) / (4 / 3) <= 0.01)
        checks.add("lb43 optimum within 0.5% of 1",
                   lambda: abs(lb()["opt_mean"] - 1.0) <= 0.005)
        inv = 1.0 / np.arange(1.0, 1025.0)
        target = float(inv.sum() / inv[:32].sum())
        gap = lambda: rows("surplus-gap")[1]["ratio"] / rows("surplus-gap")[0]["ratio"]  # noqa: E731
        checks.add("surplus-gap ratio within 5% of the harmonic target",
                   lambda: abs(gap() / target - 1.0) <= 0.05)
        checks.add("rsol-ratio min_ratio >= 0.05",
                   lambda: rows("rsol-ratio")[0]["min_ratio"] >= 0.05)
        checks.add("every thmub row passed",
                   lambda: len(rows("thmub")) == 45 and all(r["passed"] for r in rows("thmub")))
        for exp, results in out.items():
            for i, res in enumerate(results):
                checks.add(f"{exp} #{i} CSV has a header, every row and the trailer",
                           lambda r=res: len(r[1].splitlines()) == len(r[0]) + 2)
        errors = []
        for row in (r for r in rows("rsol-ratio") if r["n"] == 4):
            key = (row["profile"], row["k"])
            if key not in self._rsol_refs:
                self._rsol_refs[key] = oracles.rsol_value(inputs["corpus4"][row["profile"]], row["k"])
            ref = self._rsol_refs[key]
            errors.append(abs(row["rsol"] - ref))
            checks.add(f"exact RSOL matches enumeration on {key}",
                       lambda r=row, ref=ref: oracles.close(r["rsol"], ref))
        checks.add("n = 4 rows checked against the RSOL enumeration",
                   lambda: len(errors) == 15)
        margins = {
            "lb43_g_mean": lambda: lb()["g_mean"],
            "lb43_opt_mean": lambda: lb()["opt_mean"],
            "surplus_gap_ratio_over_target": lambda: gap() / target,
            "rsol_min_ratio": lambda: rows("rsol-ratio")[0]["min_ratio"],
            "rsol_oracle_max_err": lambda: max(errors),
            "thmub_min_slack": lambda: min(r["slack"] for r in rows("thmub")),
        }
        for name, value in margins.items():
            try:
                checks.margin(name, value())
            except (TypeError, ValueError, IndexError):  # an op failed; counted above
                pass
        checks.digest("exact_rows", {exp: [res and res[0] for res in out[exp]]
                                     for exp in ("rsol-ratio", "thmub")})


# ---------------------------------------------------------------------------


class Audit:
    """The A8 incentive audits, shaped as a workload.

    Many small per-profile calls where Python overhead dominates, the opposite
    use of the mechanisms from reproduce. RSOL's interim mask loop takes most
    of the time. The profile count per n is fixed, so that op latencies do not
    depend on which sizes a seed happens to draw.
    """

    name = "audit"
    PER_N = 5
    sizes = {"profiles_per_n": PER_N, "shared_n": [2, 8], "bayes_n": [2, 6],
             "mix_n": 2, "dsic_bids": 64, "identity_bids": 256,
             "mechanisms": ["plottery", "pqlottery", "vickrey", "logprice", "rsol",
                            "bayes", "mix"], "control": "firstprice"}

    def setup(self, bl, seed):
        audit = bl.audit
        bridge = bl.distributions.piecewise_inverse_hazard(
            [0.0, 1.0, 1.5, 2.0], [1.0, 3.0, 1.2, 4.0])
        iv = bl.ironing.iron(bridge)

        def corpus(tag, sizes, per_n, dist=None):
            return [p for n in sizes for p in audit.audit_profiles(
                sub_seed(seed, tag, n), count=per_n, n_range=(n, n), dist=dist)]

        shared = corpus("shared", range(2, 9), self.PER_N)
        suites = [
            (audit.audit_mechanism("plottery", 2, p=0.2), shared, 0.2),
            (audit.audit_mechanism("pqlottery", 2, p=0.5, q=0.1), shared, 0.5),
            (audit.audit_mechanism("vickrey", 2), shared, 0.0),
            (audit.audit_mechanism("logprice", 2), shared, 0.0),
            (audit.audit_mechanism("rsol", 1), shared, 0.0),
            (audit.audit_mechanism("bayes", 1, iv=iv),
             corpus("bayes", range(2, 7), 7, dist=bridge), 0.0),
            (audit.audit_mechanism("mix"), corpus("mix", [2], 7 * self.PER_N), 0.0),
        ]
        ops = []
        for mech, profiles, pmax in suites:
            for prof in profiles:
                hi = 1.25 * max(float(prof.values.max()), pmax, 1e-9)
                ops.append((mech, prof, np.linspace(0.0, hi, 64), np.linspace(0.0, hi, 256)))
        control = (audit.audit_mechanism("firstprice", 1),
                   bl.distributions.ValuationProfile(np.array([3.0, 1.0])),
                   np.linspace(0.0, 4.0, 64))
        return {"ops": ops, "control": control}

    def instance_targets(self, inputs):
        mechs = {id(op[0]): op[0] for op in inputs["ops"]}
        mechs[id(inputs["control"][0])] = inputs["control"][0]
        return [(m, "interim", "audit.interim", m.name) for m in mechs.values()]

    def run_pass(self, bl, inputs, ops):
        audit = bl.audit

        def audit_one(mech, prof, dsic_grid, pay_grid):
            dsic = audit.check_dsic(mech, prof, dsic_grid)
            identity = [audit.check_payment_identity(
                audit.extract_interim_rule(mech, prof, i, pay_grid))
                for i in range(prof.n)]
            return dsic, identity

        results = [(op[0].name, ops.run(op[0].name, audit_one, *op)) for op in inputs["ops"]]
        mech, prof, grid = inputs["control"]
        control = ops.run(mech.name, audit.check_dsic, mech, prof, grid)
        return {"results": results, "control": control}

    def check(self, inputs, out, checks: Checks):
        gains, errors, summary = [], [], []
        for idx, (name, res) in enumerate(out["results"]):
            checks.add(f"{name} profile {idx} truthful and payment identity holds",
                       lambda r=res: r[0].passed and all(p.passed for p in r[1]))
            if res is not None:
                gains.append(res[0].max_gain)
                errors.extend(p.max_error for p in res[1])
                summary.append((name, res[0].max_gain, res[0].agent, res[0].bid,
                                [p.max_error for p in res[1]]))
        control = out["control"]
        checks.add("firstprice control flagged",
                   lambda: not control.passed and control.max_gain > 0)
        if gains:
            checks.margin("max_dsic_gain", max(gains))
            checks.margin("max_payment_identity_error", max(errors))
        if control is not None:
            checks.margin("firstprice_control_gain", control.max_gain)
        checks.digest("audit_reports", summary)


# ---------------------------------------------------------------------------


class PriorFree:
    """Seeded profiles through the prior-free benchmark.

    The O(n^2) pair sweep of two_price_benchmark (one expected_pq_lottery call
    per candidate pair) does nearly all the work. Half the profiles have
    distinct values; the other half sit on a coarse grid, so they hold many
    ties and few candidates, which exercises the smallest-pair-on-ties rule.
    """

    name = "prior-free"
    # (n, profiles per tie class): p95 falls inside the n = 128 distinct ops
    # and p50 inside the n = 8 distinct ops.
    CLASSES = ((8, 40), (128, 8), (512, 1))
    KS = (1, 2, 4)
    GRID = 8
    sizes = {"classes": [list(c) for c in CLASSES], "k": list(KS),
             "tie_grid": GRID, "oracle_n": 8}

    def __init__(self):
        self._refs: dict = {}

    def setup(self, bl, seed):
        rng = np.random.default_rng(sub_seed(seed, "prior-free"))
        d = bl.distributions.uniform(0.0, 1.0)
        profiles = []
        for n, count in self.CLASSES:
            for tied in (False, True):
                for _ in range(count):
                    u = bl.distributions.sample_profile(d, n, rng).values
                    if tied:
                        u = np.round(u * self.GRID) / self.GRID
                        u[-1] = u[0]
                    values = u * 10.0 ** rng.uniform(-1.0, 1.0)
                    k = self.KS[int(rng.integers(len(self.KS)))]
                    profiles.append((f"n{n}_{'tied' if tied else 'distinct'}", values, k))
        return {"profiles": profiles}

    def instance_targets(self, inputs):
        return []

    def run_pass(self, bl, inputs, ops):
        def evaluate(values, k):
            return (bl.benchmark.two_price_benchmark(values, k),
                    bl.benchmark.optimal_p_lottery(values, k),
                    bl.benchmark.full_surplus(values, k),
                    bl.mechanisms.expected_log_price(values, k))

        return [ops.run(label, evaluate, values, k)
                for label, values, k in inputs["profiles"]]

    def check(self, inputs, out, checks: Checks):
        margins, errors, rows = [], [], []
        for idx, ((label, values, k), res) in enumerate(zip(inputs["profiles"], out)):
            def bounds(res=res):
                g, (single, _), full, _ = res
                return le(single, g.value) and le(g.value, 2 * single) and le(g.value, full)

            checks.add(f"{label} profile {idx}: single <= G <= 2 single, G <= full", bounds)
            if res is None:
                continue
            g, (single, _), _, _ = res
            rows.append((g.value, g.p, g.q))
            if g.value > 0:
                margins.append((single - g.value / 2) / g.value)
            if values.size == 8:
                vals = [float(v) for v in values]
                if idx not in self._refs:
                    self._refs[idx] = oracles.two_price_benchmark(vals, k)
                ref = self._refs[idx]
                errors.append(abs(g.value - ref))
                checks.add(f"{label} profile {idx}: G matches the pair-loop oracle",
                           lambda: oracles.close(g.value, ref)
                           and le(ref, oracles.two_price_value(vals, k, g.p, g.q)))
        if margins:
            checks.margin("half_benchmark_margin_min", min(margins))
        if errors:
            checks.margin("two_price_oracle_max_err", max(errors))
        checks.digest("benchmark_gpq", rows)


# ---------------------------------------------------------------------------


def _unit_cap(k: int, subset) -> float:
    return math.inf if len(subset) > k else 0.0


class PriorMC:
    """Prior-side Monte Carlo: ironing, the virtual-value identities, the
    estimator and subset-cost optimisation on four priors, plus the split probe.

    The only workload where ironing, the estimator's per-row loop, the
    identity and dominance Monte Carlo and the split probe run.
    """

    name = "prior-mc"
    RULES = ("lottery", "vickrey", "bayes")
    MC_REPS, MC_N, MC_K = 30_000, 6, 2
    # verify_utility_identity passes when the two sides' 99% intervals
    # overlap, so on correct code it flags about 1% of seeds per call (for
    # exp(1) the virtual side is constant and this is a plain 99% test). A
    # run fails only when the sides are further apart than IDENTITY_FACTOR
    # times the summed half-widths; the package's own flags are counted in
    # the identity_package_flags margin.
    IDENTITY_FACTOR = 2.0
    # (registry name, n, k, reps): vector path for the first four, per-row
    # path for the rest; per-row reps keep each call near 0.1 s.
    ESTIMATES = (("lottery", 8, 2, 20_000), ("vickrey", 8, 2, 20_000),
                 ("bayes", 8, 2, 20_000), ("mix", 2, 1, 20_000),
                 ("rsol", 8, 2, 300), ("logprice", 8, 2, 5_000),
                 ("plottery0", 8, 2, 5_000))
    COST_N, COST_K = 16, 4
    PROBE_N, PROBE_TRIALS = 10_000, 10_000
    sizes = {"priors": ["uniform(0,1)", "exp(1)", "pareto(1,2)", "twopiece"],
             "mc_reps": MC_REPS, "mc_n": MC_N, "mc_k": MC_K,
             "estimates": [list(e) for e in ESTIMATES], "cost_n": COST_N,
             "cost_k": COST_K, "probe_n": PROBE_N, "probe_trials": PROBE_TRIALS}

    def setup(self, bl, seed):
        dist = bl.distributions
        rng = np.random.default_rng(sub_seed(seed, "prior-mc"))
        priors = [dist.uniform(0.0, 1.0), dist.exponential(1.0),
                  dist.pareto(1.0, 2.0), dist.two_piece()]
        cost_profiles = [dist.sample_profile(d, self.COST_N, rng).values for d in priors]
        return {"priors": priors, "cost_profiles": cost_profiles, "seed": seed}

    def instance_targets(self, inputs):
        return []

    def run_pass(self, bl, inputs, ops):
        seed = inputs["seed"]
        audit, mechanisms = bl.audit, bl.mechanisms
        cap = functools.partial(_unit_cap, self.COST_K)
        out = []
        for d, cost_values in zip(inputs["priors"], inputs["cost_profiles"]):
            iv = ops.run("iron", bl.ironing.iron, d)
            identity = [ops.run("identity", audit.verify_utility_identity, d, rule,
                                self.MC_K, self.MC_N, self.MC_REPS, seed, iv=iv)
                        for rule in self.RULES]
            dominance = [ops.run("dominance", audit.verify_ironing_dominance, d, rule,
                                 self.MC_REPS, seed, k=self.MC_K, n=self.MC_N, iv=iv)
                         for rule in self.RULES]
            estimates = [ops.run(f"estimate {m}", bl.simlab.estimate, m, d, n, k, reps, seed)
                         for m, n, k, reps in self.ESTIMATES]

            def costs(iv=iv, values=cost_values):
                problem = mechanisms.CostProblem((iv.value,) * self.COST_N, cap)
                return mechanisms.bayes_optimal_with_costs(problem, values)

            cost = ops.run("costs", costs)
            out.append({"prior": d.name, "iv": iv, "identity": identity,
                        "dominance": dominance, "estimates": estimates, "cost": cost,
                        "cost_values": cost_values})
        probe = ops.run("probe", audit.balanced_sampling_probe, self.PROBE_N,
                        trials=self.PROBE_TRIALS, seed=seed)
        return {"priors": out, "probe": probe}

    def check(self, inputs, out, checks: Checks):
        gaps, slack, summary = [], [], []
        flags = 0
        for entry in out["priors"]:
            name = entry["prior"]
            for rule, rep in zip(self.RULES, entry["identity"]):
                def gap(r=rep):
                    return (abs(r.utility.mean - r.virtual.mean)
                            / (r.utility.ci_halfwidth + r.virtual.ci_halfwidth))

                if checks.add(f"{name}/{rule} utility identity within "
                              f"{self.IDENTITY_FACTOR:g}x the 99% intervals",
                              lambda: gap() <= self.IDENTITY_FACTOR):
                    gaps.append(gap())
                    flags += not rep.passed
            for rule, rep in zip(self.RULES, entry["dominance"]):
                if checks.add(f"{name}/{rule} ironing dominance",
                              lambda r=rep: r.inequality_passed):
                    slack.append((rep.diff_mean + 3 * rep.diff_se + rep.slack)
                                 / (3 * rep.diff_se + rep.slack))

            def cost_ok(e=entry):
                phi = sorted((e["iv"].value(float(v)) for v in e["cost_values"]), reverse=True)
                ref = sum(x for x in phi[:self.COST_K] if x > 0)
                return oracles.close(e["cost"].virtual_surplus, ref)

            checks.add(f"{name} subset-cost optimum equals the top-{self.COST_K} sum", cost_ok)
            summary.append([name, [(r.utility.mean, r.virtual.mean) for r in entry["identity"] if r],
                            [r.diff_mean for r in entry["dominance"] if r],
                            [(e.mean, e.ci_halfwidth) for e in entry["estimates"] if e],
                            entry["cost"] and entry["cost"].virtual_surplus])
        checks.add("split probe >= 0.9", lambda: out["probe"] >= 0.9)
        if out["probe"] is not None:
            checks.margin("probe_value", out["probe"])
        if gaps:
            checks.margin("identity_max_gap_over_ci", max(gaps))
            checks.margin("identity_package_flags", flags)
        if slack:
            checks.margin("dominance_min_margin_over_band", min(slack))
        checks.digest("mc_outputs", [summary, out["probe"]])


WORKLOADS = {w.name: w for w in (Reproduce, Audit, PriorFree, PriorMC)}
