"""Planted bugs the suite must catch.

Each row names a function, one exact snippet of its source, the snippet's
replacement and the checks that must fail once the mutated function stands in
for the original. A mutant that no named check catches means a check has lost
its power: strengthen the check, never drop the row. Where several checks
catch a mutant, a row may name only the quick ones, since a failing property
test spends most of its time shrinking.
"""

import __future__
import ast
import functools
import inspect
import sys
import textwrap

import pytest
import test_acceptance
import test_audit
import test_benchmark
import test_cli
import test_common
import test_digests
import test_distributions
import test_ironing
import test_mechanisms
import test_rsol_golden
import test_simlab

from burnlab import (audit, benchmark, cli, common, distributions, ironing,
                     mechanisms, simlab)

MUTANTS = {
    "pass-tie-largest-price": (
        mechanisms, "_rsol_expand", "up = val >= best[:, :s]", "up = val > best[:, :s]",
        [test_mechanisms.test_rsol_exact_matches_plain_loop]),
    # a run of c equal values: block m weighted C(c, m - 1), by Pascal's rule
    # C(c + 1, m) - C(c, m), where it stands for C(c, m) halvings
    "pass-run-weight-one-off": (
        mechanisms, "_rsol_plan", "math.comb(c, t)", "(math.comb(c + 1, t) - math.comb(c, t))",
        [test_rsol_golden.test_rsol_exact_closed_forms,
         test_rsol_golden.test_rsol_exact_matches_fraction_oracle]),
    # inside a run, the agent's value goes to the serving sum where it joins
    # the pool and to the pool's sum where it serves
    "pass-run-join-serve-swapped": (
        mechanisms, "_rsol_expand", "ps[:, :s] += v\n        ss[:, s:s + base] += v",
        "join, serve = (ps, ss) if j == first[j] else (ss, ps)\n"
        "        join[:, :s] += v\n        serve[:, s:s + base] += v",
        [test_rsol_golden.test_rsol_exact_closed_forms,
         test_rsol_golden.test_rsol_exact_matches_fraction_oracle]),
    # a split row's tails weighted with the head's block varying slowest
    "pass-split-weights-transposed": (
        mechanisms, "_rsol_exact", "np.outer(w_tail, w_head[h:h + g])",
        "np.outer(w_head[h:h + g], w_tail)",
        [functools.partial(test_mechanisms.test_rsol_exact_splits_tied_rows, 14)]),
    # the rank odds that Vickrey's half reads in the exact pass, the Monte
    # Carlo and the audit interim: the price set by the k+2-nd value, or k+1
    # winners
    "pass-vickrey-price-rank-k": (
        mechanisms, "_rank_odds", "odds[min(k, n + 1)]", "odds[min(k + 1, n + 1)]",
        [test_rsol_golden.test_rsol_exact_matches_fraction_oracle,
         test_rsol_golden.test_rsol_ratio_rows_golden]),
    "vickrey-half-top-count-plus-one": (
        mechanisms, "_rank_odds", "odds[:k].sum()", "odds[:k + 1].sum()",
        [test_rsol_golden.test_rsol_exact_matches_fraction_oracle,
         test_rsol_golden.test_rsol_ratio_rows_golden]),
    # the leaves' offer of the last price, 0, holds its own copy of the tie
    # rule
    "leaves-pool-tie-largest-price": (
        mechanisms, "_rsol_exact", "(coef[m] * ps >= best)", "(coef[m] * ps > best)",
        [test_mechanisms.test_rsol_exact_matches_plain_loop]),
    # the last agent joins the pool but is left out of its count: in the
    # last run of c, block t < c counts c - t - 1
    "leaves-pool-count-misses-last-agent": (
        mechanisms, "_rsol_plan", "np.add.outer(c - np.arange(c + 1), pool[i >= cut])",
        "np.add.outer(c - np.arange(c + 1) - (i == runs.size - 1) * (np.arange(c + 1) < c),"
        " pool[i >= cut])",
        [test_rsol_golden.test_rsol_ratio_rows_golden]),
    # every count's lottery at the offered price shares the first count's units
    "pass-lot-first-count-share": (
        mechanisms, "_rsol_expand", "coef[sr] * serve_less", "coefs[0][sr] * serve_less",
        [test_mechanisms.test_rsol_exact_columns_match_single_k]),
    "learned-price-largest-on-ties": (
        mechanisms, "_learned_price", "prices, np.inf).min(axis=-1)",
        "prices, -np.inf).max(axis=-1)",
        [test_mechanisms.test_learned_price_matches_scan]),
    # the ladder's L = 2 round on [2, 1, 1, 1] has band weights 1/2 and 1/6
    "run-equal-band-weights": (
        mechanisms, "_run", "ends = np.cumsum(x[order])",
        "ends = np.cumsum(np.full(band.size, x[band].mean()))",
        [functools.partial(test_mechanisms.test_realized_runs_match_rule_rows,
                           "logprice", None)]),
    # systematic sampling in a fixed order still gives every agent its exact
    # x, so only which agents win together shows the missing shuffle
    "run-fixed-band-order": (
        mechanisms, "_run", "order = rng.permutation(band)", "order = band",
        [test_mechanisms.test_realized_band_pairs_are_uniform]),
    # the Monte Carlo's Vickrey on every agent, not on a random half
    "rsol-values-vickrey-on-all-agents": (
        mechanisms, "_rsol_values", "_vickrey_half(V_desc, k))",
        "_residual(np.atleast_2d(V_desc), *_vickrey_rule(np.atleast_2d(V_desc), k)))",
        [test_mechanisms.test_rsol_exact_matches_mc]),
    # the audit interim's Vickrey half: a tie shared with one slot too many,
    # the price set by the k+1-st serving opponent, and a NaN bid that every
    # opponent is above taken for one that none is above
    "interim-vickrey-share": (
        mechanisms, "_vickrey_half_interim", "(r <= (~(o < bid))",
        "(r <= 1 + (~(o < bid))", [test_audit.test_rsol_interim_matches_halving_oracle]),
    "interim-vickrey-price-rank-k": (
        mechanisms, "_vickrey_half_interim", "_rank_odds(r.size, k - 1)",
        "_rank_odds(r.size, k)",
        [test_audit.test_rsol_interim_matches_halving_oracle]),
    "interim-vickrey-nan-bid-below-all": (
        mechanisms, "_vickrey_half_interim", "(~(o <= bid))", "(o > bid)",
        [test_audit.test_rsol_interim_matches_halving_oracle]),
    "interim-lottery-count-plus-two": (
        mechanisms, "_rsol_halving_sums", "keepdims=True) + 1", "keepdims=True) + 2",
        [test_audit.test_rsol_interim_matches_halving_oracle]),
    # a bid exactly at a value takes the answer of the gap below it
    "interim-region-key-no-equality": (
        mechanisms, "_rsol_interim",
        'np.searchsorted(u, b) + np.searchsorted(u, b, "right")',
        "2 * np.searchsorted(u, b)", [test_audit.test_rsol_region_interim_is_bitwise]),
    # a NaN bid, where every comparison is False, shares the top region
    "interim-nan-joins-top-region": (
        mechanisms, "_rsol_table", "np.append(c, np.nan)", "c",
        [test_audit.test_rsol_region_interim_is_bitwise]),
    # the table asks the kernel one region at a time, and numpy adds a
    # single column's halvings pairwise, not in order
    "interim-lone-region-one-column": (
        mechanisms, "_rsol_table",
        "x, pay = _rsol_halving_sums(k, o, np.broadcast_to(row, (n, row.size)))",
        "x, pay = np.concatenate([_rsol_halving_sums(k, o, np.broadcast_to(row[j:j + 1], (n, 1)))"
        " for j in range(row.size)], axis=-1)",
        [test_audit.test_rsol_region_interim_is_bitwise]),
    # k = 1's table answers the k = 2 audit of the same profile
    "rsol-table-ignores-k": (
        mechanisms, "_rsol_interim", "_rsol_table(k, v.tobytes())",
        "_rsol_table(0, v.tobytes())", [test_audit.test_rsol_table_matches_fresh_kernel]),
    # a bid inside a gap reads the answer of the value below it
    "rsol-table-no-midpoint-reps": (
        mechanisms, "_rsol_table", "c[:-1] + 0.5 * np.diff(c)", "c[:-1]",
        [test_audit.test_rsol_table_matches_fresh_kernel]),
    # the shared cuts miss the first agent's value, so the others read a bid
    # at it from the gap around it
    "rsol-table-cuts-miss-a-value": (
        mechanisms, "_rsol_table", "np.unique(np.append(v, 0.0))",
        "np.unique(np.append(v[1:], 0.0))", [test_audit.test_rsol_region_interim_is_bitwise]),
    # the interim door lets through a negative value, a negative bid, or
    # (in the grid too) any bid at least -inf
    "door-takes-any-values": (
        audit, "audit_mechanism", "as_profile(values).values", "np.asarray(values, dtype=float)",
        [functools.partial(test_audit.test_interim_refuses_what_no_value_can_be, name="rsol",
                           values=[3.0, -1.0], bids=[1.0],
                           message="profile values must be finite and nonnegative")]),
    "door-takes-any-bids": (
        audit, "audit_mechanism", '_bids(bids, "bids")', "np.asarray(bids, dtype=float)",
        [functools.partial(test_audit.test_interim_refuses_what_no_value_can_be, name="rsol",
                           values=[3.0, 1.0], bids=[2.0, -1.0],
                           message="bids must be at least 0, got -1.0")]),
    "bids-negative-pass": (
        audit, "_bids", "(b >= 0) & (b < np.inf)", "(b >= -np.inf) & (b < np.inf)",
        [test_audit.test_audits_reject_negative_grid_bid]),
    # each agent reads the scan's answers for the agent before it
    "dsic-scan-one-agent-off": (
        audit, "_scan", "return x.reshape(n, -1), pay.reshape(n, -1)",
        "return np.roll(x.reshape(n, -1), 1, 0), np.roll(pay.reshape(n, -1), 1, 0)",
        [test_audit.test_check_dsic_matches_agent_loop]),
    # agents vary fastest in the call, so each asks bids out of its row
    "stacked-agent-alignment": (
        audit, "_scan", "np.repeat(np.arange(n), bids.size)", "np.tile(np.arange(n), bids.size)",
        [test_audit.test_extract_interim_rule_matches_agent_loop,
         test_audit.test_check_dsic_matches_agent_loop]),
    # the scan never bids an opponent's value, where a tie-only deviation pays
    "dsic-bids-drop-values": (
        audit, "check_dsic", "grid, values, mech.edges", "grid, mech.edges",
        [test_audit.test_check_dsic_flags_a_tie_only_deviation]),
    # the same values on another grid read the first grid's rules
    "identity-table-ignores-grid": (
        audit, "extract_interim_rule", "values.tobytes(), grid.tobytes())",
        'values.tobytes(), b"")',
        [test_audit.test_extract_interim_rule_matches_agent_loop]),
    # the two-price sweep holds _blended_price by name too
    "blended-price-discount": (
        mechanisms, "_blended_price", "return ((k - s + 1)",
        "return 0.99 * ((k - s + 1)",
        [test_mechanisms.test_pq_lottery_oracles,
         test_audit.test_bayes_interim_steps_at_interval_edges]),
    "two-price-band-share-plus-one": (
        mechanisms, "_two_price", "band * ((k - s) / np.maximum(t, 1))",
        "band * ((k - s + 1) / np.maximum(t, 1))",
        [test_mechanisms.test_pq_lottery_oracles,
         test_mechanisms.test_bayes_bridged_tie_share]),
    # pq's value bands (q, p] in place of the ironed-level bands, which keep
    # [v_lo, v_hi): pins the convention at the interval ends
    "bayes-value-space-bands": (
        mechanisms, "_bridged_rows", "_two_price(levels > c, levels == c,",
        "_two_price(V > hi, (V > lo) & (V <= hi),",
        [test_audit.test_bayes_truthful_at_interval_ends]),
    # each branch computed on the other side's rows
    "bayes-split-sides-swapped": (
        mechanisms, "_bayes_rule",
        "b, u = np.flatnonzero(bridged), np.flatnonzero(~bridged)",
        "u, b = np.flatnonzero(bridged), np.flatnonzero(~bridged)",
        [test_mechanisms.test_bayes_rule_matches_where_oracle]),
    # every row through the bridged branch once any row is bridged
    "bayes-split-any-is-all": (
        mechanisms, "_bayes_rule", "if bridged.all():", "if bridged.any():",
        [test_mechanisms.test_bayes_rule_matches_where_oracle]),
    "iron-memo-key-drops-grid": (
        ironing, "iron", "key = (id(d), operator.index(grid), eps)",
        "key = (id(d), eps)", [test_ironing.test_iron_memo]),
    # the top-share price at the L+2-nd value: Vickrey's and each rung's
    "ladder-rung-price-one-rank-low": (
        mechanisms, "_top_share_rule", "[max(n - L - 1, 0) for L in tops]",
        "[max(n - L - 2, 0) for L in tops]",
        [test_audit.test_ladder_matches_independent_oracle]),
    # each rung sells one unit; equivalent to the ladder at k = 1 only
    "ladder-rule-one-unit": (
        mechanisms, "_ladder_rule", "sizes, k)", "sizes, 1)",
        [test_simlab.test_estimate_logprice_is_ladder_rule]),
    # one ulp on the benchmark's value, which the pinned output digest sees
    "benchmark-value-one-ulp-up": (
        benchmark, "_sweep", "out[:, s:s + g] = row[r, j],",
        "out[:, s:s + g] = np.nextafter(row[r, j], np.inf),",
        [functools.partial(test_digests.test_workload_digest, "prior-free", 1)]),
    # prefixes that take in each price's own agent: on distinct values the
    # count and sum of the agents at or above it, a left-side count
    "sweep-count-side-left": (
        mechanisms, "_price_runs", "np.concatenate((np.zeros(w.shape[:-1] + (1,)), w), axis=-1)",
        "np.concatenate((w, np.zeros(w.shape[:-1] + (1,))), axis=-1)",
        [test_benchmark.test_sweep_matches_pair_loop]),
    "sweep-band-sum-with-top": (
        benchmark, "_pair_values", "(total - top - t * q)", "(total - t * q)",
        [test_benchmark.test_sweep_matches_pair_loop]),
    "sweep-tie-floor-at-best": (
        benchmark, "_sweep",
        "floor = best - 1e-12 * np.abs(best)", "floor = best",
        [test_benchmark.test_sweep_matches_pair_loop]),
    # one tie floor for a block of rows, from the best of them all: a row
    # whose own best is lower finds no pair above it and reads (0, 0)
    "sweep-tie-floor-from-block": (
        benchmark, "_sweep", "best = row_max.max(axis=1, keepdims=True)",
        "best = row_max.max(keepdims=True)",
        [test_benchmark.test_sweep_matches_pair_loop]),
    "cell-no-down-correction": (
        ironing, "IronedVirtual._cell", "cell -= q.take(cell) > qv", "pass",
        [test_ironing.test_grid_lookups_match_searchsorted]),
    "cell-no-up-correction": (
        ironing, "IronedVirtual._cell", "cell += q[1:].take(cell) <= qv", "pass",
        [test_ironing.test_grid_lookups_match_searchsorted]),
    # the one pop predicate serves the per-point step and both bulk runs
    "hull-no-slope-guard": (
        ironing, "_pops", "return (cross <= 0.0) | (",
        "return (cross <= 0.0) | False & (",
        [test_ironing.test_hull_properties]),
    # a fan run that never asks whether the point also pops A
    "hull-fan-no-second-pop": (
        ironing, "_fan_run", "run &= ~pops(xp, yp, xa, ya, xj, yj)", "pass",
        [functools.partial(test_ironing.test_hull_matches_oracle_on_long_paths,
                           "concave", 0)]),
    "hull-convex-run-past-turn": (
        ironing, "lower_convex_hull", "stop = n if stop < 0 else stop",
        "stop = n if stop < 0 else min(stop + 1, n)",
        [functools.partial(test_ironing.test_hull_matches_oracle_on_prior_paths, 64)]),
    # equivalent on a segment with one interior point, which reduceat reads
    # alone either way
    "iron-bridge-test-one-short": (
        ironing, "iron", "inner[1::2] = hull_idx[wide + 1]",
        "inner[1::2] = hull_idx[wide + 1] - 1",
        [test_ironing.test_bridge_test_reads_last_interior_point]),
    "costs-tie-strict": (
        mechanisms, "bayes_optimal_with_costs",
        "elif abs(value - best) <= 1e-12", "elif abs(value - best) < 1e-12",
        [test_mechanisms.test_costs_match_mask_loop]),
    # the closed forms on the coarsest grid their test runs
    "prior-top-chance-bound-off-by-one": (
        mechanisms, "_rank_win", "range(L), 1.0 - q)", "range(L + 1), 1.0 - q)",
        [functools.partial(test_mechanisms.test_prior_expectation_closed_forms,
                           2 ** 10)]),
    # uniform(0, 1) irons flat: without the averaging Bayes reads Vickrey's
    # x inside the interval, not k * mean
    "prior-bayes-no-interval-average": (
        mechanisms, "_bayes_xbar",
        "left[i0:i1] = right[i0:i1] = mean", "pass",
        [functools.partial(test_mechanisms.test_prior_expectation_closed_forms,
                           2 ** 10)]),
    # exp(1) at k = 3 has a rung L = 2 < k, where k/L exceeds one unit each
    "prior-ladder-share-k-over-L": (
        mechanisms, "_top_share_rule", "[[min(units, L) / L] for L in tops]",
        "[[units / L] for L in tops]",
        [functools.partial(test_mechanisms.test_prior_expectation_closed_forms,
                           2 ** 10)]),
    # the plain trapezoid on the top cell errs by about 0.03 on pareto(1, 2)
    "prior-top-cell-trapezoid": (
        mechanisms, "_rank_prior", "g_left[-1] = g_right[-1]", "pass",
        [functools.partial(test_mechanisms.test_prior_expectation_closed_forms,
                           2 ** 10)]),
    # the mixture's rule, and so its xbar, a half above Vickrey's third
    "prior-mix-offset-half": (
        mechanisms, "_mix_rule", "X / 3.0 + 1.0 / 3.0", "X / 3.0 + 1.0 / 2.0",
        [functools.partial(test_mechanisms.test_prior_expectation_closed_forms,
                           2 ** 10)]),
    # xbar read from the rule on ascending values: rank r gets x_{n+1-r}
    "rank-xbar-ranks-reversed": (
        mechanisms, "_rank_xbar", "np.arange(n, 0, -1.0)", "np.arange(1.0, n + 1.0)",
        [functools.partial(test_mechanisms.test_prior_expectation_closed_forms,
                           2 ** 10)]),
    # the estimator's exact path asks the prior view for one unit more
    "estimate-prior-k-plus-one": (
        simlab, "estimate", "entry.prior(d, n, k, None)",
        "entry.prior(d, n, k + 1, None)", [test_simlab.test_estimate_closed_forms]),
    # the row blocks of the prior-side Monte Carlo: the rows after the last
    # full block never drawn, or blocks that overlap by one row, which is
    # then drawn twice
    "mc-blocks-drop-last-partial": (
        common, "mc_blocks", "range(0, reps, rows)", "range(0, reps - rows + 1, rows)",
        [functools.partial(test_audit.test_mc_blocks_are_bitwise, cells=None)]),
    "mc-blocks-overlap-one-row": (
        common, "mc_blocks", "range(0, reps, rows)", "range(0, reps, rows - 1)",
        [functools.partial(test_audit.test_mc_blocks_are_bitwise, cells=None)]),
    # mc_eval's interval from the population variance
    "mc-eval-ddof0": (
        common, "mc_eval", "/ (x.size - 1)", "/ x.size",
        [functools.partial(test_common.test_many_chunks_within_bound, "exp(1)")]),
    # lb43's closed form without its E[e^-lo]/2 term: 1, not 4/3
    "lb43-closed-form-term-dropped": (
        simlab, "experiment_lb43", "mean_lo + 0.5 + 0.5 * laplace_lo",
        "mean_lo + 0.5", [test_acceptance.test_a2_two_agent_gap,
                          test_simlab.test_lb43_experiment]),
    # RSOL's Monte Carlo serving the complement of its halves: the same
    # distribution, so only the one-array oracle of its draws sees it
    "rsol-mc-serving-flipped": (
        mechanisms, "expected_rsol", "rng.random(shape) < 0.5",
        "rng.random(shape) >= 0.5",
        [functools.partial(test_audit.test_mc_blocks_are_bitwise, cells=None)]),
    # payments 1 % high in the identity check's rule rows; uniform(0, 1)
    # Vickrey, the matrix's first cell with payments, is caught
    "identity-payments-1.01": (
        audit, "verify_utility_identity", "_residual(V, X, P)",
        "_residual(V, X, 1.01 * P)", [test_audit.test_identity_matrix]),
    # the dominance gain's pieces: the strip above the grid left out, phibar
    # read one cell up (the same inside a hull segment, so equivalent on
    # uniform(0, 1) and exp(1), whose hull is one chord), xbar's left end
    # taken for the whole piece
    "dominance-no-top-strip": (
        audit, "verify_ironing_dominance", "0.5 * (right[-1] + top) * (1.0 - q[-1])",
        "0.0", [test_audit.test_dominance_by_parts]),
    "dominance-phibar-next-cell": (
        audit, "verify_ironing_dominance", "iv.phibar[:-1]", "iv.phibar[1:]",
        [test_audit.test_dominance_by_parts]),
    "dominance-xbar-left-end": (
        audit, "verify_ironing_dominance", "0.5 * (left + right) * np.diff(q)",
        "left * np.diff(q)",
        [functools.partial(test_audit.test_dominance_uniform_vickrey_closed_form,
                           n=8, k=1),
         test_audit.test_dominance_by_parts]),
    # exp(1)'s gain is float dust, which a zero slack alone would call unequal
    "dominance-no-rounding-allowance": (
        audit, "verify_ironing_dominance", "band = slack + ", "band = slack + 0 * ",
        [test_audit.test_dominance_exact_cases]),
    "interim-chunk-sums-dropped": (
        mechanisms, "_rsol_halving_sums", "xs[..., 0, :] + x,", "xs[..., 0, :],",
        [test_audit.test_rsol_interim_chunking_invariant]),
    "probe-limit-rounds-up": (
        audit, "balanced_sampling_probe", "3 * i // 4", "(3 * i + 3) // 4",
        [test_audit.test_probe_oracles]),
    # count 0 keeps the value two ranks back
    "probe-no-first-copy": (
        audit, "balanced_sampling_probe", "u[0] = w[0]", "pass",
        [test_audit.test_probe_matches_in_place_loop]),
    "probe-no-final-rescale": (
        audit, "balanced_sampling_probe", "w *= 2.0 ** -pending", "pass",
        [test_audit.test_probe_oracles]),
    # the table's rows: the lottery with the aliases' and the audits' view of
    # it strict at its price, where an agent valued exactly at p drops out
    "table-lottery-strict": (
        mechanisms, "MECHANISMS", "_lottery_rule(V, k, a.p)",
        "_lottery_rule(V, k, a.p, strict=True)",
        [test_audit.test_interim_totals_match_expectations]),
    "table-bayes-edges-drop-v-hi": (
        mechanisms, "MECHANISMS", "for e in (i.v_lo, i.v_hi)", "for e in (i.v_lo,)",
        [test_audit.test_bayes_interim_steps_at_interval_edges]),
    # off the bid grid, the two-price lottery's jump at p breaks the identity
    "table-pq-edges-drop-p": (
        mechanisms, "MECHANISMS", "edges=lambda a: (a.q, a.p)",
        "edges=lambda a: (a.q,)",
        [test_audit.test_adapters_truthful_on_random_corpus]),
    # eval would take --p for the prior-optimal mechanism and ignore it
    "table-bayes-reads-p": (
        mechanisms, "MECHANISMS", '_ruled(("iv",),', '_ruled(("iv", "p"),',
        [functools.partial(test_cli.test_eval_unread_flag_exit_two, mech="bayes",
                           flags=["--dist", "exp(1)", "--p", "0"], flag="p")]),
    # evaluate and run pass on no price: every entry at its defaults
    "verbs-params-dropped": (
        mechanisms, "_entry", "Params(**params)", "Params()",
        [test_mechanisms.test_p_lottery_oracles, test_mechanisms.test_pq_lottery_oracles]),
    # Bayes's run view, which evaluate reads too, takes off-support values
    "bayes-run-no-support-check": (
        mechanisms, "_bayes_run", "_require_in_support(iv.dist, v)", "None",
        [test_mechanisms.test_bayes_support_validation]),
    "unpriced-takes-priced-entries": (
        mechanisms, "unpriced", 'name in MECHANISMS and {"p", "q"} & set(entry.reads)',
        "False",
        [test_simlab.test_estimate_closed_forms, test_audit.test_batch_rule_validation]),
    # the prior side's door hands RSOL, with no prior or xbar view, to a
    # check that calls the missing view
    "unpriced-no-view-check": (
        mechanisms, "unpriced", "view is not None and getattr(entry, view) is None",
        "False", [test_audit.test_batch_rule_validation]),
    # the audits' door reads the table alone, without the firstprice control
    "audit-controls-dropped": (
        audit, "audit_mechanism", "_entry(name, params, {**MECHANISMS, **CONTROLS})",
        "_entry(name, params)", [test_audit.test_audit_refuses_unread_params]),
    # exp(1e-320) passes the rate's own bounds, but its mean 1/rate is inf
    "prior-mean-not-checked": (
        distributions, "ValueDistribution.__post_init__",
        "if not math.isfinite(self.mean):", "if False:",
        [test_distributions.test_stock_priors_reject_bad_parameters]),
    # a profile of exactly RSOL's cap of 20 agents estimated by Monte Carlo
    "eval-mode-boundary-at-cap": (
        cli, "_cmd_eval", "mc = prof.n > mech.cap", "mc = prof.n >= mech.cap",
        [test_cli.test_eval_rsol_mode_boundary]),
    # lb43 and surplus-gap draw nothing, so only the config sees the seed
    "config-takes-negative-seed": (
        simlab, "ExperimentConfig.__post_init__", "if self.seed < 0:", "if False:",
        [test_simlab.test_config_rejects_negative_seed]),
}


def source_of(module, name, original):
    """The source of a function, or of the module-level assignment that
    builds a table such as MECHANISMS."""
    if callable(original):
        return inspect.getsource(original)
    text = inspect.getsource(module)
    return next(ast.get_source_segment(text, node) for node in ast.parse(text).body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def plant(monkeypatch, module, name, snippet, replacement):
    """Compile the function or table with snippet replaced and put it in the
    place of the original wherever the package or the tests hold it by name.
    A dotted name is a method, replaced on its class."""
    *owners, name = name.split(".")
    owner = functools.reduce(getattr, owners, module)
    original = getattr(owner, name)
    source = textwrap.dedent(source_of(module, name, original))
    assert source.count(snippet) == 1, f"{snippet!r} must occur once in {name}"
    namespace = dict(vars(module))
    exec(compile(source.replace(snippet, replacement), inspect.getsourcefile(module),
                 "exec", flags=__future__.annotations.compiler_flag,
                 dont_inherit=True), namespace)
    if owners:
        monkeypatch.setattr(owner, name, namespace[name])
        return
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith(("burnlab", "test_"))
                and vars(mod).get(name) is original):
            monkeypatch.setattr(mod, name, namespace[name])


def only_assertions(err):
    """Whether err is an AssertionError or a group of them: hypothesis
    reports the distinct failing examples it replays from its database as
    one group."""
    if isinstance(err, AssertionError):
        return True
    group = getattr(err, "exceptions", None)
    return group is not None and all(map(only_assertions, group))


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(monkeypatch, request, mutant):
    module, name, snippet, replacement, checks = MUTANTS[mutant]
    # a check's remaining parameters without a value are fixtures, fetched
    # before planting
    fixtures = [{arg: request.getfixturevalue(arg)
                 for arg, param in inspect.signature(check).parameters.items()
                 if param.default is param.empty}
                for check in checks]
    plant(monkeypatch, module, name, snippet, replacement)
    for check, kwargs in zip(checks, fixtures):
        with pytest.raises(Exception) as caught:
            check(**kwargs)
        assert only_assertions(caught.value), repr(caught.value)
