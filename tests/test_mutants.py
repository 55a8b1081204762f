"""Planted bugs the suite must catch.

Each row names a function, one exact snippet of its source, the snippet's
replacement and the checks that must fail once the mutated function stands in
for the original. A mutant that no named check catches means a check has lost
its power: strengthen the check, never drop the row. Where several checks
catch a mutant, a row may name only the quick ones, since a failing property
test spends most of its time shrinking.
"""

import __future__
import functools
import inspect
import sys

import pytest
import test_audit
import test_mechanisms

from burnlab import audit, mechanisms

MUTANTS = {
    "pass-tie-largest-price": (
        mechanisms, "_rsol_offer", "up = (val >= best)", "up = (val > best)",
        [test_mechanisms.test_rsol_exact_matches_plain_loop]),
    "pass-vickrey-price-rank-k": (
        mechanisms, "_rsol_expand", "where=pm == j - k)", "where=pm == j - k + 1)",
        [test_mechanisms.test_rsol_exact_matches_enumeration,
         test_mechanisms.test_rsol_exact_matches_plain_loop]),
    "learned-price-largest-on-ties": (
        mechanisms, "_learned_price", "prices, np.inf).min(axis=-1)",
        "prices, -np.inf).max(axis=-1)",
        [test_mechanisms.test_learned_price_matches_scan]),
    # the ladder's L = 2 round on [2, 1, 1, 1] has band weights 1/2 and 1/6
    "run-equal-band-weights": (
        mechanisms, "_run", "ends = np.cumsum(x[order])",
        "ends = np.cumsum(np.full(band.size, x[band].mean()))",
        [functools.partial(test_mechanisms.test_realized_runs_match_rule_rows,
                           "ladder", None)]),
    # systematic sampling in a fixed order still gives every agent its exact
    # x, so only which agents win together shows the missing shuffle
    "run-fixed-band-order": (
        mechanisms, "_run", "order = rng.permutation(band)", "order = band",
        [test_mechanisms.test_realized_band_pairs_are_uniform]),
    "rsol-values-vickrey-on-all-agents": (
        mechanisms, "_rsol_values", "_residual(S, *_vickrey_rule(S, k))",
        "_residual(V_desc, *_vickrey_rule(V_desc, k))",
        [test_mechanisms.test_rsol_exact_matches_enumeration]),
    "interim-vickrey-share": (
        audit, "_rsol_interim", "(k - a) / (c + 1)", "(k - a) / (c + 2)",
        [test_audit.test_rsol_interim_matches_halving_oracle]),
}


def plant(monkeypatch, module, name, snippet, replacement):
    """Compile the function with snippet replaced and put it in the place of
    the original wherever the package or the tests hold it by name."""
    original = getattr(module, name)
    source = inspect.getsource(original)
    assert source.count(snippet) == 1, f"{snippet!r} must occur once in {name}"
    namespace = dict(vars(module))
    exec(compile(source.replace(snippet, replacement), inspect.getsourcefile(original),
                 "exec", flags=__future__.annotations.compiler_flag,
                 dont_inherit=True), namespace)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith(("burnlab", "test_"))
                and vars(mod).get(name) is original):
            monkeypatch.setattr(mod, name, namespace[name])


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(monkeypatch, mutant):
    module, name, snippet, replacement, checks = MUTANTS[mutant]
    plant(monkeypatch, module, name, snippet, replacement)
    for check in checks:
        with pytest.raises(AssertionError):
            check()
