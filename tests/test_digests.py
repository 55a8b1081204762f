"""perfbench's four output digests, pinned in tier-1.

One pass of each workload in perfbench/workloads.py at seeds 1 and 2, run
as perfbench/run.py runs it (setup, run_pass, check) but untimed, must pass
every check and give the digest below. benchmark_gpq is the value that
BENCH_30/change records; mc_outputs was pinned when RSOL's Vickrey half
became a closed form and the dominance gain a reduction, which moved it at
rounding level; exact_rows was re-pinned when the exact RSOL pass took runs
of equal values as Pascal steps, which moved the twolevel rows by one ulp.
audit_reports was re-pinned when both audits came to ask every agent the
same bid row: the DSIC scan's bids took in the values and the edges, which
moved some witness bids among bids of equal gain, and each identity table
took in the agent's own value, which moved identity errors by at most
9e-16; no verdict and no largest gain moved. The digests do not depend on
the BLAS thread count. A change that moves an output re-pins its digest
here and records the old and new values.
"""

import pathlib
import sys

import pytest

import burnlab

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

OUTPUTS = {"reproduce": "exact_rows", "audit": "audit_reports",
           "prior-free": "benchmark_gpq", "prior-mc": "mc_outputs"}
DIGESTS = {
    ("reproduce", 1): "36d094eccfe309678b31bae5232dfefd4d54d2a402eb81522a38833677d1550a",
    ("reproduce", 2): "8b3391b1abeaa579f302484b79ef6b3febe3562d12a6f892168fc2315ec7b952",
    ("audit", 1): "8aebeff303785f04f99f27856fc14ef9c49ad709e9b705241b959d4e1781b468",
    ("audit", 2): "e0429db3cc368cc82af2a569002855ff3b355177b91eeba46d83d49c90586c76",
    ("prior-free", 1): "90b35d7e74615004428e77083e1d457804876c9174704bf1552bc1a9d58f8df2",
    ("prior-free", 2): "46df624bd9afa9120dfe17ed1fee9e146d9b03da16a87ce1254658f59f799641",
    ("prior-mc", 1): "68776834d3fa5a26dbaeae0da4336ab3e7ff2afb9b30cfe231017e2579df1b4f",
    ("prior-mc", 2): "99b6ec6163f3cab2bbac795de2551e78a15a5e60d6983e3e76b5ffc9518b0e47",
}


@pytest.mark.parametrize("name, seed", DIGESTS, ids=[f"{n}-{s}" for n, s in DIGESTS])
def test_workload_digest(name, seed):
    workload = workloads.WORKLOADS[name]()
    inputs = workload.setup(burnlab, seed)
    ops, checks = workloads.Ops(), workloads.Checks()
    out = workload.run_pass(burnlab, inputs, ops)
    workload.check(inputs, out, checks)
    assert ops.errors == [] and checks.failures == []
    assert checks.digests == {OUTPUTS[name]: DIGESTS[name, seed]}
