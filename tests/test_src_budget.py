"""The package's line budget: src/burnlab/*.py together stay at or under
2,950 lines, so growth is paid for by deletion elsewhere."""

import pathlib

SRC_BUDGET = 2950


def test_src_within_line_budget():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "burnlab"
    counts = {p.name: len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))}
    total = sum(counts.values())
    assert total <= SRC_BUDGET, (
        f"src/burnlab has {total} lines, over the budget of {SRC_BUDGET}: "
        + ", ".join(f"{name} {n}" for name, n in counts.items()))
