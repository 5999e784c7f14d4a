"""The comparator's verdicts on synthetic paired runs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import pytest

import compare

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


@pytest.mark.parametrize("change, better, verdict", [
    ([v * 0.7 for v in STEADY], "higher", "regression"),
    ([v * 1.3 for v in STEADY], "lower", "regression"),
    ([v * 1.1 for v in STEADY], "higher", "gain"),
    ([v * 0.9 for v in STEADY], "lower", "gain"),
    (list(reversed(STEADY)), "higher", "no change"),
])
def test_verdicts(change, better, verdict):
    row = compare.judge(STEADY, change, better, bound=0.25)
    assert row["verdict"] == verdict


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.judge(noisy, list(noisy), "higher", 0.25)["verdict"] == "unresolved"
    # ...unless the change beats every parent run.
    better = [200.0 + v for v in noisy]
    assert compare.judge(noisy, better, "higher", 0.25)["verdict"] == "gain"


def test_pairs_refuses_fewer_than_ten(capsys):
    assert compare.main(["pairs", "--parent", "a.json", "--change", "b.json"]) == 2
    assert "at least 10" in capsys.readouterr().err
