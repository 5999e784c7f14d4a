"""The bench registry: one comparator, one writer, every committed baseline.

Comparator cases run on a small synthetic payload; the committed-baseline
cases reuse the session-wide committed-shape runs from ``conftest.py``.
"""

import copy
import importlib
from pathlib import Path

import pytest

from repro.bench import BENCHES, compare, load, write

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The benches gated by the one generic comparator.
DETERMINISTIC = ("chaos", "fleet", "shard", "traffic")

BASELINE = {
    "schema": "repro-bench-toy/1",
    "seed": 0,
    "modes": {
        "a": {"p99_s": 12.5, "launches": 40, "label": "edf+lru"},
        "b": {"p99_s": 30.0, "ranges": [[0, 4], [4, 8]]},
    },
    "fingerprint": "ab" * 32,
    "invariants": {"a_beats_b": True},
    "wall_s_informational": 1.0,
    "nested": {"events_per_s_informational": 9e5},
    "environment": {"cpu_count": 1},
    "skipped": {},
    "identity": {"serial_sha256": "00"},
}


def drifted(**edits):
    """A deep copy of :data:`BASELINE` with dotted-path edits applied."""
    payload = copy.deepcopy(BASELINE)
    for dotted, value in edits.items():
        *parents, leaf = dotted.split("__")
        node = payload
        for key in parents:
            node = node[key]
        node[leaf] = value
    return payload


class TestCompare:
    def test_identical_payloads_pass(self):
        assert compare(copy.deepcopy(BASELINE), BASELINE) == []

    def test_float_noise_within_rel_tol_passes(self):
        assert compare(drifted(modes__a__p99_s=12.5 * (1 + 1e-9)),
                       BASELINE) == []

    def test_numeric_drift_is_flagged(self):
        assert compare(drifted(modes__a__launches=41), BASELINE) == [
            "modes.a.launches: 41 drifted from baseline 40"
        ]

    @pytest.mark.parametrize("edit,path", [
        ({"seed": 1}, "seed"),
        ({"fingerprint": "0" * 64}, "fingerprint"),
        ({"modes__a__label": "fcfs+none"}, "modes.a.label"),
        ({"modes__b__ranges": [[0, 4], [4, 9]]}, "modes.b.ranges"),
        ({"modes__b": None}, "modes.b"),
    ], ids=["top-level", "fingerprint", "string", "list", "mapping-to-null"])
    def test_any_drifted_leaf_is_flagged(self, edit, path):
        [problem] = compare(drifted(**edit), BASELINE)
        assert problem.startswith(f"{path}: ")

    def test_missing_key_is_flagged_at_any_depth(self):
        fresh = copy.deepcopy(BASELINE)
        del fresh["modes"]["b"]
        del fresh["modes"]["a"]["launches"]
        assert sorted(compare(fresh, BASELINE)) == [
            "modes.a.launches: missing from fresh run",
            "modes.b: missing from fresh run",
        ]

    def test_keys_only_in_the_fresh_payload_are_ignored(self):
        assert compare(drifted(new_kpi=1.0), BASELINE) == []

    @pytest.mark.parametrize("key", [
        "wall_s_informational", "nested__events_per_s_informational",
        "environment", "skipped", "identity",
    ])
    def test_exempt_keys_are_not_compared(self, key):
        assert compare(drifted(**{key: "anything"}), BASELINE) == []

    def test_false_invariant_is_flagged_on_either_side(self):
        broken = drifted(invariants={"a_beats_b": False})
        assert compare(broken, BASELINE) == [
            "invariant failed in fresh run: a_beats_b"
        ]
        assert compare(BASELINE, broken) == [
            "invariant failed in baseline: a_beats_b"
        ]

    def test_invariants_are_not_compared_key_by_key(self):
        # The shard bench adds a speedup invariant only where it is
        # measurable; an extra (true) invariant on one side is fine.
        extra = drifted(invariants={"a_beats_b": True, "speedup_ge_3x": True})
        assert compare(extra, BASELINE) == []
        assert compare(BASELINE, extra) == []


class TestWriteAndLoad:
    def test_round_trip_is_canonical(self, tmp_path):
        path = str(tmp_path / "BENCH_toy.json")
        assert write(BASELINE, path) == path
        assert load(path) == BASELINE
        text = Path(path).read_text(encoding="utf-8")
        assert text.endswith("}\n")
        assert text.index('"environment"') < text.index('"schema"')


class TestRegistry:
    def test_every_bench_is_registered(self):
        assert set(BENCHES) == {"sweep", "engine", *DETERMINISTIC}

    def test_deterministic_benches_share_the_one_comparator(self):
        assert {name for name, bench in BENCHES.items()
                if bench.gate is compare} == set(DETERMINISTIC)

    def test_every_bench_has_a_committed_baseline(self):
        for name in BENCHES:
            assert (REPO_ROOT / f"BENCH_{name}.json").is_file(), name


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_committed_baseline_matches_fresh_run(name, request):
    """The CI gate itself: each committed baseline reproduces exactly."""
    bench = request.getfixturevalue(f"{name}_bench")
    # Each bench report's own module renders its payload.
    fresh = importlib.import_module(type(bench).__module__).report_payload(bench)
    problems = compare(fresh, load(str(REPO_ROOT / f"BENCH_{name}.json")))
    assert problems == [], "\n".join(problems)
