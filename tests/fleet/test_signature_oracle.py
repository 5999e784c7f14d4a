"""Exact oracle for the canonical signature rendering.

``render_signature`` must emit the bytes of ``json.dumps(signature,
indent=2, sort_keys=True) + "\\n"``.  ``indent`` sends ``json.dumps``
down the pure-Python encoder, so the renderer lays the containers out
itself and hands every container of scalars to the C encoder; the
reference ``json.dumps`` call stays here as the oracle, over
signature-shaped values: non-finite and signed-zero floats, non-ASCII
and escape-heavy strings, bools, ``None``, tuples, empty and nested
containers, and the row lists a fleet report's ``records`` and
``lane_health`` are.
"""

import hashlib
import json
import sys

from hypothesis import given
from hypothesis import strategies as st

from repro.fleet import controlplane, shard, shardbench
from repro.fleet.shard import render_signature, report_signature, signature_digest


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | st.text()
    | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "],\n  [", "},\n  {",
                       "é☃\U0001f680", "\ud800"])
)
keys = st.text(max_size=8) | st.sampled_from(["", "a", "A", "é", "\n"])
row = st.lists(scalars, min_size=1, max_size=9)
rows = (
    st.lists(row, min_size=1, max_size=6)
    | st.lists(row.map(tuple), min_size=1, max_size=6)
    | st.lists(st.dictionaries(keys, scalars, min_size=1, max_size=5),
               min_size=1, max_size=6)
)
values = st.recursive(
    scalars | rows,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5)
    ),
    max_leaves=40,
)


class TestRenderOracle:
    @given(values)
    def test_equals_indented_json_dumps(self, value):
        assert render_signature(value) == reference(value)

    @given(st.dictionaries(keys, values, max_size=6))
    def test_signature_shaped_dicts(self, signature):
        assert render_signature(signature) == reference(signature)

    @given(st.dictionaries(
        st.none() | st.booleans() | st.integers() | st.floats(), scalars,
        max_size=4,
    ))
    def test_non_string_keys(self, mapping):
        nested = {"flat": mapping, "nested": [mapping, {"x": mapping}]}
        try:
            expected = reference(nested)
        except TypeError:  # keys of mixed types do not sort
            return
        assert render_signature(nested) == expected

    def test_edge_containers(self):
        for value in (
            [], {}, (), [[]], [{}], [[], [1]], [[1], []], [[1], [2, [3]]],
            [{"a": 1}, [2]], [{"a": 1}, {}], {"a": {"b": {"c": []}}},
            [["],\n  ["], ["x"]], [{"k": "},\n  {"}, {"k": 1}], 0, "s", None,
        ):
            assert render_signature(value) == reference(value)

    def test_a_fleet_report(self):
        report = controlplane.run_fleet(
            shardbench.bench_scenario(seed=0, horizon_s=900.0)
        )
        signature = report_signature(report)
        assert len(signature["records"]) == report.n_jobs > 0
        rendered = render_signature(signature)
        assert rendered == reference(signature)
        assert signature_digest(report) == hashlib.sha256(
            rendered.encode("utf-8")
        ).hexdigest()


class TestDigestProxy:
    def test_no_python_json_encoder_frame(self):
        report = controlplane.run_fleet(
            shardbench.bench_scenario(seed=1, horizon_s=900.0)
        )
        frames = 0

        def profile(frame, event, _arg):
            nonlocal frames
            if event == "call" and frame.f_code.co_name in (
                "_make_iterencode", "_iterencode", "_iterencode_list",
                "_iterencode_dict",
            ):
                frames += 1

        sys.setprofile(profile)
        try:
            signature_digest(report)
        finally:
            sys.setprofile(None)
        # ``json.dumps(indent=2)`` made one frame per container and more.
        assert frames == 0
        assert shard.signature_digest(report) == hashlib.sha256(
            reference(report_signature(report)).encode("utf-8")
        ).hexdigest()
