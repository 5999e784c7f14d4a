"""Documentation health: examples must run, prose must not go stale.

Four gates over every markdown document in the repo:

* every fenced ``python`` block must at least compile — a renamed
  symbol or syntax rot fails the build, not a reader;
* every fenced ``pycon`` block (and any python block containing
  ``>>>``) runs under doctest with its printed output checked;
* no document may reference the deleted ``repro.sim.stats`` module
  (its classes live in ``repro.obs.metrics``), and no source file,
  document or CI workflow may name the deleted learned-control layer
  or the control-plane seams only it used;
* numbers quoted from committed bench baselines must still match the
  baseline — ``docs/scaling.md``'s marker-delimited table is parsed
  and compared against ``BENCH_shard.json``.
"""

from __future__ import annotations

import doctest
import json
import math
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [
        *(REPO_ROOT / "docs").glob("*.md"),
        REPO_ROOT / "README.md",
        REPO_ROOT / "EXPERIMENTS.md",
    ]
)

_FENCE = re.compile(
    r"^```(?P<tag>[A-Za-z0-9_+-]*)\s*\n(?P<body>.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)


def fenced_blocks(path: Path) -> list[tuple[str, str, int]]:
    """All fenced code blocks in a file as (tag, body, line_number)."""
    text = path.read_text(encoding="utf-8")
    blocks = []
    for match in _FENCE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        blocks.append((match.group("tag").lower(), match.group("body"), line))
    return blocks


def doc_ids(path: Path) -> str:
    return str(path.relative_to(REPO_ROOT))


@pytest.mark.parametrize("path", DOC_FILES, ids=doc_ids)
def test_python_examples_compile(path):
    """Every ``python`` fence is valid syntax."""
    checked = 0
    for tag, body, line in fenced_blocks(path):
        if tag != "python" or ">>>" in body:
            continue
        try:
            compile(body, f"{path.name}:{line}", "exec")
        except SyntaxError as exc:  # pragma: no cover - failure path
            pytest.fail(
                f"{path.name} line {line}: python example does not "
                f"compile: {exc}"
            )
        checked += 1
    if path.name in ("usage.md", "performance.md", "README.md"):
        assert checked > 0, f"{path.name} lost all its python examples"


@pytest.mark.parametrize("path", DOC_FILES, ids=doc_ids)
def test_doctest_examples_pass(path):
    """Every ``pycon`` fence (>>> examples) runs with matching output."""
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(verbose=False)
    for tag, body, line in fenced_blocks(path):
        is_doctest = tag == "pycon" or (tag == "python" and ">>>" in body)
        if not is_doctest:
            continue
        test = parser.get_doctest(
            body, {}, f"{path.name}:{line}", path.name, line
        )
        runner.run(test)
    results = runner.summarize(verbose=False)
    assert results.failed == 0, (
        f"{path.name}: {results.failed} doctest example(s) failed"
    )


@pytest.mark.parametrize("path", DOC_FILES, ids=doc_ids)
def test_no_stale_sim_stats_references(path):
    """``repro.sim.stats`` is deleted; no doc may point readers at it."""
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        assert "sim.stats" not in line, (
            f"{path.name} line {number} references the deleted "
            f"repro.sim.stats module: {line.strip()}"
        )


#: Names of the deleted learned-control layer (its package, CLI mode
#: and baseline) and of the control-plane seams only it used.  Each is
#: spelled in pieces, so a repo-wide grep for them finds nothing here.
_STALE_LEARN = re.compile("|".join([
    r"repro\.learn\b", r"\brepro learn\b", "BENCH" "_learn",
    "Control" "Hooks", "take" "_window", "select" "_victim",
]))

_LEARN_FREE_ROOTS = ("src", "docs", "README.md", "EXPERIMENTS.md", ".github")


@pytest.mark.parametrize("root", _LEARN_FREE_ROOTS)
def test_no_stale_learned_control_references(root):
    """The learned controller is deleted; nothing may point readers at it."""
    base = REPO_ROOT / root
    paths = [base] if base.is_file() else sorted(
        path for path in base.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    stale = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {line.strip()}"
        for path in paths
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if _STALE_LEARN.search(line)
    ]
    assert stale == [], "stale learned-control references:\n" + "\n".join(stale)


class TestScalingDocNumbers:
    """``docs/scaling.md``'s baseline table must match ``BENCH_shard.json``.

    The doc quotes virtual-time-deterministic quantities from the
    committed shard bench inside ``<!-- shard-bench:begin/end -->``
    markers; regenerating the baseline without refreshing the doc (or
    vice versa) fails here, not in a reader's terminal.
    """

    _MARKED = re.compile(
        r"<!-- shard-bench:begin -->\n(?P<table>.*?)<!-- shard-bench:end -->",
        re.DOTALL,
    )

    @pytest.fixture(scope="class")
    def doc_rows(self):
        text = (REPO_ROOT / "docs" / "scaling.md").read_text(
            encoding="utf-8"
        )
        match = self._MARKED.search(text)
        assert match, "docs/scaling.md lost its shard-bench marker block"
        rows = {}
        for line in match.group("table").splitlines():
            cells = [cell.strip(" `") for cell in line.strip("| ").split("|")]
            if len(cells) == 2 and not set(cells[1]) <= {"-", ""}:
                rows[cells[0]] = cells[1]
        return rows

    @pytest.fixture(scope="class")
    def baseline(self):
        return json.loads(
            (REPO_ROOT / "BENCH_shard.json").read_text(encoding="utf-8")
        )

    @staticmethod
    def _ints(cell: str) -> list[int]:
        return [int(n) for n in re.findall(r"\d+", cell)]

    def test_table_matches_committed_baseline(self, doc_rows, baseline):
        expected = {
            "Pods": [baseline["n_pods"]],
            "Tracks": [baseline["n_tracks"]],
            "Input windows": [baseline["epochs"]],
            "Jobs ingested": [baseline["kpis"]["n_jobs"]],
            "Jobs per pod": list(baseline["shards"]["pod_jobs"]),
            "Boundary forwards": [baseline["shards"]["forwarded"]],
            "Remote outcomes": [
                sum(baseline["shards"]["remote_outcomes"].values())
            ],
        }
        problems = []
        for label, want in expected.items():
            row = next(
                (cell for key, cell in doc_rows.items() if label in key),
                None,
            )
            if row is None:
                problems.append(f"missing table row for {label!r}")
            elif self._ints(row) != want:
                problems.append(
                    f"{label}: doc says {self._ints(row)}, "
                    f"baseline says {want}"
                )
        assert problems == [], "; ".join(problems)

    def test_window_matches_interpod_latency(self, doc_rows, baseline):
        row = next(
            cell for key, cell in doc_rows.items() if "window" in key.lower()
        )
        (window,) = [float(n) for n in re.findall(r"[\d.]+", row)]
        assert math.isclose(
            window, baseline["interpod_latency_s"], rel_tol=1e-6
        )

    def test_baseline_invariants_all_hold(self, baseline):
        """The doc leans on the gate; the committed gate must be green."""
        assert baseline["schema"] == "repro-bench-shard/1"
        assert all(baseline["invariants"].values()), baseline["invariants"]


def test_committed_grid_sweep_docstring_doctest():
    """The in-code doctest the docs point at stays runnable."""
    import repro.core.sweep as sweep

    results = doctest.testmod(sweep, verbose=False)
    assert results.failed == 0
