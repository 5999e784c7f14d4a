"""Documentation health: examples must run, prose must not go stale.

Four gates over every markdown document in the repo:

* every fenced ``python`` block must at least compile — a renamed
  symbol or syntax rot fails the build, not a reader;
* every fenced ``pycon`` block (and any python block containing
  ``>>>``) runs under doctest with its printed output checked;
* no document may reference the deleted ``repro.sim.stats`` module
  (its classes live in ``repro.obs.metrics``), and no source file,
  document or CI workflow may name the deleted learned-control layer,
  the control-plane seams only it used, or the other deleted surface
  (sweep engines, unused DES primitives, hooks and shims);
* numbers quoted from committed bench baselines must still match the
  baseline — ``docs/scaling.md``'s marker-delimited table is parsed
  and compared against ``BENCH_shard.json``;
* every ``repro.*`` name ``docs/paper_mapping.md`` cites resolves.
"""

from __future__ import annotations

import doctest
import importlib
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


def _matching_lines(root: str, pattern: re.Pattern) -> list[str]:
    """``path:line: text`` for every line under ``root`` that ``pattern`` finds."""
    base = REPO_ROOT / root
    paths = [base] if base.is_file() else sorted(
        path for path in base.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    return [
        f"{path.relative_to(REPO_ROOT)}:{number}: {line.strip()}"
        for path in paths
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if pattern.search(line)
    ]


@pytest.mark.parametrize("root", _LEARN_FREE_ROOTS)
def test_no_stale_learned_control_references(root):
    """The learned controller is deleted; nothing may point readers at it."""
    stale = _matching_lines(root, _STALE_LEARN)
    assert stale == [], "stale learned-control references:\n" + "\n".join(stale)


#: Names of the deleted design-point sweep engines, their memo cache,
#: the cache probe table, the old home of ``map_chunks`` and the
#: deleted second replication harness.  Spelled in pieces, as above.
_STALE_SWEEP = re.compile("|".join([
    "clear_report" "_cache", "report_cache" "_stats", "VECTOR" "_THRESHOLD",
    "REPORT_CACHE" "_SIZE", "cache_stats" "_table", r"core\.sweep\." "ENGINES",
    r"core\.sweep import " "(ENGINES|map_chunks)", r"core\.sweep\." "map_chunks",
    r"workloads\." "replication",
]))


@pytest.mark.parametrize("root", _LEARN_FREE_ROOTS + ("benchmarks",))
def test_no_stale_sweep_engine_references(root):
    """The sweep has one path and ``map_chunks`` lives in ``core.chunks``."""
    stale = _matching_lines(root, _STALE_SWEEP)
    assert stale == [], "stale sweep-engine references:\n" + "\n".join(stale)


#: Names of deleted surface nothing ran: the priority resource, the
#: container, filtered store gets, the engine's swapped fire methods,
#: the second resource wrapper, CSV and later-wins snapshot export,
#: the closed-form trace helper, the post-shuttle hook list, pooled
#: synthesis, the shard parent's homing view, the "auto" engine, the
#: module-level outcome aliases (``Outcome.*`` replaces them), the dock
#: and LIM fault loops with their base class, ``ChaosSpec`` fields and
#: the dock out-of-service flag, the orphan hypothesis strategies, the
#: DLRM parallelisation-strategy module nothing reached, and the replay
#: lookahead cursor with its two buffer-limit fields.  Spelled in
#: pieces, as above.
_STALE_SURFACE = re.compile("|".join([
    r"\bPriority" r"(Resource|Request)\b", r"\bCon" r"tainer\b", r"\bget" r"_matching\b",
    r"\b_fire" r"(_fast|_traced)?\b", r"\bUtilisation" r"Monitor\b",
    r"\bto" r"_csv(_rows)?\b", r"\bmerge" r"_snapshots\b", r"\btraced" r"_transfer\b",
    r"\bpost_shuttle" r"_hooks\b", r"\b_?synthesise" r"_(pooled|chunk)\b",
    r"\b_Homes" r"View\b", r"[\"']au" r"to[\"']",
    r"sla import .*\b(SERVED|FAILOVER|SHED|FAILED)\b",
    r"^\s+(SERVED|FAILOVER|SHED|FAILED)" r",$",
    r"\bsla\.(SERVED|FAILOVER|SHED|FAILED)" r"\b",
    r"\b(Dock" r"Outage|Lim" r"Degradation|Repairable" r")Injector\b",
    r"\b(dock|lim)" r"_mttf_s\b", r"\bout_of" r"_service\b",
    r"\b(chaos" r"_specs|fleet" r"_scenarios|trace" r"_specs)\b",
    r"mlsim\.par" r"allelism\b", r"\b(data|model|hybrid)_par" r"allel_cost\b",
    r"\b(best_feasible" r"_strategy|compare" r"_strategies|dlrm_2022" r"_shape)\b",
    r"\b(Dlrm" r"Shape|Strategy" r"Cost|IterationWith" r"Strategy)\b",
    r"\bLookahead" r"Cursor\b", r"\blookahead" r"_s\b", r"\bmax" r"_pending\b",
]))


@pytest.mark.parametrize("root", _LEARN_FREE_ROOTS)
def test_no_stale_surface_references(root):
    """Deleted primitives, hooks and shims stay deleted, in code and prose."""
    stale = _matching_lines(root, _STALE_SURFACE)
    assert stale == [], "stale references to deleted names:\n" + "\n".join(stale)


def resolve(dotted: str) -> object:
    """Import the longest module prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(dotted)


def test_paper_mapping_names_resolve():
    """Each backticked ``repro.*`` name in the paper map names real code."""
    text = (REPO_ROOT / "docs" / "paper_mapping.md").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"`(repro(?:\.\w+)+)", text)))
    assert len(names) > 60, "the paper map lost its code references"
    unresolved = []
    for name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert unresolved == [], f"paper_mapping.md names missing code: {unresolved}"


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
