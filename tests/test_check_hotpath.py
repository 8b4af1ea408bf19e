"""The hot-path hygiene linter: self-test, tree cleanliness, suppression."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL_PATH = os.path.join(REPO_ROOT, "tools", "check_hotpath.py")

spec = importlib.util.spec_from_file_location("check_hotpath", TOOL_PATH)
check_hotpath = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_hotpath)


class TestRules:
    def test_h001_catches_per_query_cfg_calls(self):
        source = "def f(fn, l):\n    return fn.block_out_edges(l)\n"
        found = check_hotpath.check_source(source, "src/repro/spill/x.py")
        assert [v.code for v in found] == ["H001"]
        assert found[0].line == 2

    def test_h002_catches_mask_materialization_in_spill_and_regalloc(self):
        source = "def f(ix, m):\n    return ix.set_of(m)\n"
        for path in ("src/repro/spill/x.py", "src/repro/regalloc/interference.py"):
            assert [v.code for v in check_hotpath.check_source(source, path)] == ["H002"]
        assert check_hotpath.check_source(source, "src/repro/analysis/x.py") == []

    def test_h003_catches_blocking_calls_in_async_defs(self):
        source = "import time\nasync def f():\n    time.sleep(0.1)\n"
        found = check_hotpath.check_source(source, "src/repro/service/x.py")
        assert [v.code for v in found] == ["H003"]

    def test_h003_spares_sync_helpers_and_nested_sync_defs(self):
        sync = "import time\ndef f():\n    time.sleep(0.1)\n"
        assert check_hotpath.check_source(sync, "src/repro/service/x.py") == []
        nested = (
            "import time\n"
            "async def f():\n"
            "    def helper():\n"
            "        time.sleep(0.1)\n"
            "    return helper\n"
        )
        assert check_hotpath.check_source(nested, "src/repro/service/x.py") == []

    def test_h004_catches_per_compile_analyses_outside_the_session(self):
        for call in ("build_pst(fn)", "loops.compute_loop_forest(fn)",
                     "compute_dominators(fn)", "compute_postdominators(fn)"):
            source = f"def f(fn):\n    return {call}\n"
            for path in ("src/repro/spill/x.py", "src/repro/pipeline/x.py"):
                assert [v.code for v in check_hotpath.check_source(source, path)] == ["H004"]
            assert check_hotpath.check_source(source, "src/repro/analysis/session.py") == []

    def test_h005_catches_public_oracles_in_the_package(self):
        for name in ("brute_force_cycle_equivalence", "solve_dataflow_reference"):
            source = f"def {name}(graph):\n    return graph\n"
            found = check_hotpath.check_source(source, "src/repro/analysis/x.py")
            assert [(v.code, v.line) for v in found] == [("H005", 1)]
            assert check_hotpath.check_source(source, "tests/oracles/structure.py") == []
        private = "def _parse_program_reference(text):\n    return text\n"
        assert check_hotpath.check_source(private, "src/repro/service/protocol.py") == []
        method = "class C:\n    def brute_force_x(self):\n        pass\n"
        assert check_hotpath.check_source(method, "src/repro/analysis/x.py") == []

    def test_h006_catches_instruction_field_assignments(self):
        source = (
            "def f(term, block, label, new):\n"
            "    term.target = label\n"
            "    block.instructions[-1].targets = (label,)\n"
            "    a, term.uses = new\n"
            "    term.uid += 1\n"
            "    term.purpose: str = 'spill'\n"
        )
        for path in ("src/repro/ir/passes.py", "src/repro/spill/x.py", "src/repro/cli.py"):
            found = check_hotpath.check_source(source, path)
            assert [(v.code, v.line) for v in found] == [
                ("H006", 2), ("H006", 3), ("H006", 4), ("H006", 5), ("H006", 6)
            ]
        # The instruction module builds instructions; other objects may set
        # their own same-named fields; reads and other attributes are fine.
        assert check_hotpath.check_source(source, "src/repro/ir/instructions.py") == []
        own = "class C:\n    def __init__(self, t):\n        self.target = t\n"
        assert check_hotpath.check_source(own, "src/repro/service/x.py") == []
        reads = "def f(term, block):\n    x = term.target\n    block.label = x.name\n"
        assert check_hotpath.check_source(reads, "src/repro/ir/passes.py") == []

    def test_h007_catches_exact_class_dispatch(self):
        source = (
            "def f(self, model):\n"
            "    if type(self) is not Model:\n"
            "        return type(model) in (A, B)\n"
            "    return Model == type(model)\n"
        )
        for path in ("src/repro/spill/x.py", "src/repro/service/x.py"):
            found = check_hotpath.check_source(source, path)
            assert [(v.code, v.line) for v in found] == [
                ("H007", 2), ("H007", 3), ("H007", 4)
            ]
        # isinstance, a class attribute and a type() read are not dispatch.
        clean = (
            "def f(model):\n"
            "    name = type(model).__name__\n"
            "    return isinstance(model, Model) and model.charges_jumps\n"
        )
        assert check_hotpath.check_source(clean, "src/repro/spill/x.py") == []

    def test_out_of_scope_paths_are_ignored(self):
        source = "def f(fn, l):\n    return fn.block_out_edges(l)\n"
        assert check_hotpath.check_source(source, "src/repro/evaluation/x.py") == []

    def test_suppression_comment_waives_one_line(self):
        source = (
            "def f(ix, m):\n"
            "    a = ix.set_of(m)  # hotpath: ok\n"
            "    return ix.set_of(m)\n"
        )
        found = check_hotpath.check_source(source, "src/repro/spill/x.py")
        assert [(v.code, v.line) for v in found] == [("H002", 3)]


class TestTree:
    def test_src_tree_is_clean(self):
        violations = check_hotpath.check_tree([os.path.join(REPO_ROOT, "src", "repro")])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_self_test_passes(self):
        assert check_hotpath.self_test() == 0

    def test_cli_exit_codes(self, tmp_path):
        planted = tmp_path / "src" / "repro" / "spill"
        planted.mkdir(parents=True)
        bad = planted / "bad.py"
        bad.write_text("def f(ix, m):\n    return ix.set_of(m)\n")
        completed = subprocess.run(
            [sys.executable, TOOL_PATH, str(bad)],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 1
        assert "H002" in completed.stdout
        clean = subprocess.run(
            [sys.executable, TOOL_PATH, "--self-test"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert clean.returncode == 0
        assert "self-test OK" in clean.stdout
