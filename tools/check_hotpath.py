#!/usr/bin/env python3
"""Hot-path hygiene linter for the compiler source tree (standard library only).

The placement and allocation hot paths went through several optimization PRs
(bitset liveness, one validated CFG snapshot per compile, mask-based
anticipation/availability).  Those wins regress silently when new code calls
the convenient-but-slow per-query APIs, so this tool walks the AST of the
source tree and enforces seven rules:

``H001``
    ``.block_out_edges(...)`` inside ``repro/spill`` or ``repro/regalloc``.
    The method builds a fresh list from the CFG on every call; hot-path code
    must take one ``function.cfg()`` snapshot and index its ``out_edges``
    mapping directly.

``H002``
    ``.set_of(...)`` inside ``repro/spill`` or ``repro/regalloc``.
    Materializing a register bitmask back into a Python set throws away the
    whole point of the mask pipeline; allocation and spill placement work on
    masks end to end.  The sanctioned materialization points are the
    interference graph's public ``Set[Register]`` accessors, each marked
    ``# hotpath: ok``.

``H003``
    Blocking calls (``time.sleep``, the ``subprocess`` run/call family,
    ``os.system``) directly inside an ``async def`` in ``repro/service``.
    The serving layer is a single event loop; blocking it stalls every
    connection.  Blocking work belongs behind ``asyncio.to_thread`` or the
    loop's executor.

``H004``
    A direct ``build_pst(...)``, ``compute_loop_forest(...)``,
    ``compute_dominators(...)`` or ``compute_postdominators(...)`` call
    inside ``repro/spill`` or ``repro/pipeline``.  A compile builds each of
    these once, in its
    :class:`~repro.analysis.session.CompilationSession`; placement and
    pipeline code reads them from the session instead of recomputing them.

``H005``
    A top-level public ``def brute_force_*`` or ``def *_reference`` anywhere
    under ``repro/``.  Brute-force and set-based reference implementations
    are test oracles; they live in ``tests/oracles/``, not in the shipped
    package.  Private helpers (a leading underscore) are not flagged.

``H006``
    An assignment to an instruction field (``.opcode``, ``.defs``,
    ``.uses``, ``.target``, ``.targets``, ``.purpose``, ``.uid``) on anything
    but ``self``, anywhere under ``repro/`` outside ``repro/ir/instructions.py``.
    Instructions are values shared between function clones; a rewrite puts
    a new instruction in the block's list (``replace_registers``,
    ``retarget``) instead of editing the shared one.

``H007``
    Exact-class dispatch — ``type(x)`` compared with ``is``, ``is not``,
    ``in``, ``not in``, ``==`` or ``!=`` — anywhere under ``repro/``.  A fork
    on the concrete class sends a subclass down a different path from its
    parent without saying so; a behaviour difference belongs in a class
    attribute or a method the classes define.

A finding can be suppressed for one line with a trailing ``# hotpath: ok``
comment — the suppression is the audit trail for sanctioned exceptions.

Usage::

    python tools/check_hotpath.py [ROOT ...]   # default: src/repro
    python tools/check_hotpath.py --self-test  # prove every rule fires

Exit status 1 lists every violation, one ``path:line: CODE message`` per
line.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Iterator, List, NamedTuple, Optional, Tuple

#: Attribute calls that re-derive per-query CFG state (rule H001).
H001_ATTRIBUTES = ("block_out_edges",)

#: Attribute calls that materialize register masks into sets (rule H002).
H002_ATTRIBUTES = ("set_of",)

#: Analyses a compile builds once, in its session (rule H004).
H004_ANALYSES = (
    "build_pst",
    "compute_loop_forest",
    "compute_dominators",
    "compute_postdominators",
)

#: Instruction fields no code outside the instruction module assigns (rule H006).
H006_FIELDS = ("opcode", "defs", "uses", "target", "targets", "purpose", "uid")

#: Comparison operators that make ``type(x)`` an exact-class dispatch (rule H007).
H007_OPERATORS = (ast.Is, ast.IsNot, ast.In, ast.NotIn, ast.Eq, ast.NotEq)

#: Dotted names whose direct call blocks the event loop (rule H003).
H003_BLOCKING_CALLS = (
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "os.system",
)

#: The trailing comment that waives a finding for its line.
SUPPRESSION = "hotpath: ok"

#: Which path fragments each rule applies to (POSIX-style, matched against
#: the file's path with separators normalized).
RULE_SCOPES = {
    "H001": ("repro/spill/", "repro/regalloc/"),
    "H002": ("repro/spill/", "repro/regalloc/"),
    "H003": ("repro/service/",),
    "H004": ("repro/spill/", "repro/pipeline/"),
    "H005": ("repro/",),
    "H006": ("repro/",),
    "H007": ("repro/",),
}

#: Path fragments a rule skips inside its scope.
RULE_EXEMPTIONS = {
    "H006": ("repro/ir/instructions.py",),
}


class Violation(NamedTuple):
    """One hot-path rule violation at a specific source line."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        """The ``path:line: CODE message`` form the CI log prints."""

        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _is_type_call(node: ast.AST) -> bool:
    """Is ``node`` the one-argument builtin call ``type(x)``?"""

    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
        and len(node.args) == 1
        and not node.keywords
    )


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""

    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _HotPathVisitor(ast.NodeVisitor):
    """Collect rule violations over one module's AST."""

    def __init__(self, path: str, source_lines: List[str], rules: Tuple[str, ...]):
        self.path = path
        self.source_lines = source_lines
        self.rules = rules
        self.violations: List[Violation] = []
        # Innermost function kind: True inside an ``async def`` body.
        self._async_stack: List[bool] = []

    def _suppressed(self, line: int) -> bool:
        if 1 <= line <= len(self.source_lines):
            return SUPPRESSION in self.source_lines[line - 1]
        return False

    def _record(self, node: ast.AST, code: str, message: str) -> None:
        if not self._suppressed(node.lineno):
            self.violations.append(Violation(self.path, node.lineno, code, message))

    def visit_Module(self, node: ast.Module) -> None:
        if "H005" in self.rules:
            for statement in node.body:
                if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if statement.name.startswith("_"):
                    continue
                name = statement.name
                if name.startswith("brute_force_") or name.endswith("_reference"):
                    self._record(
                        statement,
                        "H005",
                        f"{name}() is a test oracle; move it to tests/oracles/",
                    )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._async_stack.append(False)
        self.generic_visit(node)
        self._async_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_stack.append(True)
        self.generic_visit(node)
        self._async_stack.pop()

    def _check_field_targets(self, targets: List[ast.expr]) -> None:
        """Rule H006 over the targets of one assignment statement."""

        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_field_targets(target.elts)
            elif (
                isinstance(target, ast.Attribute)
                and target.attr in H006_FIELDS
                and not (isinstance(target.value, ast.Name) and target.value.id == "self")
            ):
                self._record(
                    target,
                    "H006",
                    f"assigns instruction field .{target.attr}; instructions are "
                    "shared values, so put a rebuilt instruction in the block instead",
                )

    def visit_Assign(self, node: ast.stmt) -> None:
        if "H006" in self.rules:
            self._check_field_targets(
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
        self.generic_visit(node)

    visit_AugAssign = visit_AnnAssign = visit_Assign

    def visit_Compare(self, node: ast.Compare) -> None:
        if "H007" in self.rules:
            operands = [node.left] + node.comparators
            for index, op in enumerate(node.ops):
                pair = operands[index : index + 2]
                if isinstance(op, H007_OPERATORS) and any(map(_is_type_call, pair)):
                    self._record(
                        node,
                        "H007",
                        "exact-class dispatch on type(...); put the behaviour "
                        "difference in a class attribute or method instead",
                    )
                    break
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if "H001" in self.rules and func.attr in H001_ATTRIBUTES:
                self._record(
                    node,
                    "H001",
                    f".{func.attr}() re-derives CFG state per query; take one "
                    "function.cfg() snapshot and index its out_edges mapping",
                )
            if "H002" in self.rules and func.attr in H002_ATTRIBUTES:
                self._record(
                    node,
                    "H002",
                    f".{func.attr}() materializes a register mask into a set; "
                    "allocation and spill placement must stay on masks (only "
                    "public accessors may materialize, marked # hotpath: ok)",
                )
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if "H004" in self.rules and name in H004_ANALYSES:
            self._record(
                node,
                "H004",
                f"{name}() recomputes a per-compile analysis; read it from the "
                "compile's CompilationSession",
            )
        if "H003" in self.rules and self._async_stack and self._async_stack[-1]:
            dotted = _dotted_name(func)
            if dotted in H003_BLOCKING_CALLS:
                self._record(
                    node,
                    "H003",
                    f"{dotted}() blocks the event loop inside an async def; "
                    "use asyncio.to_thread or the loop's executor",
                )
        self.generic_visit(node)


def rules_for(path: str) -> Tuple[str, ...]:
    """The rule codes whose scope covers ``path`` (normalized separators)."""

    normalized = path.replace(os.sep, "/")
    return tuple(
        code
        for code, scopes in sorted(RULE_SCOPES.items())
        if any(scope in normalized for scope in scopes)
        and not any(skip in normalized for skip in RULE_EXEMPTIONS.get(code, ()))
    )


def check_source(source: str, path: str) -> List[Violation]:
    """Lint one module's source text; ``path`` selects the applicable rules."""

    rules = rules_for(path)
    if not rules:
        return []
    tree = ast.parse(source, filename=path)
    visitor = _HotPathVisitor(path, source.splitlines(), rules)
    visitor.visit(tree)
    return visitor.violations


def iter_python_files(roots: List[str]) -> Iterator[str]:
    """Yield every ``.py`` file under the given roots, deterministically."""

    for root in roots:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def check_tree(roots: List[str]) -> List[Violation]:
    """Lint every Python file under ``roots``; returns all violations."""

    violations: List[Violation] = []
    for path in iter_python_files(roots):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        violations.extend(check_source(source, path))
    return violations


#: Planted-bad sources proving each rule (and the suppression) works.
_SELF_TEST_CASES = (
    (
        "H001",
        "src/repro/spill/example.py",
        "def f(function, label):\n    return function.block_out_edges(label)\n",
    ),
    (
        "H001",
        "src/repro/regalloc/example.py",
        "def f(function, label):\n    for e in function.block_out_edges(label):\n        pass\n",
    ),
    (
        "H002",
        "src/repro/spill/example.py",
        "def f(index, mask):\n    return index.set_of(mask)\n",
    ),
    (
        "H002",
        "src/repro/regalloc/example.py",
        "def f(graph, bit):\n    return graph.index.set_of(graph.adjacency[bit])\n",
    ),
    (
        "H003",
        "src/repro/service/example.py",
        "import time\nasync def f():\n    time.sleep(1)\n",
    ),
    (
        "H004",
        "src/repro/spill/example.py",
        "def f(function):\n    return build_pst(function, maximal=True)\n",
    ),
    (
        "H004",
        "src/repro/pipeline/example.py",
        "def f(function):\n    return dominance.compute_postdominators(function)\n",
    ),
    (
        "H005",
        "src/repro/analysis/example.py",
        "def brute_force_classes(graph):\n    return {}\n",
    ),
    (
        "H005",
        "src/repro/service/example.py",
        "def solve_reference(problem):\n    return problem\n",
    ),
    (
        "H006",
        "src/repro/ir/passes.py",
        "def f(term, label):\n    term.target = label\n",
    ),
    (
        "H006",
        "src/repro/spill/example.py",
        "def f(block, targets):\n    block.instructions[-1].targets = targets\n",
    ),
    (
        "H007",
        "src/repro/spill/example.py",
        "def f(self):\n    if type(self) is not Model:\n        return 1\n",
    ),
    (
        "H007",
        "src/repro/pipeline/example.py",
        "def f(model):\n    return type(model) in (A, B)\n",
    ),
)

_SELF_TEST_CLEAN = (
    # Out of scope: the same calls outside the rule's directories.
    ("src/repro/evaluation/example.py",
     "def f(function, label):\n    return function.block_out_edges(label)\n"),
    # A sanctioned public accessor in regalloc, marked as such.
    ("src/repro/regalloc/example.py",
     "def f(index, mask):\n    return index.set_of(mask)  # hotpath: ok\n"),
    # Suppressed by the audit-trail comment.
    ("src/repro/spill/example.py",
     "def f(index, mask):\n    return index.set_of(mask)  # hotpath: ok\n"),
    # Blocking call in a *sync* helper of the service layer is fine.
    ("src/repro/service/example.py",
     "import time\ndef f():\n    time.sleep(1)\n"),
    # The session itself, in repro/analysis, builds the analyses.
    ("src/repro/analysis/example.py",
     "def f(function):\n    return compute_loop_forest(function)\n"),
    # Private and nested reference helpers are not oracles.
    ("src/repro/service/example.py",
     "def _parse_reference(text):\n    def brute_force_x():\n        pass\n"),
    # An object setting its own same-named fields, and the instruction
    # module building instructions.
    ("src/repro/service/example.py",
     "class C:\n    def __init__(self, t):\n        self.target = t\n"),
    ("src/repro/ir/instructions.py",
     "def f(new, opcode):\n    new.opcode = opcode\n"),
    # isinstance and a class attribute are not exact-class dispatch.
    ("src/repro/spill/example.py",
     "def f(model):\n    return isinstance(model, Model) and model.charges_jumps\n"),
)


def self_test() -> int:
    """Prove every rule fires on a planted violation and spares clean code."""

    failures = 0
    for code, path, source in _SELF_TEST_CASES:
        found = [v.code for v in check_source(source, path)]
        if found != [code]:
            print(f"self-test FAILED: expected [{code}] from {path}, got {found}")
            failures += 1
    for path, source in _SELF_TEST_CLEAN:
        found = check_source(source, path)
        if found:
            print(f"self-test FAILED: expected no findings from {path}, got "
                  + "; ".join(v.render() for v in found))
            failures += 1
    if failures:
        return 1
    print(
        f"self-test OK: {len(_SELF_TEST_CASES)} planted violations caught, "
        f"{len(_SELF_TEST_CLEAN)} clean cases spared"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "roots",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="lint planted-bad sources and verify every rule fires",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    violations = check_tree(args.roots)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} hot-path violation(s)")
        return 1
    print("hot-path check: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
