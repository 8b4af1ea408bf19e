"""Natural loop detection, the loop nesting forest, and irreducibility.

Chow's original shrink-wrapping avoids placing save/restore code inside loops
by propagating artificial data flow through loop bodies; the reproduction of
that behaviour (:mod:`repro.spill.shrink_wrap`) needs to know which blocks
belong to which natural loops.  The workload generator also uses loop
information to report workload statistics.

Natural loops only cover the *reducible* part of a flowgraph: a cycle entered
through two different blocks (the classic two-entry loop) has no back edge
``latch -> header`` with the header dominating the latch, so it appears in no
:class:`Loop`.  :func:`is_reducible` detects exactly this situation — the
scenario registry uses it to certify its irreducible workload families, and
the spill placements treat natural-loop information as a heuristic that may
under-approximate cycles on irreducible graphs (their soundness does not
depend on it; see :mod:`repro.spill.shrink_wrap`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.session import CompilationSession, session_for
from repro.ir.function import Function


@dataclass
class Loop:
    """A natural loop: a back edge ``latch -> header`` plus its body."""

    header: str
    latches: Set[str] = field(default_factory=set)
    body: Set[str] = field(default_factory=set)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def contains_loop(self, other: "Loop") -> bool:
        return other.body <= self.body and other is not self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loop header={self.header} blocks={len(self.body)} depth={self.depth}>"


@dataclass
class LoopForest:
    """All natural loops of a function, organised by nesting."""

    loops: List[Loop]
    loop_of_header: Dict[str, Loop]

    @property
    def top_level(self) -> List[Loop]:
        return [loop for loop in self.loops if loop.parent is None]

    def innermost_loop_of(self, label: str) -> Optional[Loop]:
        """The innermost loop containing ``label`` (``None`` when outside loops)."""

        best: Optional[Loop] = None
        for loop in self.loops:
            if label in loop.body and (best is None or len(loop.body) < len(best.body)):
                best = loop
        return best

    def loop_depth(self, label: str) -> int:
        loop = self.innermost_loop_of(label)
        return loop.depth if loop is not None else 0

    def max_depth(self) -> int:
        return max((loop.depth for loop in self.loops), default=0)


def _natural_loop_body(preds: Mapping[str, Sequence[str]], header: str, latch: str) -> Set[str]:
    """Blocks of the natural loop with the given back edge.

    ``preds`` is the predecessor map of one CFG snapshot, shared by every
    back edge of a :func:`compute_loop_forest` call.
    """

    body = {header, latch}
    stack = [latch]
    while stack:
        label = stack.pop()
        if label == header:
            continue
        for pred in preds.get(label, ()):
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def back_edges_of(
    function: Function, session: Optional[CompilationSession] = None
) -> List[Tuple[str, str]]:
    """The natural-loop back edges ``(latch, header)``: header dominates latch."""

    session = session_for(function, session)
    dom = session.dom
    return [
        (edge.src, edge.dst)
        for edge in session.cfg.edges
        if edge.src in dom and edge.dst in dom and dom.dominates(edge.dst, edge.src)
    ]


def is_reducible(function: Function, session: Optional[CompilationSession] = None) -> bool:
    """Is the function's CFG reducible?

    A flowgraph is reducible iff removing every back edge (``latch ->
    header`` with the header dominating the latch) leaves an acyclic graph.
    Irreducible graphs — cycles with several entry blocks — keep a cycle of
    *forward* edges after the removal; this is the standard dominator-based
    test.  Only blocks reachable from the entry participate (the verifier
    rejects unreachable blocks anyway).
    """

    session = session_for(function, session)
    dom = session.dom
    back = set(back_edges_of(function, session))
    reachable = {label for label in function.block_labels if label in dom}
    forward_succs: Dict[str, List[str]] = {label: [] for label in reachable}
    in_degree: Dict[str, int] = {label: 0 for label in reachable}
    for edge in session.cfg.edges:
        if (edge.src, edge.dst) in back:
            continue
        if edge.src in reachable and edge.dst in reachable:
            forward_succs[edge.src].append(edge.dst)
            in_degree[edge.dst] += 1
    # Kahn's algorithm: the forward graph is acyclic iff every node drains.
    ready = [label for label, degree in in_degree.items() if degree == 0]
    drained = 0
    while ready:
        label = ready.pop()
        drained += 1
        for succ in forward_succs[label]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
    return drained == len(reachable)


def compute_loop_forest(
    function: Function, session: Optional[CompilationSession] = None
) -> LoopForest:
    """Find all natural loops (one per header, merging shared-header back edges)."""

    session = session_for(function, session)
    back_edges = back_edges_of(function, session)

    preds = session.cfg.preds
    loops_by_header: Dict[str, Loop] = {}
    for latch, header in back_edges:
        loop = loops_by_header.setdefault(header, Loop(header=header))
        loop.latches.add(latch)
        loop.body |= _natural_loop_body(preds, header, latch)

    loops = list(loops_by_header.values())

    # Establish nesting: the parent of a loop is the smallest strictly larger
    # loop containing it.
    for loop in loops:
        candidates = [
            other
            for other in loops
            if other is not loop and loop.body <= other.body and loop.header in other.body
        ]
        if candidates:
            loop.parent = min(candidates, key=lambda l: len(l.body))
            loop.parent.children.append(loop)

    return LoopForest(loops=loops, loop_of_header=loops_by_header)
