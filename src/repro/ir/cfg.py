"""Control-flow-graph edges and the per-compile CFG snapshot.

Edges are first-class objects because the spill placement algorithms place
save/restore *locations on edges* and need to know, per edge, whether it is a
*fall-through* edge or a *jump* edge (the target of an explicit control
transfer).  The paper's jump-edge cost model charges an extra jump instruction
when spill code must be materialized in a new block on a critical jump edge.

:class:`FunctionCFG` is the derived-once form of a function's CFG: out-edge
tuples, predecessor lists, edge lookup tables and traversal orders computed in
a single walk over the terminators.  Before this snapshot existed every pass
re-derived edges from terminators on each query (``block_out_edges`` alone was
~45k calls per cold compile leg); now
:meth:`repro.ir.function.Function.cfg` hands out a cached snapshot that is
revalidated against the terminators' signature, so a CFG change (e.g. a
branch replaced by a retargeted copy) is still observed safely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.ir.basic_block import BasicBlock

#: Sentinel labels used for the virtual procedure-entry and procedure-exit
#: edges.  Spill locations "at procedure entry" live on the edge
#: ``(ENTRY_SENTINEL, entry_block)`` and locations "at procedure exit" on the
#: edge ``(exit_block, EXIT_SENTINEL)``.  (Re-exported by
#: :mod:`repro.ir.function` for backwards compatibility.)
ENTRY_SENTINEL = "__entry__"
EXIT_SENTINEL = "__exit__"


class EdgeKind(enum.Enum):
    """Classification of CFG edges."""

    #: Implicit edge to the next block in layout order.
    FALLTHROUGH = "fallthrough"
    #: Edge created by an explicit jump or taken branch.
    JUMP = "jump"
    #: Synthetic edge used by analyses (virtual entry/exit edges).
    VIRTUAL = "virtual"


@dataclass(frozen=True)
class Edge:
    """A directed CFG edge between two basic blocks (identified by label)."""

    src: str
    dst: str
    kind: EdgeKind = EdgeKind.FALLTHROUGH

    @property
    def key(self) -> Tuple[str, str]:
        """The ``(src, dst)`` pair; at most one edge exists per pair."""

        return (self.src, self.dst)

    def __str__(self) -> str:
        arrow = {
            EdgeKind.FALLTHROUGH: "->",
            EdgeKind.JUMP: "=>",
            EdgeKind.VIRTUAL: "~>",
        }[self.kind]
        return f"{self.src} {arrow} {self.dst}"


#: One signature entry per block, in layout order:
#: ``(label, terminator opcode or None, jump-target name or None, switch-target names)``.
#: Two functions with equal signatures have identical CFGs, and any mutation
#: that changes the CFG — retargeting a branch, swapping a terminator, adding
#: or removing blocks — changes the signature.
CFGSignature = Tuple[Tuple[str, Optional[object], Optional[str], Tuple[str, ...]], ...]


class FunctionCFG:
    """An immutable snapshot of one function's control-flow graph.

    Everything the pipeline repeatedly asks of the CFG — out edges, successor
    and predecessor lists, edge lookup by key, exit blocks, traversal orders —
    is derived exactly once from the terminator signature and then answered by
    dictionary lookups.  The snapshot never mutates; a changed function yields
    a new snapshot (see :meth:`repro.ir.function.Function.cfg`).

    The edge derivation mirrors the historical per-query rules bit for bit:
    jump (taken) edges precede fall-through edges in each block's out-edge
    tuple, switch targets are deduplicated preserving order, and predecessor
    lists enumerate sources in whole-CFG edge order.
    """

    __slots__ = (
        "function_name",
        "signature",
        "labels",
        "entry_label",
        "exit_labels",
        "out_edges",
        "edges",
        "succs",
        "preds",
        "_rpo",
        "_graph_succs",
        "_graph_preds",
        "_aa_maps",
        "_placement_edges",
    )

    def __init__(self, function_name: str, signature: CFGSignature):
        from repro.ir.instructions import Opcode

        self.function_name = function_name
        self.signature = signature
        labels: Tuple[str, ...] = tuple(item[0] for item in signature)
        self.labels = labels
        self.entry_label: Optional[str] = labels[0] if labels else None

        out_edges: Dict[str, Tuple[Edge, ...]] = {}
        exit_labels: List[str] = []
        count = len(labels)
        for i, (label, opcode, target, targets) in enumerate(signature):
            layout_next = labels[i + 1] if i + 1 < count else None
            block_edges: List[Edge] = []
            if opcode is None:
                if layout_next is not None:
                    block_edges.append(Edge(label, layout_next, EdgeKind.FALLTHROUGH))
            elif opcode is Opcode.JMP:
                block_edges.append(Edge(label, target, EdgeKind.JUMP))
            elif opcode is Opcode.SWITCH:
                seen = set()
                for case_target in targets:
                    if case_target not in seen:
                        seen.add(case_target)
                        block_edges.append(Edge(label, case_target, EdgeKind.JUMP))
            elif opcode is Opcode.BR:
                block_edges.append(Edge(label, target, EdgeKind.JUMP))
                if layout_next is not None:
                    block_edges.append(Edge(label, layout_next, EdgeKind.FALLTHROUGH))
            elif opcode is Opcode.RET:
                exit_labels.append(label)
            out_edges[label] = tuple(block_edges)

        self.out_edges = out_edges
        self.exit_labels: Tuple[str, ...] = tuple(exit_labels)
        all_edges: List[Edge] = []
        for label in labels:
            all_edges.extend(out_edges[label])
        self.edges: Tuple[Edge, ...] = tuple(all_edges)
        self.succs: Dict[str, Tuple[str, ...]] = {
            label: tuple(e.dst for e in out_edges[label]) for label in labels
        }
        preds: Dict[str, List[str]] = {label: [] for label in labels}
        for e in all_edges:
            preds.setdefault(e.dst, []).append(e.src)
        self.preds: Dict[str, Tuple[str, ...]] = {
            label: tuple(srcs) for label, srcs in preds.items()
        }
        self._rpo: Optional[List[str]] = None
        self._graph_succs: Optional[Dict[str, List[str]]] = None
        self._graph_preds: Optional[Dict[str, List[str]]] = None
        self._aa_maps = None
        self._placement_edges = None

    # -- lookups ----------------------------------------------------------------

    @property
    def exit_label(self) -> str:
        """The unique exit label; raises when the function has several."""

        if len(self.exit_labels) != 1:
            raise ValueError(
                f"function {self.function_name!r} has {len(self.exit_labels)} exit blocks; "
                "run repro.ir.passes.ensure_single_exit first"
            )
        return self.exit_labels[0]

    def edge(self, src: str, dst: str) -> Edge:
        """The edge ``src -> dst``; raises ``KeyError`` when absent."""

        for e in self.out_edges[src]:
            if e.dst == dst:
                return e
        raise KeyError(f"no edge {src} -> {dst} in function {self.function_name!r}")

    def has_edge(self, src: str, dst: str) -> bool:
        return any(e.dst == dst for e in self.out_edges[src])

    def placement_edges(self) -> "PlacementEdges":
        """The numbered edges spill code may sit on (built once; needs a single exit)."""

        edges = self._placement_edges
        if edges is None:
            edges = PlacementEdges(self)
            self._placement_edges = edges
        return edges

    # -- traversal structures ----------------------------------------------------

    def _build_graph(self) -> None:
        """Deduplicated adjacency in both directions (DiGraph-compatible).

        Node order and neighbour order replicate adding the edges one by one
        to a :class:`repro.analysis.graph.DiGraph`: labels first in layout
        order, then any edge endpoint not yet present, with parallel edges
        collapsed on first occurrence.
        """

        succs: Dict[str, List[str]] = {}
        preds: Dict[str, List[str]] = {}

        def ensure(node: str) -> None:
            if node not in succs:
                succs[node] = []
                preds[node] = []

        for label in self.labels:
            ensure(label)
        for e in self.edges:
            ensure(e.src)
            ensure(e.dst)
            if e.dst not in succs[e.src]:
                succs[e.src].append(e.dst)
                preds[e.dst].append(e.src)
        self._graph_succs = succs
        self._graph_preds = preds

    @property
    def graph_succs(self) -> Dict[str, List[str]]:
        """Deduplicated successor lists (treat as read-only)."""

        if self._graph_succs is None:
            self._build_graph()
        return self._graph_succs

    @property
    def graph_preds(self) -> Dict[str, List[str]]:
        """Deduplicated predecessor lists (treat as read-only)."""

        if self._graph_preds is None:
            self._build_graph()
        return self._graph_preds

    def reverse_postorder(self) -> List[str]:
        """Blocks reachable from the entry in reverse post-order (cached).

        Replicates the iterative DFS of
        :meth:`repro.analysis.graph.DiGraph.postorder` so solvers switching to
        the snapshot iterate in the historical order.
        """

        rpo = self._rpo
        if rpo is None:
            if self.entry_label is None:
                rpo = []
            else:
                succs = self.graph_succs
                visited = {self.entry_label}
                order: List[str] = []
                stack: List[Tuple[str, int]] = [(self.entry_label, 0)]
                while stack:
                    node, index = stack[-1]
                    children = succs[node]
                    if index < len(children):
                        stack[-1] = (node, index + 1)
                        child = children[index]
                        if child not in visited:
                            visited.add(child)
                            stack.append((child, 0))
                    else:
                        stack.pop()
                        order.append(node)
                order.reverse()
                rpo = order
            self._rpo = rpo
        return rpo

    def aa_maps(self):
        """Bit-position maps for the mask-based anticipation/availability solver.

        Returns ``(position, preds_masks, succs_masks, exits_mask)`` where bit
        ``position[label]`` stands for ``label``; cached on the snapshot since
        every callee-saved register solves over the same structure.
        """

        maps = self._aa_maps
        if maps is None:
            labels = self.labels
            position = {label: i for i, label in enumerate(labels)}
            preds_masks: List[int] = []
            succs_masks: List[int] = []
            for label in labels:
                mask = 0
                for p in self.preds.get(label, ()):
                    mask |= 1 << position[p]
                preds_masks.append(mask)
                mask = 0
                for s in self.succs[label]:
                    bit = position.get(s)
                    if bit is not None:
                        mask |= 1 << bit
                succs_masks.append(mask)
            exits_mask = 0
            for label in self.exit_labels:
                exits_mask |= 1 << position[label]
            maps = (position, preds_masks, succs_masks, exits_mask)
            self._aa_maps = maps
        return maps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FunctionCFG {self.function_name} ({len(self.labels)} blocks, "
            f"{len(self.edges)} edges)>"
        )


class PlacementEdges:
    """The numbered edges of one CFG snapshot that spill code may sit on.

    Edge 0 is the virtual entry edge, ``1 .. len(cfg.edges)`` are ``cfg.edges``
    and :attr:`exit` is the virtual exit edge; edge and block sets are ``int``
    masks (blocks at :meth:`FunctionCFG.aa_maps` positions).  Per edge ``e``:
    ``keys[e]`` (``number`` maps back), destination position ``dst[e]`` (-1:
    exit edge) and ``rank[e]``, the key's sorted position; per block ``b``,
    out-edges ``out[b]`` (the exit block's end with the exit edge).
    ``jump_mask`` holds the edges that need a jump block.  ``block_masks``
    memoizes :meth:`block_mask`.
    """

    __slots__ = ("position", "keys", "number", "exit", "dst", "out", "jump_mask", "rank",
                 "block_masks")

    def __init__(self, cfg: FunctionCFG):
        position = cfg.aa_maps()[0]
        entry, exit_label = cfg.entry_label, cfg.exit_label
        self.position, self.block_masks = position, {}
        keys = [(ENTRY_SENTINEL, entry)] + [e.key for e in cfg.edges]
        self.keys = tuple(keys + [(exit_label, EXIT_SENTINEL)])
        self.exit = len(self.keys) - 1
        self.number = {key: n for n, key in enumerate(self.keys)}
        self.dst = [position[entry]] + [position[e.dst] for e in cfg.edges] + [-1]
        out: List[List[int]] = [[] for _ in cfg.labels]
        self.jump_mask = 0
        for n, e in enumerate(cfg.edges, 1):
            out[position[e.src]].append(n)
            critical = (e.dst == entry or len(cfg.preds[e.dst]) != 1) and len(cfg.succs[e.src]) != 1
            if critical and e.kind is EdgeKind.JUMP:
                self.jump_mask |= 1 << n
        out[position[exit_label]].append(self.exit)
        self.out = [tuple(numbers) for numbers in out]
        self.rank = [0] * len(self.keys)
        for r, n in enumerate(sorted(range(len(self.keys)), key=self.keys.__getitem__)):
            self.rank[n] = r

    def block_mask(self, labels) -> int:
        """The block mask of ``labels`` (labels outside the CFG are ignored)."""

        key = labels if isinstance(labels, frozenset) else frozenset(labels)
        mask = self.block_masks.get(key)
        if mask is None:
            position = self.position
            mask = self.block_masks[key] = sum(1 << position[l] for l in key if l in position)
        return mask
