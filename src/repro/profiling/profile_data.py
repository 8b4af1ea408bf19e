"""Edge profiles: dynamic execution counts for CFG edges and blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.ir.cfg import FunctionCFG
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function

EdgeKey = Tuple[str, str]


class ProfileError(ValueError):
    """Raised when a profile is inconsistent with the function it annotates."""


@dataclass
class EdgeProfile:
    """Dynamic execution counts for one function.

    The profile stores a count per CFG edge plus the procedure invocation
    count.  Block counts are derived (sum of incoming edge counts; the entry
    block's count is the invocation count plus any incoming back-edge
    counts).  The virtual procedure entry/exit edges carry the invocation
    count, which is what the entry/exit placement technique pays per
    inserted save or restore.
    """

    function_name: str
    invocations: float
    edge_counts: Dict[EdgeKey, float] = field(default_factory=dict)

    # -- queries ------------------------------------------------------------------

    def edge_count(self, edge: EdgeKey) -> float:
        """Count of a CFG edge; virtual entry/exit edges map to the invocation count."""

        if edge[0] == ENTRY_SENTINEL or edge[1] == EXIT_SENTINEL:
            return self.invocations
        return self.edge_counts.get(edge, 0.0)

    def block_count(self, function: Function, label: str) -> float:
        """Execution count of a block (sum of incoming edges, invocations at entry)."""

        total = 0.0
        if label == function.entry.label:
            total += self.invocations
        for edge in function.edges():
            if edge.dst == label:
                total += self.edge_count(edge.key)
        return total

    def block_counts(
        self, function: Function, cfg: Optional[FunctionCFG] = None
    ) -> Dict[str, float]:
        """Execution counts of every block, in one pass over the edges.

        Equivalent to ``block_count`` per label — the per-label addition
        order (invocations first at the entry, then incoming edges in
        ``function.edges()`` order) is identical, so the floats are bit-equal
        — but O(B + E) instead of O(B * E).  ``cfg`` is the function's
        snapshot, when the caller holds one.
        """

        if cfg is None:
            cfg = function.cfg()
        counts = {label: 0.0 for label in cfg.labels}
        counts[cfg.entry_label] += self.invocations
        for edge in cfg.edges:
            if edge.dst in counts:
                counts[edge.dst] += self.edge_count(edge.key)
        return counts

    def total_edge_count(self) -> float:
        return sum(self.edge_counts.values())

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def from_counts(
        cls,
        function: Function,
        edge_counts: Mapping[EdgeKey, float],
        invocations: Optional[float] = None,
    ) -> "EdgeProfile":
        """Build a profile from raw edge counts.

        When ``invocations`` is omitted it is inferred from flow conservation
        at the entry block (out-flow minus in-flow).
        """

        counts = {k: float(v) for k, v in edge_counts.items()}
        if invocations is None:
            entry = function.entry.label
            outgoing = sum(counts.get(e.key, 0.0) for e in function.block_out_edges(entry))
            incoming = sum(
                counts.get(e.key, 0.0) for e in function.edges() if e.dst == entry
            )
            terminating = 0.0
            if function.entry.terminator is not None and function.entry.terminator.is_return():
                # Degenerate single-block function: every invocation exits here.
                terminating = max(outgoing, 1.0)
            invocations = max(outgoing + terminating - incoming, 0.0)
        return cls(function.name, float(invocations), counts)

    def scaled(self, factor: float) -> "EdgeProfile":
        """A copy with every count multiplied by ``factor``."""

        return EdgeProfile(
            self.function_name,
            self.invocations * factor,
            {k: v * factor for k, v in self.edge_counts.items()},
        )

    # -- validation -----------------------------------------------------------------

    def check_flow_conservation(self, function: Function, tolerance: float = 1e-6) -> List[str]:
        """Return flow-conservation violations (empty when the profile is consistent).

        For every block, flow in (plus invocations at the entry) must equal
        flow out (plus invocations at the exit).
        """

        problems: List[str] = []
        entry = function.entry.label
        exits = {b.label for b in function.exit_blocks()}
        incoming: Dict[str, float] = {label: 0.0 for label in function.block_labels}
        outgoing: Dict[str, float] = {label: 0.0 for label in function.block_labels}
        for edge in function.edges():
            count = self.edge_count(edge.key)
            if count < -tolerance:
                problems.append(f"negative count on edge {edge.key}: {count}")
            outgoing[edge.src] += count
            incoming[edge.dst] += count
        for label in function.block_labels:
            inflow = incoming[label] + (self.invocations if label == entry else 0.0)
            outflow = outgoing[label] + (self.invocations if label in exits else 0.0)
            if abs(inflow - outflow) > tolerance * max(1.0, abs(inflow), abs(outflow)):
                problems.append(
                    f"flow imbalance at block {label!r}: in={inflow} out={outflow}"
                )
        return problems

    def validate(self, function: Function, tolerance: float = 1e-6) -> None:
        """Raise :class:`ProfileError` when the profile is not flow conserving."""

        problems = self.check_flow_conservation(function, tolerance)
        if problems:
            raise ProfileError("; ".join(problems))
