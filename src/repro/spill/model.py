"""Data model for callee-saved spill placement.

The central objects are:

* :class:`CalleeSavedUsage` — for each callee-saved register, the set of
  blocks in which the register is *occupied* by a program variable after
  register allocation (the shaded blocks of the paper's figures).
* :class:`SpillLocation` — one save or restore of one register, located on a
  CFG edge.  Locations at procedure entry or exit live on the virtual
  entry/exit edges.
* :class:`SaveRestoreSet` — a group of mutually dependent save/restore
  locations (the paper's save/restore sets, built like du-webs).
* :class:`SpillPlacement` — the complete result of a placement technique:
  for every callee-saved register, its save/restore sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function
from repro.ir.values import PhysicalRegister

EdgeKey = Tuple[str, str]


class SpillKind(enum.Enum):
    """Whether a spill location stores (save) or loads (restore) the register."""

    SAVE = "save"
    RESTORE = "restore"


@dataclass(frozen=True)
class SpillLocation:
    """One callee-saved save or restore on a specific CFG edge."""

    register: PhysicalRegister
    kind: SpillKind
    edge: EdgeKey

    def is_save(self) -> bool:
        return self.kind is SpillKind.SAVE

    def is_restore(self) -> bool:
        return self.kind is SpillKind.RESTORE

    def is_at_procedure_entry(self) -> bool:
        return self.edge[0] == ENTRY_SENTINEL

    def is_at_procedure_exit(self) -> bool:
        return self.edge[1] == EXIT_SENTINEL

    def is_on_virtual_edge(self) -> bool:
        return self.is_at_procedure_entry() or self.is_at_procedure_exit()

    def __str__(self) -> str:
        return f"{self.kind.value}({self.register}) on {self.edge[0]}->{self.edge[1]}"


def _location_order(location: SpillLocation) -> Tuple[str, EdgeKey]:
    return (location.kind.value, location.edge)


@dataclass(frozen=True)
class SaveRestoreSet:
    """A group of save/restore locations that are valid only together.

    ``initial`` records whether the set came from the (modified)
    shrink-wrapping starting point; the jump-edge cost model divides the cost
    of a required jump instruction among registers only for initial sets.
    """

    register: PhysicalRegister
    locations: FrozenSet[SpillLocation]
    initial: bool = True

    def __post_init__(self) -> None:
        for location in self.locations:
            if location.register != self.register:
                raise ValueError(
                    f"location {location} does not belong to register {self.register}"
                )

    @classmethod
    def from_locations(
        cls,
        register: PhysicalRegister,
        locations: Iterable[SpillLocation],
        initial: bool = True,
    ) -> "SaveRestoreSet":
        return cls(register, frozenset(locations), initial)

    def ordered_locations(self) -> List[SpillLocation]:
        """The locations in canonical ``(kind, edge)`` order.

        Iterating the frozenset follows string hashes, which vary by
        process; anything whose result depends on order (a float sum, a
        printed listing) iterates this list instead.
        """

        return sorted(self.locations, key=_location_order)

    def edges(self) -> Set[EdgeKey]:
        return {l.edge for l in self.locations}

    def is_contained_in_blocks(self, blocks: FrozenSet[str]) -> bool:
        """True when every location lies on an edge internal to ``blocks``."""

        return all(
            location.edge[0] in blocks and location.edge[1] in blocks
            for location in self.locations
        )

    def __len__(self) -> int:
        return len(self.locations)

    def __str__(self) -> str:
        parts = ", ".join(str(l) for l in self.ordered_locations())
        return f"{{{parts}}}"


@dataclass
class CalleeSavedUsage:
    """Occupancy of callee-saved registers per basic block.

    A register is *occupied* in a block when some allocated live range
    assigned to it is live anywhere in that block; the original callee-saved
    value must therefore be saved before the block executes and must not be
    restored until after the occupied region.
    """

    occupancy: Dict[PhysicalRegister, FrozenSet[str]] = field(default_factory=dict)

    @classmethod
    def from_blocks(
        cls, mapping: Mapping[PhysicalRegister, Iterable[str]]
    ) -> "CalleeSavedUsage":
        return cls({reg: frozenset(blocks) for reg, blocks in mapping.items() if blocks})

    def used_registers(self) -> List[PhysicalRegister]:
        """Registers with at least one occupied block, in a stable order."""

        return sorted((r for r, blocks in self.occupancy.items() if blocks), key=lambda r: r.name)

    def blocks_for(self, register: PhysicalRegister) -> FrozenSet[str]:
        return self.occupancy.get(register, frozenset())

    def is_occupied(self, register: PhysicalRegister, label: str) -> bool:
        return label in self.occupancy.get(register, frozenset())

    def restricted_to(self, labels: Iterable[str]) -> "CalleeSavedUsage":
        """Occupancy restricted to a subset of blocks (used by tests)."""

        allowed = set(labels)
        return CalleeSavedUsage(
            {reg: frozenset(b for b in blocks if b in allowed) for reg, blocks in self.occupancy.items()}
        )

    def __bool__(self) -> bool:
        return any(self.occupancy.values())


@dataclass
class SpillPlacement:
    """The full placement decision of one technique for one function."""

    function_name: str
    technique: str
    sets: Dict[PhysicalRegister, List[SaveRestoreSet]] = field(default_factory=dict)
    #: Registers whose derived locations failed the soundness check and were
    #: replaced by the entry/exit fallback (only ever non-empty on CFG shapes
    #: outside a technique's structural assumptions, e.g. irreducible loops).
    fallback_registers: List[PhysicalRegister] = field(default_factory=list)

    # -- construction ---------------------------------------------------------------

    def add_set(self, srset: SaveRestoreSet) -> None:
        self.sets.setdefault(srset.register, []).append(srset)

    def replace_sets(self, register: PhysicalRegister, sets: List[SaveRestoreSet]) -> None:
        self.sets[register] = list(sets)

    # -- queries ---------------------------------------------------------------------

    def registers(self) -> List[PhysicalRegister]:
        return sorted(self.sets.keys(), key=lambda r: r.name)

    def sets_for(self, register: PhysicalRegister) -> List[SaveRestoreSet]:
        return list(self.sets.get(register, []))

    def locations(self) -> Iterator[SpillLocation]:
        for register in self.registers():
            for srset in self.sets[register]:
                yield from srset.ordered_locations()

    def locations_for(self, register: PhysicalRegister) -> List[SpillLocation]:
        result: List[SpillLocation] = []
        for srset in self.sets.get(register, []):
            result.extend(srset.locations)
        return result

    def saves(self) -> List[SpillLocation]:
        return [l for l in self.locations() if l.is_save()]

    def restores(self) -> List[SpillLocation]:
        return [l for l in self.locations() if l.is_restore()]

    def num_locations(self) -> int:
        return sum(len(srset) for sets in self.sets.values() for srset in sets)

    def edges_with_locations(self) -> Dict[EdgeKey, List[SpillLocation]]:
        by_edge: Dict[EdgeKey, List[SpillLocation]] = {}
        for location in self.locations():
            by_edge.setdefault(location.edge, []).append(location)
        return by_edge

    def describe(self) -> str:
        lines = [f"{self.technique} placement for {self.function_name}:"]
        for register in self.registers():
            for srset in self.sets[register]:
                lines.append(f"  {register.name}: {srset}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()
