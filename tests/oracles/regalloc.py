"""Reference versions of the register allocator's stages.

These are the formulations :mod:`repro.regalloc` replaced with its
dense-index implementation, kept as test oracles:

* the set-keyed allocator that preceded it — live ranges as ``LiveRange``
  objects in a ``Register``-keyed dict, a ``Set[Register]`` interference
  graph, the heap colouring over ``Register`` nodes, the rewrite that
  inspects every operand, and callee-saved occupancy from a second
  liveness solve of the rewritten function — composed into
  :func:`allocate_registers_reference`;
* the original, obviously-correct formulations underneath: the
  ``(degree, name)``-sorted colouring scan, the set-based occupancy walk,
  and Chaitin's interference construction directly over sets.

The functions are copied unchanged with two exceptions.  Helpers the shipped
package no longer has (``virtual_register_mask``, ``mentioned_mask``) are
spelled out here.  Both colourings try move partners in name order instead
of set iteration order, which followed the per-process string-hash seed
whenever a node had two coloured partners.  The shipped colouring fixes the
same bug the same way, so the two stay comparable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.liveness import LivenessInfo, compute_liveness, live_masks_at_each_instruction
from repro.analysis.loops import compute_loop_forest
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.values import PhysicalRegister, Register, VirtualRegister
from repro.profiling.profile_data import EdgeProfile
from repro.regalloc.allocator import AllocationResult, RegisterAllocationError
from repro.regalloc.rewriter import (
    demote_overflow_parameters,
    insert_spill_code,
    is_spill_temp,
    isolate_parameters,
)
from repro.spill.model import CalleeSavedUsage
from repro.target.machine import MachineDescription

from tests.oracles.dataflow import reference_live_after, reference_liveness


# -- live ranges -------------------------------------------------------------------


@dataclass
class LiveRange:
    """Aggregate information about one virtual register."""

    register: Register
    blocks: Set[str] = field(default_factory=set)
    definitions: int = 0
    uses: int = 0
    crosses_call: bool = False
    #: The register is an incoming parameter; arguments arrive in caller-saved
    #: registers, so such ranges never get a callee-saved register directly.
    is_parameter: bool = False
    #: The value is returned by a ``ret`` instruction; the calling convention
    #: returns values in caller-saved registers, so such ranges must not be
    #: given a callee-saved register (its restore would clobber the result).
    used_by_return: bool = False
    spill_cost: float = 0.0

    @property
    def references(self) -> int:
        return self.definitions + self.uses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveRange {self.register} blocks={len(self.blocks)} refs={self.references} "
            f"crosses_call={self.crosses_call} cost={self.spill_cost:.1f}>"
        )


@dataclass
class LiveRangeInfo:
    """Live ranges for every virtual register plus the liveness solution."""

    ranges: Dict[Register, LiveRange]
    liveness: LivenessInfo

    def range_of(self, register: Register) -> LiveRange:
        return self.ranges[register]

    def registers(self) -> List[Register]:
        return sorted(self.ranges.keys(), key=lambda r: r.name)

    def call_crossing_registers(self) -> List[Register]:
        return [r for r in self.registers() if self.ranges[r].crosses_call]


def _block_weights(
    function: Function,
    profile: Optional[EdgeProfile],
    loop_depth: Dict[str, int],
) -> Dict[str, float]:
    """Spill-cost weight of every block: profile count, or 10^loop-depth."""

    if profile is not None:
        return {
            label: max(count, 0.0)
            for label, count in profile.block_counts(function).items()
        }
    return {
        label: float(10 ** loop_depth.get(label, 0)) for label in function.block_labels
    }


def compute_live_ranges_reference(
    function: Function,
    profile: Optional[EdgeProfile] = None,
    machine=None,
) -> LiveRangeInfo:
    """Build live ranges for all virtual registers of ``function``.

    ``machine`` optionally selects the persistent per-target register index
    for the liveness solve (see :func:`repro.analysis.liveness.compute_liveness`).
    """

    liveness = compute_liveness(function, machine=machine)
    bits = liveness
    index = bits.index
    vreg_mask = bits.index.virtual_mask
    loops = compute_loop_forest(function)
    loop_depth = {label: loops.loop_depth(label) for label in function.block_labels}
    weights = _block_weights(function, profile, loop_depth)

    ranges: Dict[Register, LiveRange] = {}

    def range_for(register: Register) -> LiveRange:
        return ranges.setdefault(register, LiveRange(register=register))

    for param in function.params:
        if isinstance(param, VirtualRegister):
            live_range = range_for(param)
            live_range.definitions += 1
            live_range.is_parameter = True
            live_range.blocks.add(function.entry.label)

    for block in function.blocks:
        label = block.label
        weight = weights[label]
        live_after = live_masks_at_each_instruction(bits, label)
        inst_masks = bits.instruction_masks(label)

        # Track block membership: anything live-in, live-out, defined or used.
        present = (bits.live_in[label] | bits.live_out[label]) & vreg_mask
        for position, inst in enumerate(block.instructions):
            written_mask, read_mask = inst_masks[position]
            # Reference counting walks the operand tuples (not the masks):
            # an instruction reading the same register twice counts two uses,
            # exactly as before.
            if written_mask & vreg_mask:
                for reg in inst.registers_written():
                    if isinstance(reg, VirtualRegister):
                        live_range = range_for(reg)
                        live_range.definitions += 1
                        live_range.spill_cost += weight
            if read_mask & vreg_mask:
                for reg in inst.registers_read():
                    if isinstance(reg, VirtualRegister):
                        live_range = range_for(reg)
                        live_range.uses += 1
                        live_range.spill_cost += weight
            present |= (written_mask | read_mask) & vreg_mask
            if inst.is_call():
                crossing = live_after[position] & vreg_mask & ~written_mask
                for reg in index.iter_bits(crossing):
                    range_for(reg).crosses_call = True
            if inst.is_return():
                for reg in inst.registers_read():
                    if isinstance(reg, VirtualRegister):
                        range_for(reg).used_by_return = True

        for reg in index.iter_bits(present):
            range_for(reg).blocks.add(label)

    return LiveRangeInfo(ranges=ranges, liveness=liveness)


# -- interference ------------------------------------------------------------------


#: Shared empty set handed out by :meth:`InterferenceGraph.adjacency` for
#: unknown registers (never mutated).
_EMPTY_ADJACENCY: Set[Register] = set()


@dataclass
class InterferenceGraph:
    """An undirected graph over virtual registers."""

    nodes: Set[Register] = field(default_factory=set)
    _adjacency: Dict[Register, Set[Register]] = field(default_factory=dict)
    #: Pairs related by moves (candidates for coalescing / same-colour hints).
    move_pairs: Set[Tuple[Register, Register]] = field(default_factory=set)

    def add_node(self, register: Register) -> None:
        self.nodes.add(register)
        self._adjacency.setdefault(register, set())

    def add_edge(self, a: Register, b: Register) -> None:
        if a == b:
            return
        self.add_node(a)
        self.add_node(b)
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    def add_neighbours(self, register: Register, neighbours: Set[Register]) -> None:
        """Bulk-insert pre-symmetrized adjacency for one register.

        The batch builder accumulates adjacency as bitmasks and materializes
        each register's full neighbour set once; the caller guarantees
        symmetry (every ``b in neighbours`` of ``a`` is later given ``a``)
        and ``register not in neighbours``.
        """

        self.add_node(register)
        self._adjacency[register] |= neighbours

    def interferes(self, a: Register, b: Register) -> bool:
        return b in self._adjacency.get(a, set())

    def neighbours(self, register: Register) -> Set[Register]:
        return set(self._adjacency.get(register, set()))

    def adjacency(self, register: Register) -> Set[Register]:
        """The internal neighbour set of ``register`` — treat as read-only.

        :meth:`neighbours` copies; hot loops that only iterate (the colouring
        simplify/select passes) use this accessor to skip the copy.
        """

        return self._adjacency.get(register, _EMPTY_ADJACENCY)

    def degree(self, register: Register) -> int:
        return len(self._adjacency.get(register, set()))

    def num_edges(self) -> int:
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    def move_partners(self, register: Register) -> Set[Register]:
        partners: Set[Register] = set()
        for a, b in self.move_pairs:
            if a == register:
                partners.add(b)
            elif b == register:
                partners.add(a)
        return partners


def _mentioned_mask(bits, function) -> int:
    """The registers ``function`` mentions: its parameters plus the block-level
    ``uses``/``defs``/``live_in``/``live_out`` masks."""

    mentioned = bits.index.mask_of(function.params)
    for masks in (bits.uses, bits.defs, bits.live_in, bits.live_out):
        for mask in masks.values():
            mentioned |= mask
    return mentioned


def build_interference_graph_reference(
    function: Function, liveness: LivenessInfo
) -> InterferenceGraph:
    """Chaitin-style interference graph over the virtual registers of ``function``."""

    bits = liveness
    index = bits.index
    vreg_mask = bits.index.virtual_mask

    graph = InterferenceGraph()
    # The node set is the virtual registers the function mentions (parameters
    # and instruction operands) — enumerated from the block-level masks, and
    # explicitly restricted to this function because a forked per-target base
    # index carries registers from outside it.
    node_mask = _mentioned_mask(bits, function) & vreg_mask
    for reg in index.iter_bits(node_mask):
        graph.add_node(reg)

    # Adjacency accumulates as bit -> neighbour mask; symmetrized and
    # materialized into sets once, below.
    adjacency: Dict[int, int] = {}

    for block in function.blocks:
        live_after = live_masks_at_each_instruction(bits, block.label)
        for position, inst in enumerate(block.instructions):
            written = [r for r in inst.registers_written() if isinstance(r, VirtualRegister)]
            if not written:
                continue
            live = live_after[position] & vreg_mask
            move_source = None
            if inst.opcode is Opcode.MOV and inst.uses and isinstance(inst.uses[0], VirtualRegister):
                move_source = inst.uses[0]
            written_bits = [index.add(reg) for reg in written]
            sibling_mask = 0
            for bit in written_bits:
                sibling_mask |= 1 << bit
            for dst, dst_bit in zip(written, written_bits):
                # Multiple results of one instruction interfere with each
                # other; the destination never interferes with itself.
                others = (live | sibling_mask) & ~(1 << dst_bit)
                if move_source is not None:
                    source_bit = 1 << index.add(move_source)
                    if others & source_bit and move_source != dst:
                        # A move's source and destination do not interfere
                        # through the move itself.
                        graph.move_pairs.add((dst, move_source))
                        others &= ~source_bit
                adjacency[dst_bit] = adjacency.get(dst_bit, 0) | others

    # Parameters are all defined at once by the calling convention on entry,
    # so each interferes with everything live into the entry block — in
    # particular with every other live-in parameter, which would otherwise
    # carry no interference at all (parameters have no defining instruction)
    # and could be assigned one shared register.
    params = [r for r in function.params if isinstance(r, VirtualRegister)]
    if params:
        entry_live = bits.live_in.get(function.entry.label, 0) & vreg_mask
        param_mask = 0
        for param in params:
            param_mask |= 1 << index.add(param)
        for param in params:
            bit = index.add(param)
            others = (entry_live | param_mask) & ~(1 << bit)
            adjacency[bit] = adjacency.get(bit, 0) | others

    # Symmetrize (edges were recorded from the defining side only), then
    # materialize the masks into the public set-based adjacency.
    for bit, mask in list(adjacency.items()):
        remaining = mask
        while remaining:
            low = remaining & -remaining
            other = low.bit_length() - 1
            adjacency[other] = adjacency.get(other, 0) | (1 << bit)
            remaining ^= low
    for bit, mask in adjacency.items():
        graph.add_neighbours(index.fact_at(bit), index.set_of(mask))
    return graph


def reference_interference(function, liveness):
    """The seed's Chaitin construction, directly over sets."""

    graph = InterferenceGraph()
    for param in function.params:
        if isinstance(param, VirtualRegister):
            graph.add_node(param)
    for inst in function.instructions():
        for reg in inst.registers():
            if isinstance(reg, VirtualRegister):
                graph.add_node(reg)
    for block in function.blocks:
        live_after = reference_live_after(function, liveness, block.label)
        for index, inst in enumerate(block.instructions):
            written = [r for r in inst.registers_written() if isinstance(r, VirtualRegister)]
            if not written:
                continue
            live = {r for r in live_after[index] if isinstance(r, VirtualRegister)}
            move_source = None
            if inst.opcode is Opcode.MOV and inst.uses and isinstance(inst.uses[0], VirtualRegister):
                move_source = inst.uses[0]
            for dst in written:
                for other in live:
                    if other == dst:
                        continue
                    if move_source is not None and other == move_source:
                        graph.move_pairs.add((dst, move_source))
                        continue
                    graph.add_edge(dst, other)
                for sibling in written:
                    if sibling != dst:
                        graph.add_edge(dst, sibling)
    return graph


# -- colouring ----------------------------------------------------------------------


@dataclass
class ColoringResult:
    """Outcome of one colouring attempt."""

    assignment: Dict[Register, PhysicalRegister] = field(default_factory=dict)
    spilled: List[Register] = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        return not self.spilled

    def callee_saved_assigned(self, machine: MachineDescription) -> Set[PhysicalRegister]:
        return {
            phys for phys in self.assignment.values() if machine.is_callee_saved(phys)
        }


def _allowed_registers(
    register: Register,
    ranges: LiveRangeInfo,
    machine: MachineDescription,
) -> Tuple[PhysicalRegister, ...]:
    """The physical registers a virtual register may be assigned, in preference order."""

    live_range = ranges.ranges.get(register)
    crosses_call = live_range.crosses_call if live_range is not None else False
    used_by_return = live_range.used_by_return if live_range is not None else False
    is_parameter = live_range.is_parameter if live_range is not None else False
    if is_parameter and not crosses_call:
        # Incoming arguments live in caller-saved registers.
        return machine.caller_saved
    if is_parameter and crosses_call:
        # Should not happen once parameters are isolated at the entry; spill
        # defensively rather than hand an argument a callee-saved register.
        return ()
    if crosses_call and used_by_return:
        # The value must survive a call (needs a callee-saved register) *and*
        # be returned (needs a caller-saved register): no single register
        # satisfies both, so the range is always spilled and its short reload
        # before the return gets a caller-saved register.
        return ()
    if crosses_call:
        # A caller-saved register would be clobbered by the call; only
        # callee-saved registers can hold the value across it.
        return machine.callee_saved
    if used_by_return:
        # Returned values travel in caller-saved registers; a callee-saved
        # register would have to be restored before the return, clobbering
        # the value being returned.
        return machine.caller_saved
    # Prefer caller-saved registers (no save/restore obligation); fall back to
    # callee-saved registers under pressure.  ``allocation_order`` is the
    # precomputed caller-first tuple, so no per-node concatenation happens.
    return machine.allocation_order


def color_graph_heap_reference(
    graph: InterferenceGraph,
    ranges: LiveRangeInfo,
    machine: MachineDescription,
) -> ColoringResult:
    """Colour the interference graph; uncolourable nodes become spill candidates.

    Selection order is identical to :func:`color_graph_reference` — the
    reference picks the first satisfying node of a ``(degree, name)``-sorted
    scan, which equals the minimum over satisfying nodes by that key.  The
    per-iteration sorts are replaced by a lazily-invalidated heap of
    ``(degree, name)`` entries: stale entries (node already removed, or its
    degree has since changed) are discarded on pop, and entries whose node
    does not satisfy its class bound are set aside and re-pushed.
    """

    result = ColoringResult()
    nodes = sorted(graph.nodes, key=lambda r: r.name)
    if not nodes:
        return result

    allowed: Dict[Register, Tuple[PhysicalRegister, ...]] = {
        node: _allowed_registers(node, ranges, machine) for node in nodes
    }
    degrees: Dict[Register, int] = {node: graph.degree(node) for node in nodes}
    stack: List[Register] = []

    def spill_metric(node: Register) -> float:
        # Spilling one of the allocator's own reload/store temporaries makes
        # no progress (its replacement is an identical one-instruction range),
        # so they are never optimistic spill candidates; pressure is relieved
        # by splitting an original live-through range instead.
        if is_spill_temp(node):
            return float("inf")
        live_range = ranges.ranges.get(node)
        cost = live_range.spill_cost if live_range is not None else 0.0
        degree = max(degrees[node], 1)
        return cost / degree

    # Simplify: repeatedly remove the (degree, name)-minimal node with degree
    # < k (its register-class size); when none exists, remove the cheapest
    # node optimistically (ties broken by name).
    work = set(nodes)
    heap: List[Tuple[int, str, Register]] = [
        (degrees[node], node.name, node) for node in nodes
    ]
    heapq.heapify(heap)
    while work:
        candidate = None
        over_bound: List[Tuple[int, str, Register]] = []
        while heap:
            entry = heapq.heappop(heap)
            degree, _, node = entry
            if node not in work or degrees[node] != degree:
                continue
            if degree < len(allowed[node]):
                candidate = node
                break
            over_bound.append(entry)
        for entry in over_bound:
            heapq.heappush(heap, entry)
        if candidate is None:
            best_key = None
            for node in work:
                key = (spill_metric(node), node.name)
                if best_key is None or key < best_key:
                    best_key = key
                    candidate = node
        work.remove(candidate)
        stack.append(candidate)
        for neighbour in graph.adjacency(candidate):
            if neighbour in work:
                degree = degrees[neighbour] - 1
                degrees[neighbour] = degree
                heapq.heappush(heap, (degree, neighbour.name, neighbour))

    # Select: pop nodes and colour them (Briggs' optimistic colouring).
    assignment = result.assignment
    while stack:
        node = stack.pop()
        taken = set()
        for n in graph.adjacency(node):
            colour = assignment.get(n)
            if colour is not None:
                taken.add(colour)
        chosen: Optional[PhysicalRegister] = None
        # Move-related hint: try to reuse a partner's colour first.
        for partner in sorted(graph.move_partners(node), key=lambda r: r.name):
            partner_colour = assignment.get(partner)
            if (
                partner_colour is not None
                and partner_colour not in taken
                and partner_colour in allowed[node]
            ):
                chosen = partner_colour
                break
        if chosen is None:
            for candidate in allowed[node]:
                if candidate not in taken:
                    chosen = candidate
                    break
        if chosen is None:
            result.spilled.append(node)
        else:
            assignment[node] = chosen

    return result


def color_graph_reference(
    graph: InterferenceGraph,
    ranges: LiveRangeInfo,
    machine: MachineDescription,
) -> ColoringResult:
    """The original sort-based colouring, kept as the differential reference.

    The property tests in ``tests/regalloc`` assert that :func:`color_graph`
    produces an identical assignment and spill list on generated scenarios.
    """

    result = ColoringResult()
    nodes = sorted(graph.nodes, key=lambda r: r.name)
    if not nodes:
        return result

    allowed: Dict[Register, Tuple[PhysicalRegister, ...]] = {
        node: _allowed_registers(node, ranges, machine) for node in nodes
    }
    degrees: Dict[Register, int] = {node: graph.degree(node) for node in nodes}
    removed: Set[Register] = set()
    stack: List[Register] = []

    def spill_metric(node: Register) -> float:
        if is_spill_temp(node):
            return float("inf")
        live_range = ranges.ranges.get(node)
        cost = live_range.spill_cost if live_range is not None else 0.0
        degree = max(degrees[node], 1)
        return cost / degree

    work = set(nodes)
    while work:
        candidate = None
        for node in sorted(work, key=lambda r: (degrees[r], r.name)):
            if degrees[node] < len(allowed[node]):
                candidate = node
                break
        if candidate is None:
            candidate = min(sorted(work, key=lambda r: r.name), key=spill_metric)
        work.remove(candidate)
        removed.add(candidate)
        stack.append(candidate)
        for neighbour in graph.neighbours(candidate):
            if neighbour not in removed:
                degrees[neighbour] -= 1

    while stack:
        node = stack.pop()
        taken = {
            result.assignment[n]
            for n in graph.neighbours(node)
            if n in result.assignment
        }
        chosen: Optional[PhysicalRegister] = None
        for partner in sorted(graph.move_partners(node), key=lambda r: r.name):
            partner_colour = result.assignment.get(partner)
            if (
                partner_colour is not None
                and partner_colour not in taken
                and partner_colour in allowed[node]
            ):
                chosen = partner_colour
                break
        if chosen is None:
            for candidate in allowed[node]:
                if candidate not in taken:
                    chosen = candidate
                    break
        if chosen is None:
            result.spilled.append(node)
        else:
            result.assignment[node] = chosen

    return result


# -- rewrite and occupancy ---------------------------------------------------------


def apply_assignment_reference(function: Function, assignment: Dict[Register, PhysicalRegister]) -> None:
    """Replace every assigned virtual register with its physical register."""

    for block in function.blocks:
        block.instructions = [
            inst.replace_registers(assignment) if any(
                isinstance(r, VirtualRegister) and r in assignment for r in inst.registers()
            ) else inst
            for inst in block.instructions
        ]


def unassigned_virtual_registers_reference(function: Function) -> Set[VirtualRegister]:
    """Virtual registers still present after the rewrite (should be empty)."""

    return {
        r
        for inst in function.instructions()
        for r in inst.registers()
        if isinstance(r, VirtualRegister)
    }


def compute_callee_saved_usage_mask_reference(
    function: Function, machine: MachineDescription
) -> CalleeSavedUsage:
    """Blocks occupied by each callee-saved register of ``machine``."""

    bits = compute_liveness(function, machine=machine)
    index = bits.index
    callee_mask = 0
    for register in machine.callee_saved:
        callee_mask |= 1 << index.add(register)

    occupancy: Dict[PhysicalRegister, Set[str]] = {}
    live_in = bits.live_in
    live_out = bits.live_out
    uses = bits.uses
    defs = bits.defs
    for label in function.block_labels:
        present = (live_in[label] | live_out[label] | uses[label] | defs[label]) & callee_mask
        if present:
            for register in index.iter_bits(present):
                occupancy.setdefault(register, set()).add(label)

    return CalleeSavedUsage.from_blocks(occupancy)


def compute_callee_saved_usage_reference(
    function: Function, machine: MachineDescription
) -> CalleeSavedUsage:
    """The original set-based occupancy computation (differential reference)."""

    callee_saved: FrozenSet[PhysicalRegister] = machine.callee_saved_set
    liveness = reference_liveness(function)
    occupancy: Dict[PhysicalRegister, Set[str]] = {}

    for block in function.blocks:
        label = block.label
        present: Set[PhysicalRegister] = set()
        for register in liveness.live_in[label] | liveness.live_out[label]:
            if register in callee_saved:
                present.add(register)  # live through or across the block
        for inst in block.instructions:
            for register in inst.registers():
                if register in callee_saved:
                    present.add(register)
        for register in present:
            occupancy.setdefault(register, set()).add(label)

    return CalleeSavedUsage.from_blocks(occupancy)


# -- the allocator -----------------------------------------------------------------


def allocate_registers_reference(
    function: Function,
    machine: MachineDescription,
    profile: Optional[EdgeProfile] = None,
    max_rounds: int = 12,
    in_place: bool = False,
) -> AllocationResult:
    """The register-keyed allocator: build, colour and spill with the set-keyed
    stages above, then re-solve liveness on the rewritten function.

    Parameters
    ----------
    profile:
        Optional edge profile; when present, spill costs are profile weighted
        (otherwise loop depth is used).
    max_rounds:
        Upper bound on build/colour/spill iterations.
    in_place:
        Rewrite ``function`` itself instead of a clone.
    """

    work = function if in_place else function.clone()
    isolate_parameters(work)
    demote_overflow_parameters(work, machine)
    total_assignment: Dict[Register, PhysicalRegister] = {}
    all_spilled: List[Register] = []

    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise RegisterAllocationError(
                f"register allocation of {function.name!r} did not converge after "
                f"{max_rounds} rounds"
            )
        ranges = compute_live_ranges_reference(work, profile, machine=machine)
        graph = build_interference_graph_reference(work, ranges.liveness)
        coloring = color_graph_heap_reference(graph, ranges, machine)
        if coloring.is_complete:
            total_assignment = coloring.assignment
            break
        # Spill the uncolourable ranges and try again; their reloads create
        # tiny live ranges which are always colourable eventually.
        already = set(all_spilled)
        fresh = [r for r in coloring.spilled if r not in already]
        if not fresh:
            raise RegisterAllocationError(
                f"register allocation of {function.name!r} is stuck re-spilling "
                f"{sorted(r.name for r in coloring.spilled)}"
            )
        insert_spill_code(work, fresh)
        all_spilled.extend(fresh)

    apply_assignment_reference(work, total_assignment)
    # Parameters live in their assigned physical registers from the entry on;
    # remap the signature so callers (and the interpreter) see the real
    # location of each argument.
    work.params = tuple(total_assignment.get(param, param) for param in work.params)
    leftovers = unassigned_virtual_registers_reference(work)
    if leftovers:
        raise RegisterAllocationError(
            f"virtual registers left after allocation of {function.name!r}: "
            + ", ".join(sorted(r.name for r in leftovers))
        )
    usage = compute_callee_saved_usage_mask_reference(work, machine)
    return AllocationResult(
        function=work,
        machine=machine,
        assignment=total_assignment,
        usage=usage,
        spilled_registers=all_spilled,
        rounds=rounds,
    )
