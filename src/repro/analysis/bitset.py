"""Packed register bitsets: the one representation of register facts.

Liveness is the innermost loop of everything downstream: it feeds
live-range construction and interference-graph building inside the register
allocator, which the evaluation pipeline runs once per procedure, and the
callee-saved occupancy the placement techniques start from.  Every register
is interned to a bit position once per function (:class:`RegisterIndex`),
the dense numbering of Briggs, Cooper & Torczon, and all set algebra is
integer bit-twiddling on arbitrary-precision ``int`` masks — union is ``|``,
intersection ``&``, difference ``& ~``, and equality is integer comparison.

:func:`solve_bit_dataflow` is the union-meet solver behind liveness and the
lint session's ``defined_in`` masks; :func:`pack_instructions` is the one
operand walk that turns a block into masks.  The set-based formulations
these replaced are test oracles in ``tests/oracles/``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.ir.values import Register, VirtualRegister, vreg


class RegisterIndex:
    """Interning of registers to bit positions, one index per function.

    The index is append-only: :meth:`add` assigns the next free bit to an
    unseen register and returns the existing bit otherwise.  Masks built
    against one index are only meaningful together with that index.  The
    facts are registers (and the stack slots a demoted parameter becomes).
    """

    __slots__ = ("_bit_of", "_fact_at", "_virtual_mask")

    def __init__(self, facts: Iterable[Register] = ()):
        self._bit_of: Dict[Register, int] = {}
        self._fact_at: List[Register] = []
        #: Mask over all bits whose fact is a :class:`VirtualRegister`;
        #: maintained incrementally so consumers never enumerate the index.
        self._virtual_mask = 0
        for fact in facts:
            self.add(fact)

    def __len__(self) -> int:
        return len(self._fact_at)

    def __contains__(self, fact: Register) -> bool:
        return fact in self._bit_of

    def fork(self) -> "RegisterIndex":
        """An independent copy sharing no mutable state.

        Used by the persistent per-worker base indexes: the per-target base
        index pre-interns the facts every compile needs, and each compile
        forks it so function-local interning never leaks across compiles.
        """

        clone = RegisterIndex.__new__(RegisterIndex)
        clone._bit_of = dict(self._bit_of)
        clone._fact_at = list(self._fact_at)
        clone._virtual_mask = self._virtual_mask
        return clone

    @property
    def virtual_mask(self) -> int:
        """Mask over all interned bits that denote virtual registers."""

        return self._virtual_mask

    def add(self, fact: Register) -> int:
        """Intern ``fact`` and return its bit position."""

        bit = self._bit_of.get(fact)
        if bit is None:
            bit = len(self._fact_at)
            self._bit_of[fact] = bit
            self._fact_at.append(fact)
            if isinstance(fact, VirtualRegister):
                self._virtual_mask |= 1 << bit
        return bit

    def bit_of(self, fact: Register) -> int:
        """Bit position of an already-interned fact (``KeyError`` otherwise)."""

        return self._bit_of[fact]

    def fact_at(self, bit: int) -> Register:
        """The fact interned at ``bit``."""

        return self._fact_at[bit]

    @property
    def facts(self) -> List[Register]:
        """All interned facts, in bit order (do not mutate)."""

        return self._fact_at

    def mask_of(self, facts: Iterable[Register]) -> int:
        """Pack ``facts`` into a bitmask, interning unseen facts on the way."""

        mask = 0
        bit_of = self._bit_of
        for fact in facts:
            bit = bit_of.get(fact)
            if bit is None:
                bit = self.add(fact)
            mask |= 1 << bit
        return mask

    def set_of(self, mask: int) -> Set[Register]:
        """Materialize ``mask`` back into a set of registers.

        For tests and debugging; the shipped analyses stay on masks.
        """

        return set(self.iter_bits(mask))

    def iter_bits(self, mask: int) -> Iterator[Register]:
        """Yield the facts of ``mask`` one by one, in bit order."""

        return map(self._fact_at.__getitem__, bit_positions(mask))


def bit_positions(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask``, lowest first."""

    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Persistent per-worker base indexes, keyed by target identity.  Every compile
# for a target interns the same machine registers and the same low-numbered
# virtual registers; building that prefix once per (process, target) and
# forking it per compile removes the repeated interning from the hot path.
# Keys are ``id(machine)`` with the machine kept alive in the entry, so a
# recycled id can never alias a collected target; the registry is bounded —
# a worker only ever sees a handful of targets.
_BASE_INDEXES: Dict[int, Tuple[object, RegisterIndex]] = {}
_BASE_INDEX_LIMIT = 8
#: Virtual registers ``v0 .. v63`` cover the scenario generator's range sizes;
#: higher-numbered registers simply intern on demand.
_BASE_VREG_COUNT = 64


def base_register_index(machine) -> RegisterIndex:
    """The persistent base :class:`RegisterIndex` for ``machine``.

    The returned index is shared — callers must :meth:`~RegisterIndex.fork`
    it before interning anything function-specific.
    """

    key = id(machine)
    entry = _BASE_INDEXES.get(key)
    if entry is None or entry[0] is not machine:
        index = RegisterIndex()
        for register in machine.registers:
            index.add(register)
        for i in range(_BASE_VREG_COUNT):
            index.add(vreg(i))
        if len(_BASE_INDEXES) >= _BASE_INDEX_LIMIT:
            _BASE_INDEXES.clear()
        _BASE_INDEXES[key] = (machine, index)
        return index
    return entry[1]


def solve_bit_dataflow(
    function, gen: Dict[str, int], kill: Dict[str, int], forward: bool = False
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Union-meet round-robin iteration to the least fixed point.

    Backward (liveness) or ``forward``; ``gen``/``kill`` are per-label masks
    and the transfer is ``gen | (incoming & ~kill)``, with nothing flowing
    into the entry (forward) or out of the exits (backward).  Blocks are
    visited in reverse post-order (forward) or post-order (backward), with
    unreachable blocks appended so their facts stay defined.  Returns
    ``(entering, leaving)``: the masks at each block's start and end.
    """

    labels = function.block_labels
    cfg = function.cfg()
    order = list(cfg.reverse_postorder())
    reached = set(order)
    order += [label for label in labels if label not in reached]
    if forward:
        neighbours, boundary = cfg.graph_preds, {cfg.entry_label}
    else:
        order.reverse()
        neighbours, boundary = cfg.graph_succs, set(cfg.exit_labels)

    # Flatten everything onto positional arrays so the fixed-point loop is
    # list indexing and integer arithmetic only.
    position = {label: i for i, label in enumerate(order)}
    count = len(order)
    gen_at = [gen.get(label, 0) for label in order]
    keep_at = [~kill.get(label, 0) for label in order]
    nbr_at = [
        () if label in boundary else [position[n] for n in neighbours[label]]
        for label in order
    ]
    state_in = [0] * count
    state_out = [0] * count

    changed = True
    iterations = 0
    while changed:
        changed = False
        iterations += 1
        if iterations > 4 * len(labels) + 16:
            raise RuntimeError("data-flow iteration failed to converge")
        for i in range(count):
            incoming = 0
            for j in nbr_at[i]:
                incoming |= state_out[j]
            outgoing = gen_at[i] | (incoming & keep_at[i])
            if incoming != state_in[i] or outgoing != state_out[i]:
                state_in[i] = incoming
                state_out[i] = outgoing
                changed = True

    # "in" is the side facing the meet; "out" the side after the transfer.
    block_in = {label: state_in[i] for label, i in position.items()}
    block_out = {label: state_out[i] for label, i in position.items()}
    return (block_in, block_out) if forward else (block_out, block_in)


def pack_instructions(instructions, index: RegisterIndex) -> Tuple[List[Tuple[int, int]], int, int, int]:
    """Pack one block's operands into masks, interning registers on the way.

    Returns ``(masks, repeats, uses, defs)``: ``masks`` holds one
    ``(write_mask, read_mask)`` pair per instruction; bit ``i`` of
    ``repeats`` is set when instruction ``i`` names one register more than
    once among its reads or among its writes, which a mask cannot count;
    ``uses``/``defs`` are the block's upward-exposed uses and definitions.
    """

    bit_of = index._bit_of
    add = index.add
    masks: List[Tuple[int, int]] = []
    repeats = 0
    use_mask = 0
    def_mask = 0
    for position, inst in enumerate(instructions):
        read_mask = 0
        reads = 0
        for operand in inst.uses:
            if isinstance(operand, Register):
                bit = bit_of.get(operand)
                read_mask |= 1 << (add(operand) if bit is None else bit)
                reads += 1
        write_mask = 0
        writes = inst.defs
        for reg in writes:
            bit = bit_of.get(reg)
            write_mask |= 1 << (add(reg) if bit is None else bit)
        if read_mask.bit_count() != reads or write_mask.bit_count() != len(writes):
            repeats |= 1 << position
        use_mask |= read_mask & ~def_mask
        def_mask |= write_mask
        masks.append((write_mask, read_mask))
    return masks, repeats, use_mask, def_mask
