"""Packed-bitset machinery for the data-flow fast path.

The iterative data-flow framework (:mod:`repro.analysis.dataflow`) is the
innermost loop of everything downstream: liveness feeds live-range
construction and interference-graph building inside the register allocator,
which the evaluation pipeline runs once per procedure.  Churning Python
``set`` objects there is the single largest interpreter overhead in the whole
pipeline, so the solver runs on *packed bitsets* instead: every fact (in
practice a :class:`~repro.ir.values.Register`) is interned to a bit position
once per function, and all set algebra becomes integer bit-twiddling on
arbitrary-precision ``int`` masks — union is ``|``, intersection ``&``,
difference ``& ~``, and equality is integer comparison.

Public results keep their ``Set``-based types: :class:`MaskSetView` is a lazy
mapping that materializes a real ``set`` per block only when someone actually
indexes it, so callers that only touch a few blocks never pay for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.ir.values import Register, VirtualRegister, vreg

T = TypeVar("T", bound=Hashable)


class RegisterIndex:
    """Interning of facts (registers) to bit positions, one index per function.

    The index is append-only: :meth:`add` assigns the next free bit to an
    unseen fact and returns the existing bit otherwise.  Masks built against
    one index are only meaningful together with that index.

    Although built for :class:`~repro.ir.values.Register` operands, any
    hashable fact interns fine — the generic data-flow solver uses it for
    reaching-definition triples as well.
    """

    __slots__ = ("_bit_of", "_fact_at", "_virtual_mask")

    def __init__(self, facts: Iterable[Hashable] = ()):
        self._bit_of: Dict[Hashable, int] = {}
        self._fact_at: List[Hashable] = []
        #: Mask over all bits whose fact is a :class:`VirtualRegister`;
        #: maintained incrementally so consumers never enumerate the index.
        self._virtual_mask = 0
        for fact in facts:
            self.add(fact)

    def __len__(self) -> int:
        return len(self._fact_at)

    def __contains__(self, fact: Hashable) -> bool:
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

    def add(self, fact: Hashable) -> int:
        """Intern ``fact`` and return its bit position."""

        bit = self._bit_of.get(fact)
        if bit is None:
            bit = len(self._fact_at)
            self._bit_of[fact] = bit
            self._fact_at.append(fact)
            if isinstance(fact, VirtualRegister):
                self._virtual_mask |= 1 << bit
        return bit

    def bit_of(self, fact: Hashable) -> int:
        """Bit position of an already-interned fact (``KeyError`` otherwise)."""

        return self._bit_of[fact]

    def fact_at(self, bit: int) -> Hashable:
        """The fact interned at ``bit``."""

        return self._fact_at[bit]

    @property
    def facts(self) -> List[Hashable]:
        """All interned facts, in bit order (do not mutate)."""

        return self._fact_at

    def mask_of(self, facts: Iterable[Hashable]) -> int:
        """Pack ``facts`` into a bitmask, interning unseen facts on the way."""

        mask = 0
        bit_of = self._bit_of
        for fact in facts:
            bit = bit_of.get(fact)
            if bit is None:
                bit = self.add(fact)
            mask |= 1 << bit
        return mask

    def set_of(self, mask: int) -> Set[Hashable]:
        """Materialize ``mask`` back into a set of facts."""

        return set(self.iter_bits(mask))

    def iter_bits(self, mask: int) -> Iterator[Hashable]:
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


class MaskSetView(Mapping[str, Set[T]]):
    """A read-only ``label -> set`` mapping backed by bitmasks.

    Materializes (and caches) the ``set`` for a label on first access, so the
    set-based public APIs stay cheap when callers touch only a few blocks.
    """

    __slots__ = ("_masks", "_index", "_cache")

    def __init__(self, masks: Mapping[str, int], index: RegisterIndex):
        self._masks = masks
        self._index = index
        self._cache: Dict[str, Set[T]] = {}

    @property
    def masks(self) -> Mapping[str, int]:
        """The underlying per-label bitmasks (for mask-level consumers)."""

        return self._masks

    @property
    def index(self) -> RegisterIndex:
        return self._index

    def __getitem__(self, label: str) -> Set[T]:
        cached = self._cache.get(label)
        if cached is None:
            cached = self._index.set_of(self._masks[label])
            self._cache[label] = cached
        return cached

    def __iter__(self) -> Iterator[str]:
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def __contains__(self, label: object) -> bool:
        return label in self._masks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MaskSetView({dict(self.items())!r})"


@dataclass
class BitDataflowProblem:
    """A data-flow problem with all sets already packed into bitmasks.

    The field meanings mirror :class:`repro.analysis.dataflow.DataflowProblem`
    — ``forward``/``union`` select direction and meet, ``gen``/``kill`` are
    per-label masks, and ``boundary`` holds at the entry (forward) or exits
    (backward).  ``initial`` defaults to the empty mask for union problems
    and the universe for intersection problems.
    """

    forward: bool
    union: bool
    gen: Dict[str, int]
    kill: Dict[str, int]
    boundary: int = 0
    initial: Optional[int] = None
    universe: Optional[int] = None


@dataclass
class BitDataflowResult:
    """Per-block fixed-point masks, in program order (in = block start)."""

    block_in: Dict[str, int]
    block_out: Dict[str, int]


def solve_bit_dataflow(function, problem: BitDataflowProblem) -> BitDataflowResult:
    """Round-robin iteration to a fixed point, entirely on integer masks.

    The structure mirrors the original set-based solver: reverse post-order
    for forward problems, post-order for backward ones, with unreachable
    blocks appended so their facts stay defined.
    """

    # The function's cached CFG snapshot serves both the neighbour lists and
    # the iteration order (the set-based reference builds them separately).
    labels = function.block_labels
    cfg = function.cfg()
    entry_label = cfg.entry_label
    graph_succs = cfg.graph_succs
    graph_preds = cfg.graph_preds
    succs: Dict[str, List[str]] = {label: graph_succs[label] for label in labels}
    preds: Dict[str, List[str]] = {label: graph_preds[label] for label in labels}

    if problem.universe is not None:
        universe = problem.universe
    else:
        universe = problem.boundary
        for label in labels:
            universe |= problem.gen.get(label, 0)
            universe |= problem.kill.get(label, 0)

    if problem.initial is not None:
        initial = problem.initial
    else:
        initial = 0 if problem.union else universe

    forward = problem.forward
    union = problem.union
    exit_labels = set(cfg.exit_labels)

    order = list(cfg.reverse_postorder())
    # Include blocks unreachable from the entry at the end so their facts are
    # still defined (they simply keep pessimistic values).
    reached = set(order)
    order += [label for label in labels if label not in reached]
    if not forward:
        order = list(reversed(order))

    neighbours = preds if forward else succs
    boundary_labels = {entry_label} if forward else exit_labels
    gen_of = problem.gen
    kill_of = problem.kill
    boundary = problem.boundary

    # Flatten everything onto positional arrays so the fixed-point loop is
    # list indexing and integer arithmetic only.
    position = {label: i for i, label in enumerate(order)}
    count = len(order)
    gen_at = [gen_of.get(label, 0) for label in order]
    keep_at = [~kill_of.get(label, 0) for label in order]
    nbr_at = [[position[n] for n in neighbours[label]] for label in order]
    is_boundary = [label in boundary_labels for label in order]
    empty_meet = 0 if union else universe
    state_in = [initial] * count
    state_out = [initial] * count

    changed = True
    iterations = 0
    while changed:
        changed = False
        iterations += 1
        if iterations > 4 * len(labels) + 16:
            raise RuntimeError("data-flow iteration failed to converge")
        for i in range(count):
            if is_boundary[i]:
                incoming = boundary
            else:
                nbrs = nbr_at[i]
                if not nbrs:
                    incoming = empty_meet
                elif union:
                    incoming = 0
                    for j in nbrs:
                        incoming |= state_out[j]
                else:
                    incoming = universe
                    for j in nbrs:
                        incoming &= state_out[j]
            outgoing = gen_at[i] | (incoming & keep_at[i])
            if incoming != state_in[i] or outgoing != state_out[i]:
                state_in[i] = incoming
                state_out[i] = outgoing
                changed = True

    # "in" is the side facing the meet; "out" the side after the transfer.
    block_in: Dict[str, int] = {label: state_in[i] for label, i in position.items()}
    block_out: Dict[str, int] = {label: state_out[i] for label, i in position.items()}
    if forward:
        return BitDataflowResult(block_in=block_in, block_out=block_out)
    # For backward problems, rename so callers always index by program order
    # (entering = at block start, leaving = at block end).
    return BitDataflowResult(block_in=block_out, block_out=block_in)


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


@dataclass
class BitLiveness:
    """The liveness solution as bitmasks, plus the register index behind them.

    This is the representation the register-allocation hot path consumes
    (:mod:`repro.regalloc.live_ranges`, :mod:`repro.regalloc.interference`);
    the set-based :class:`~repro.analysis.liveness.LivenessInfo` is a lazy
    view over it.
    """

    index: RegisterIndex
    live_in: Dict[str, int]
    live_out: Dict[str, int]
    uses: Dict[str, int]
    defs: Dict[str, int]
    #: Per-block ``([(write_mask, read_mask)], repeats)`` from
    #: :func:`pack_instructions`, filled by the operand walk that builds the
    #: solution and shared by every consumer walking the instructions.
    instructions: Dict[str, Tuple[List[Tuple[int, int]], int]]
    #: Opaque memo of the register allocator's instruction scan over this
    #: solution; :func:`repro.regalloc.live_ranges.scan_edges` owns its shape.
    scan: Optional[object] = None

    def instruction_masks(self, function, label: str) -> List[Tuple[int, int]]:
        """``(write_mask, read_mask)`` per instruction of block ``label``."""

        return self.instructions[label][0]


def bit_liveness_from_sets(function, liveness) -> BitLiveness:
    """Build a :class:`BitLiveness` from a set-based liveness solution.

    Used when a consumer receives a hand-constructed
    :class:`~repro.analysis.liveness.LivenessInfo` (tests, external callers)
    that did not come out of :func:`repro.analysis.liveness.compute_liveness`
    and therefore carries no mask representation.
    """

    index = RegisterIndex()
    for reg in function.params:
        index.add(reg)
    instructions = {}
    for block in function.blocks:
        masks, repeats, _, _ = pack_instructions(block.instructions, index)
        instructions[block.label] = (masks, repeats)
    return BitLiveness(
        index=index,
        live_in={l: index.mask_of(s) for l, s in liveness.live_in.items()},
        live_out={l: index.mask_of(s) for l, s in liveness.live_out.items()},
        uses={l: index.mask_of(s) for l, s in liveness.uses.items()},
        defs={l: index.mask_of(s) for l, s in liveness.defs.items()},
        instructions=instructions,
    )


def live_masks_at_each_instruction(function, bits: BitLiveness, label: str) -> List[int]:
    """Mask live *after* each instruction of block ``label``.

    The bitmask counterpart of
    :func:`repro.analysis.liveness.live_at_each_instruction`, used by the
    allocator hot path to avoid materializing one set per instruction.
    """

    masks = bits.instruction_masks(function, label)
    live = bits.live_out[label]
    after: List[int] = [0] * len(masks)
    for i in range(len(masks) - 1, -1, -1):
        after[i] = live
        write_mask, read_mask = masks[i]
        live = (live & ~write_mask) | read_mask
    return after
