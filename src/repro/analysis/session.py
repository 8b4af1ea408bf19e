"""One function's analyses, each computed at most once.

A :class:`CompilationSession` owns every structure the pipeline and the lint
rules derive from one function: the CFG snapshot, the block dominator and
post-dominator trees, the loop forest, liveness, reaching definitions and
the program structure tree, whose SESE regions are read off the two block
trees.  Each is computed on first access, so a compile builds each once and
a ``techniques=`` subset builds only what it reads.  :mod:`repro.spill`
fills three memos keyed by ``int`` masks of blocks and of numbered edges
(:meth:`~repro.ir.cfg.FunctionCFG.placement_edges`): ``edge_solutions``
(``occupied -> (saves, restores)``), ``set_groups`` (``(register, saves,
restores) -> sets``) and ``set_errors`` (``(register name, occupied,
saves, restores, duplicates) -> convention errors``), so each shrink-wrapping
solve, grouping and convention check runs once per compile; ``set_masks``
maps a set's locations to its edge masks, converting each set once.

The CFG snapshot is fetched once and never re-validated: a pass that
mutates the IR must start a new session afterwards.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.analysis.reaching import ReachingDefinitions, compute_reaching_definitions
from repro.ir.cfg import FunctionCFG
from repro.ir.function import Function, blocks_reaching_exit, reachable_blocks
from repro.profiling.profile_data import EdgeProfile


class CompilationSession:
    """Compute-once analyses over one function, read as attributes.

    ``profile`` and ``machine`` are the optional inputs some consumers
    (profile- or target-dependent lint rules) need; ``cfg`` seeds the
    session with a snapshot the caller already holds.
    """

    def __init__(
        self,
        function: Function,
        profile: Optional[EdgeProfile] = None,
        machine=None,
        cfg: Optional[FunctionCFG] = None,
    ):
        self.function = function
        self.profile = profile
        self.machine = machine
        if cfg is not None:
            self.__dict__["cfg"] = cfg
        self.edge_solutions: Dict[int, Tuple[int, int]] = {}
        self.set_groups: Dict[Tuple, List] = {}
        self.set_errors: Dict[Tuple, List[str]] = {}
        self.set_masks: Dict[FrozenSet, Tuple] = {}
        self._psts: Dict[bool, object] = {}

    # The analysis modules import this one, so they are imported on use.

    @cached_property
    def cfg(self) -> FunctionCFG:
        return self.function.cfg()

    @cached_property
    def dom(self):
        from repro.analysis.dominance import compute_dominators

        return compute_dominators(self.function, session=self)

    @cached_property
    def postdom(self):
        from repro.analysis.dominance import compute_postdominators

        return compute_postdominators(self.function, session=self)

    @cached_property
    def loop_forest(self):
        from repro.analysis.loops import compute_loop_forest

        return compute_loop_forest(self.function, session=self)

    @cached_property
    def reducible(self) -> bool:
        from repro.analysis.loops import is_reducible

        return is_reducible(self.function, session=self)

    def pst(self, maximal: bool = True):
        """The program structure tree of maximal (or canonical) SESE regions."""

        if maximal not in self._psts:
            from repro.analysis.pst import build_pst

            self._psts[maximal] = build_pst(self.function, maximal=maximal, session=self)
        return self._psts[maximal]

    @cached_property
    def liveness(self) -> LivenessInfo:
        return compute_liveness(self.function, machine=self.machine)

    @cached_property
    def reaching(self) -> ReachingDefinitions:
        return compute_reaching_definitions(self.function)

    @cached_property
    def reachable(self) -> Set[str]:
        return reachable_blocks(self.function)

    @cached_property
    def reaching_exit(self) -> Set[str]:
        """Labels of blocks from which some exit block is reachable."""

        return blocks_reaching_exit(self.function)

    @cached_property
    def block_order(self) -> Dict[str, int]:
        """Layout position of each block label; diagnostics sort by it."""

        return {label: index for index, label in enumerate(self.function.block_labels)}

    @cached_property
    def block_counts(self) -> Dict[str, float]:
        """Profile-derived execution counts per block (requires a profile)."""

        if self.profile is None:
            raise ValueError("block_counts requires a profile")
        return self.profile.block_counts(self.function, cfg=self.cfg)


def session_for(
    function: Function,
    session: Optional[CompilationSession] = None,
    cfg: Optional[FunctionCFG] = None,
) -> CompilationSession:
    """``session`` itself, or a fresh one over ``function`` (seeded with ``cfg``)."""

    return session if session is not None else CompilationSession(function, cfg=cfg)
