"""Synthetic, flow-conserving edge profiles.

The SPEC-like workloads are not executed to obtain profiles (the paper uses
training runs of the real benchmarks); instead, each generated function
carries branch probabilities and an invocation count, and the corresponding
steady-state edge frequencies are obtained by solving the linear flow
equations

    freq(entry) = invocations + sum of incoming edge frequencies
    freq(b)     = sum of incoming edge frequencies          (b != entry)
    count(u,v)  = freq(u) * probability(u, v)

This is the standard static profile-propagation formulation (Wu–Larus style)
with user-supplied probabilities.  The equations are solved with numpy; for
reducible and irreducible graphs alike the system is non-singular as long as
every loop has an exit probability greater than zero.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.ir.function import Function
from repro.profiling.profile_data import EdgeProfile, ProfileError

EdgeKey = Tuple[str, str]


def _branch_probabilities(
    function: Function, probabilities: Optional[Mapping[EdgeKey, float]]
) -> Dict[EdgeKey, float]:
    """Normalize per-edge probabilities, defaulting to a uniform split."""

    result: Dict[EdgeKey, float] = {}
    cfg_out_edges = function.cfg().out_edges
    for block in function.blocks:
        out_edges = cfg_out_edges[block.label]
        if not out_edges:
            continue
        raw = []
        for edge in out_edges:
            value = None if probabilities is None else probabilities.get(edge.key)
            raw.append(value)
        specified = [v for v in raw if v is not None]
        unspecified = raw.count(None)
        total_specified = sum(specified)
        if total_specified > 1.0 + 1e-9:
            raise ProfileError(
                f"block {block.label!r}: branch probabilities sum to {total_specified}"
            )
        remaining = max(0.0, 1.0 - total_specified)
        for edge, value in zip(out_edges, raw):
            if value is None:
                value = remaining / unspecified if unspecified else 0.0
            result[edge.key] = float(value)
        # Renormalize tiny drift so each block's out probabilities sum to one.
        total = sum(result[e.key] for e in out_edges)
        if total > 0:
            for edge in out_edges:
                result[edge.key] /= total
    return result


def profile_from_branch_probabilities(
    function: Function,
    invocations: float = 1.0,
    probabilities: Optional[Mapping[EdgeKey, float]] = None,
) -> EdgeProfile:
    """Derive a flow-conserving edge profile from branch probabilities.

    Parameters
    ----------
    invocations:
        How many times the procedure is entered.
    probabilities:
        Mapping from edge key to taken probability.  Unspecified out-edges of
        a block share the remaining probability mass equally; blocks with no
        entry at all split uniformly.
    """

    labels = function.block_labels
    index = {label: i for i, label in enumerate(labels)}
    probs = _branch_probabilities(function, probabilities)

    # freq = invocations * e_entry + P^T freq   =>   (I - P^T) freq = inv * e
    size = len(labels)
    matrix = np.eye(size)
    for edge in function.edges():
        matrix[index[edge.dst], index[edge.src]] -= probs[edge.key]
    vector = np.zeros(size)
    vector[index[function.entry.label]] = float(invocations)

    try:
        freq = np.linalg.solve(matrix, vector)
    except np.linalg.LinAlgError as exc:
        raise ProfileError(
            f"cannot solve flow equations for {function.name!r}: {exc}"
        ) from exc
    if np.any(freq < -1e-6):
        raise ProfileError(f"negative block frequency computed for {function.name!r}")
    freq = np.maximum(freq, 0.0)

    edge_counts: Dict[EdgeKey, float] = {}
    for edge in function.edges():
        edge_counts[edge.key] = float(freq[index[edge.src]] * probs[edge.key])
    profile = EdgeProfile(function.name, float(invocations), edge_counts)
    return profile


def uniform_profile(function: Function, invocations: float = 1.0) -> EdgeProfile:
    """A profile where every branch is a 50/50 coin flip."""

    return profile_from_branch_probabilities(function, invocations, probabilities=None)


def profile_from_block_frequencies(
    function: Function,
    block_frequencies: Mapping[str, float],
    invocations: float,
) -> EdgeProfile:
    """Build an edge profile from block frequencies, splitting flow greedily.

    The flow out of each block is distributed to its successors proportionally
    to the successors' stated frequencies.  This reconstruction is exact (and
    therefore flow conserving) when every join block's predecessors feed it
    proportionally — e.g. for series/parallel CFGs such as simple diamonds —
    and is a reasonable approximation otherwise.  Workloads that need an exact
    profile should record edge counts directly or use
    :func:`profile_from_branch_probabilities`.
    """

    edge_counts: Dict[EdgeKey, float] = {}
    for block in function.blocks:
        out_edges = function.block_out_edges(block.label)
        if not out_edges:
            continue
        weights = [max(block_frequencies.get(e.dst, 0.0), 0.0) for e in out_edges]
        total = sum(weights)
        source = block_frequencies.get(block.label, 0.0)
        for edge, weight in zip(out_edges, weights):
            share = (weight / total) if total > 0 else 1.0 / len(out_edges)
            edge_counts[edge.key] = source * share
    return EdgeProfile(function.name, float(invocations), edge_counts)
