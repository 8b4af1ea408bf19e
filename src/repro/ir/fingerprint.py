"""Canonical, stable content fingerprints for IR objects and cache keys.

The compile pipeline is deterministic: for a given (function, profile,
target, cost model, pipeline options) tuple it always produces the same
allocation, placements and overhead numbers.  That makes compile results
content-addressable — and this module defines the address.

A *fingerprint* is a SHA-256 digest of a canonical serialization:

* functions and modules hash the canonical printer output
  (:func:`repro.ir.printer.print_function`), which the parser↔printer
  round-trip property tests pin down — two functions with the same textual
  form are the same function as far as the pipeline is concerned;
* profiles hash the invocation count and the sorted edge counts, with
  floats rendered via ``float.hex`` so the digest is exact, not
  decimal-rounded;
* machine descriptions hash their declared fields (register file and cost
  weights), not their Python object identity.

Every digest is prefixed with a schema-version tag
(:data:`FINGERPRINT_SCHEMA_VERSION`), so changing what a fingerprint covers
invalidates old cache entries instead of silently aliasing them.

The *composite cache key* (:func:`procedure_cache_key`) combines a
function+profile fingerprint with an *options token*
(:func:`compile_options_token`) covering the target identity, the cost-model
identity, the technique list and the pipeline options (``verify``,
``maximal_regions``).  Cost models announce their identity through
``CostModel.cache_identity()``.

This module deliberately avoids importing the profiling/target/spill layers
(it duck-types their objects) so it sits at the bottom of the layer stack
next to the printer it is defined by.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.ir.printer import print_function, print_module

#: Bump whenever the canonical serialization (printer output, profile or
#: machine encoding, key composition) changes meaning — old cache entries
#: become unreachable instead of wrong.  v2: the IR grew the ``switch``
#: multiway terminator, which extends the canonical printer grammar.
FINGERPRINT_SCHEMA_VERSION = 2


def _digest(*parts: str) -> str:
    """SHA-256 over NUL-separated parts (NUL never occurs in the inputs)."""

    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _tag(kind: str) -> str:
    return f"{kind}/v{FINGERPRINT_SCHEMA_VERSION}"


# ---------------------------------------------------------------------------
# IR fingerprints.
# ---------------------------------------------------------------------------


def fingerprint_function(function) -> str:
    """Stable fingerprint of a :class:`~repro.ir.function.Function`.

    Defined as the digest of the canonical printer output, so it is
    invariant under print→parse round trips and independent of object
    identity, dict ordering, or construction history.
    """

    return _digest(_tag("function"), print_function(function))


def fingerprint_module(module) -> str:
    """Stable fingerprint of a :class:`~repro.ir.module.Module`."""

    return _digest(_tag("module"), print_module(module))


def fingerprint_profile(profile) -> str:
    """Stable fingerprint of an :class:`~repro.profiling.profile_data.EdgeProfile`.

    Edge counts are sorted by edge key and floats serialized with
    ``float.hex`` — bit-exact, so two profiles fingerprint equal iff every
    count is identical.
    """

    lines = [profile.function_name, float(profile.invocations).hex()]
    for (src, dst), count in sorted(profile.edge_counts.items()):
        lines.append(f"{src}->{dst}={float(count).hex()}")
    return _digest(_tag("profile"), "\n".join(lines))


# ---------------------------------------------------------------------------
# Configuration identities.
# ---------------------------------------------------------------------------


def machine_identity(machine) -> str:
    """Identity of a :class:`~repro.target.machine.MachineDescription`.

    Covers every declared field — the register file (names and partition
    order) and the cost weights — not just the name, so a locally modified
    ``replace(save_cost=...)`` variant never aliases the registered target
    it was derived from.  ``None`` (the unit-cost convention) has its own
    identity.
    """

    if machine is None:
        return "machine:none"
    parts = [
        machine.name,
        "caller:" + ",".join(r.name for r in machine.caller_saved),
        "callee:" + ",".join(r.name for r in machine.callee_saved),
        "costs:" + ",".join(
            float(value).hex()
            for value in (
                machine.save_cost,
                machine.restore_cost,
                machine.jump_cost,
                machine.branch_cost,
            )
        ),
        f"slot:{machine.spill_slot_bytes}",
    ]
    return _digest(_tag("machine"), "\n".join(parts))


def cost_model_identity(cost_model) -> str:
    """Stable identity of a cost model.

    Strings (registered model names) are their own identity; model
    *instances* are asked via ``cache_identity()`` (see
    :class:`repro.spill.cost_models.CostModel`).
    """

    if isinstance(cost_model, str):
        return f"name:{cost_model}"
    return cost_model.cache_identity()


def compile_options_token(
    machine,
    cost_model,
    techniques: Sequence[str],
    verify: bool,
    maximal_regions: bool,
) -> str:
    """One digest covering everything about a compile *except* the procedure."""

    return _digest(
        _tag("options"),
        machine_identity(machine),
        cost_model_identity(cost_model),
        "techniques:" + ",".join(techniques),
        f"verify={bool(verify)}",
        f"maximal_regions={bool(maximal_regions)}",
    )


def procedure_cache_key(
    function, profile, options_token: str, kind: str = "compile"
) -> str:
    """The composite cache key of one procedure compile.

    ``kind`` namespaces the key by cached *value* type: ``"compile"``
    entries hold one :class:`~repro.pipeline.compiler.CompileRecord`
    each, ``"lint"`` entries hold lint report payloads.  The namespaces must
    never alias even for identical inputs.
    """

    return fingerprints_cache_key(
        fingerprint_function(function), fingerprint_profile(profile), options_token, kind
    )


def fingerprints_cache_key(
    function_fingerprint: str,
    profile_fingerprint: str,
    options_token: str,
    kind: str = "compile",
) -> str:
    """:func:`procedure_cache_key` from fingerprints the caller already holds."""

    return _digest(_tag(kind), function_fingerprint, profile_fingerprint, options_token)
