"""Lint invariants, property-tested: purity, determinism, zero-cost-off.

Three promises the rest of the system builds on:

* **purity** — linting never mutates the function or profile it reads
  (fingerprints unchanged), so it can run before a compile without
  perturbing it;
* **determinism** — the same inputs produce byte-identical reports, in
  this process, across repeated runs, and across processes with different
  ``PYTHONHASHSEED`` values (which is what makes reports cacheable,
  coalescable and fleet-routable);
* **zero-cost-off** — ``compile_procedure(lint=None)`` is byte-for-byte
  the compile that existed before the lint subsystem: same results, same
  cache keys, and the lint package is not even imported.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.ir.fingerprint import fingerprint_function, procedure_cache_key
from repro.lint import lint_function
from repro.target.registry import available_targets, get_target
from repro.workloads.scenarios import build_scenario, scenario_names

#: Every family × a fast/slow target pair — the sweep the issue asks for.
FAMILIES = scenario_names()
TARGETS = ("parisc", "tiny")


def _procedures(family, target, count=2):
    return build_scenario(family, seed=0, count=count, machine=get_target(target))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("target", TARGETS)
class TestPurityAndDeterminism:
    def test_lint_is_pure(self, family, target):
        machine = get_target(target)
        for procedure in _procedures(family, target):
            before = fingerprint_function(procedure.function)
            profile_before = (
                procedure.profile.invocations,
                dict(procedure.profile.edge_counts),
            )
            lint_function(procedure.function, profile=procedure.profile, machine=machine)
            assert fingerprint_function(procedure.function) == before
            assert (
                procedure.profile.invocations,
                dict(procedure.profile.edge_counts),
            ) == profile_before

    def test_lint_is_deterministic_in_process(self, family, target):
        machine = get_target(target)
        for procedure in _procedures(family, target):
            first = lint_function(
                procedure.function, profile=procedure.profile, machine=machine
            )
            second = lint_function(
                procedure.function, profile=procedure.profile, machine=machine
            )
            assert first.canonical_bytes() == second.canonical_bytes()
            assert first.fingerprint() == second.fingerprint()


_SUBPROCESS_SCRIPT = """
import json, sys
from repro.lint import lint_function
from repro.target.registry import get_target
from repro.workloads.scenarios import build_scenario

family, target = sys.argv[1], sys.argv[2]
machine = get_target(target)
fingerprints = [
    lint_function(p.function, profile=p.profile, machine=machine).fingerprint()
    for p in build_scenario(family, seed=0, count=2, machine=machine)
]
print(json.dumps(fingerprints))
"""


@pytest.mark.parametrize("family", ("classic_mix", "chaos_cfg"))
def test_fingerprints_identical_across_hash_seeds(family):
    """Reports are byte-identical across processes with different hash seeds."""

    results = []
    for hash_seed in ("0", "42"):
        completed = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT, family, "parisc"],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": "src"},
            check=True,
        )
        results.append(json.loads(completed.stdout))
    assert results[0] == results[1]
    # And the in-process run agrees with both.
    machine = get_target("parisc")
    local = [
        lint_function(p.function, profile=p.profile, machine=machine).fingerprint()
        for p in build_scenario(family, seed=0, count=2, machine=machine)
    ]
    assert local == results[0]


class TestZeroCostOff:
    def test_compile_results_identical_with_lint_off(self):
        from repro.pipeline.compiler import compile_procedure

        procedure = _procedures("classic_mix", "parisc", count=1)[0]
        plain = compile_procedure(procedure, machine="parisc")
        unlinted = compile_procedure(procedure, machine="parisc", lint=None)
        assert plain.name == unlinted.name
        assert plain.allocator_overhead == unlinted.allocator_overhead
        for technique in plain.outcomes:
            assert plain.callee_saved_overhead(
                technique
            ) == unlinted.callee_saved_overhead(technique)

    def test_cache_keys_unchanged_by_lint_gate(self, tmp_path):
        """lint="strict" on a passing compile fills the same cache entry."""

        from repro.cache.store import CompileCache
        from repro.pipeline.compiler import compile_many

        procedure = _procedures("classic_mix", "parisc", count=1)[0]
        cache_a = CompileCache(tmp_path / "a")
        cache_b = CompileCache(tmp_path / "b")
        compile_many([procedure], machine="parisc", cache=cache_a)
        compile_many(
            [procedure],
            machine="parisc",
            cache=cache_b,
            lint="strict",
            # classic_mix warns (dead ballast) but has no errors — strict
            # passes and must not alter the cache key.
        )
        assert cache_a.entry_count() == cache_b.entry_count() == 1
        # Warm hit across caches proves the key bytes match.
        compile_many([procedure], machine="parisc", cache=cache_b)
        assert cache_b.stats.hits == 1

    def test_lint_off_does_not_import_the_lint_package(self):
        """A lint=None compile never imports repro.lint (the zero-cost proof)."""

        script = (
            "import sys\n"
            "from repro.pipeline.compiler import compile_procedure\n"
            "from repro.workloads.scenarios import build_scenario\n"
            "from repro.target.registry import get_target\n"
            "p = build_scenario('classic_mix', seed=0, count=1,"
            " machine=get_target('tiny'))[0]\n"
            "compile_procedure(p, machine='tiny')\n"
            "assert not any(m.startswith('repro.lint') for m in sys.modules),"
            " sorted(m for m in sys.modules if m.startswith('repro.lint'))\n"
            "print('lint not imported')\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
            check=True,
        )
        assert "lint not imported" in completed.stdout

    def test_lint_cache_keys_never_alias_compile_keys(self):
        from repro.ir.fingerprint import compile_options_token
        from repro.lint import lint_cache_key

        procedure = _procedures("classic_mix", "tiny", count=1)[0]
        machine = get_target("tiny")
        lint_key = lint_cache_key(procedure.function, procedure.profile, machine)
        token = compile_options_token(
            machine, "jump_edge", ("baseline",), True, True
        )
        compile_key = procedure_cache_key(
            procedure.function, procedure.profile, token, kind="compile"
        )
        assert lint_key != compile_key


def test_every_registered_target_lints_cleanly_or_deterministically():
    """One broad sweep: all targets × one family, twice, byte-identical."""

    for target in available_targets():
        machine = get_target(target)
        for procedure in build_scenario(
            "call_web", seed=1, count=1, machine=machine
        ):
            runs = [
                lint_function(
                    procedure.function, profile=procedure.profile, machine=machine
                ).canonical_bytes()
                for _ in range(2)
            ]
            assert runs[0] == runs[1]
