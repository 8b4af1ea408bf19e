"""The cache's acceptance property: cached ≡ fresh, and warm runs do no work.

* a cached compile record equals a fresh compile's record on every field —
  property-tested across targets, techniques and cost models;
* a warm suite run performs **zero spill-placement work**: every placement
  entry point is monkeypatched to explode, and the run still succeeds
  entirely from the store;
* ``compile_many`` resolves hits before sharding and writes worker results
  back, so cache + workers compose;
* a disk entry whose bytes changed is a miss, never a wrong answer.
"""

import dataclasses
import struct

import pytest

from hypothesis import given, settings, strategies as st

from repro.cache.store import CompileCache
from repro.evaluation.runner import run_suite
from repro.pipeline.compiler import TECHNIQUES, compile_many, compile_procedure
from repro.target.registry import available_targets
from repro.workloads.spec_like import build_suite

from tests.conftest import generated_procedures

NAMES = ("gzip", "mcf")
SCALE = 0.1


def _record_view(record):
    """Every field of a compile record, ``pass_seconds`` included.

    Record equality already ignores ``pass_seconds`` (a fresh compile times
    itself anew); comparing cached against cached also pins the timings,
    which the store must return verbatim.
    """

    return dataclasses.astuple(record)


def _suite_view(measurement):
    """Everything deterministic about a suite measurement (not wall-clock)."""

    return measurement.deterministic_view()


class TestCachedEqualsFresh:
    @settings(max_examples=10, deadline=None)
    @given(
        procedure=generated_procedures(max_segments=4),
        target=st.sampled_from(available_targets()),
        cost_model=st.sampled_from(["jump_edge", "execution_count"]),
    )
    def test_cached_compile_bit_identical_to_fresh(
        self, tmp_path_factory, procedure, target, cost_model
    ):
        """The acceptance property, across targets × cost models."""

        directory = tmp_path_factory.mktemp("cache")
        cache = CompileCache(directory)
        fresh = compile_procedure(procedure, machine=target, cost_model=cost_model).record
        (cold,) = compile_many([procedure], machine=target, cost_model=cost_model, cache=cache)
        (cached,) = compile_many([procedure], machine=target, cost_model=cost_model, cache=cache)
        assert cache.stats.hits == 1
        assert cold == fresh and cached == fresh
        assert _record_view(cached) == _record_view(cold)
        # A second store instance exercises the disk tier (pickle round trip).
        (reread,) = compile_many(
            [procedure],
            machine=target,
            cost_model=cost_model,
            cache=CompileCache(directory),
        )
        assert _record_view(reread) == _record_view(cold)

    def test_technique_subset_does_not_alias_full_compile(self, tmp_path):
        procedure = build_suite(names=["mcf"], scale=SCALE)[0].procedures[0]
        cache = CompileCache(tmp_path)
        (full,) = compile_many([procedure], cache=cache)
        (subset,) = compile_many([procedure], techniques=("baseline",), cache=cache)
        assert [technique for technique, _ in full.overheads] == list(TECHNIQUES)
        assert [technique for technique, _ in subset.overheads] == ["baseline"]
        assert cache.stats.hits == 0 and cache.stats.stores == 2

    def test_warm_suite_bit_identical_to_cold(self, tmp_path):
        cache = CompileCache(tmp_path)
        cold = run_suite(names=NAMES, scale=SCALE, cache=cache)
        warm = run_suite(names=NAMES, scale=SCALE, cache=cache)
        assert _suite_view(warm) == _suite_view(cold)
        assert cache.stats.hits > 0

    def test_uncached_run_matches_cached_run(self, tmp_path):
        plain = run_suite(names=NAMES, scale=SCALE)
        cached = run_suite(names=NAMES, scale=SCALE, cache=CompileCache(tmp_path))
        assert _suite_view(plain) == _suite_view(cached)

    def test_records_share_no_mutable_state_with_the_lru(self, tmp_path):
        """A record handed out of the memory tier cannot be changed by a caller."""

        procedure = build_suite(names=["mcf"], scale=SCALE)[0].procedures[0]
        cache = CompileCache(tmp_path)
        (first,) = compile_many([procedure], cache=cache)
        (second,) = compile_many([procedure], cache=cache)
        assert second is first  # served from the LRU
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.allocator_overhead = 0.0
        # Hashable means no list, dict or set anywhere in the compared
        # fields; the timings are a tuple of pairs.
        hash(first)
        assert isinstance(first.pass_seconds, tuple)
        assert all(isinstance(pair, tuple) for pair in first.pass_seconds)


class TestIntegrityCheckedEntries:
    def test_flipped_value_byte_is_a_miss_and_recompiles(self, tmp_path):
        """A bit flip that still unpickles is caught by the entry digest."""

        procedure = build_suite(names=["mcf"], scale=SCALE)[0].procedures[0]
        (cold,) = compile_many([procedure], cache=CompileCache(tmp_path))
        (path,) = sorted(tmp_path.glob("v*/*/*.pkl"))
        data = bytearray(path.read_bytes())
        # Flip the low bit of one float inside the pickled record: without
        # the digest this reads back as a (wrong) hit.
        overhead = cold.overhead("baseline").save_count
        assert overhead > 0.0
        at = bytes(data).index(b"G" + struct.pack(">d", overhead)) + 8
        data[at] ^= 0x01
        path.write_bytes(bytes(data))

        cache = CompileCache(tmp_path)
        (again,) = compile_many([procedure], cache=cache)
        assert cache.stats.hits == 0 and cache.stats.misses == 1
        assert cache.stats.corrupt == 1
        assert again == cold
        # The recompiled record replaced the bad entry on disk.
        assert cache.stats.stores == 1
        (reread,) = compile_many([procedure], cache=CompileCache(tmp_path))
        assert reread == cold


class TestWarmRunsDoNoWork:
    def test_warm_suite_performs_zero_spill_placement_work(self, tmp_path, monkeypatch):
        """The ISSUE's acceptance criterion: no placement recomputation."""

        cache = CompileCache(tmp_path)
        cold = run_suite(names=NAMES, scale=SCALE, cache=cache)

        import repro.pipeline.compiler as compiler_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("warm run recomputed a spill placement")

        monkeypatch.setattr(compiler_mod, "place_entry_exit", boom)
        monkeypatch.setattr(compiler_mod, "place_shrink_wrap", boom)
        monkeypatch.setattr(compiler_mod, "place_hierarchical", boom)
        monkeypatch.setattr(compiler_mod, "allocate_registers", boom)

        warm = run_suite(names=NAMES, scale=SCALE, cache=cache)
        assert _suite_view(warm) == _suite_view(cold)

    def test_changed_configuration_misses(self, tmp_path):
        cache = CompileCache(tmp_path)
        run_suite(names=["mcf"], scale=SCALE, cache=cache)
        hits_before = cache.stats.hits
        run_suite(names=["mcf"], scale=SCALE, cost_model="execution_count", cache=cache)
        # A different cost model shares nothing with the first run.
        assert cache.stats.hits == hits_before


class TestCacheAndWorkersCompose:
    def test_parallel_cold_then_serial_warm(self, tmp_path, monkeypatch):
        cache = CompileCache(tmp_path)
        cold = run_suite(names=NAMES, scale=SCALE, workers=2, cache=cache)

        import repro.evaluation.parallel as parallel_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("a fully warm run must not touch the pool")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
        warm = run_suite(names=NAMES, scale=SCALE, workers=2, cache=cache)
        assert _suite_view(warm) == _suite_view(cold)

    def test_partial_warm_shards_only_misses(self, tmp_path):
        benchmark = build_suite(names=["gzip"], scale=0.2)[0]
        cache = CompileCache(tmp_path)
        half = benchmark.procedures[: len(benchmark.procedures) // 2]
        compile_many(half, cache=cache)
        stores_before = cache.stats.stores
        full = compile_many(benchmark.procedures, workers=2, cache=cache)
        assert [c.name for c in full] == [p.name for p in benchmark.procedures]
        # Only the uncached half was compiled and written back.
        assert cache.stats.stores == stores_before + (
            len(benchmark.procedures) - len(half)
        )

    def test_compile_many_warm_results_in_input_order(self, tmp_path):
        procedures = build_suite(names=["mcf"], scale=0.2)[0].procedures
        cache = CompileCache(tmp_path)
        cold = compile_many(procedures, cache=cache)
        warm = compile_many(procedures, workers=2, cache=cache)
        assert [_record_view(c) for c in cold] == [_record_view(w) for w in warm]

    def test_known_misses_are_neither_keyed_nor_looked_up_again(
        self, tmp_path, monkeypatch
    ):
        from repro.ir.fingerprint import compile_options_token, procedure_cache_key
        from repro.spill.cost_models import make_cost_model
        from repro.target.registry import resolve_target
        import repro.pipeline.compiler as compiler_module

        procedures = build_suite(names=["mcf"], scale=0.2)[0].procedures[:3]
        machine = resolve_target(None)
        token = compile_options_token(
            machine, make_cost_model("jump_edge", machine), TECHNIQUES, True, True
        )
        keys = [procedure_cache_key(p.function, p.profile, token) for p in procedures]
        cache = CompileCache(tmp_path)
        assert all(cache.get(key) is None for key in keys)

        def no_keying(*_args, **_kwargs):
            raise AssertionError("compile_many re-keyed a known miss")

        monkeypatch.setattr(compiler_module, "procedure_cache_key", no_keying)
        records = compile_many(procedures, cache=cache, miss_keys=keys)
        assert cache.stats.misses == len(procedures)
        assert cache.stats.hits == 0
        assert cache.stats.stores == len(procedures)
        assert [cache.get(key) for key in keys] == records
        with pytest.raises(ValueError):
            compile_many(procedures, cache=cache, miss_keys=keys[:1])


class TestCacheBypass:
    def test_no_cache_is_the_default(self, tmp_path):
        procedure = build_suite(names=["mcf"], scale=SCALE)[0].procedures[0]
        (record,) = compile_many([procedure])
        assert record.name == procedure.name
        assert CompileCache(tmp_path).entry_count() == 0
