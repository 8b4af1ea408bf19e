"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import json
import os
from functools import lru_cache

import pytest

from hypothesis import HealthCheck, settings, strategies as st

from repro.ir.parser import parse_function
from repro.profiling.synthetic import profile_from_branch_probabilities, uniform_profile
from repro.target.generic import riscish_target, tiny_target
from repro.target.parisc import parisc_target
from repro.target.registry import available_targets, get_target
from repro.workloads.catalog import get_catalog
from repro.workloads.generator import GeneratorConfig, generate_procedure
from repro.workloads.programs import (
    call_chain_function,
    diamond_function,
    figure1_function,
    loop_function,
    paper_example,
)

# Keep property-based tests fast and deterministic in CI-like environments.
settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# Plain fixtures.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def parisc():
    return parisc_target()


@pytest.fixture(scope="session")
def risc16():
    return riscish_target()


@pytest.fixture(scope="session")
def tiny_machine():
    return tiny_target()


@pytest.fixture(scope="session", params=available_targets())
def registered_machine(request):
    """Every registered machine description, one per parameterized run.

    Placement-invariant tests take this fixture so that the paper's
    guarantees are checked on all machine descriptions, not just the
    PA-RISC-like default.
    """

    return get_target(request.param)


@pytest.fixture()
def diamond():
    return diamond_function()


@pytest.fixture()
def loop_fn():
    return loop_function()


@pytest.fixture()
def call_chain():
    return call_chain_function()


@pytest.fixture(scope="session")
def paper():
    """The reconstructed Figure 2/3 worked example (function, profile, usage)."""

    return paper_example()


@pytest.fixture()
def figure1_cold():
    return figure1_function(hot_allocation=False)


@pytest.fixture()
def figure1_hot():
    return figure1_function(hot_allocation=True)


# ---------------------------------------------------------------------------
# The regression corpus.
# ---------------------------------------------------------------------------

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "workloads", "corpus")
CORPUS_FIXTURES = sorted(name for name in os.listdir(CORPUS_DIR) if name.endswith(".ir"))


def load_corpus_fixture(name: str):
    """Parse one corpus program and its recorded profile (uniform if absent)."""

    path = os.path.join(CORPUS_DIR, name)
    with open(path, "r", encoding="utf-8") as handle:
        function = parse_function(handle.read())
    profile_path = path[: -len(".ir")] + ".profile.json"
    if not os.path.exists(profile_path):
        return function, uniform_profile(function, invocations=1000.0)
    with open(profile_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    probabilities = {
        tuple(key.split("->", 1)): value for key, value in data["probabilities"].items()
    }
    profile = profile_from_branch_probabilities(
        function, invocations=data["invocations"], probabilities=probabilities
    )
    return function, profile


@lru_cache(maxsize=None)
def pyfunc_procedure(name: str):
    """A ``pyfunc`` catalog entry's procedure at seed 0, index 0.

    No target changes it, and building it runs the interpreter for its
    profile, so the session builds each entry once.  Every caller shares
    the one object: compile, lint and clone it, never mutate it.
    """

    return get_catalog().resolve(name).build(0, 0)


# ---------------------------------------------------------------------------
# Hypothesis strategies.
# ---------------------------------------------------------------------------


@st.composite
def generator_configs(draw, max_segments: int = 7):
    """Random :class:`GeneratorConfig` values covering all segment archetypes."""

    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_segments = draw(st.integers(min_value=1, max_value=max_segments))
    hot = draw(st.floats(min_value=0.05, max_value=0.99))
    cold_fraction = draw(st.floats(min_value=0.0, max_value=1.0))
    early_exit = draw(st.floats(min_value=0.05, max_value=0.95))
    accumulators = draw(st.integers(min_value=0, max_value=3))
    locals_per_region = draw(st.integers(min_value=1, max_value=3))
    weights = {
        "compute": draw(st.floats(min_value=0.0, max_value=2.0)),
        "diamond": draw(st.floats(min_value=0.0, max_value=2.0)),
        "guarded_call": draw(st.floats(min_value=0.0, max_value=2.0)),
        "early_exit_call": draw(st.floats(min_value=0.0, max_value=2.0)),
        "loop_call": draw(st.floats(min_value=0.0, max_value=1.0)),
    }
    if sum(weights.values()) <= 0.0:
        weights["compute"] = 1.0
    return GeneratorConfig(
        name=f"hyp{seed}",
        seed=seed,
        num_segments=num_segments,
        segment_weights=weights,
        hot_region_probability=hot,
        cold_region_fraction=cold_fraction,
        early_exit_probability=early_exit,
        num_accumulators=accumulators,
        locals_per_call_region=locals_per_region,
        invocations=draw(st.sampled_from([1.0, 10.0, 100.0, 1000.0])),
    )


@st.composite
def generated_procedures(draw, max_segments: int = 7):
    """Random generated procedures (function + flow-conserving profile)."""

    config = draw(generator_configs(max_segments=max_segments))
    return generate_procedure(config)


@st.composite
def random_multigraphs(draw, max_nodes: int = 8, max_extra_edges: int = 10):
    """Random connected undirected multigraphs for cycle-equivalence tests.

    A random spanning tree guarantees connectivity; extra random edges (which
    may be parallel or self loops) add the cycles.
    """

    from repro.analysis.cycle_equiv import UndirectedMultigraph

    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    graph = UndirectedMultigraph()
    for node in range(num_nodes):
        graph.add_node(node)
    edge_id = 0
    for node in range(1, num_nodes):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        graph.add_edge(parent, node, f"t{edge_id}")
        edge_id += 1
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        v = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        graph.add_edge(u, v, f"e{edge_id}")
        edge_id += 1
    return graph
