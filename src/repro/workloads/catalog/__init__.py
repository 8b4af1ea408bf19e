"""The versioned workload catalog: data-driven scenario specs.

Scenario definitions live in TOML files next to this module
(``scenarios.toml`` for the synthetic families, ``pyfuncs.toml`` for
frontend-translated real functions) and are loaded through a schema-checked
catalog keyed by *combination codes*::

    <stem><version>_<pressure>_<cfgclass>      e.g.  switch1_HI_RED

``stem`` names the workload family (lowercase letters), ``version`` is the
spec revision, ``pressure`` ∈ LO/MD/HI scales register pressure (synthetic
entries) or input magnitude (pyfunc entries), and ``cfgclass`` ∈ RED/IRR/MIX
records the control-flow class.  Legacy family names (``switch_dispatch``…)
remain available as aliases of the MD entries, which build bit-identical
procedures to the pre-catalog registry.

Entry kinds:

``scenario``
    binds a family from :data:`repro.workloads.scenarios.SCENARIO_FAMILIES`
    with the pressure scale threaded into the builder;
``pyfunc``
    binds a function from the curated corpus under ``pyfuncs/`` — the
    frontend translates its bytecode to IR, and the entry's seeded input
    ranges drive an interpreter run (externals stubbed) that yields a *real*
    execution profile for the translated code.

Consumers: ``catalog:<name>[:seed[:index]]`` references in the service
protocol, the loadgen ``catalog`` mix, the ``repro-spill catalog`` CLI,
and the tier-1 placement-invariant and frontend-semantics tests.  See
``docs/workloads.md`` for the grammar and ``docs/frontend.md``
for the translation contract.
"""

from __future__ import annotations

import inspect
import importlib
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.profiling.interpreter import Interpreter
from repro.profiling.profile_data import EdgeProfile
from repro.target.machine import MachineDescription
from repro.workloads.generator import GeneratedProcedure, GeneratorConfig
from repro.workloads.scenarios import SCENARIO_FAMILIES, get_scenario

#: Schema tag every catalog file must declare.
CATALOG_SCHEMA = "workload-catalog/v1"

#: What the LO/MD/HI pressure levels mean as a scale factor.  MD is exactly
#: 1.0 so MD scenario entries are bit-identical to the legacy registry.
PRESSURE_SCALES = {"LO": 0.5, "MD": 1.0, "HI": 2.0}

#: Recognised control-flow classes: reducible, irreducible, mixed draws.
CFG_CLASSES = ("RED", "IRR", "MIX")

#: Combination-code grammar (see the module docstring).
COMBINATION_CODE = re.compile(
    r"^(?P<stem>[a-z]+)(?P<version>[1-9][0-9]*)"
    r"_(?P<pressure>LO|MD|HI)_(?P<cfg>RED|IRR|MIX)$"
)

_ENTRY_KINDS = ("scenario", "pyfunc")
_COMMON_KEYS = {"name", "kind", "description"}
_SCENARIO_KEYS = _COMMON_KEYS | {"family"}
_PYFUNC_KEYS = _COMMON_KEYS | {"module", "func", "inputs"}

#: How many seeded interpreter runs derive a pyfunc entry's profile.
PYFUNC_PROFILE_RUNS = 8


class CatalogError(ValueError):
    """A catalog file failed schema validation."""


# --------------------------------------------------------------------------
# Minimal TOML reading.  Python >= 3.11 ships tomllib; older interpreters
# fall back to a tiny parser covering exactly the subset these files use
# (tables, arrays of tables, strings, ints, bools, nested int arrays).
# --------------------------------------------------------------------------

try:  # pragma: no cover - exercised implicitly on every load
    import tomllib as _toml
except ImportError:  # pragma: no cover - py<3.11 fallback
    _toml = None


def _parse_toml_value(text: str):
    text = text.strip()
    if text.startswith('"') and text.endswith('"'):
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    if text.startswith("["):
        inner, depth, items, start = text[1:-1], 0, [], 0
        for position, char in enumerate(inner):
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == "," and depth == 0:
                if inner[start:position].strip():
                    items.append(_parse_toml_value(inner[start:position]))
                start = position + 1
        if inner[start:].strip():
            items.append(_parse_toml_value(inner[start:]))
        return items
    return int(text)


def _parse_toml(text: str) -> dict:
    """Parse the catalog TOML subset (fallback when tomllib is missing)."""

    root: dict = {}
    current = root
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            key = line[2:-2].strip()
            current = {}
            root.setdefault(key, []).append(current)
        elif line.startswith("[") and line.endswith("]"):
            key = line[1:-1].strip()
            current = root.setdefault(key, {})
        else:
            key, _, value = line.partition("=")
            current[key.strip()] = _parse_toml_value(value)
    return root


def _read_toml(path: str) -> dict:
    with open(path, "rb") as handle:
        data = handle.read()
    if _toml is not None:
        return _toml.loads(data.decode("utf-8"))
    return _parse_toml(data.decode("utf-8"))


# --------------------------------------------------------------------------
# The pyfunc corpus: lazily translated, cached per corpus module.
# --------------------------------------------------------------------------

_CORPUS_PACKAGE = "repro.workloads.catalog.pyfuncs"
_corpus_cache: Dict[str, object] = {}


def corpus_functions(module_name: str) -> Dict[str, Callable]:
    """The public functions of one corpus module, in definition order."""

    module = importlib.import_module(f"{_CORPUS_PACKAGE}.{module_name}")
    return {
        name: func
        for name, func in vars(module).items()
        if inspect.isfunction(func)
        and func.__module__ == module.__name__
        and not name.startswith("_")
    }


def corpus_module(module_name: str):
    """The translated IR module for one corpus module (cached).

    Returns a :class:`repro.frontend.TranslatedModule`; translation happens
    once per process and is deterministic, so the cache cannot observe
    different results.
    """

    cached = _corpus_cache.get(module_name)
    if cached is None:
        from repro.frontend import translate_callables

        cached = translate_callables(
            corpus_functions(module_name), module_name=module_name
        )
        _corpus_cache[module_name] = cached
    return cached


# --------------------------------------------------------------------------
# Entries.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog workload, addressable by its combination code."""

    name: str
    kind: str
    description: str
    stem: str
    version: int
    pressure: str
    cfg: str
    family: Optional[str] = None
    module: Optional[str] = None
    func: Optional[str] = None
    inputs: Tuple[Tuple[int, int], ...] = ()
    #: How many procedures a default draw of the entry holds.
    default_count: int = 1

    @property
    def pressure_scale(self) -> float:
        """The numeric scale the entry's pressure level maps to."""

        return PRESSURE_SCALES[self.pressure]

    def build(
        self,
        seed: int = 0,
        index: int = 0,
        machine: Optional[MachineDescription] = None,
    ) -> GeneratedProcedure:
        """Build one procedure; deterministic in ``(name, seed, index, machine)``."""

        if self.kind == "scenario":
            assert self.family is not None
            return get_scenario(self.family).builder(
                seed, index, machine, pressure_scale=self.pressure_scale
            )
        return self._build_pyfunc(seed, index)

    def draw_inputs(self, rng: random.Random) -> List[int]:
        """One seeded argument list from the entry's pressure-scaled ranges."""

        return [self._draw(rng, low, high) for low, high in self.inputs]

    def _build_pyfunc(self, seed: int, index: int) -> GeneratedProcedure:
        translated = corpus_module(self.module)
        try:
            function = translated.functions[self.func]
        except KeyError:
            raise CatalogError(
                f"catalog entry {self.name!r} binds unknown corpus function "
                f"{self.module}:{self.func}"
            ) from None
        rng = random.Random(f"catalog/{self.name}/{seed}/{index}")
        # Externals stubbed (module=None): the edge counts belong purely to
        # the root function, which is what the profile describes.
        interpreter = Interpreter()
        edge_counts: Dict[Tuple[str, str], float] = {}
        for _ in range(PYFUNC_PROFILE_RUNS):
            args = [self._draw(rng, low, high) for low, high in self.inputs]
            result = interpreter.run(function.function, args)
            for edge, count in result.edge_counts.items():
                edge_counts[edge] = edge_counts.get(edge, 0.0) + float(count)
        profile = EdgeProfile(
            function_name=function.ir_name,
            invocations=float(PYFUNC_PROFILE_RUNS),
            edge_counts=edge_counts,
        )
        return GeneratedProcedure(
            function=function.function.clone(),
            profile=profile,
            config=GeneratorConfig(name=self.name, seed=seed),
            branch_probabilities={},
            segments=["pyfunc", f"{self.module}:{self.func}"],
        )

    def _draw(self, rng: random.Random, low: int, high: int) -> int:
        """One seeded input from ``[low, high]`` scaled by the pressure level."""

        span = max(1, int(round((high - low) * self.pressure_scale)))
        return low + rng.randrange(span + 1)


# --------------------------------------------------------------------------
# The catalog.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadCatalog:
    """Every loaded entry plus the legacy-name alias table."""

    version: int
    entries: Tuple[CatalogEntry, ...]
    aliases: Dict[str, str] = field(default_factory=dict)

    def names(self, kind: Optional[str] = None) -> Tuple[str, ...]:
        """All combination codes, optionally filtered by entry kind."""

        return tuple(
            entry.name for entry in self.entries if kind is None or entry.kind == kind
        )

    def resolve(self, name: str) -> CatalogEntry:
        """Look up an entry by combination code or legacy alias."""

        target = self.aliases.get(name, name)
        for entry in self.entries:
            if entry.name == target:
                return entry
        raise KeyError(
            f"unknown catalog entry {name!r}; expected a combination code "
            f"(e.g. {self.entries[0].name}) or an alias "
            f"({', '.join(sorted(self.aliases))})"
        )

    def codes_for_family(self, family: str) -> Tuple[str, ...]:
        """The combination codes of the scenario entries binding ``family``."""

        return tuple(
            entry.name for entry in self.entries if entry.family == family
        )

    def lint(self) -> List[str]:
        """Re-validate the loaded catalog deeply; returns problem strings.

        Beyond load-time schema checks, this translates every pyfunc entry's
        corpus function (so an out-of-subset corpus edit is caught) and
        checks input arity against the python signature.
        """

        from repro.frontend import UnsupportedOpcodeError

        problems: List[str] = []
        for entry in self.entries:
            if entry.kind == "scenario":
                try:
                    get_scenario(entry.family)
                except KeyError as exc:
                    problems.append(f"{entry.name}: {exc}")
                continue
            try:
                functions = corpus_functions(entry.module)
            except ImportError as exc:
                problems.append(f"{entry.name}: corpus module {entry.module!r}: {exc}")
                continue
            if entry.func not in functions:
                problems.append(
                    f"{entry.name}: no function {entry.func!r} in corpus module "
                    f"{entry.module!r}"
                )
                continue
            argcount = functions[entry.func].__code__.co_argcount
            if len(entry.inputs) != argcount:
                problems.append(
                    f"{entry.name}: {len(entry.inputs)} input ranges for "
                    f"{argcount} parameters"
                )
            for low, high in entry.inputs:
                if low > high:
                    problems.append(f"{entry.name}: empty input range [{low}, {high}]")
            try:
                corpus_module(entry.module)
            except UnsupportedOpcodeError as exc:
                problems.append(f"{entry.name}: corpus does not translate: {exc}")
        return problems


def _require_keys(table: dict, allowed: set, context: str) -> None:
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise CatalogError(f"{context}: unknown keys {unknown}")
    missing = sorted(allowed - set(table))
    if missing:
        raise CatalogError(f"{context}: missing keys {missing}")


def _validate_entry(table: dict, position: int) -> CatalogEntry:
    if not isinstance(table.get("name"), str):
        raise CatalogError(f"entry #{position}: missing or non-string name")
    name = table["name"]
    match = COMBINATION_CODE.match(name)
    if match is None:
        raise CatalogError(
            f"entry {name!r}: not a combination code "
            "(<stem><version>_<LO|MD|HI>_<RED|IRR|MIX>)"
        )
    kind = table.get("kind")
    if kind not in _ENTRY_KINDS:
        raise CatalogError(f"entry {name!r}: kind must be one of {_ENTRY_KINDS}")
    if kind == "scenario":
        _require_keys(table, _SCENARIO_KEYS, f"entry {name!r}")
        return CatalogEntry(
            name=name,
            kind=kind,
            description=str(table["description"]),
            stem=match.group("stem"),
            version=int(match.group("version")),
            pressure=match.group("pressure"),
            cfg=match.group("cfg"),
            family=str(table["family"]),
            default_count=2,
        )
    _require_keys(table, _PYFUNC_KEYS, f"entry {name!r}")
    inputs = table["inputs"]
    if not isinstance(inputs, list) or not all(
        isinstance(pair, list) and len(pair) == 2
        and all(isinstance(bound, int) for bound in pair)
        for pair in inputs
    ):
        raise CatalogError(f"entry {name!r}: inputs must be a list of [low, high] pairs")
    return CatalogEntry(
        name=name,
        kind=kind,
        description=str(table["description"]),
        stem=match.group("stem"),
        version=int(match.group("version")),
        pressure=match.group("pressure"),
        cfg=match.group("cfg"),
        module=str(table["module"]),
        func=str(table["func"]),
        inputs=tuple((pair[0], pair[1]) for pair in inputs),
        default_count=1,
    )


def catalog_directory() -> str:
    """The directory the catalog TOML files live in."""

    return os.path.dirname(os.path.abspath(__file__))


def load_catalog(directory: Optional[str] = None) -> WorkloadCatalog:
    """Load and schema-validate every ``*.toml`` catalog file in ``directory``.

    Files are read in sorted name order so the entry order — and everything
    derived from it (CLI listings, loadgen plans) — is deterministic.
    Raises :class:`CatalogError` on any schema violation: bad combination
    code, unknown/missing keys, duplicate names, dangling aliases or
    scenario families, malformed input ranges.
    """

    directory = directory or catalog_directory()
    paths = sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".toml")
    )
    if not paths:
        raise CatalogError(f"no catalog files in {directory!r}")
    entries: List[CatalogEntry] = []
    aliases: Dict[str, str] = {}
    version: Optional[int] = None
    for path in paths:
        data = _read_toml(path)
        header = data.get("catalog")
        if not isinstance(header, dict) or header.get("schema") != CATALOG_SCHEMA:
            raise CatalogError(
                f"{os.path.basename(path)}: missing [catalog] header with "
                f"schema = {CATALOG_SCHEMA!r}"
            )
        file_version = header.get("version")
        if not isinstance(file_version, int):
            raise CatalogError(f"{os.path.basename(path)}: catalog.version must be an int")
        version = file_version if version is None else max(version, file_version)
        for position, table in enumerate(data.get("entry", [])):
            entries.append(_validate_entry(dict(table), position))
        for alias, target in data.get("alias", {}).items():
            aliases[str(alias)] = str(target)

    names = [entry.name for entry in entries]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise CatalogError(f"duplicate catalog entries: {duplicates}")
    known = set(names)
    for alias, target in aliases.items():
        if target not in known:
            raise CatalogError(f"alias {alias!r} points at unknown entry {target!r}")
        if alias in known:
            raise CatalogError(f"alias {alias!r} shadows a catalog entry")
    registered = {family.name for family in SCENARIO_FAMILIES}
    for entry in entries:
        if entry.kind == "scenario" and entry.family not in registered:
            raise CatalogError(
                f"entry {entry.name!r} binds unknown scenario family {entry.family!r}"
            )
    assert version is not None
    return WorkloadCatalog(version=version, entries=tuple(entries), aliases=aliases)


_catalog: Optional[WorkloadCatalog] = None


def get_catalog() -> WorkloadCatalog:
    """The process-wide catalog, loaded once from the packaged TOML files."""

    global _catalog
    if _catalog is None:
        _catalog = load_catalog()
    return _catalog


__all__ = [
    "CATALOG_SCHEMA",
    "CFG_CLASSES",
    "COMBINATION_CODE",
    "CatalogEntry",
    "CatalogError",
    "PRESSURE_SCALES",
    "PYFUNC_PROFILE_RUNS",
    "WorkloadCatalog",
    "catalog_directory",
    "corpus_functions",
    "corpus_module",
    "get_catalog",
    "load_catalog",
]
