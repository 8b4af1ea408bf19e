"""Operand values for the toy IR.

Operands are small immutable objects: registers (virtual or physical),
immediates, stack slots, and labels.  All of them are hand-slotted classes —
operands are the most numerous and most-hashed objects in the code base, so
they carry no per-instance ``__dict__``, hash by the name string's cached
hash, and take an identity fast path in ``__eq__`` (the canonical
:func:`vreg`/:func:`preg` constructors intern instances, so most comparisons
are between the very same object).

The classes replicate the semantics of the frozen dataclasses they replaced:
equality is class-sensitive and field-based, and attribute assignment
raises.
"""

from __future__ import annotations

from typing import Dict, Union


class Value:
    """Base class for every IR operand."""

    __slots__ = ()

    def is_register(self) -> bool:
        return isinstance(self, Register)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)


class Register(Value):
    """Base class for virtual and physical registers.

    Registers compare and hash by name, so two references to ``v3`` denote
    the same register regardless of where they were created.  Hashing by
    ``self.name`` directly reuses the string's cached hash — registers are
    the most-hashed objects in the code base, so this shows up in every
    analysis.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("register name must be non-empty")
        object.__setattr__(self, "name", name)

    def __getstate__(self):
        return {"name": self.name}

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class VirtualRegister(Register):
    """An unallocated, unbounded register (``v0``, ``v1``, ...)."""

    __slots__ = ()


class PhysicalRegister(Register):
    """A machine register (``r0`` ... ``rN``) named by the target."""

    __slots__ = ("index",)

    def __init__(self, name: str, index: int = -1):
        super().__init__(name)
        object.__setattr__(self, "index", index)

    def __getstate__(self):
        return {"name": self.name, "index": self.index}

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.name == other.name and self.index == other.index
        return NotImplemented

    __hash__ = Register.__hash__

    def __repr__(self) -> str:
        return f"PhysicalRegister(name={self.name!r}, index={self.index!r})"


class Immediate(Value):
    """A literal integer operand."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)

    def __getstate__(self):
        return {"value": self.value}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Immediate, self.value))

    def __str__(self) -> str:
        return f"#{self.value}"

    def __repr__(self) -> str:
        return f"Immediate(value={self.value!r})"


class StackSlot(Value):
    """A stack location used by spill code and callee-saved save areas.

    ``purpose`` distinguishes allocator spill slots from callee-saved save
    slots so that the overhead accounting can classify the memory traffic.
    """

    __slots__ = ("index", "purpose")

    def __init__(self, index: int, purpose: str = "spill"):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "purpose", purpose)

    def __getstate__(self):
        return {"index": self.index, "purpose": self.purpose}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.index == other.index and self.purpose == other.purpose
        return NotImplemented

    def __hash__(self) -> int:
        return hash((StackSlot, self.index, self.purpose))

    def __str__(self) -> str:
        return f"[sp+{self.index}]"

    def __repr__(self) -> str:
        return f"StackSlot(index={self.index!r}, purpose={self.purpose!r})"


class Label(Value):
    """A basic-block label operand used by control-flow instructions."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __getstate__(self):
        return {"name": self.name}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Label, self.name))

    def __str__(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        return f"Label(name={self.name!r})"


Operand = Union[Register, Immediate, StackSlot, Label]

# Interning caches for the canonical constructors.  Registers compare by
# name, so handing out the same instance is purely an optimization: the
# identity fast path in ``__eq__`` then settles most comparisons, and
# repeated compiles stop re-allocating the same handful of objects.  Both
# pools are bounded — names outside them are simply constructed afresh.
_VREG_CACHE: Dict[int, VirtualRegister] = {}
_PREG_CACHE: Dict[tuple, PhysicalRegister] = {}
_INTERN_LIMIT = 4096


def vreg(index: int) -> VirtualRegister:
    """Return the canonical (interned) virtual register ``v<index>``."""

    register = _VREG_CACHE.get(index)
    if register is None:
        register = VirtualRegister(f"v{index}")
        if 0 <= index < _INTERN_LIMIT:
            _VREG_CACHE[index] = register
    return register


def preg(index: int, prefix: str = "r") -> PhysicalRegister:
    """Return the canonical (interned) physical register ``<prefix><index>``."""

    key = (prefix, index)
    register = _PREG_CACHE.get(key)
    if register is None:
        register = PhysicalRegister(f"{prefix}{index}", index)
        if 0 <= index < _INTERN_LIMIT and len(_PREG_CACHE) < _INTERN_LIMIT:
            _PREG_CACHE[key] = register
    return register
