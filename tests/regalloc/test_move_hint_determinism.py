"""The move-hint colour must not depend on the string-hash seed.

When a node has two coloured move partners whose colours are both free, the
colouring reuses the colour of the partner whose name ranks first.  Iterating
a set of registers instead made the choice follow Python's per-process
string-hash randomisation: under ``PYTHONHASHSEED=0..7`` the copy below got
either partner's register.
"""

import os
import subprocess
import sys

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")

# ``a`` and ``b`` interfere; ``c`` is a copy of ``a`` on one path and of ``b``
# on the other, and interferes with neither, so both partner colours are
# free when ``c`` is coloured.
_SNIPPET = """
from repro.ir.builder import FunctionBuilder
from repro.regalloc.allocator import allocate_registers
from repro.target.registry import get_target

builder = FunctionBuilder("two_partners")
builder.block("entry")
a = builder.const(1)
b = builder.const(2)
builder.branch(builder.add(a, b), "right")
builder.block("left")
c = builder.move(a)
t = builder.add(a, 1)
builder.jump("join")
builder.block("right")
builder.move(b, dst=c)
builder.add(b, 1, dst=t)
builder.block("join")
builder.ret([builder.add(c, t)])
assignment = allocate_registers(builder.build(), get_target("parisc")).assignment
print(assignment[a], assignment[b], assignment[c])
"""


def _assignment_under_hash_seed(seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _SNIPPET], env=env, capture_output=True, text=True, check=True
    )
    return completed.stdout.strip()


def test_move_hint_colour_is_identical_across_hash_seeds():
    outcomes = {_assignment_under_hash_seed(seed) for seed in range(8)}
    assert len(outcomes) == 1, outcomes
    a_colour, b_colour, c_colour = outcomes.pop().split()
    assert a_colour != b_colour
    # ``c`` takes the colour of its first partner by name (``a``).
    assert c_colour == a_colour
