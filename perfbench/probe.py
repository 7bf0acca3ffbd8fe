"""Set-up probe: the program's start-up in one fresh interpreter.

Run from the root of a checkout:

    python3 perfbench/probe.py [SPEC ...]

It imports frobcode, builds each ring named by SPEC and its weight
table, prints "ready" and exits.  It imports nothing of the benchmark,
so the time from starting it to "ready" is the program's alone.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import frobcode  # noqa: E402
import frobcode.cli  # noqa: E402,F401

for text in sys.argv[1:]:
    frobcode.homweight.hom_weight_table(frobcode.rings.build_ring(frobcode.rings.parse_ring_spec(text)))
print("ready", flush=True)
