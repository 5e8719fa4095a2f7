"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is importing fockmin and its dependencies, building the CLI parser
and filling the energy-kernel tables for the truncations given as
arguments.  Run from the repository root with PYTHONPATH=src.
"""

import sys
import time

start = time.perf_counter()
from fockmin import cli, fock  # noqa: E402

cli.build_parser()
for truncation in sys.argv[1:]:
    fock.energy_kernel(int(truncation))
print(repr(time.perf_counter() - start))
