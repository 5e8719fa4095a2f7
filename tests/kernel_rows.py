"""One state through the stacked energy kernel.

`fockmin.fock.EnergyKernel` takes stacks only.  The serial descent oracles
and the kernel checks evaluate one state at a time, as the one-row stack of
that state, and every row of a stack has the bits of such a call.
"""

import numpy as np


def one_row(call, a, mu):
    """`call`, an energy kernel's `value` or `value_and_gradient`, on the
    one-row stack of the state a at the coupling mu, with the row taken
    back out: a float energy, or a float energy and a 1-D gradient."""
    out = call(a[None], np.array([mu], dtype=float))
    if isinstance(out, tuple):
        energy, grad = out
        return float(energy[0]), grad[0]
    return float(out[0])
