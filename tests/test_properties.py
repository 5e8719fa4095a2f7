"""Property tests: the exact sign routines and the coefficient-file format."""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmin import fock, sturm

# a leading nonzero entry, then a tail in which zeros are common
minor_sequences = st.tuples(
    st.integers().filter(lambda v: v != 0),
    st.lists(st.one_of(st.just(0), st.integers()), max_size=40),
).map(lambda parts: [parts[0], *parts[1]])


@given(minor_sequences)
def test_effective_signs(seq):
    signs = sturm._effective_signs(seq)
    assert len(signs) == len(seq)
    for i, (val, sign) in enumerate(zip(seq, signs)):
        if val != 0:
            assert sign == (1 if val > 0 else -1)
        else:
            # a vanishing minor takes the opposite sign of its predecessor
            assert sign == -signs[i - 1]


def _ceil_sqrt(s):
    r = math.isqrt(s)
    return r + (r * r < s)


@given(
    st.one_of(st.integers(0, 10**6), st.integers(0, 10**40)),
    st.integers(-3, 3),
    st.booleans(),
)
def test_window_contains_matches_isqrt(s, offset, near):
    # (s - sqrt s)/2 < t <= (s - sqrt s)/2 + 1, stated for integer t as
    # s - 2t < ceil(sqrt s) <= s - 2t + 2
    t = (s - math.isqrt(s)) // 2 + offset if near else offset * s
    c = _ceil_sqrt(s)
    assert sturm._window_contains(s, t) == (s - 2 * t < c <= s - 2 * t + 2)


# |x| <= 1e153 keeps the mass of 20 pairs, at most 4e307, in float range;
# a state whose mass overflows is rejected (test_fock, test_cli)
finite = st.floats(min_value=-1e153, max_value=1e153)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=20))
def test_coefficient_file_round_trip(pairs):
    coeffs = np.array([complex(re, im) for re, im in pairs])
    u = fock.FockCoefficients(len(pairs) - 1, coeffs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        fock.save_coefficients(u, path)
        back = fock.load_coefficients(path)
    assert back.truncation == u.truncation
    assert back.coeffs.tobytes() == u.coeffs.tobytes()
