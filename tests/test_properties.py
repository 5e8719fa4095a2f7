"""Property tests: the exact sign routines, the coefficient-file format and
the symmetry laws of the functionals."""

import cmath
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fock_oracles import apply_phase, apply_rotation
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


# |x| <= 1e75 keeps the mass M of 20 pairs, at most 4e151, and (N + 1) M^2
# in float range; a state where either overflows is rejected (test_fock,
# test_cli)
finite = st.floats(min_value=-1e75, max_value=1e75)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=20))
def test_coefficient_file_round_trip(pairs):
    coeffs = np.array([complex(re, im) for re, im in pairs])
    u = fock.FockCoefficients(coeffs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        fock.save_coefficients(u, path)
        back = fock.load_coefficients(path)
    assert back.truncation == u.truncation
    assert back.coeffs.tobytes() == u.coeffs.tobytes()


# States on modes 0..SYMMETRY_N/2 at truncation SYMMETRY_N: a translation by
# |alpha| <= 1 moves less than 1e-19 of their mass past the truncation.
SYMMETRY_N = 64
unit_floats = st.floats(min_value=-1.0, max_value=1.0)
half_supported = st.lists(
    st.tuples(unit_floats, unit_floats),
    min_size=SYMMETRY_N // 2 + 1,
    max_size=SYMMETRY_N // 2 + 1,
)
angles = st.floats(min_value=-math.pi, max_value=math.pi)
small_alphas = st.tuples(st.floats(min_value=0.0, max_value=1.0), angles).map(
    lambda polar: cmath.rect(*polar)
)


def _unit_state(pairs):
    a = np.zeros(SYMMETRY_N + 1, dtype=complex)
    a[: len(pairs)] = [complex(re, im) for re, im in pairs]
    norm = np.linalg.norm(a)
    assume(norm > 1e-3)
    return fock.FockCoefficients(a / norm)


def _functionals(u):
    """(M, H, MP - |Q|^2, P)."""
    m, p = fock.mass(u), fock.angular_momentum(u)
    return m, fock.hamiltonian(u), m * p - abs(fock.magnetic_momentum(u)) ** 2, p


@settings(max_examples=60, deadline=None)
@given(half_supported, angles, angles, small_alphas)
def test_symmetries_keep_the_invariant_functionals(pairs, gamma, theta, alpha):
    u = _unit_state(pairs)
    m, h, spread, p = _functionals(u)
    images = (
        (apply_phase(u, gamma), True),
        (apply_rotation(u, theta), True),
        (fock.apply_translation(u, alpha), False),
    )
    for image, keeps_p in images:
        m2, h2, spread2, p2 = _functionals(image)
        assert m2 == pytest.approx(m, rel=1e-13, abs=0)
        assert h2 == pytest.approx(h, rel=1e-12, abs=0)
        # M P and |Q|^2 reach about 33 here and cancel down to MP - |Q|^2
        assert spread2 == pytest.approx(spread, rel=0, abs=1e-12)
        if keeps_p:
            assert p2 == pytest.approx(p, rel=1e-13, abs=0)
