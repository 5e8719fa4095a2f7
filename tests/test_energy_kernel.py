"""The sheared-row energy kernel against the index-table kernel it replaced.

`BincountKernel` is the earlier `fock.EnergyKernel`, kept verbatim as the
oracle: every result of the current kernel must equal it bit for bit, and
the CLI must print the same bytes with either kernel in place.
"""

import math

import numpy as np
import pytest

from fockmin import cli, fock


class BincountKernel:
    """Precomputed index/weight tables for the quartic sum at truncation N.

    The interaction energy is (1/8pi) * sum_j |ct_j|^2 with
    ct_j = sum_k w_{jk} a_k a_{j-k} and w_{jk} = sqrt(C(j,k)/2^j) <= 1,
    so no factorial is ever formed: only binomial ratios appear, which keeps
    every intermediate in floating range for any practical truncation.
    """

    def __init__(self, truncation: int):
        self.truncation = truncation
        n = truncation + 1
        j_ids, k_ids, weights = [], [], []
        for j in range(2 * truncation + 1):
            lo = max(0, j - truncation)
            hi = min(j, truncation)
            for k in range(lo, hi + 1):
                j_ids.append(j)
                k_ids.append(k)
                # int/int true division is correctly rounded at any size
                weights.append(math.sqrt(math.comb(j, k) / (1 << j)))
        self.j_ids = np.array(j_ids, dtype=np.intp)
        self.k_ids = np.array(k_ids, dtype=np.intp)
        self.l_ids = self.j_ids - self.k_ids  # j - k
        self.weights = np.array(weights)
        self.n_j = 2 * truncation + 1
        self.n_modes = n
        self.mode_index = np.arange(n, dtype=float)

    def convolution(self, a: np.ndarray) -> np.ndarray:
        """The weighted self-convolution ct_j for all j."""
        vals = self.weights * (a[self.k_ids] * a[self.l_ids])
        re = np.bincount(self.j_ids, weights=vals.real, minlength=self.n_j)
        im = np.bincount(self.j_ids, weights=vals.imag, minlength=self.n_j)
        return re + 1j * im

    def interaction(self, a: np.ndarray) -> float:
        """8*pi*H: the quartic part of the energy."""
        ct = self.convolution(a)
        return float(np.sum(ct.real**2 + ct.imag**2))

    def value(self, a: np.ndarray, mu: float) -> float:
        p = float(np.sum(self.mode_index * (a.real**2 + a.imag**2)))
        return self.interaction(a) + mu * p

    def value_and_gradient(self, a: np.ndarray, mu: float):
        """Energy and Wirtinger gradient d/dRe + i d/dIm at a."""
        ct = self.convolution(a)
        energy = float(np.sum(ct.real**2 + ct.imag**2))
        p = float(np.sum(self.mode_index * (a.real**2 + a.imag**2)))
        energy += mu * p
        vals = 4.0 * self.weights * ct[self.j_ids] * np.conj(a[self.l_ids])
        g_re = np.bincount(self.k_ids, weights=vals.real, minlength=self.n_modes)
        g_im = np.bincount(self.k_ids, weights=vals.imag, minlength=self.n_modes)
        grad = g_re + 1j * g_im
        grad += 2.0 * mu * self.mode_index * a
        return energy, grad


TRUNCATIONS = (8, 9, 48, 96, 192)


def _states(truncation, seed, count=24):
    """Random complex states, states with tails down to 1e-13, real-valued
    arrays, the zero vector, and a signed-zero pattern."""
    rng = np.random.default_rng(seed)
    n = truncation + 1
    out = [np.zeros(n, dtype=complex)]
    for i in range(count):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if i % 3 == 1:
            # geometric tail reaching about 1e-13 at the last mode
            a *= np.exp(np.linspace(0.0, math.log(1e-13), n))
        if i % 4 == 2:
            a = a.real.astype(complex)
        out.append(a / np.linalg.norm(a))
    out.append(rng.standard_normal(n))  # a float array, not complex
    # every term of ct_N (odd N) has real part -0.0: the sum must start at
    # +0.0 as the bincount does, or its sign would differ
    signed = np.zeros(n, dtype=complex)
    signed.real[: n // 2] = -0.0
    signed[n // 2 :] = 1.0
    out.append(signed)
    return out


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.fixture(scope="module", params=TRUNCATIONS)
def kernels(request):
    n = request.param
    return n, fock.EnergyKernel(n), BincountKernel(n)


class TestBitIdentity:
    def test_convolution_and_interaction(self, kernels):
        n, new, old = kernels
        for a in _states(n, seed=n):
            assert _bits(new.convolution(a)) == _bits(old.convolution(a))
            assert _bits(new.interaction(a)) == _bits(old.interaction(a))

    def test_value_and_gradient(self, kernels):
        n, new, old = kernels
        rng = np.random.default_rng(1000 + n)
        for a in _states(n, seed=2000 + n):
            mu = float(rng.uniform(0.01, 1.0))
            assert _bits(new.value(a, mu)) == _bits(old.value(a, mu))
            e_new, g_new = new.value_and_gradient(a, mu)
            e_old, g_old = old.value_and_gradient(a, mu)
            assert _bits(e_new) == _bits(e_old)
            assert g_new.dtype == g_old.dtype
            assert _bits(g_new) == _bits(g_old)

    def test_calls_leave_no_state_behind(self, kernels):
        # the scratch rows are reused: a call after a large state must not
        # see anything of it
        n, new, old = kernels
        rng = np.random.default_rng(n)
        big = 1e3 * (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        small = np.zeros(n + 1, dtype=complex)
        small[n] = 1e-13
        new.value_and_gradient(big, 0.5)
        assert _bits(new.convolution(small)) == _bits(old.convolution(small))

    def test_weights_match_index_tables(self, kernels):
        n, new, old = kernels
        assert np.array_equal(new.weights, new.weights.T)
        assert _bits(new.weights[old.k_ids, old.l_ids]) == _bits(old.weights)


def _patched_run(monkeypatch, capsys, argv):
    monkeypatch.setattr(fock, "EnergyKernel", BincountKernel)
    fock.energy_kernel.cache_clear()
    try:
        assert isinstance(fock.energy_kernel(16), BincountKernel)
        return _cli_stdout(capsys, argv)
    finally:
        monkeypatch.undo()
        fock.energy_kernel.cache_clear()


def _cli_stdout(capsys, argv):
    code = cli.run(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["minimize", "--mu", "0.4", "--trunc", "16", "--restarts", "6"],
        [
            "scan", "--from", "0.3", "--to", "0.6", "--step", "0.3",
            "--trunc", "16", "--restarts", "6",
        ],
    ],
)
def test_cli_stdout_matches_oracle(monkeypatch, capsys, argv):
    expected = _patched_run(monkeypatch, capsys, argv)
    assert not isinstance(fock.energy_kernel(16), BincountKernel)
    assert _cli_stdout(capsys, argv) == expected
