"""The sheared-row energy kernel against the index-table kernel it replaced.

`BincountKernel` is the earlier `fock.EnergyKernel`, kept verbatim as the
oracle, plus the squared-weight table that the descent reads from the
kernel and the stacked call signatures, which it serves row by row with
its own 1-D arithmetic: every result of the current kernel, which takes
stacks only, must equal it bit for bit on every row of a stack, one-row
stacks included, and the CLI must print the same bytes with either
kernel in place.
"""

import hashlib
import math

import numpy as np
import pytest

from fockmin import cli, fock, minimize
from kernel_rows import one_row


def _comb_table(truncation):
    """C(k+l, k) / 2^(k+l) with one `math.comb` per entry: the double loop
    that built the squared weights before the anti-diagonal recurrence."""
    n = truncation + 1
    table = np.empty((n, n))
    for k in range(n):
        for l in range(k, n):
            table[k, l] = table[l, k] = math.comb(k + l, k) / (1 << (k + l))
    return table


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
        self.weights_sq = _comb_table(truncation)

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

    def value(self, a: np.ndarray, mu):
        """G_mu at a, or the (R,) energies of a stack a at couplings mu of
        shape (R,) or one for every row, one row at a time."""
        if a.ndim == 2:
            mus = np.broadcast_to(mu, len(a))
            return np.array([self.value(row, m) for row, m in zip(a, mus)])
        p = float(np.sum(self.mode_index * (a.real**2 + a.imag**2)))
        return self.interaction(a) + mu * p

    def value_and_gradient(self, a: np.ndarray, mu):
        """Energy and Wirtinger gradient d/dRe + i d/dIm at a, or the (R,)
        energies and (R, N + 1) gradients of a stack a of shape (R, N + 1)
        at couplings mu of shape (R,), one row at a time."""
        if a.ndim == 2:
            rows = [self.value_and_gradient(row, m) for row, m in zip(a, mu)]
            return np.array([e for e, _ in rows]), np.array([g for _, g in rows])
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
        # the interaction is `value` at mu = 0, which `hamiltonian` reads
        n, new, old = kernels
        for a in _states(n, seed=n):
            assert _bits(new._convolve(a[None])[0]) == _bits(old.convolution(a))
            assert _bits(new.value(a[None], 0.0)[0]) == _bits(old.interaction(a))
            h = fock.hamiltonian(fock.FockCoefficients(a))
            assert _bits(h) == _bits(old.interaction(a) / (8.0 * math.pi))

    def test_value_and_gradient(self, kernels):
        n, new, old = kernels
        rng = np.random.default_rng(1000 + n)
        for a in _states(n, seed=2000 + n):
            mu = float(rng.uniform(0.01, 1.0))
            assert _bits(one_row(new.value, a, mu)) == _bits(old.value(a, mu))
            e_new, g_new = one_row(new.value_and_gradient, a, mu)
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
        one_row(new.value_and_gradient, big, 0.5)
        assert _bits(new._convolve(small[None])[0]) == _bits(old.convolution(small))

    def test_interleaved_states_share_nothing(self, kernels):
        n, new, old = kernels
        rng = np.random.default_rng(5000 + n)
        a, b = (
            s * (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
            for s in (1e3, 1e-3)
        )
        one_row(new.value, a, 0.3)
        one_row(new.value, b, 0.7)
        e_a, g_a = one_row(new.value_and_gradient, a, 0.3)
        kept = g_a.copy()
        one_row(new.value, b, 0.7)
        e_b, g_b = one_row(new.value_and_gradient, b, 0.7)
        one_row(new.value_and_gradient, a, 0.1)
        assert _bits(g_a) == _bits(kept)
        for state, mu, energy, grad in ((a, 0.3, e_a, g_a), (b, 0.7, e_b, g_b)):
            e_old, g_old = old.value_and_gradient(state, mu)
            assert _bits(energy) == _bits(e_old)
            assert _bits(grad) == _bits(g_old)
        scratch = [v for v in vars(new).values() if isinstance(v, np.ndarray)]
        for grad in (g_a, g_b):
            assert not any(np.shares_memory(grad, s) for s in scratch)

    def test_weights_match_index_tables(self, kernels):
        # the complex tables the products multiply with: W, real and
        # symmetric, and 4W
        n, new, old = kernels
        weights = new._weights_c.real
        assert _bits(new._weights_c.imag) == _bits(np.zeros((n + 1, n + 1)))
        assert np.array_equal(weights, weights.T)
        assert _bits(weights[old.k_ids, old.l_ids]) == _bits(old.weights)
        assert _bits(new._weights4_c) == _bits(4 * new._weights_c)
        assert _bits(new._weights4_c) == _bits((4.0 * weights).astype(complex))


def _stack(truncation, seed, rows):
    """`rows` states of `_states` as one complex stack, led by the
    signed-zero state, a tail state and the float array, with couplings
    cycling through 1/2 and four others."""
    states = _states(truncation, seed)
    signed, floats, tail = len(states) - 1, len(states) - 2, 2
    order = [signed, tail, floats]
    order += [i for i in range(len(states)) if i not in order]
    stack = np.array([states[i] for i in order[:rows]], dtype=complex)
    mus = np.resize([0.5, 0.05, 0.7, 0.5, 1.3, 0.21], rows)
    return stack, mus


class TestStackedCalls:
    """`value` and `value_and_gradient` on a stack of R rows: each row has
    the bits of the oracle's 1-D call, whatever its stack mates and their
    order."""

    @pytest.mark.parametrize("rows", [1, 2, 24])
    def test_every_row_has_the_oracle_bits(self, kernels, rows):
        n, new, old = kernels
        stack, mus = _stack(n, 6000 + n, rows)
        energy, grad = new.value_and_gradient(stack, mus)
        assert energy.shape == (rows,) and energy.dtype == float
        assert grad.shape == (rows, n + 1) and grad.dtype == complex
        for a, mu, e_new, g_new in zip(stack, mus.tolist(), energy, grad):
            e_old, g_old = old.value_and_gradient(a, mu)
            assert _bits(e_new) == _bits(e_old)
            assert _bits(g_new) == _bits(g_old)

    def test_a_permuted_stack_changes_no_row(self, kernels):
        n, new, _ = kernels
        stack, mus = _stack(n, 7000 + n, 24)
        energy, grad = new.value_and_gradient(stack, mus)
        order = np.random.default_rng(n).permutation(24)
        e_perm, g_perm = new.value_and_gradient(stack[order], mus[order])
        assert _bits(e_perm) == _bits(energy[order])
        assert _bits(g_perm) == _bits(grad[order])

    def test_value_rows_have_the_energy_bits(self, kernels):
        # the rows of `value` on a stack, one row as `hamiltonian` passes
        # it or many, are the energies of `value_and_gradient` and of the
        # oracle
        n, new, old = kernels
        stack, mus = _stack(n, 8000 + n, 24)
        for rows in (1, 2, 24):
            energy = new.value(stack[:rows], mus[:rows])
            assert energy.shape == (rows,) and energy.dtype == float
            vg_energy, _ = new.value_and_gradient(stack[:rows], mus[:rows])
            assert _bits(energy) == _bits(vg_energy)
            for a, mu, e_new in zip(stack, mus.tolist(), energy):
                assert _bits(e_new) == _bits(old.value(a, mu))

    def test_a_wider_stack_leaves_nothing_behind(self, kernels):
        # the ct rows grow to the widest stack; a narrower call after a
        # wide one of large states must not see anything of it, and no
        # result shares memory with the scratch
        n, new, old = kernels
        stack, mus = _stack(n, 10000 + n, 24)
        e_wide, g_wide = new.value_and_gradient(1e3 * stack, mus)
        energy, grad = new.value_and_gradient(stack[:3], mus[:3])
        for a, mu, e_new, g_new in zip(stack[:3], mus.tolist(), energy, grad):
            e_old, g_old = old.value_and_gradient(a, mu)
            assert _bits(e_new) == _bits(e_old) and _bits(g_new) == _bits(g_old)
        scratch = [v for v in vars(new).values() if isinstance(v, np.ndarray)]
        for result in (e_wide, g_wide, energy, grad):
            assert not any(np.shares_memory(result, v) for v in scratch)


def test_weights_sq_is_the_comb_table():
    # every entry of the anti-diagonal recurrence equals its own
    # `math.comb` quotient bit for bit, and W is its IEEE square root
    for n in (8, 9, 48, 192, 384):
        kern = fock.EnergyKernel(n)
        assert _bits(kern.weights_sq) == _bits(_comb_table(n))
        assert _bits(kern._weights_c.real) == _bits(np.sqrt(kern.weights_sq))
        assert not kern.weights_sq.flags.writeable
        with pytest.raises(ValueError):
            kern.weights_sq[0, 0] = 0.0


def _patched_run(monkeypatch, capsys, argv):
    """The CLI's exit code and stdout with the oracle as the kernel, and the
    (method, shape of a) of every call the oracle took, its own per-row
    calls of a stack included."""
    calls = []
    for name in ("value", "value_and_gradient"):
        method = getattr(BincountKernel, name)

        def recorded(self, a, mu, name=name, method=method):
            calls.append((name, a.shape))
            return method(self, a, mu)

        monkeypatch.setattr(BincountKernel, name, recorded)
    monkeypatch.setattr(fock, "EnergyKernel", BincountKernel)
    fock.energy_kernel.cache_clear()
    try:
        assert isinstance(fock.energy_kernel(16), BincountKernel)
        return _cli_stdout(capsys, argv), calls
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
    expected, calls = _patched_run(monkeypatch, capsys, argv)
    # the starts, 6 restarts at each coupling, reached the oracle as one
    # stack, and `hamiltonian` called its `value` on a one-row stack
    assert calls[0] == ("value_and_gradient", (6 * (2 if argv[0] == "scan" else 1), 17))
    assert ("value", (1, 17)) in calls and len(calls) > 10
    assert not isinstance(fock.energy_kernel(16), BincountKernel)
    assert _cli_stdout(capsys, argv) == expected


def test_descent_convolves_once_per_trial(monkeypatch):
    # every trial point, first or backtracked, convolves exactly once, as a
    # row of one stacked `value_and_gradient` call that also gives its
    # gradient; the descent never calls `value`
    counts = dict.fromkeys(("convolution", "energy_rows", "value", "stacks", "stacked_rows"), 0)
    convolve, energies, value = (
        getattr(fock.EnergyKernel, name) for name in ("_convolve", "_energies", "value")
    )

    def counted_convolve(self, a):
        counts["convolution"] += len(a)
        return convolve(self, a)

    def counted_energies(self, ct, a, mu):
        counts["energy_rows"] += len(a)
        return energies(self, ct, a, mu)

    def counted_value(self, a, mu):
        counts["value"] += 1
        return value(self, a, mu)

    value_and_gradient = fock.EnergyKernel.value_and_gradient

    def counted_gradient(self, a, mu):
        assert a.ndim == 2
        before = counts["convolution"]
        out = value_and_gradient(self, a, mu)
        assert counts["convolution"] - before == len(a)
        counts["stacks"] += 1
        counts["stacked_rows"] += len(a)
        return out

    monkeypatch.setattr(fock.EnergyKernel, "_convolve", counted_convolve)
    monkeypatch.setattr(fock.EnergyKernel, "_energies", counted_energies)
    monkeypatch.setattr(fock.EnergyKernel, "value", counted_value)
    monkeypatch.setattr(fock.EnergyKernel, "value_and_gradient", counted_gradient)
    config = minimize.OptimizerConfig(truncation=24, restarts=1)
    # at mu = 0.3 every first trial is accepted; at mu = 0.1 some backtrack
    for mu, backtracks in ((0.3, False), (0.1, True)):
        for name in counts:
            counts[name] = 0
        rng = np.random.default_rng(0)
        starts = rng.standard_normal((4, 25)) + 1j * rng.standard_normal((4, 25))
        rows = minimize._descend(list(starts), [mu] * 4, config)
        iters = [row[3] for row in rows]
        assert {row[4] for row in rows} == {"tolerance"} and min(iters) > 10
        assert counts["value"] == 0
        # one stacked call for the starts, one per round for the live rows'
        # first trials, and one per backtracking pass of a round
        first_trials = sum(iters)
        assert (counts["stacks"] > max(iters) + 1) is backtracks
        assert (counts["stacked_rows"] - len(rows) > first_trials) is backtracks
        # one convolution per start and per trial point, each with its energy
        assert counts["convolution"] == counts["stacked_rows"]
        assert counts["energy_rows"] == counts["convolution"]


# stdout of `fockmin scan --from 0.1 --to 0.7 --step 0.3` at the default seed
SCAN_GOLDEN = (
    "mu,G_min,P,H,Qabs,class,b_fit,n_zeros,G_phi0,G_phi1,G_psi1\n"
    "0.1,0.544724439227,2.3134015771,0.0124691643727,1.0057662407e-09,"
    "unclassified,,6,1,0.6,0.9\n"
    "0.4,0.9,1,0.0198943678865,0,phi1,,1,1,0.9,0.975\n"
    "0.7,1,0,0.039788735773,0,phi0,,0,1,1.2,1.05\n"
)


def test_scan_stdout_golden(capsys):
    argv = ["scan", "--from", "0.1", "--to", "0.7", "--step", "0.3"]
    assert _cli_stdout(capsys, argv) == (0, SCAN_GOLDEN)


# stdout of README's `fockmin scan --from 0.05 --to 1.0 --step 0.05`: vortex
# states below 5/32, phi_1 in the window below 1/2 and the Gaussian above it
README_SCAN_GOLDEN = (
    "mu,G_min,P,H,Qabs,class,b_fit,n_zeros,G_phi0,G_phi1,G_psi1\n"
    "0.05,0.407034336916,3.49576228863,0.00924078358071,3.94852857355e-09,"
    "unclassified,,10,1,0.55,0.8875\n"
    "0.1,0.544724439227,2.3134015771,0.0124691643727,1.0057662407e-09,"
    "unclassified,,6,1,0.6,0.9\n"
    "0.15,0.645238736481,1.72892366753,0.0153544805495,4.93398593973e-09,"
    "unclassified,,4,1,0.65,0.9125\n"
    "0.2,0.7,1,0.0198943678865,0,phi1,,1,1,0.7,0.925\n"
    "0.25,0.75,1,0.0198943678865,0,phi1,,1,1,0.75,0.9375\n"
    "0.3,0.8,1,0.0198943678865,0,phi1,,1,1,0.8,0.95\n"
    "0.35,0.85,1,0.0198943678865,0,phi1,,1,1,0.85,0.9625\n"
    "0.4,0.9,1,0.0198943678865,0,phi1,,1,1,0.9,0.975\n"
    "0.45,0.95,1,0.0198943678865,0,phi1,,1,1,0.95,0.9875\n"
    "0.5,1,0,0.039788735773,0,phi0,,0,1,1,1\n"
    "0.55,1,0,0.039788735773,0,phi0,,0,1,1.05,1.0125\n"
    "0.6,1,0,0.039788735773,0,phi0,,0,1,1.1,1.025\n"
    "0.65,1,0,0.039788735773,0,phi0,,0,1,1.15,1.0375\n"
    "0.7,1,0,0.039788735773,0,phi0,,0,1,1.2,1.05\n"
    "0.75,1,0,0.039788735773,0,phi0,,0,1,1.25,1.0625\n"
    "0.8,1,0,0.039788735773,0,phi0,,0,1,1.3,1.075\n"
    "0.85,1,0,0.039788735773,0,phi0,,0,1,1.35,1.0875\n"
    "0.9,1,0,0.039788735773,0,phi0,,0,1,1.4,1.1\n"
    "0.95,1,0,0.039788735773,0,phi0,,0,1,1.45,1.1125\n"
    "1,1,0,0.039788735773,0,phi0,,0,1,1.5,1.125\n"
)


def test_readme_scan_stdout_golden(capsys):
    argv = ["scan", "--from", "0.05", "--to", "1.0", "--step", "0.05"]
    code, out = _cli_stdout(capsys, argv)
    assert (code, out) == (0, README_SCAN_GOLDEN)
    labels = [row.split(",")[5] for row in out.splitlines()[1:]]
    assert labels == ["unclassified"] * 3 + ["phi1"] * 6 + ["phi0"] * 11


# sha256 of the UTF-8 stdout, captured while a backtracked trial still
# called `value` on its row alone: the scan backtracks 1,820 trials, and the
# descents at mu = 0.05 backtrack 36
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["scan", "--from", "0.02", "--to", "0.7", "--step", "0.01"],
            "68773969b97eee0efd3d17e662cd437aa57332565bc175a622a56a35d6a2f14c",
        ),
        (
            ["minimize", "--mu", "0.05", "--format", "json"],
            "49c352ddb57f509a6ef62ef6655c96f4e14fef63c866dcf164216e11c1eb6f56",
        ),
    ],
    ids=["scan-0.02-0.7", "minimize-0.05-json"],
)
def test_backtracking_stdout_digest(capsys, argv, digest):
    code, out = _cli_stdout(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Seeds 1-3 printed SCAN_GOLDEN byte for byte as well when captured at
# bd22cfb, before the first line-search trial took its gradient with its
# value: the seed moves the random restarts, and none of them wins here.
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_stdout_golden_other_seeds(capsys, seed):
    argv = ["--seed", str(seed), "scan", "--from", "0.1", "--to", "0.7"]
    assert _cli_stdout(capsys, [*argv, "--step", "0.3"]) == (0, SCAN_GOLDEN)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_first_trial_gradient_has_the_bits_of_value_then_gradient(monkeypatch, seed):
    # the descent with every trial, first or backtracked, split into `value`
    # plus a gradient call, one row at a time: the path a first trial took
    # before value and gradient were fused and stacked, and the one a
    # backtracked trial took before it joined the stacked calls
    config = minimize.OptimizerConfig(truncation=48, restarts=1)
    rng = np.random.default_rng(seed)
    starts = list(rng.standard_normal((3, 49)) + 1j * rng.standard_normal((3, 49)))
    # the first start again, at a coupling where it backtracks at every seed
    starts.append(starts[0])
    mus = [0.05, 0.1, 0.3, 0.02]
    stacks = []
    value_and_gradient = fock.EnergyKernel.value_and_gradient

    def counted(self, a, mu):
        stacks.append(len(a))
        return value_and_gradient(self, a, mu)

    monkeypatch.setattr(fock.EnergyKernel, "value_and_gradient", counted)
    fused = minimize._descend(starts, mus, config)
    # more stacked calls than rounds: some of them held backtracked trials
    assert len(stacks) > max(row[3] for row in fused) + 1

    def split(self, a, mu):
        # a stack of trials, one row at a time, as `value` plus a gradient
        rows = [
            (self.value(row, m)[0], value_and_gradient(self, row, m)[1][0])
            for row, m in zip(a[:, None], mu[:, None])
        ]
        return np.array([e for e, _ in rows]), np.array([g for _, g in rows])

    monkeypatch.setattr(fock.EnergyKernel, "value_and_gradient", split)
    for (a, *rest), expected in zip(minimize._descend(starts, mus, config), fused):
        assert a.tobytes() == expected[0].tobytes()
        assert rest == list(expected[1:])
