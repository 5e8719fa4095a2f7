"""The stacked descent against the serial descent it replaced.

`fockmin.minimize._descend` advances every (start, coupling) row of a
stack in lock step; `serial_descent._descend` is the earlier one-start
descent, kept verbatim but for what both share: the curvature-pair guard
and a fresh convolution for an accepted backtracked trial's gradient.
Every row must end with exactly the bits of the serial descent from its
start: the same point, value, residual, iteration count and stop reason,
whatever its stack mates.
"""

import collections
import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import serial_descent as sd
from fockmin import fock, minimize as mz
from fockmin.errors import InvalidParameter


def serial(starts, mus, config):
    return [sd._descend(start, mu, config) for start, mu in zip(starts, mus)]


def assert_same_rows(rows, expected):
    assert len(rows) == len(expected)
    for (a, *rest), (ref_a, *ref_rest) in zip(rows, expected):
        assert a.tobytes() == ref_a.tobytes()
        assert rest == ref_rest
        assert all(type(x) is type(y) for x, y in zip(rest, ref_rest))


def restart_grid(config, mus):
    """Every restart of `config` at every coupling, as stack rows."""
    starts = mz._starting_points(config, np.random.default_rng(config.seed))
    return [s for _ in mus for s in starts], [mu for mu in mus for _ in starts]


@pytest.mark.parametrize(
    "truncation, seed", [(48, 0), (48, 1), (48, 2), (96, 0), (96, 1)]
)
def test_every_row_has_the_bits_of_its_serial_descent(truncation, seed):
    config = mz.OptimizerConfig(truncation=truncation, seed=seed)
    starts, mus = restart_grid(config, (0.05, 0.1, 0.3, 0.5, 0.7))
    assert_same_rows(mz._descend(starts, mus, config), serial(starts, mus, config))


def test_a_row_does_not_depend_on_its_stack_mates():
    config = mz.OptimizerConfig(truncation=48, restarts=8, seed=4)
    starts, mus = restart_grid(config, (0.08, 0.5))
    stacked = mz._descend(starts, mus, config)
    alone = [mz._descend([s], [mu], config)[0] for s, mu in zip(starts, mus)]
    assert_same_rows(stacked, alone)
    order = np.random.default_rng(0).permutation(len(starts))
    permuted = mz._descend([starts[i] for i in order], [mus[i] for i in order], config)
    unpermuted = [None] * len(starts)
    for row, i in zip(permuted, order):
        unpermuted[i] = row
    assert_same_rows(unpermuted, alone)


class TestOneStackCoversEveryPath:
    """One stack at N = 16, with a tolerance below rounding, in which rows
    stop for each of the four reasons, skip a curvature pair while their
    stack mates store one, hold no pair after the first step, and fall back
    to the metric direction when the L-BFGS slope is not positive."""

    CONFIG = mz.OptimizerConfig(truncation=16, seed=0, grad_tol=1e-15, max_iters=400)

    def rows(self):
        starts, mus = restart_grid(self.CONFIG, (0.01, 0.03, 0.1, 0.5, 2.0))
        rng = np.random.default_rng(9)
        starts.append(rng.standard_normal(17) + 1j * rng.standard_normal(17))
        mus.append(0.6)
        return starts, mus

    def test_every_stop_reason_with_the_serial_bits(self, monkeypatch):
        events = collections.Counter()
        remember_pairs, lbfgs_direction = mz._remember_pairs, mz._lbfgs_direction

        def counted_pairs(pairs, s, y):
            kept = mz._inners(s, y) > 0
            events["mixed pair rounds"] += bool(kept.any() and not kept.all())
            return remember_pairs(pairs, s, y)

        def counted_direction(a, tangent, metric, pairs):
            direction = lbfgs_direction(a, tangent, metric, pairs)
            events["fallbacks"] += int(np.sum(~(mz._inners(tangent, direction) > 0)))
            return direction

        monkeypatch.setattr(mz, "_remember_pairs", counted_pairs)
        monkeypatch.setattr(mz, "_lbfgs_direction", counted_direction)
        metric_direction = sd._metric_direction

        def counted_metric_direction(a, tangent, metric):
            events["serial metric directions"] += 1
            return metric_direction(a, tangent, metric)

        monkeypatch.setattr(sd, "_metric_direction", counted_metric_direction)
        starts, mus = self.rows()
        rows = mz._descend(starts, mus, self.CONFIG)
        expected = serial(starts, mus, self.CONFIG)
        assert_same_rows(rows, expected)
        stops = collections.Counter(stop for *_, stop in rows)
        assert set(stops) == {"tolerance", "stall", "plateau", "budget"}
        assert ("tolerance", 0) in {(stop, iters) for *_, iters, stop in rows}
        assert events["mixed pair rounds"] > 0
        assert events["fallbacks"] > 0
        # every row that steps takes one metric direction before its first
        # pair; more mean a row without pairs after a skipped one, or a
        # fallback
        stepping = sum(iters > 0 for *_, iters, _ in rows)
        assert events["serial metric directions"] > stepping + events["fallbacks"]

    def test_backtracking_stacks_with_the_serial_bits(self, monkeypatch):
        # the serial descents tag each trial point they evaluate with its
        # number of backtracks (an accepted backtracked trial convolves again
        # there, at the point of its `value` call); the stack evaluates the
        # same points, each once, in stacked calls, and a call of backtracked
        # trials holds two rows or more, a row backtracks twice or more in
        # one iteration, and a row stalls
        starts, mus = self.rows()
        value, value_and_gradient = (
            getattr(fock.EnergyKernel, name) for name in ("value", "value_and_gradient")
        )
        points, backtracks, last = collections.Counter(), {}, [None, 0]

        def tag(point, count):
            last[:] = point, count
            points[point] += 1
            backtracks[point] = count

        def tagged_value(self, a, mu):
            [row], [m] = a, mu.tolist()  # the serial descent's one-row stacks
            tag((m, row.tobytes()), last[1] + 1)
            return value(self, a, mu)

        def tagged(self, a, mu):
            [row], [m] = a, mu.tolist()
            if (m, row.tobytes()) != last[0]:  # a start or a first trial
                tag((m, row.tobytes()), 0)
            return value_and_gradient(self, a, mu)

        monkeypatch.setattr(fock.EnergyKernel, "value", tagged_value)
        monkeypatch.setattr(fock.EnergyKernel, "value_and_gradient", tagged)
        expected = serial(starts, mus, self.CONFIG)
        calls = []

        def recorded(self, a, mu):
            assert a.ndim == 2
            calls.append([(m, row.tobytes()) for row, m in zip(a, mu.tolist())])
            return value_and_gradient(self, a, mu)

        monkeypatch.setattr(fock.EnergyKernel, "value_and_gradient", recorded)
        monkeypatch.setattr(fock.EnergyKernel, "value", None)
        rows = mz._descend(starts, mus, self.CONFIG)
        assert_same_rows(rows, expected)
        assert collections.Counter(p for call in calls for p in call) == points
        tags = [[backtracks[p] for p in call] for call in calls]
        backtracking = [t for t in tags if min(t) > 0]
        assert len(backtracking) + sum(min(t) == max(t) == 0 for t in tags) == len(tags)
        assert max(map(len, backtracking)) >= 2
        assert max(map(max, backtracking)) >= 2
        assert "stall" in {stop for *_, stop in rows}

    def test_no_budget(self):
        config = mz.OptimizerConfig(truncation=16, grad_tol=1e-15, max_iters=0)
        starts, mus = self.rows()
        rows = mz._descend(starts, mus, config)
        assert_same_rows(rows, serial(starts, mus, config))
        assert {(stop, iters) for *_, iters, stop in rows} == {
            ("tolerance", 0),
            ("budget", 0),
        }


def _is_pad(s, y, rho):
    """Whether one row's (s, y, rho) is the pad (-0.0, +0.0, +0.0), signs
    included."""
    return (
        not s.any() and np.signbit(s).all()
        and not y.any() and not np.signbit(y).any()
        and rho == 0.0 and not np.signbit(rho)
    )


def test_ragged_pairs_keep_their_ages():
    # four rows over nine rounds: row 3 skips the first pair, row 1 the
    # fourth, row 2 the fifth and row 0 the eighth (s^T y < 0); after every
    # round each row's newest pairs are its own, at their ages, the memory
    # holds at most LBFGS_MEMORY, and an age a row has no pair for holds
    # the pad
    n, rows = 4, 4
    rng = np.random.default_rng(2)
    pairs = collections.deque(maxlen=mz.LBFGS_MEMORY)
    history = [[] for _ in range(rows)]
    pads = 0
    for round_ in range(9):
        s = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        y = s * (1.0 + round_)
        skipped = {0: 3, 3: 1, 4: 2, 7: 0}.get(round_)
        if skipped is not None:
            y[skipped] = -y[skipped]
        pairs, kept = mz._remember_pairs(pairs, s, y)
        assert kept.tolist() == [r != skipped for r in range(rows)]
        for r in range(rows):
            if r != skipped:
                history[r].append((s[r], y[r]))
        mine = [h[-mz.LBFGS_MEMORY :] for h in history]
        assert len(pairs) == max(map(len, mine))
        for r in range(rows):
            for age in range(len(pairs)):
                stored_s, stored_y, rho = (x[r] for x in pairs[-1 - age])
                if age >= len(mine[r]):
                    assert _is_pad(stored_s, stored_y, rho[0])
                    pads += 1
                    continue
                s_r, y_r = mine[r][-1 - age]
                assert np.array_equal(stored_s, s_r.view(float))
                assert np.array_equal(stored_y, y_r.view(float))
                assert rho[0] == 1.0 / s_r.view(float).dot(y_r.view(float))
    assert pads > 0 and len(pairs) == mz.LBFGS_MEMORY


def test_a_row_without_pairs_holds_only_pads():
    # a row that skips every pair while its stack mates store theirs holds
    # the pad at every age, and a row that skips after storing keeps its
    # pair as its newest, with the pad below it
    rng = np.random.default_rng(3)
    pairs = collections.deque(maxlen=mz.LBFGS_MEMORY)
    for round_ in range(3):
        s = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        y = s.copy()
        y[0] = -y[0]
        if round_:
            y[1] = -y[1]
        pairs, kept = mz._remember_pairs(pairs, s, y)
        assert kept.tolist() == [False, round_ == 0, True]
    assert len(pairs) == 3
    assert all(_is_pad(s[0], y[0], rho[0, 0]) for s, y, rho in pairs)
    assert [_is_pad(s[1], y[1], rho[1, 0]) for s, y, rho in pairs] == [
        True, True, False,
    ]


def _plant_zeros(rng, x, share):
    """x with about `share` of its entries set to +0.0 or -0.0."""
    x = x.copy()
    hit = rng.random(x.shape) < share
    x[hit] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[hit]
    return x


def test_padded_two_loop_has_the_bits_of_the_rows_own_pairs():
    # a stack whose rows hold 1 .. 6 pairs, padded to the longest memory,
    # with +0.0 and -0.0 planted in the states, the tangents, s and y (the
    # catalog starts have exact zeros, and only a zero in the state keeps
    # the sign of a zero through the final projection): every row of the
    # padded two-loop equals a two-loop over that row's real pairs alone,
    # and the serial one, bit for bit
    rng = np.random.default_rng(11)
    rows, n = 6, 9
    for share in np.resize([0.25, 0.5, 0.8], 300):
        counts = rng.integers(1, mz.LBFGS_MEMORY + 1, size=rows)
        a = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        a.view(float)[:] = _plant_zeros(rng, a.view(float), share)
        a[:, 0] = 1.0  # no row is zero
        a /= mz._norms(a)
        tangent = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        tangent.view(float)[:] = _plant_zeros(rng, tangent.view(float), share)
        metric = rng.uniform(0.5, 3.0, (rows, n))
        own = []
        for count in counts:
            mine = []
            while len(mine) < count:
                s = _plant_zeros(rng, rng.standard_normal(2 * n), share)
                y = s * rng.uniform(0.5, 2.0) + 0.1 * rng.standard_normal(2 * n)
                y = _plant_zeros(rng, y, share)
                if s.dot(y) > 0:
                    mine.append((s, y, 1.0 / s.dot(y)))
            own.append(mine)
        padded = collections.deque(maxlen=mz.LBFGS_MEMORY)
        for age in range(counts.max() - 1, -1, -1):
            entry = [mine[-1 - age] if age < len(mine) else mz._PAD for mine in own]
            padded.append(
                (
                    np.array([np.broadcast_to(e[0], 2 * n) for e in entry]),
                    np.array([np.broadcast_to(e[1], 2 * n) for e in entry]),
                    np.array([[e[2]] for e in entry]),
                )
            )
        stacked = mz._lbfgs_direction(a, tangent, metric, padded)
        for r, mine in enumerate(own):
            alone = [(s[None], y[None], np.array([[rho]])) for s, y, rho in mine]
            one = mz._lbfgs_direction(a[r : r + 1], tangent[r : r + 1], metric[r : r + 1], alone)
            assert stacked[r].tobytes() == one[0].tobytes()
            serial = sd._lbfgs_direction(a[r], tangent[r], metric[r], collections.deque(mine))
            assert stacked[r].tobytes() == serial.tobytes()


def test_scan_rows_equal_minimize_G():
    # an unsorted grid comes back in mu order, each coupling with every
    # field of the result `minimize_G` gives at it alone
    config = mz.OptimizerConfig(truncation=48, seed=1)
    grid = (0.7, 0.1, 0.4, 0.15)
    results = mz.scan_mu(grid, config)
    assert [res.mu for res in results] == sorted(grid)
    for res in results:
        alone = mz.minimize_G(res.mu, config)
        assert res.u.coeffs.tobytes() == alone.u.coeffs.tobytes()
        for field in dataclasses.fields(mz.MinimizationResult):
            if field.name != "u":
                assert getattr(res, field.name) == getattr(alone, field.name), field.name


def test_empty_grid_descends_nothing():
    assert mz.scan_mu([], mz.OptimizerConfig(truncation=16)) == []
    assert mz._descend([], [], mz.OptimizerConfig(truncation=16)) == []


def test_minimize_G_descends_its_restarts_as_one_stack(monkeypatch):
    calls = []
    descend = mz._descend

    def recorded(starts, mus, config):
        calls.append(list(mus))
        return descend(starts, mus, config)

    monkeypatch.setattr(mz, "_descend", recorded)
    config = mz.OptimizerConfig(truncation=24, restarts=5, seed=0)
    mz.minimize_G(0.3, config)
    mz.scan_mu([0.5, 0.2], config)
    assert calls == [[0.3] * 5, [0.2] * 5 + [0.5] * 5]


def test_stack_rows_of_the_energy_kernel_are_one_dimensional(monkeypatch):
    # the convolution loop runs over the rows of the stacks the descent
    # passes; the descent calls the kernel only through
    # `value_and_gradient` on stacks: each round's live rows for their
    # first trials, then the rows still searching for their backtracked
    # trials, and never `value`
    convolved, stacks, valued = [], [], []
    convolve = fock.EnergyKernel._convolve
    value = fock.EnergyKernel.value
    value_and_gradient = fock.EnergyKernel.value_and_gradient

    def recorded_convolution(self, a):
        convolved.append(a.shape)
        return convolve(self, a)

    def recorded_value(self, a, mu):
        valued.append(a.shape)
        return value(self, a, mu)

    def recorded(self, a, mu):
        stacks.append(a.shape)
        return value_and_gradient(self, a, mu)

    monkeypatch.setattr(fock.EnergyKernel, "_convolve", recorded_convolution)
    monkeypatch.setattr(fock.EnergyKernel, "value", recorded_value)
    monkeypatch.setattr(fock.EnergyKernel, "value_and_gradient", recorded)
    config = mz.OptimizerConfig(truncation=24, restarts=4, seed=0)
    starts, mus = restart_grid(config, (0.1, 0.6))
    mz._descend(starts, mus, config)
    assert convolved == stacks
    assert valued == []
    assert stacks[0] == (8, 25)
    assert all(len(shape) == 2 and shape[1] == 25 for shape in stacks)
    # a backtracking stack is narrower than the round's next first trials
    widths = [shape[0] for shape in stacks]
    assert any(w < after for w, after in zip(widths, widths[1:]))
    assert max(widths) == 8 and widths[-1] < 8


def test_no_pair_whose_inverse_overflows(monkeypatch):
    # random N = 16 starts at tolerance 1e-15 reach curvature pairs whose
    # s^T y is positive but subnormal, so that 1 / s^T y overflows; the
    # descent skips them without a numpy warning, and every row keeps the
    # bits of its serial descent, which skips them too
    guarded = collections.Counter()
    remember_pairs = mz._remember_pairs

    def counted_pairs(pairs, s, y):
        sy = mz._inners(s, y)[:, 0]
        with np.errstate(divide="ignore", over="ignore"):
            guarded["rows"] += int(np.sum((sy > 0) & ~np.isfinite(1.0 / sy)))
        return remember_pairs(pairs, s, y)

    monkeypatch.setattr(mz, "_remember_pairs", counted_pairs)
    config = mz.OptimizerConfig(truncation=16, grad_tol=1e-15)
    rng = np.random.default_rng(0)
    randoms = list(rng.standard_normal((40, 17)) + 1j * rng.standard_normal((40, 17)))
    mus = (0.3, 0.5, 0.6, 1.0, 1.5)
    starts = [a for _ in mus for a in randoms]
    couplings = [mu for mu in mus for _ in randoms]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = mz._descend(starts, couplings, config)
        expected = serial(starts, couplings, config)
    assert guarded["rows"] > 0
    assert_same_rows(rows, expected)


def test_stated_bytes_per_entry_bound_the_descent():
    # the memory a stack adds per row entry, read by tracemalloc between a
    # 16-row and a 128-row descent, stays within the figure the cap is
    # derived from
    def peak(rows, n):
        config = mz.OptimizerConfig(truncation=n, restarts=rows, max_iters=30)
        fock.energy_kernel.cache_clear()
        fock.energy_kernel(n)
        rng = np.random.default_rng(1)
        starts = rng.standard_normal((rows, n + 1)) + 1j * rng.standard_normal(
            (rows, n + 1)
        )
        tracemalloc.start()
        try:
            mz._descend(list(starts), [0.3] * rows, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for n in (48, 96):
        per_entry = (peak(128, n) - peak(16, n)) / (112 * (n + 1))
        assert 400 < per_entry <= mz.DESCENT_BYTES_PER_ENTRY, (n, per_entry)
    fock.energy_kernel.cache_clear()


@pytest.mark.parametrize("n", [96, 192])
def test_stated_bytes_per_entry_bound_the_kernel(n):
    # the kernel's memory, read by tracemalloc after its build and at the
    # build's peak, stays within the figure its truncation cap is derived
    # from, above the 88 bytes per (N + 1)^2 entry of its tables; a stacked
    # call adds its O(R N) rows and numpy's buffers, well under a MiB
    stack = np.random.default_rng(n).standard_normal((8, n + 1)).astype(complex)
    tracemalloc.start()
    try:
        kernel = fock.EnergyKernel(n)
        steady, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        kernel.value_and_gradient(stack, np.full(8, 0.3))
        call_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = (n + 1) ** 2
    assert 88 * entries < steady <= peak <= fock.KERNEL_BYTES_PER_ENTRY * entries
    assert call_peak - steady < 2**20


def test_one_kernel_is_alive_per_process():
    # kernels at 16 truncations in turn: the cache keeps the last one only,
    # so the memory they leave is one N = 215 kernel, not their sum
    fock.energy_kernel.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        single = fock.EnergyKernel(215)
        one = tracemalloc.get_traced_memory()[0] - start
        del single
        start = tracemalloc.get_traced_memory()[0]
        for n in range(200, 216):
            fock.energy_kernel(n)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        fock.energy_kernel.cache_clear()
    assert abs(retained - one) <= 0.1 * one, (retained, one)


@pytest.mark.parametrize("n", [fock.MAX_KERNEL_TRUNCATION + 1, 20000])
def test_kernel_above_the_cap_raises_before_allocating(n):
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter) as info:
            fock.EnergyKernel(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert time.perf_counter() - start < 1.0
    size = (n + 1) ** 2 * fock.KERNEL_BYTES_PER_ENTRY / 2**30
    assert str(info.value) == (
        f"truncation {n} would need {size:.1f} GiB of energy kernel tables "
        f"({fock.KERNEL_BYTES_PER_ENTRY} bytes per (N + 1)^2 entry); the "
        f"largest truncation within 4 GiB is {fock.MAX_KERNEL_TRUNCATION}"
    )


def test_kernel_cap_is_the_largest_truncation_within_4_gib(monkeypatch):
    top = fock.MAX_KERNEL_TRUNCATION
    per_entry = fock.KERNEL_BYTES_PER_ENTRY
    assert (top + 1) ** 2 * per_entry <= 2**32 < (top + 2) ** 2 * per_entry
    # the doubling ladder from N = 768 reaches 6144 under it
    assert 768 * 8 <= top < 20000

    # at the cap the build starts: its first table is allocated
    def no_table(*args, **kwargs):
        raise AssertionError("stop before the table")

    monkeypatch.setattr(np, "empty", no_table)
    with pytest.raises(AssertionError, match="stop before the table"):
        fock.EnergyKernel(top)
