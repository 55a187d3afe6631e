"""Property tests for the single kernels: batched norms, ETD operators and plans, trajectories, KSF1 and config I/O."""

import io
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

import kslab.data
import kslab.fields
from kslab import (
    Grid2D,
    LabSetup,
    ScalarField,
    TimeGrid,
    Trajectory,
    bilinear_B,
    counterexample_sweep,
    damped_heat_trajectory,
    etd_convolve,
    gradient,
    heat,
    hs_dot_norm,
    hs_norm,
    linear_L,
    lp_norm,
    maximal_reg_T,
    verify_multiplier_lemma,
)
from kslab.cli import ExperimentConfig
from kslab.data import _cosine_modes, cosine_mode_field, random_band_limited_field
from kslab.duhamel import EtdPlan, _div_u_grad_v, _etd_march, _profile_march, etd_weights
from kslab.fields import _read_snapshots, _write_raw_snapshot, fft2, ifft2, irfft2, rfft2
from kslab.inequality_lab import _PROFILES, _lab_fields, _time_lp
from kslab.fields import _grad_values
from kslab.norms import (_batch_grad_linf, _batch_hs, _batch_lp, _grad_sup, _hs_weight, _parseval_sum,
                         _rank_one_norms, _rate_parts, grad_linf, trapezoid)
from kslab.semigroup import _free_flow
from kslab.trajectories import TrajectoryOverflowError, _first_nonfinite_node, load_trajectory, save_trajectory
from conftest import _route_transforms, config_text, parse_config_text, trajectory_difference

seeds = st.integers(0, 2**32 - 1)
lengths = st.sampled_from([4.0, 8.0, 32.0])
exponents = st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, np.inf])
sobolev_orders = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
nodes = st.integers(2, 5)
# numpy may sum a batch over (K, n, n) in another order than a single (n, n) field
SUM_ORDER = 1e-14


def _stack(seed: int, k: int, n: int = 16) -> np.ndarray:
    """Smooth-ish random node values: white noise plus a low mode, shape (k, n, n)."""
    rng = np.random.default_rng(seed)
    x = np.arange(n) * 2.0 * np.pi / n
    low = np.cos(x)[:, None] * np.sin(2.0 * x)[None, :]
    return rng.standard_normal((k, n, n)) + rng.uniform(-3.0, 3.0, (k, 1, 1)) * low


def _trajectory(grid, seed: int, k: int, with_initial: bool) -> Trajectory:
    tgrid = TimeGrid.geometric(1e-2, 1.0, k)
    vals = _stack(seed, k + 1, grid.n)
    initial = ScalarField(grid, vals[0]) if with_initial else None
    return Trajectory.from_values(grid, tgrid, vals[1:], initial=initial)


class TestBatchedKernelsMatchSingleFieldForms:
    @given(seed=seeds, k=nodes, p=exponents, l=lengths)
    def test_lp(self, seed, k, p, l):
        grid = Grid2D(16, l)
        stack = _stack(seed, k)
        batch = _batch_lp(stack, p, grid.cell_area)
        assert batch.shape == (k,)
        for j in range(k):
            assert batch[j] == pytest.approx(lp_norm(ScalarField(grid, stack[j]), p), rel=SUM_ORDER)

    @given(p=st.sampled_from([0.0, 0.5, 0.999, -1.0]))
    def test_lp_rejects_exponents_below_one(self, p):
        with pytest.raises(ValueError, match="Lebesgue exponent"):
            _batch_lp(np.ones((2, 16, 16)), p, 1.0)

    @given(seed=seeds, k=nodes, l=lengths)
    def test_grad_sup(self, seed, k, l):
        grid = Grid2D(16, l)
        stack = _stack(seed, k)
        batch = _batch_grad_linf(grid, rfft2(stack))
        for j in range(k):
            assert batch[j] == grad_linf(ScalarField(grid, stack[j]))

    @given(seed=seeds, k=nodes, s=sobolev_orders, l=lengths)
    def test_sobolev(self, seed, k, s, l):
        grid = Grid2D(16, l)
        stack = _stack(seed, k)
        coeffs = rfft2(stack)
        inhom = _batch_hs(grid, coeffs, s)
        hom = _batch_hs(grid, coeffs, s, homogeneous=True)
        for j in range(k):
            f = ScalarField(grid, stack[j])
            assert inhom[j] == pytest.approx(hs_norm(f, s), rel=SUM_ORDER)
            assert hom[j] == pytest.approx(hs_dot_norm(f, s), rel=SUM_ORDER)

    @given(seed=seeds, k=nodes, s=sobolev_orders, l=lengths)
    def test_half_layout_matches_full_layout(self, seed, k, s, l):
        """White noise keeps every mode, the Nyquist row and column included."""
        grid = Grid2D(16, l)
        stack = _stack(seed, k)
        full, half = fft2(stack), rfft2(stack)
        kx, ky, k2, _ = _full_layout(grid)
        g1, g2 = ifft2(1j * kx * full).real, ifft2(1j * ky * full).real
        grad_full = np.max(np.sqrt(g1**2 + g2**2), axis=(1, 2))
        factor = grid.l**2 / grid.n**4
        weight_full = (1.0 + k2) ** s
        hs_full = np.sqrt(factor * np.sum(weight_full * np.abs(full) ** 2, axis=(1, 2)))
        np.testing.assert_allclose(_batch_grad_linf(grid, half), grad_full, rtol=1e-13, atol=0)
        np.testing.assert_allclose(_batch_hs(grid, half, s), hs_full, rtol=1e-13, atol=0)
        weight = np.cos(kx) * np.cos(ky) + k2  # even, not radial
        np.testing.assert_allclose(
            _parseval_sum(grid, np.abs(half) ** 2, weight[:, : grid.n // 2 + 1]),
            factor * np.sum(weight * np.abs(full) ** 2, axis=(1, 2)), rtol=1e-13, atol=0)
        np.testing.assert_array_equal(_hs_weight(grid.k2_half, s), weight_full[:, : grid.n // 2 + 1])

    @given(n=st.sampled_from([16, 64]), l=lengths)
    def test_grid_sobolev_planes_are_the_weight_rule(self, n, l):
        """``_sobolev_nodes`` reads these planes: bit for bit the multiplicity times the H^1 weights."""
        grid = Grid2D(n, l)
        weight = _hs_weight(grid.k2_half, 1.0)
        np.testing.assert_array_equal(grid.parseval_h1_half, grid.parseval_mult_half * weight)
        np.testing.assert_array_equal(grid.parseval_grad_h1_half, grid.parseval_mult_half * (grid.k2_half * weight))

    @given(seed=seeds, l=lengths)
    def test_h0_is_l2(self, seed, l):
        f = ScalarField(Grid2D(16, l), _stack(seed, 1)[0])
        assert hs_norm(f, 0.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)
        assert hs_dot_norm(f, 0.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)


class TestEtdOperators:
    @given(seed=seeds, a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0),
           damping=st.sampled_from([0.0, 1.0, 2.5]), with_initial=st.booleans(),
           with_prefactor=st.booleans())
    def test_etd_convolve_is_linear(self, seed, a, b, damping, with_initial, with_prefactor):
        grid = Grid2D(16, 8.0)
        g1 = _trajectory(grid, seed, 4, with_initial)
        g2 = _trajectory(grid, seed + 1, 4, with_initial)
        lam = grid.k2_half + damping
        pre = np.sqrt(grid.k2_half) if with_prefactor else None
        lhs = etd_convolve(trajectory_difference(a * g1, -b * g2), lam, pre).stacked
        rhs = a * etd_convolve(g1, lam, pre).stacked + b * etd_convolve(g2, lam, pre).stacked
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    @given(seed=seeds, damped=st.booleans(), with_initial=st.booleans())
    def test_linear_L_and_maximal_reg_T_are_symbol_choices(self, seed, damped, with_initial):
        grid = Grid2D(16, 8.0)
        g = _trajectory(grid, seed, 4, with_initial)
        lam = grid.k2_half + (1.0 if damped else 0.0)
        assert np.array_equal(linear_L(g, damped=damped).stacked, etd_convolve(g, lam).stacked)
        assert np.array_equal(maximal_reg_T(g).stacked, etd_convolve(g, grid.k2_half, -grid.k2_half).stacked)

    @given(seed=seeds, with_initial=st.booleans())
    def test_bilinear_B_has_zero_mean(self, seed, with_initial):
        grid = Grid2D(16, 8.0)
        u = _trajectory(grid, seed, 4, with_initial)
        v = _trajectory(grid, seed + 7, 4, with_initial)
        out = bilinear_B(u, v).stacked
        means = out.sum(axis=(1, 2)) * grid.cell_area
        assert np.max(np.abs(means)) <= 1e-12 * max(1.0, float(np.max(np.abs(out))))

    @given(seed=seeds, s=st.floats(0.0, 2.0), t=st.floats(0.0, 2.0), damping=st.sampled_from([0.0, 1.0]))
    def test_free_flow_semigroup_law(self, seed, s, t, damping):
        grid = Grid2D(16, 8.0)
        coeffs = rfft2(_stack(seed, 1)[0])
        lam = grid.k2_half + damping
        two_steps = _free_flow(_free_flow(coeffs, [s], lam)[0], [t], lam)[0]
        one_step = _free_flow(coeffs, [s + t], lam)[0]
        assert np.max(np.abs(two_steps - one_step)) <= 1e-12 * np.max(np.abs(coeffs))

    @given(k=nodes, data=st.data())
    def test_first_nonfinite_node(self, k, data):
        values = np.zeros((k, 16, 16))
        assert _first_nonfinite_node(values) is None
        bad = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1)))
        for j in bad:
            values[j, data.draw(st.integers(0, 15)), data.draw(st.integers(0, 15))] = \
                data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        assert _first_nonfinite_node(values) == bad[0]


def _mirror(sym: np.ndarray) -> np.ndarray:
    """sym[-k] for every mode k."""
    return np.roll(sym[::-1, ::-1], 1, axis=(0, 1))


def _half(sym: np.ndarray) -> np.ndarray:
    return sym[:, : sym.shape[1] // 2 + 1]


def _unfold(half: np.ndarray) -> np.ndarray:
    """The full (n, n) symbol, even in xi, whose half-layout columns are ``half``: sym[k1, -k2] = sym[-k1, k2]."""
    n = half.shape[0]
    return np.concatenate((half, np.roll(half[::-1, n // 2 - 1 : 0 : -1], 1, axis=0)), axis=1)


def _rates(grid, kind: str, seed: int) -> np.ndarray:
    """Half-layout decay rates: |xi|^2, 1 + |xi|^2, or a few values repeated at random (made even)."""
    if kind == "heat":
        return grid.k2_half
    if kind == "damped":
        return 1.0 + grid.k2_half
    r = np.random.default_rng(seed).choice([0.0, 0.5, 3.0, 40.0], size=(grid.n, grid.n))
    return _half(np.maximum(r, _mirror(r)))


def _dense_march(ghat, g0hat, times, lam):
    """Reference march: the weights evaluated on the whole rate array, in either layout, every interval."""
    knot_t, knot_g = times, ghat
    if g0hat is not None:
        knot_t = np.concatenate(([0.0], times))
        knot_g = np.concatenate((g0hat[None], ghat), axis=0)
    acc = np.zeros(lam.shape, dtype=np.complex128)
    out = [acc] if g0hat is None else []
    for i in range(knot_t.size - 1):
        dt = knot_t[i + 1] - knot_t[i]
        decay, w_left, w_right = etd_weights(lam * dt)
        acc = acc * decay + dt * (w_left * knot_g[i] + w_right * knot_g[i + 1])
        out.append(acc)
    return np.array(out)


class TestEtdPlans:
    @given(seed=seeds, with_initial=st.booleans(),
           rate=st.sampled_from(["heat", "damped", "repeated"]), with_prefactor=st.booleans())
    def test_plan_reuse_is_bit_identical(self, seed, with_initial, rate, with_prefactor):
        grid = Grid2D(16, 8.0)
        lam = _rates(grid, rate, seed)
        pre = np.sqrt(grid.k2_half) if with_prefactor else None
        plan = EtdPlan(lam, TimeGrid.geometric(1e-2, 1.0, 4))
        assert plan.decay.shape == (4, np.unique(lam).size)
        assert np.array_equal(plan.values[plan.inverse], lam)
        for g in (_trajectory(grid, seed, 4, with_initial), _trajectory(grid, seed + 1, 4, with_initial)):
            ghat = rfft2(g.stacked)
            g0hat = None if g.initial is None else rfft2(g.initial.values)
            if pre is not None:
                ghat = pre * ghat
                g0hat = None if g0hat is None else pre * g0hat
            planned = _etd_march(ghat, g0hat, plan)
            own = _etd_march(ghat, g0hat, EtdPlan(lam, g.tgrid))
            assert np.array_equal(planned, own)
            dense = irfft2(_dense_march(ghat, g0hat, g.tgrid.times, lam), grid.n)
            assert np.array_equal(irfft2(planned, grid.n), dense)

    @given(seed=seeds, with_initial=st.booleans(),
           rate=st.sampled_from(["heat", "damped", "repeated"]), with_prefactor=st.booleans())
    def test_half_layout_matches_full_layout(self, seed, with_initial, rate, with_prefactor):
        grid = Grid2D(16, 8.0)
        lam = _rates(grid, rate, seed)
        k2_full = _full_layout(grid)[2]
        g = _trajectory(grid, seed, 4, with_initial)
        ghat = fft2(g.stacked)
        g0hat = None if g.initial is None else fft2(g.initial.values)
        if with_prefactor:
            ghat = np.sqrt(k2_full) * ghat
            g0hat = None if g0hat is None else np.sqrt(k2_full) * g0hat
        full = ifft2(_dense_march(ghat, g0hat, g.tgrid.times, _unfold(lam))).real
        half = etd_convolve(g, lam, np.sqrt(grid.k2_half) if with_prefactor else None).stacked
        assert np.max(np.abs(half - full)) <= 1e-13 * max(1.0, float(np.max(np.abs(full))))

    @given(seed=seeds, which=st.sampled_from(["lam", "prefactor"]))
    def test_non_even_symbols_rejected(self, seed, which):
        grid = Grid2D(16, 8.0)
        g = _trajectory(grid, seed, 4, True)
        rng = np.random.default_rng(seed)
        sym = grid.k2_half.copy()
        # columns 0 and n/2 mirror onto themselves; rows 1..7 and 9..15 mirror onto other rows
        i, j = rng.integers(1, 8) + 8 * rng.integers(2), 8 * rng.integers(2)
        sym[i, j] += 1.0
        lam, pre = (sym, None) if which == "lam" else (grid.k2_half, sym)
        with pytest.raises(ValueError, match="even in xi"):
            etd_convolve(g, lam, pre)
        if which == "lam":
            with pytest.raises(ValueError, match="even in xi"):
                EtdPlan(sym, g.tgrid)
        full = _full_layout(grid)[2]  # an even full-layout symbol is the wrong layout
        lam, pre = (full, None) if which == "lam" else (grid.k2_half, np.sqrt(full))
        with pytest.raises(ValueError, match=r"half layout \(n, n//2\+1\)"):
            etd_convolve(g, lam, pre)
        if which == "lam":
            with pytest.raises(ValueError, match=r"half layout \(n, n//2\+1\)"):
                EtdPlan(full, g.tgrid)

    @given(seed=seeds, bad=st.sampled_from([-1e-300, -1.0, np.nan, np.inf, -np.inf]))
    def test_bad_rates_rejected_at_build(self, seed, bad):
        grid = Grid2D(16, 8.0)
        lam = grid.k2_half.copy()
        rng = np.random.default_rng(seed)
        lam[rng.integers(16), rng.integers(9)] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            EtdPlan(lam, TimeGrid.geometric(1e-2, 1.0, 4))

    @pytest.mark.parametrize("lam", [1.0, np.ones(16), np.ones((16, 9, 1))], ids=["0-d", "1-d", "3-d"])
    def test_rates_of_the_wrong_rank_name_the_half_layout(self, lam):
        # EtdPlan has no grid to broadcast a scalar against, unlike etd_convolve
        with pytest.raises(ValueError, match=r"half layout \(n, n//2\+1\)"):
            EtdPlan(lam, TimeGrid.geometric(1e-2, 1.0, 4))


class TestHalfLayoutRates:
    @given(seed=seeds, rate=st.sampled_from(["heat", "damped", "repeated"]),
           n=st.sampled_from([16, 32, 64]), l=lengths)
    def test_half_rates_give_the_full_symbols_tables(self, seed, rate, n, l):
        """The half layout keeps every distinct rate of the full symbol, so the tables are the full symbol's."""
        grid = Grid2D(n, l)
        lam = _rates(grid, rate, seed)
        tgrid = TimeGrid.geometric(1e-2, 1.0, 4)
        plan = EtdPlan(lam, tgrid)
        values = np.unique(_unfold(lam))
        assert np.array_equal(plan.values, values)
        assert np.array_equal(plan.values[plan.inverse], lam)
        decay, w_left, w_right = etd_weights(plan.dts[:, None] * values)
        tables = {"decay": decay, "w_left": w_left, "w_right": w_right}
        for name, table in tables.items():
            assert np.array_equal(getattr(plan, name), table), name

    @given(n=st.sampled_from([16, 32, 64, 128]), l=lengths, shift=st.sampled_from([0.0, 1.0]))
    def test_rate_layout_of_the_grid(self, n, l, shift):
        grid = Grid2D(n, l)
        values, inverse = kslab.fields._rate_layout(grid.k2_half + shift)
        assert inverse.shape == grid.k2_half.shape
        assert np.array_equal(values[inverse], grid.k2_half + shift)
        assert np.all(np.diff(values) > 0)
        k2_full = _full_layout(grid)[2]
        assert np.array_equal(_half(k2_full), grid.k2_half)
        assert np.array_equal(_unfold(grid.k2_half), k2_full)


_finite_scales = st.integers(-300, 150).map(lambda e: 10.0**e)


class TestLeanNormKernels:
    """The p = 1 branch and the grad-sup kernel give the bits of the formulas they replace."""

    @given(seed=seeds, k=nodes, scale=_finite_scales, l=lengths)
    def test_l1_branch_is_bit_identical(self, seed, k, scale, l):
        stack = scale * _stack(seed, k)
        cell = Grid2D(16, l).cell_area
        old = (np.sum(np.abs(stack) ** 1.0, axis=(-2, -1)) * cell) ** (1.0 / 1.0)
        assert np.array_equal(_batch_lp(stack, 1.0, cell), old)
        assert lp_norm(ScalarField(Grid2D(16, l), stack[0]), 1.0) == old[0]

    @given(seed=seeds, k=nodes, scale=_finite_scales, l=lengths)
    def test_grad_sup_is_bit_identical(self, seed, k, scale, l):
        grid = Grid2D(16, l)
        coeffs = rfft2(scale * _stack(seed, k))
        g1, g2 = _grad_values(grid, coeffs)
        old = np.max(np.sqrt(g1**2 + g2**2), axis=(-2, -1))
        assert np.array_equal(_batch_grad_linf(grid, coeffs), old)
        kept = g1.copy(), g2.copy()
        assert np.array_equal(_grad_sup(g1, g2), old)
        # without a redo rule the kernel leaves its inputs alone (the solver keeps them)
        assert np.array_equal(g1, kept[0]) and np.array_equal(g2, kept[1])

    @given(seed=seeds, k=nodes, exponent=st.integers(156, 300), node=st.integers(0, 4))
    def test_overflowing_squares_are_redone_with_hypot(self, seed, k, exponent, node):
        grid = Grid2D(16, 8.0)
        stack = _stack(seed, k)
        node = node % k
        stack[node] *= 10.0**exponent
        coeffs = rfft2(stack)
        g1, g2 = _grad_values(grid, coeffs)
        with np.errstate(over="ignore"):
            old = np.max(np.sqrt(g1**2 + g2**2), axis=(-2, -1))
        assert np.isinf(old[node])
        got = _batch_grad_linf(grid, coeffs)
        assert got[node] == np.max(np.hypot(g1[node], g2[node]))
        others = np.arange(k) != node
        assert np.array_equal(got[others], old[others])
        assert np.array_equal(_grad_sup(g1, g2), got)
        assert grad_linf(ScalarField(grid, stack[node])) == got[node]


class TestRankOneMarch:
    """The lab's per-rate profile march with per-rate Parseval sums equals the full-plane march."""

    @given(seed=st.integers(0, 2**31 - 1), rate=st.sampled_from(["heat", "damped", "repeated"]),
           profile=st.sampled_from(sorted(_PROFILES)), s=st.sampled_from([0.0, 1.0]),
           homogeneous=st.booleans(), with_prefactor=st.booleans())
    def test_matches_full_plane_march(self, seed, rate, profile, s, homogeneous, with_prefactor):
        grid = Grid2D(16, 8.0)
        plan = EtdPlan(_rates(grid, rate, seed), TimeGrid.geometric(1e-2, 1.0, 5))
        prof = _PROFILES[profile]
        fhat = rfft2(random_band_limited_field(grid, seed=seed, max_mode=4).values)
        pre = np.sqrt(grid.k2_half) if with_prefactor else np.ones_like(grid.k2_half)
        weight = _hs_weight(grid.k2_half, s, homogeneous)

        # the repeated rates are not radial: the weight enters the binned coefficients, not a per-rate scale
        parts = _rate_parts(grid, plan.inverse, np.sqrt(weight) * pre * fhat, plan.values.size)
        rank_one = _rank_one_norms(_profile_march(prof, plan), parts)
        times = plan.tgrid.times
        full = _etd_march(pre * (prof(times)[:, None, None] * fhat), pre * (prof(0.0) * fhat), plan)
        np.testing.assert_allclose(rank_one, _batch_hs(grid, full, s, homogeneous), rtol=1e-13, atol=0.0)


def _full_layout(grid):
    """Full-layout wavenumbers (kx, ky), |xi|^2 and the 2/3-rule mask, built from ``grid.k1``."""
    kx, ky = grid.k1[:, None], grid.k1[None, :]
    keep = np.abs(np.rint(grid.k1 * grid.l / (2.0 * np.pi))) <= grid.n // 3
    return kx, ky, kx**2 + ky**2, keep[:, None] & keep[None, :]


def _full_apply(sym, values):
    """The full-layout multiplier formula: ifft2(sym * fft2(values)).real."""
    return ifft2(sym * fft2(values)).real


def _assert_sup_close(got, full, rel=1e-13):
    assert np.max(np.abs(got - full)) <= rel * np.max(np.abs(full))


class TestSingleLayout:
    """The half-layout single-field API equals the full-layout formulas, and computes no c2c transform."""

    @given(seed=seeds, l=lengths, t=st.floats(0.0, 0.5))
    def test_multipliers_match_full_layout(self, seed, l, t):
        grid = Grid2D(16, l)
        values = _stack(seed, 1)[0]  # white noise: the Nyquist row and column are present
        kx, ky, k2, _ = _full_layout(grid)
        f = ScalarField(grid, values)
        cases = [(heat(t, f).values, np.exp(-t * k2))]
        if t > 0:
            cases += zip((g.values for g in gradient(heat(t, f))), (1j * kx * np.exp(-t * k2), 1j * ky * np.exp(-t * k2)))
            damped = damped_heat_trajectory(f, TimeGrid.geometric(t, 2.0 * t, 2))
            cases += zip(damped.stacked, (np.exp(-s) * np.exp(-s * k2) for s in damped.tgrid.times))
        for got, sym_full in cases:
            _assert_sup_close(got, _full_apply(sym_full, values))

    @given(seed=seeds, l=lengths)
    def test_product_and_divergence_match_full_layout(self, seed, l):
        grid = Grid2D(16, l)
        a, b = _stack(seed, 2)
        kx, ky, _, mask = _full_layout(grid)
        ud = _full_apply(mask, a)
        full = _full_apply(1j * kx * mask, ud * _full_apply(1j * kx * mask, b)) + _full_apply(
            1j * ky * mask, ud * _full_apply(1j * ky * mask, b))
        _assert_sup_close(irfft2(_div_u_grad_v(grid, rfft2(a), rfft2(b)), grid.n), full)

    def test_multiplier_lemma_matches_full_stacks(self):
        setup = LabSetup(n=32, num_times=12)
        grid, times = setup.make_grid(), setup.make_timegrid().times
        _, _, k2, _ = _full_layout(grid)
        t = times[:, None, None]
        syms = {"identity": np.ones((times.size,) + k2.shape), "heat": np.exp(-t * k2),
                "damped": np.exp(-t) * np.exp(-t * k2)}

        def hs(coeffs, s):
            return np.sqrt(grid.l**2 / grid.n**4 * np.sum((1.0 + k2) ** s * np.abs(coeffs) ** 2, axis=(-2, -1)))

        expected = []
        for fname, f in _lab_fields(grid, 0):
            vhat = fft2(f.values)
            for mname, sym in syms.items():
                key = (("multiplier", mname), ("field", fname))
                for s in (0.0, 1.0):
                    hs_f, nodes = hs(vhat, s), hs(sym * vhat, s)
                    sup_xi = np.max(np.abs(sym), axis=(1, 2))
                    for r, tag in ((np.inf, "inf"), (2.0, "2")):
                        expected.append((f"formA[r={tag},s={int(s)}]", key,
                                         _time_lp(times, nodes, r), _time_lp(times, sup_xi, r) * hs_f))
                    for delta in (0.0, 1.0):
                        msym = sym * np.sqrt(k2) ** delta
                        rhs = float(np.max(np.sqrt(trapezoid(times, np.abs(msym) ** 2)))) * hs_f
                        expected.append((f"formB[rho=2,delta={int(delta)},s={int(s)}]", key,
                                         _time_lp(times, hs(msym * vhat, s), 2.0), rhs))
        expected = [e for e in expected if e[3] != 0]
        got = verify_multiplier_lemma(setup).samples
        assert [(g.family, g.params) for g in got] == [e[:2] for e in expected]
        np.testing.assert_allclose([(g.lhs, g.rhs) for g in got], [e[2:] for e in expected], rtol=1e-13, atol=0)

    def test_no_full_layout_transform(self, monkeypatch):
        def refuse_c2c(name, a):
            """Every pocketfft call of the package goes through here: a c2c call is a full-layout transform."""
            if name == "c2c":
                raise AssertionError(f"full-layout c2c transform called on shape {a.shape}")

        _route_transforms(monkeypatch, refuse_c2c)
        with pytest.raises(AssertionError, match="full-layout"):  # the refusal is live
            kslab.fields.fft2(np.zeros((16, 16)))
        grid = Grid2D(16, 8.0)
        f, g = (ScalarField(grid, v) for v in _stack(0, 2))
        _div_u_grad_v(grid, rfft2(f.values), rfft2(g.values))
        heat(0.1, f)
        damped_heat_trajectory(f, TimeGrid.geometric(0.1, 0.2, 2))
        gradient(heat(0.1, f))
        random_band_limited_field(grid, seed=3, max_mode=4)
        counterexample_sweep()
        verify_multiplier_lemma(LabSetup(n=32, num_times=12))


class TestArrayTrajectory:
    @given(seed=seeds, k=nodes, with_initial=st.booleans(), c=st.floats(-1e3, 1e3))
    def test_arithmetic_matches_per_node_fields(self, seed, k, with_initial, c):
        grid = Grid2D(16, 8.0)
        a = _trajectory(grid, seed, k, with_initial)
        for out, op in ((c * a, lambda f: c * f), (a * c, lambda f: f * c)):
            for j in range(k):
                assert np.array_equal(out.stacked[j], op(ScalarField(grid, a.stacked[j])).values)
            if with_initial:
                assert np.array_equal(out.initial.values, op(a.initial).values)
            else:
                assert out.initial is None

    @given(seed=seeds, k=nodes)
    def test_real_part_of_a_transform_is_copied(self, seed, k):
        grid = Grid2D(16, 8.0)
        traj = Trajectory.from_values(grid, TimeGrid.geometric(1e-2, 1.0, k), ifft2(fft2(_stack(seed, k))).real)
        assert traj.stacked.dtype == np.float64 and traj.stacked.flags.c_contiguous
        base = traj.stacked
        while base is not None:
            assert not np.iscomplexobj(base)
            base = base.base

    def test_stacked_is_read_only(self):
        grid = Grid2D(16, 8.0)
        values = _stack(0, 3)
        traj = Trajectory.from_values(grid, TimeGrid.geometric(1e-2, 1.0, 3), values)
        assert not traj.stacked.flags.writeable
        with pytest.raises(ValueError):
            traj.stacked[0, 0, 0] = 1.0
        assert values.flags.writeable  # the caller's array is not frozen

    @given(k=nodes, data=st.data())
    def test_nonfinite_node_raises(self, k, data):
        values = np.zeros((k, 16, 16))
        bad = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1)))
        for j in bad:
            values[j, data.draw(st.integers(0, 15)), data.draw(st.integers(0, 15))] = \
                data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(TrajectoryOverflowError) as err:
            Trajectory.from_values(Grid2D(16, 8.0), TimeGrid.geometric(1e-2, 1.0, k), values)
        assert err.value.node_index == bad[0]

    @pytest.mark.parametrize("times", [[1.0, np.inf], [np.nan, 1.0], [0.5, 1.0, np.nan]])
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(np.array(times))

    @pytest.mark.parametrize("times", [[0.1, 0.2, 0.5], [1.0, 2.0, 3.0, 4.0]], ids=["ratios", "uniform"])
    def test_non_geometric_times_rejected(self, times):
        with pytest.raises(ValueError, match="geometric"):
            TimeGrid(np.array(times))

    @pytest.mark.parametrize("with_initial", [False, True])
    def test_save_writes_the_per_node_snapshots(self, tmp_path, with_initial):
        traj = _trajectory(Grid2D(16, 8.0), 7, 4, with_initial)
        save_trajectory(tmp_path / "traj.ksf1", traj)
        buf = io.BytesIO()
        if with_initial:
            _write_raw_snapshot(buf, traj.grid, traj.initial.values, 0.0)
        for values, t in zip(traj.stacked, traj.tgrid.times):
            _write_raw_snapshot(buf, traj.grid, values, t)
        assert (tmp_path / "traj.ksf1").read_bytes() == buf.getvalue()

    def test_load_rejects_mixed_grids(self, tmp_path):
        path = tmp_path / "mixed.ksf1"
        with open(path, "wb") as fh:
            _write_raw_snapshot(fh, Grid2D(16, 8.0), np.zeros((16, 16)), 0.1)
            _write_raw_snapshot(fh, Grid2D(32, 8.0), np.zeros((32, 32)), 0.2)
        with pytest.raises(ValueError, match="different grids"):
            load_trajectory(path)


def _band_limited_loop(grid, seed, max_mode):
    """The per-mode loop form of ``random_band_limited_field``: one (re, im) draw per (m1, m2), m2 fastest."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for m1 in range(-max_mode, max_mode + 1):
        for m2 in range(-max_mode, max_mode + 1):
            re, im = rng.standard_normal(2)
            coeffs[m1 % grid.n, m2 % grid.n] = np.exp(-(m1 * m1 + m2 * m2) / 8.0) * (re + 1j * im)
    coeffs = 0.5 * (coeffs + np.conj(np.roll(coeffs[::-1, ::-1], 1, axis=(0, 1))))
    return irfft2((coeffs * grid.n**2)[:, : grid.n // 2 + 1], grid.n)


class TestDataBuilders:
    @given(n=st.sampled_from([16, 32, 64]), l=lengths, amplitude=st.sampled_from([1.0, 0.5, 2.3]))
    def test_stacked_cosine_modes_equal_the_single_fields(self, n, l, amplitude):
        # values (the one-mode formula), one batched r2c and L^p norms, bit for bit
        grid = Grid2D(n, l)
        x1, x2 = grid.coords()
        kvecs = [(m, 0) for m in range(1, n // 3 + 1)] + [(3, 1), (2, 1), (0, 0), (-2, 5)]
        stack = _cosine_modes(grid, kvecs, amplitude)
        hats = rfft2(stack)
        for j, kvec in enumerate(kvecs):
            f = ScalarField(grid, amplitude * np.cos(2.0 * np.pi * (kvec[0] * x1 + kvec[1] * x2) / grid.l))
            assert np.array_equal(stack[j], f.values)
            assert np.array_equal(cosine_mode_field(grid, kvec, amplitude).values, f.values)
            assert np.array_equal(hats[j], rfft2(f.values))
            for p in (1.0, 2.0, np.inf):
                assert _batch_lp(stack, p, grid.cell_area)[j] == lp_norm(f, p)

    @given(n=st.sampled_from([32, 64, 128]), l=lengths, amplitude=st.sampled_from([1.0, 0.5, 2.3, -1.7]))
    def test_axis_aligned_columns_equal_the_full_plane(self, n, l, amplitude):
        # every lab-swept (m, 0) mode, evaluated as a column and broadcast, bit for bit (signed zeros too)
        grid = Grid2D(n, l)
        x1, x2 = grid.coords()
        kvecs = [(m, 0) for m in range(1, n // 3 + 1)]
        stack = _cosine_modes(grid, kvecs, amplitude)
        assert stack.shape == (len(kvecs), n, n) and stack.flags.c_contiguous
        for j, (k1, k2) in enumerate(kvecs):
            plane = amplitude * np.cos(2.0 * np.pi * (k1 * x1 + k2 * x2) / grid.l)
            assert plane.shape == (n, n)
            assert stack[j].tobytes() == plane.tobytes()

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_only_axis_aligned_stacks_take_the_column_path(self, monkeypatch, n):
        shapes = []

        class CosShapes:  # numpy, with the shape of every cos argument recorded
            def __getattr__(self, name):
                return getattr(np, name)

            def cos(self, x, **kwargs):
                shapes.append(x.shape)
                return np.cos(x, **kwargs)

        monkeypatch.setattr(kslab.data, "np", CosShapes())
        grid = Grid2D(n, 32.0)
        swept = [(m, 0) for m in range(1, n // 3 + 1)]
        for kvecs in (swept, [(3, 1)], [(2, 1)], [(1, 0), (3, 1)]):
            _cosine_modes(grid, kvecs, 0.5)
        assert shapes == [(len(swept), n, 1), (1, n, n), (1, n, n), (2, n, n)]

    @given(seed=seeds, n=st.sampled_from([16, 32, 64]), max_mode=st.integers(0, 7))
    def test_band_limited_field_equals_the_loop_form(self, seed, n, max_mode):
        grid = Grid2D(n, 8.0)
        assert np.array_equal(random_band_limited_field(grid, seed, max_mode).values,
                              _band_limited_loop(grid, seed, max_mode))


class TestRoundTrips:
    @given(seed=seeds, n=st.sampled_from([16, 32]), l=lengths,
           t=st.floats(0.0, 1e6, allow_nan=False))
    def test_ksf1(self, seed, n, l, t):
        f = ScalarField(Grid2D(n, l), _stack(seed, 1, n)[0])
        # a file made here, not a tmp_path fixture: hypothesis rejects function-scoped fixtures
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.ksf1")
            with open(path, "wb") as fh:
                _write_raw_snapshot(fh, f.grid, f.values, t)
            grid, times, values = _read_snapshots(path)
        assert grid == f.grid and times.tolist() == [t]
        assert np.array_equal(values[0], f.values)

    @given(data=st.data())
    def test_config_parse_serialize(self, data):
        pos = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
        t_min = data.draw(st.floats(1e-6, 1.0))
        cfg = ExperimentConfig(
            grid_n=data.draw(st.sampled_from([16, 32, 64, 128])),
            grid_l=data.draw(pos),
            time_t_min=t_min,
            time_t_max=t_min * data.draw(st.floats(1.5, 1e4)),
            time_k=data.draw(st.integers(2, 200)),
            picard_c=data.draw(st.one_of(st.just("auto"), pos)),
            picard_max_iter=data.draw(st.integers(1, 500)),
            picard_tol=data.draw(pos),
            picard_mode=data.draw(st.sampled_from(["thm1_L1Linf", "thm2_H1bH1"])),
            data_kind=data.draw(st.sampled_from(["gaussian", "mode", "stripe", "file"])),
            data_mass=data.draw(st.floats(-1e3, 1e3)),
            data_width=data.draw(pos),
            data_amplitude=data.draw(st.floats(-1e3, 1e3)),
            data_wavevector=(data.draw(st.integers(-8, 8)), data.draw(st.integers(-8, 8))),
            data_v_mass=data.draw(st.floats(-1e3, 1e3)),
            data_v_width=data.draw(pos),
            data_v_amplitude=data.draw(st.floats(-1e3, 1e3)),
            data_stripe_smoothing=data.draw(pos),
            data_u_path=data.draw(st.sampled_from(["u.ksf1", "dumps/u0.ksf1"])),
            data_v_path=data.draw(st.sampled_from(["v.ksf1", "dumps/v0.ksf1"])),
            output_dir=data.draw(st.sampled_from(["out", "runs/a"])),
            output_dump_fields=data.draw(st.booleans()),
            variant_remark_ii=data.draw(st.booleans()),
        )
        assert parse_config_text(config_text(cfg)) == cfg
