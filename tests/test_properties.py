"""Property tests for the single kernels: batched norms, ETD operators and plans, trajectories, KSF1 and config I/O."""

import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

import kslab.fields
from kslab import (
    Composite,
    DampedHeat,
    FractionalLaplacian,
    GradComponent,
    Heat,
    LabSetup,
    Laplacian,
    ScalarField,
    TimeGrid,
    Trajectory,
    bilinear_B,
    counterexample_profile,
    divergence,
    etd_convolve,
    grad_heat,
    heat,
    hs_dot_norm,
    hs_norm,
    linear_L,
    lp_norm,
    make_grid,
    maximal_reg_T,
    multiplier_apply,
    pointwise_product,
    verify_multiplier_lemma,
)
from kslab.cli import ExperimentConfig, parse_config_text, serialize_config
from kslab.data import random_band_limited_field
from kslab.duhamel import EtdPlan, QuadratureScheme, _convolve_hat, _profile_march, etd_weights
from kslab.fields import fft2, ifft2, irfft2, read_snapshot, rfft2, write_snapshot
from kslab.inequality_lab import _PROFILES, _lab_fields, _time_lp
from kslab.fields import _grad_values
from kslab.norms import (_batch_grad_linf, _batch_hs, _batch_lp, _grad_sup, _hs_weight, _parseval_sum,
                         _rank_one_norms, grad_linf, trapezoid)
from kslab.semigroup import _free_flow
from kslab.trajectories import TrajectoryOverflowError, _first_nonfinite_node, load_trajectory, save_trajectory

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
        grid = make_grid(16, l)
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
        grid = make_grid(16, l)
        stack = _stack(seed, k)
        batch = _batch_grad_linf(grid, rfft2(stack))
        for j in range(k):
            assert batch[j] == grad_linf(ScalarField(grid, stack[j]))

    @given(seed=seeds, k=nodes, s=sobolev_orders, l=lengths)
    def test_sobolev(self, seed, k, s, l):
        grid = make_grid(16, l)
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
        grid = make_grid(16, l)
        stack = _stack(seed, k)
        full, half = fft2(stack), rfft2(stack)
        kx, ky = grid.k1[:, None], grid.k1[None, :]
        g1, g2 = ifft2(1j * kx * full).real, ifft2(1j * ky * full).real
        grad_full = np.max(np.sqrt(g1**2 + g2**2), axis=(1, 2))
        factor = grid.l**2 / grid.n**4
        weight_full = (1.0 + grid.k2) ** s
        hs_full = np.sqrt(factor * np.sum(weight_full * np.abs(full) ** 2, axis=(1, 2)))
        np.testing.assert_allclose(_batch_grad_linf(grid, half), grad_full, rtol=1e-13, atol=0)
        np.testing.assert_allclose(_batch_hs(grid, half, s), hs_full, rtol=1e-13, atol=0)
        weight = np.cos(kx) * np.cos(ky) + grid.k2  # even, not radial
        np.testing.assert_allclose(
            _parseval_sum(grid, np.abs(half) ** 2, weight[:, : grid.n // 2 + 1]),
            factor * np.sum(weight * np.abs(full) ** 2, axis=(1, 2)), rtol=1e-13, atol=0)
        np.testing.assert_array_equal(_hs_weight(grid, s), weight_full[:, : grid.n // 2 + 1])

    @given(seed=seeds, l=lengths)
    def test_h0_is_l2(self, seed, l):
        f = ScalarField(make_grid(16, l), _stack(seed, 1)[0])
        assert hs_norm(f, 0.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)
        assert hs_dot_norm(f, 0.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)


class TestEtdOperators:
    @given(seed=seeds, a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0),
           damping=st.sampled_from([0.0, 1.0, 2.5]), with_initial=st.booleans(),
           with_prefactor=st.booleans())
    def test_etd_convolve_is_linear(self, seed, a, b, damping, with_initial, with_prefactor):
        grid = make_grid(16, 8.0)
        g1 = _trajectory(grid, seed, 4, with_initial)
        g2 = _trajectory(grid, seed + 1, 4, with_initial)
        lam = grid.k2 + damping
        pre = np.sqrt(grid.k2) if with_prefactor else None
        lhs = etd_convolve(a * g1 + b * g2, lam, pre).stacked
        rhs = a * etd_convolve(g1, lam, pre).stacked + b * etd_convolve(g2, lam, pre).stacked
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    @given(seed=seeds, damped=st.booleans(), with_initial=st.booleans())
    def test_linear_L_and_maximal_reg_T_are_symbol_choices(self, seed, damped, with_initial):
        grid = make_grid(16, 8.0)
        g = _trajectory(grid, seed, 4, with_initial)
        lam = grid.k2 + (1.0 if damped else 0.0)
        assert np.array_equal(linear_L(g, damped=damped).stacked, etd_convolve(g, lam).stacked)
        assert np.array_equal(maximal_reg_T(g).stacked, etd_convolve(g, grid.k2, -grid.k2).stacked)

    @given(seed=seeds, with_initial=st.booleans())
    def test_bilinear_B_has_zero_mean(self, seed, with_initial):
        grid = make_grid(16, 8.0)
        u = _trajectory(grid, seed, 4, with_initial)
        v = _trajectory(grid, seed + 7, 4, with_initial)
        out = bilinear_B(u, v).stacked
        means = out.sum(axis=(1, 2)) * grid.cell_area
        assert np.max(np.abs(means)) <= 1e-12 * max(1.0, float(np.max(np.abs(out))))

    @given(seed=seeds, s=st.floats(0.0, 2.0), t=st.floats(0.0, 2.0), damping=st.sampled_from([0.0, 1.0]))
    def test_free_flow_semigroup_law(self, seed, s, t, damping):
        grid = make_grid(16, 8.0)
        coeffs = fft2(_stack(seed, 1)[0])
        lam = grid.k2 + damping
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


def _rates(grid, kind: str, seed: int) -> np.ndarray:
    """Decay rates on the grid: |xi|^2, 1 + |xi|^2, or a few values repeated at random (made even)."""
    if kind == "heat":
        return grid.k2
    if kind == "damped":
        return 1.0 + grid.k2
    r = np.random.default_rng(seed).choice([0.0, 0.5, 3.0, 40.0], size=grid.k2.shape)
    return np.maximum(r, _mirror(r))


def _half(sym: np.ndarray) -> np.ndarray:
    return sym[:, : sym.shape[1] // 2 + 1]


def _dense_march(ghat, g0hat, times, lam, scheme):
    """Reference march: the weights evaluated on the whole rate array, in either layout, every interval."""
    knot_t, knot_g = times, ghat
    if g0hat is not None:
        knot_t = np.concatenate(([0.0], times))
        knot_g = np.concatenate((g0hat[None], ghat), axis=0)
    if scheme.substeps > 1:
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(knot_t, knot_g, axis=0)
    acc = np.zeros(lam.shape, dtype=np.complex128)
    out = [acc] if g0hat is None else []
    for i in range(knot_t.size - 1):
        edges = np.linspace(knot_t[i], knot_t[i + 1], scheme.substeps + 1)
        vals = [knot_g[i], *(spline(tt) for tt in edges[1:-1]), knot_g[i + 1]]
        for k in range(scheme.substeps):
            dt = edges[k + 1] - edges[k]
            decay, phi1, w_left, w_right = etd_weights(lam * dt)
            if scheme.kind == "etd_piecewise_linear":
                acc = acc * decay + dt * (w_left * vals[k] + w_right * vals[k + 1])
            else:
                acc = acc * decay + dt * phi1 * vals[k]
        out.append(acc)
    return np.array(out)


schemes = st.builds(QuadratureScheme, st.sampled_from(["etd_piecewise_constant", "etd_piecewise_linear"]),
                    st.sampled_from([1, 3]))


class TestEtdPlans:
    @given(seed=seeds, scheme=schemes, with_initial=st.booleans(),
           rate=st.sampled_from(["heat", "damped", "repeated"]), with_prefactor=st.booleans())
    def test_plan_reuse_is_bit_identical(self, seed, scheme, with_initial, rate, with_prefactor):
        grid = make_grid(16, 8.0)
        lam = _rates(grid, rate, seed)
        pre = _half(np.sqrt(grid.k2)) if with_prefactor else None
        plan = EtdPlan(lam, TimeGrid.geometric(1e-2, 1.0, 4), scheme)
        assert plan.decay.shape == (4 * scheme.substeps, np.unique(lam).size)
        assert np.array_equal(plan.values[plan.inverse], _half(lam))
        for g in (_trajectory(grid, seed, 4, with_initial), _trajectory(grid, seed + 1, 4, with_initial)):
            ghat = rfft2(g.stacked)
            g0hat = None if g.initial is None else rfft2(g.initial.values)
            planned, meta = _convolve_hat(ghat, g0hat, plan, pre)
            own, own_meta = _convolve_hat(ghat, g0hat, EtdPlan(lam, g.tgrid, scheme), pre)
            assert np.array_equal(planned, own)
            assert meta == own_meta
            if pre is not None:
                ghat = pre * ghat
                g0hat = None if g0hat is None else pre * g0hat
            dense = irfft2(_dense_march(ghat, g0hat, g.tgrid.times, _half(lam), scheme), grid.n)
            assert np.array_equal(irfft2(planned, grid.n), dense)

    @given(seed=seeds, scheme=schemes, with_initial=st.booleans(),
           rate=st.sampled_from(["heat", "damped", "repeated"]), with_prefactor=st.booleans())
    def test_half_layout_matches_full_layout(self, seed, scheme, with_initial, rate, with_prefactor):
        grid = make_grid(16, 8.0)
        lam = _rates(grid, rate, seed)
        pre = np.sqrt(grid.k2) if with_prefactor else None
        g = _trajectory(grid, seed, 4, with_initial)
        ghat = fft2(g.stacked)
        g0hat = None if g.initial is None else fft2(g.initial.values)
        if pre is not None:
            ghat = pre * ghat
            g0hat = None if g0hat is None else pre * g0hat
        full = ifft2(_dense_march(ghat, g0hat, g.tgrid.times, lam, scheme)).real
        half = etd_convolve(g, lam, pre, scheme).stacked
        assert np.max(np.abs(half - full)) <= 1e-13 * max(1.0, float(np.max(np.abs(full))))

    @given(seed=seeds, which=st.sampled_from(["lam", "prefactor"]))
    def test_non_even_symbols_rejected(self, seed, which):
        grid = make_grid(16, 8.0)
        g = _trajectory(grid, seed, 4, True)
        rng = np.random.default_rng(seed)
        sym = grid.k2.copy()
        i, j = rng.integers(16), rng.integers(1, 8)  # j in 1..7: a mode whose mirror is another mode
        sym[i, j] += 1.0
        lam, pre = (sym, None) if which == "lam" else (grid.k2, sym)
        with pytest.raises(ValueError, match="even in xi"):
            etd_convolve(g, lam, pre)
        if which == "lam":
            with pytest.raises(ValueError, match="even in xi"):
                EtdPlan(sym, g.tgrid)

    @given(seed=seeds, bad=st.sampled_from([-1e-300, -1.0, np.nan, np.inf, -np.inf]))
    def test_bad_rates_rejected_at_build(self, seed, bad):
        grid = make_grid(16, 8.0)
        lam = grid.k2.copy()
        rng = np.random.default_rng(seed)
        lam[rng.integers(16), rng.integers(16)] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            EtdPlan(lam, TimeGrid.geometric(1e-2, 1.0, 4))


class TestHalfLayoutRates:
    @given(seed=seeds, scheme=schemes, rate=st.sampled_from(["heat", "damped", "repeated"]),
           n=st.sampled_from([16, 32, 64]), l=lengths)
    def test_half_rates_give_the_full_symbols_tables(self, seed, scheme, rate, n, l):
        grid = make_grid(n, l)
        lam = _rates(grid, rate, seed)
        tgrid = TimeGrid.geometric(1e-2, 1.0, 4)
        half, full = EtdPlan(_half(lam), tgrid, scheme), EtdPlan(lam, tgrid, scheme)
        for name in ("values", "inverse", "edges", "dts", "decay", "w_a", "w_b", "head_phi1"):
            assert np.array_equal(getattr(half, name), getattr(full, name)), name

    @given(n=st.sampled_from([16, 32, 64, 128]), l=lengths, shift=st.sampled_from([0.0, 1.0]))
    def test_rate_layout_of_the_grid(self, n, l, shift):
        grid = make_grid(n, l)
        values, inverse = kslab.fields._rate_layout(grid.k2_half + shift)
        assert inverse.shape == grid.k2_half.shape
        assert np.array_equal(values[inverse], grid.k2_half + shift)
        assert np.all(np.diff(values) > 0)
        assert np.array_equal(grid.k2[:, : n // 2 + 1], grid.k2_half)


_finite_scales = st.integers(-300, 150).map(lambda e: 10.0**e)


class TestLeanNormKernels:
    """The p = 1 branch and the grad-sup kernel give the bits of the formulas they replace."""

    @given(seed=seeds, k=nodes, scale=_finite_scales, l=lengths)
    def test_l1_branch_is_bit_identical(self, seed, k, scale, l):
        stack = scale * _stack(seed, k)
        cell = make_grid(16, l).cell_area
        old = (np.sum(np.abs(stack) ** 1.0, axis=(-2, -1)) * cell) ** (1.0 / 1.0)
        assert np.array_equal(_batch_lp(stack, 1.0, cell), old)
        assert lp_norm(ScalarField(make_grid(16, l), stack[0]), 1.0) == old[0]

    @given(seed=seeds, k=nodes, scale=_finite_scales, l=lengths)
    def test_grad_sup_is_bit_identical(self, seed, k, scale, l):
        grid = make_grid(16, l)
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
        grid = make_grid(16, 8.0)
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

    @given(seed=st.integers(0, 2**31 - 1), scheme=schemes, rate=st.sampled_from(["heat", "damped", "repeated"]),
           profile=st.sampled_from(sorted(_PROFILES)), s=st.sampled_from([0.0, 1.0]),
           homogeneous=st.booleans(), with_prefactor=st.booleans())
    def test_matches_full_plane_march(self, seed, scheme, rate, profile, s, homogeneous, with_prefactor):
        grid = make_grid(16, 8.0)
        plan = EtdPlan(_rates(grid, rate, seed), TimeGrid.geometric(1e-2, 1.0, 5), scheme)
        prof = _PROFILES[profile]
        fhat = rfft2(random_band_limited_field(grid, seed=seed, max_mode=4).values)
        pre = np.sqrt(grid.k2_half) if with_prefactor else np.ones_like(grid.k2_half)
        weight = _hs_weight(grid, s, homogeneous)

        rank_one = _rank_one_norms(grid, _profile_march(prof, plan), plan.inverse, pre * fhat, weight)
        times = plan.tgrid.times
        full, _ = _convolve_hat(prof(times)[:, None, None] * fhat, prof(0.0) * fhat, plan, pre)
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

    @given(seed=seeds, l=lengths, t=st.floats(0.0, 0.5), alpha=st.sampled_from([0.5, 1.0, 3.0]))
    def test_multipliers_match_full_layout(self, seed, l, t, alpha):
        grid = make_grid(16, l)
        values = _stack(seed, 1)[0]  # white noise: the Nyquist row and column are present
        kx, ky, k2, _ = _full_layout(grid)
        cases = [
            (Heat(t), np.exp(-t * k2)),
            (DampedHeat(t), np.exp(-t) * np.exp(-t * k2)),
            (GradComponent(0), 1j * kx * np.ones_like(k2)),
            (GradComponent(1), 1j * ky * np.ones_like(k2)),
            (Laplacian(), -k2),
            (FractionalLaplacian(alpha), k2 ** (alpha / 2.0)),
            (Composite((Heat(t), GradComponent(1), FractionalLaplacian(alpha))),
             np.exp(-t * k2) * (1j * ky) * k2 ** (alpha / 2.0)),
        ]
        f = ScalarField(grid, values)
        for spec, sym_full in cases:
            _assert_sup_close(multiplier_apply(spec, f).values, _full_apply(sym_full, values))

    @given(seed=seeds, l=lengths)
    def test_product_and_divergence_match_full_layout(self, seed, l):
        grid = make_grid(16, l)
        a, b = _stack(seed, 2)
        kx, ky, _, mask = _full_layout(grid)
        product = _full_apply(mask, _full_apply(mask, a) * _full_apply(mask, b))
        _assert_sup_close(pointwise_product(ScalarField(grid, a), ScalarField(grid, b)).values, product)
        div = ifft2(1j * kx * fft2(a) + 1j * ky * fft2(b)).real
        _assert_sup_close(divergence(ScalarField(grid, a), ScalarField(grid, b)).values, div)

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
        def refuse(a):
            raise AssertionError("full-layout transform called")

        monkeypatch.setattr(kslab.fields, "fft2", refuse)
        monkeypatch.setattr(kslab.fields, "ifft2", refuse)
        grid = make_grid(16, 8.0)
        f, g = (ScalarField(grid, v) for v in _stack(0, 2))
        multiplier_apply(Composite((Heat(0.1), GradComponent(0))), f)
        pointwise_product(f, g)
        divergence(f, g)
        heat(0.1, f)
        grad_heat(0.1, f)
        counterexample_profile(0.01, [0.15], grid=make_grid(64, 8.0))
        verify_multiplier_lemma(LabSetup(n=32, num_times=12))


class TestArrayTrajectory:
    @given(seed=seeds, k=nodes, with_initial=st.booleans(), c=st.floats(-1e3, 1e3))
    def test_arithmetic_matches_per_node_fields(self, seed, k, with_initial, c):
        grid = make_grid(16, 8.0)
        a = _trajectory(grid, seed, k, with_initial)
        b = _trajectory(grid, seed ^ 1, k, with_initial)
        cases = (
            (a + b, lambda f, g: f + g),
            (a - b, lambda f, g: f - g),
            (c * a, lambda f, g: c * f),
            (a * c, lambda f, g: f * c),
        )
        for out, op in cases:
            for j in range(k):
                expected = op(ScalarField(grid, a.stacked[j]), ScalarField(grid, b.stacked[j]))
                assert np.array_equal(out.stacked[j], expected.values)
            if with_initial:
                assert np.array_equal(out.initial.values, op(a.initial, b.initial).values)
            else:
                assert out.initial is None

    @given(seed=seeds, k=nodes)
    def test_real_part_of_a_transform_is_copied(self, seed, k):
        grid = make_grid(16, 8.0)
        traj = Trajectory.from_values(grid, TimeGrid.geometric(1e-2, 1.0, k), ifft2(fft2(_stack(seed, k))).real)
        assert traj.stacked.dtype == np.float64 and traj.stacked.flags.c_contiguous
        base = traj.stacked
        while base is not None:
            assert not np.iscomplexobj(base)
            base = base.base

    def test_stacked_is_read_only(self):
        grid = make_grid(16, 8.0)
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
            Trajectory.from_values(make_grid(16, 8.0), TimeGrid.geometric(1e-2, 1.0, k), values)
        assert err.value.node_index == bad[0]

    @pytest.mark.parametrize("times", [[1.0, np.inf], [np.nan, 1.0], [0.5, 1.0, np.nan]])
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(np.array(times), "uniform")

    @pytest.mark.parametrize("with_initial", [False, True])
    def test_save_writes_the_per_node_snapshots(self, tmp_path, with_initial):
        traj = _trajectory(make_grid(16, 8.0), 7, 4, with_initial)
        save_trajectory(tmp_path / "traj.ksf1", traj)
        buf = io.BytesIO()
        if with_initial:
            write_snapshot(buf, traj.initial, 0.0)
        for values, t in zip(traj.stacked, traj.tgrid.times):
            write_snapshot(buf, ScalarField(traj.grid, values), t)
        assert (tmp_path / "traj.ksf1").read_bytes() == buf.getvalue()

    def test_load_rejects_mixed_grids(self, tmp_path):
        path = tmp_path / "mixed.ksf1"
        with open(path, "wb") as fh:
            write_snapshot(fh, ScalarField.zero(make_grid(16, 8.0)), 0.1)
            write_snapshot(fh, ScalarField.zero(make_grid(32, 8.0)), 0.2)
        with pytest.raises(ValueError, match="different grids"):
            load_trajectory(path)


class TestRoundTrips:
    @given(seed=seeds, n=st.sampled_from([16, 32]), l=lengths,
           t=st.floats(0.0, 1e6, allow_nan=False))
    def test_ksf1(self, seed, n, l, t):
        f = ScalarField(make_grid(n, l), _stack(seed, 1, n)[0])
        buf = io.BytesIO()
        write_snapshot(buf, f, t)
        buf.seek(0)
        back, t_back = read_snapshot(buf)
        assert back.grid == f.grid and t_back == t
        assert np.array_equal(back.values, f.values)

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
            time_spacing=data.draw(st.sampled_from(["geometric", "uniform"])),
            picard_c=data.draw(st.one_of(st.just("auto"), pos)),
            picard_max_iter=data.draw(st.integers(1, 500)),
            picard_tol=data.draw(pos),
            picard_mode=data.draw(st.sampled_from(["thm1_L1Linf", "thm2_H1bH1"])),
            picard_quadrature=data.draw(st.sampled_from(["etd_piecewise_linear", "etd_piecewise_constant"])),
            picard_substeps=data.draw(st.integers(1, 8)),
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
        assert parse_config_text(serialize_config(cfg)) == cfg
