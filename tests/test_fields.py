"""Tests for the torus field core: transforms, heat flows, the dealiased product div(u grad v), derivatives, IO."""

import numpy as np
import pytest
import scipy.fft

from kslab import Grid2D, ScalarField, TimeGrid, damped_heat_trajectory, gradient, heat, load_field, save_field
from kslab.duhamel import _div_u_grad_v
from kslab.fields import _write_raw_snapshot, fft2, ifft2, irfft2, rfft2
from conftest import run_fresh


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.standard_normal((grid.n, grid.n)))


def full_dealias_mask(grid):
    """The full-layout 2/3-rule mask, built from the integer modes of ``grid.k1``."""
    keep = np.abs(np.rint(grid.k1 * grid.l / (2 * np.pi))) <= grid.n // 3
    return keep[:, None] & keep[None, :]


class TestGrid2D:
    def test_basic_spacing(self):
        g = Grid2D(16, 16.0)
        assert g.h == 1.0
        # wavenumbers run -pi .. pi - step in steps of pi/8
        assert np.isclose(np.max(g.k1), 2 * np.pi / 16.0 * 7)
        assert np.isclose(np.min(g.k1), -np.pi)

    def test_spacing_128(self):
        g = Grid2D(128, 32.0)
        assert g.h == 0.25

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            Grid2D(100, 32.0)

    def test_rejects_small_or_bad_l(self):
        with pytest.raises(ValueError):
            Grid2D(8, 16.0)
        with pytest.raises(ValueError):
            Grid2D(64, 0.0)

    @pytest.mark.parametrize("l", [np.inf, np.nan])
    def test_rejects_non_finite_l(self, l):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid2D(16, l)

    def test_derived_arrays_are_read_only(self):
        # one grid serves every caller of a window, so an in-place write must raise, not leak into the next run
        g = Grid2D(16, 8.0)
        arrays = {name: value for name, value in vars(g).items() if isinstance(value, np.ndarray)}
        assert {"k1", "k2_half", "x", "dealias_mask_half", "d1_dealiased_half", "parseval_mult_half"} <= set(arrays)
        for name, value in [*arrays.items(), ("coords", g.coords()[0])]:
            with pytest.raises(ValueError, match="read-only"):
                value[...] += 1
            assert not value.flags.writeable, name

    def test_max_wavenumber(self):
        g = Grid2D(64, 16.0)
        assert np.isclose(np.max(np.abs(g.k1)), np.pi * g.n / g.l)

    def test_coords_cover_torus(self):
        g = Grid2D(16, 8.0)
        x1, x2 = g.coords()
        assert x1[0, 0] == -4.0
        assert x1[-1, 0] == 4.0 - g.h
        assert x2.shape == (1, 16)


class TestScalarField:
    def test_rejects_nonfinite(self):
        g = Grid2D(16, 8.0)
        values = np.zeros((16, 16))
        values[3, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScalarField(g, values)

    def test_rejects_shape_mismatch(self):
        g = Grid2D(16, 8.0)
        with pytest.raises(ValueError, match="shape"):
            ScalarField(g, np.zeros((16, 8)))

    def test_arithmetic(self):
        g = Grid2D(16, 8.0)
        f = random_field(g, 1)
        h = random_field(g, 2)
        assert np.array_equal((2.0 * f).values, 2.0 * f.values)
        assert np.array_equal((h * -0.5).values, -0.5 * h.values)

    def test_integral_is_mean_times_area(self):
        g = Grid2D(16, 4.0)
        f = ScalarField(g, np.full((16, 16), 3.0))
        assert np.isclose(f.integral(), 3.0 * 16.0)


class TestTransforms:
    def test_constant_field_is_dc_mode(self):
        g = Grid2D(16, 8.0)
        F = rfft2(ScalarField(g, np.ones((16, 16))).values)
        expected = np.zeros((16, 9), dtype=complex)
        expected[0, 0] = 16 * 16
        np.testing.assert_allclose(F, expected, atol=1e-12)

    def test_single_cosine_two_conjugate_modes(self):
        g = Grid2D(16, 16.0)
        x1, _ = g.coords()
        f = ScalarField(g, np.cos(2 * np.pi * x1 / g.l) * np.ones((1, 16)))
        F = rfft2(f.values)
        mags = np.abs(F)
        nonzero = np.argwhere(mags > 1e-9)
        assert {tuple(i) for i in nonzero} == {(1, 0), (15, 0)}
        assert np.isclose(F[1, 0], F[15, 0].conjugate())

    def test_roundtrip_matches_direct_summation(self):
        # independent oracle: O(n^4) discrete Fourier sum at n = 16, on the half layout's columns
        g = Grid2D(16, 8.0)
        f = random_field(g, 3)
        F = rfft2(f.values)
        n = g.n
        j = np.arange(n)
        direct = np.empty((n, n), dtype=complex)
        for k1 in range(n):
            for k2 in range(n):
                phase = np.exp(-2j * np.pi * (k1 * j[:, None] + k2 * j[None, :]) / n)
                direct[k1, k2] = np.sum(f.values * phase)
        np.testing.assert_allclose(F, direct[:, : n // 2 + 1], atol=1e-9)
        back = irfft2(F, n)
        rel = np.max(np.abs(back - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12

    def test_parseval(self):
        g = Grid2D(32, 8.0)
        f = random_field(g, 4)
        F = rfft2(f.values)
        l2_sq = np.sum(f.values**2) * g.cell_area
        spectral = g.l**2 / g.n**4 * np.sum(g.parseval_mult_half * np.abs(F) ** 2)
        assert abs(l2_sq - spectral) / l2_sq < 1e-10


class TestTransformContract:
    """The transforms call pocketfft's binding directly: bit-equal to scipy.fft on the half layout and on complex
    full-layout input, strict elsewhere."""

    @staticmethod
    def values(shape, seed=0):
        return np.random.default_rng(seed).standard_normal(shape)

    @pytest.mark.parametrize("shape", [(16, 16), (3, 32, 32), (2, 3, 16, 16)], ids=["single", "batched", "batched-4d"])
    def test_bit_equal_to_scipy(self, shape):
        a = self.values(shape)
        n = shape[-1]
        assert np.array_equal(rfft2(a), scipy.fft.rfft2(a))
        spec = scipy.fft.rfft2(a)
        assert np.array_equal(irfft2(spec, n), scipy.fft.irfft2(spec, s=(n, n)))

    def test_non_contiguous_bit_equal_to_scipy(self):
        a = self.values((3, 32, 64))[::2, :, ::2]  # strided in the batch and the last axis
        assert not a.flags.c_contiguous
        assert np.array_equal(rfft2(a), scipy.fft.rfft2(a))
        assert np.array_equal(rfft2(a.T), scipy.fft.rfft2(a.T))
        spec = np.asfortranarray(scipy.fft.rfft2(self.values((2, 32, 32))))
        assert np.array_equal(irfft2(spec, 32), scipy.fft.irfft2(spec, s=(32, 32)))
        half = scipy.fft.rfft2(self.values((4, 32, 32)))[::2]
        assert np.array_equal(irfft2(half, 32), scipy.fft.irfft2(half, s=(32, 32)))

    @pytest.mark.parametrize("shape", [(16, 16), (3, 32, 32), (2, 64, 64)], ids=["single", "batched", "n64"])
    def test_full_layout_bit_equal_to_scipy_on_complex_input(self, shape):
        c = self.values(shape) + 1j * self.values(shape, seed=1)
        assert np.array_equal(fft2(c), scipy.fft.fft2(c))
        assert np.array_equal(ifft2(c), scipy.fft.ifft2(c))

    def test_bit_equal_after_scipy_fft_is_imported(self):
        """kslab loads the binding before scipy.fft loads its own copy of it; both compute the same bits."""
        result = run_fresh("""
import json, sys
import numpy as np
from kslab.fields import irfft2, rfft2
a = np.random.default_rng(0).standard_normal((3, 32, 32))
spec = rfft2(a)
back = irfft2(spec, 32)
before = sorted(k for k in sys.modules if k.startswith("scipy"))
import scipy.fft
print(json.dumps(dict(before=before, loaded="scipy.fft._pocketfft.pypocketfft" in sys.modules,
                      r2c=bool(np.array_equal(rfft2(a), spec) and np.array_equal(spec, scipy.fft.rfft2(a))),
                      c2r=bool(np.array_equal(irfft2(spec, 32), back)
                               and np.array_equal(back, scipy.fft.irfft2(spec, s=(32, 32)))))))
""")
        assert result == {"before": [], "loaded": True, "r2c": True, "c2r": True}

    def test_complex_input_rejected(self):
        with pytest.raises(TypeError):
            rfft2(self.values((16, 16)) + 0j)

    @pytest.mark.parametrize("shape", [(16, 16), (8, 9), (16, 8), (2, 16, 10), (9,)],
                             ids=["full", "cropped-rows", "cropped-cols", "padded-cols", "1d"])
    def test_irfft2_wrong_shape_names_half_layout(self, shape):
        with pytest.raises(ValueError, match=r"half layout"):
            irfft2(np.zeros(shape, dtype=complex), 16)


class TestMultipliers:
    """The single-time heat flows of ``semigroup``, which run on ``_free_flow``."""

    def test_heat_zero_time_is_identity(self):
        g = Grid2D(32, 8.0)
        f = random_field(g, 6)
        out = heat(0.0, f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-13)

    def test_heat_on_eigenfunction(self):
        g = Grid2D(32, 16.0)
        x1, x2 = g.coords()
        k = 2 * np.pi * np.array([2, 1]) / g.l
        f = ScalarField(g, np.cos(k[0] * x1 + k[1] * x2))
        t = 0.7
        out = heat(t, f)
        np.testing.assert_allclose(out.values, np.exp(-t * (k @ k)) * f.values, atol=1e-13)

    def test_semigroup_property(self):
        g = Grid2D(32, 8.0)
        f = random_field(g, 8)
        one = heat(0.4, heat(0.6, f))
        two = heat(1.0, f)
        assert np.max(np.abs(one.values - two.values)) < 1e-12

    def test_damped_heat_mode_decay(self):
        g = Grid2D(32, 16.0)
        x1, _ = g.coords()
        k = 2 * np.pi * 2 / g.l
        f = ScalarField(g, np.cos(k * x1) * np.ones((1, 32)))
        out = damped_heat_trajectory(f, TimeGrid.geometric(0.9, 1.8, 2))
        for t, values in zip(out.tgrid.times, out.stacked):
            np.testing.assert_allclose(values, np.exp(-t * (1 + k * k)) * f.values, atol=1e-13)


def div_u_grad_v(u, v):
    """Real values of ``duhamel._div_u_grad_v`` on two fields."""
    return irfft2(_div_u_grad_v(u.grid, rfft2(u.values), rfft2(v.values)), u.grid.n)


def dealiased(grid, values):
    """2/3-rule truncation of real values, in the full layout."""
    return ifft2(full_dealias_mask(grid) * fft2(values)).real


class TestProducts:
    """The dealiased product the package computes: div(u grad v) in ``duhamel._div_u_grad_v``."""

    def test_product_with_one(self):
        # div(1 grad v) is the Laplacian of the truncated v
        g = Grid2D(32, 8.0)
        v = random_field(g, 10)
        out = div_u_grad_v(ScalarField(g, np.ones((32, 32))), v)
        kx, ky = g.k1[:, None], g.k1[None, :]
        expected = ifft2(-(kx**2 + ky**2) * fft2(dealiased(g, v.values))).real
        np.testing.assert_allclose(out, expected, atol=1e-13 * np.max(np.abs(expected)))

    def test_cosine_square_identity(self):
        # div(cos(kx) grad cos(kx)) = d/dx(-k sin(2kx) / 2) = -k^2 cos(2kx)
        g = Grid2D(32, 16.0)
        x1, _ = g.coords()
        k = 2 * np.pi * 3 / g.l  # 2k = 6 below the cutoff 10
        f = ScalarField(g, np.cos(k * x1) * np.ones((1, 32)))
        out = div_u_grad_v(f, f)
        expected = -k * k * np.cos(2 * k * x1) * np.ones((1, 32))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_against_padded_product_oracle(self):
        # oracle: zero-pad the truncated u and grad v to 2n, multiply exactly,
        # take the divergence of the retained modes
        g = Grid2D(32, 8.0)
        u = random_field(g, 11)
        v = random_field(g, 12)
        got = _div_u_grad_v(g, rfft2(u.values), rfft2(v.values))

        n = g.n
        big = 2 * n
        idx = np.fft.fftfreq(n) * n

        def pad(values):
            c = np.fft.fft2(values)
            cp = np.zeros((big, big), dtype=complex)
            for a in range(n):
                for b in range(n):
                    cp[int(idx[a]) % big, int(idx[b]) % big] = c[a, b]
            return np.fft.ifft2(cp).real * (big * big) / (n * n)

        def coarse(c):
            out = np.zeros((n, n), dtype=complex)
            for a in range(n):
                for b in range(n):
                    out[a, b] = c[int(idx[a]) % big, int(idx[b]) % big]
            return out * (n * n) / (big * big)

        kx, ky = g.k1[:, None], g.k1[None, :]
        mask = full_dealias_mask(g)
        ud = pad(dealiased(g, u.values))
        vd = fft2(dealiased(g, v.values))
        exact = sum(1j * k * coarse(np.fft.fft2(ud * pad(ifft2(1j * k * vd).real))) for k in (kx, ky))
        keep = mask[:, : n // 2 + 1]
        exact = exact[:, : n // 2 + 1]
        scale = np.max(np.abs(exact[keep]))
        assert np.max(np.abs((got - exact)[keep])) / scale < 1e-10
        assert np.all(got[~keep] == 0)

    def test_symmetry_and_bilinearity(self):
        # symmetric part: div(u grad v) + div(v grad u) is the Laplacian of the truncated product
        g = Grid2D(32, 8.0)
        f, h, w = (random_field(g, s) for s in (13, 14, 15))
        sym = div_u_grad_v(f, h) + div_u_grad_v(h, f)
        kx, ky = g.k1[:, None], g.k1[None, :]
        product = dealiased(g, dealiased(g, f.values) * dealiased(g, h.values))
        lap = ifft2(-(kx**2 + ky**2) * fft2(product)).real
        np.testing.assert_allclose(sym, lap, atol=1e-13 * np.max(np.abs(lap)))
        lin = div_u_grad_v(ScalarField(g, f.values + 2.0 * w.values), h)
        split = div_u_grad_v(f, h) + 2.0 * div_u_grad_v(w, h)
        np.testing.assert_allclose(lin, split, atol=1e-11)
        lin = div_u_grad_v(f, ScalarField(g, h.values + 2.0 * w.values))
        split = div_u_grad_v(f, h) + 2.0 * div_u_grad_v(f, w)
        np.testing.assert_allclose(lin, split, atol=1e-11)


class TestDerivatives:
    def test_gradient_of_constant(self):
        g = Grid2D(16, 8.0)
        g1, g2 = gradient(ScalarField(g, np.ones((16, 16))))
        assert np.max(np.abs(g1.values)) < 1e-14
        assert np.max(np.abs(g2.values)) < 1e-14

    def test_gradient_single_mode(self):
        g = Grid2D(64, 16.0)
        x1, _ = g.coords()
        k = 2 * np.pi / g.l
        f = ScalarField(g, np.sin(k * x1) * np.ones((1, 64)))
        g1, g2 = gradient(f)
        np.testing.assert_allclose(g1.values, k * np.cos(k * x1) * np.ones((1, 64)), atol=1e-12)
        assert np.max(np.abs(g2.values)) < 1e-13

    def test_divergence_integral_vanishes(self):
        # the zero mode of div(u grad v) is exactly 0: B conserves no mass of its own
        g = Grid2D(32, 8.0)
        f1, f2 = random_field(g, 16), random_field(g, 17)
        div = ScalarField(g, div_u_grad_v(f1, f2))
        assert abs(div.integral()) < 1e-12

    def test_div_grad_symbol_equals_laplacian(self):
        """Exact off the Nyquist row and column, where the derivative symbols are 0 (the Nyquist rule)."""
        g = Grid2D(32, 8.0)
        d1, d2 = 1j * g.kx_deriv, 1j * g.ky_deriv_half
        off_nyquist = np.ones(g.k2_half.shape, dtype=bool)
        off_nyquist[g.n // 2, :] = off_nyquist[:, -1] = False
        np.testing.assert_array_equal((d1 * d1 + d2 * d2).real[off_nyquist], -g.k2_half[off_nyquist])
        assert np.all(d1[g.n // 2, :] == 0) and np.all(d2[:, -1] == 0)

    def test_div_grad_matches_laplacian_on_band_limited_field(self):
        from kslab import random_band_limited_field

        g = Grid2D(32, 8.0)
        f = random_band_limited_field(g, seed=18, max_mode=8)
        g1, g2 = gradient(f)
        div_hat = 1j * g.kx_deriv * rfft2(g1.values) + 1j * g.ky_deriv_half * rfft2(g2.values)
        via_parts = irfft2(div_hat, g.n)
        direct = irfft2(-g.k2_half * rfft2(f.values), g.n)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(via_parts - direct)) / scale < 1e-12


class TestSnapshotIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        g = Grid2D(32, 8.0)
        f = random_field(g, 19)
        path = tmp_path / "field.ksf1"
        save_field(path, f)
        back = load_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)  # bit exact
        # a field file is one snapshot at t = 0: a snapshot at any other time is refused, naming it
        with open(path, "wb") as fh:
            _write_raw_snapshot(fh, g, f.values, 0.625)
        with pytest.raises(ValueError, match=r"holds one at t=0\.625"):
            load_field(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ksf1"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_field(path)

    def test_truncated_payload_rejected(self, tmp_path):
        import struct

        g = Grid2D(16, 8.0)
        f = random_field(g, 20)
        path = tmp_path / "cut.ksf1"
        save_field(path, f)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_field(path)
        # headers claiming huge grids are rejected before any payload read
        for n in (2**31, 2**20):
            path.write_bytes(struct.pack("<4sIdd", b"KSF1", n, 8.0, 1.0))
            with pytest.raises(ValueError, match="truncated"):
                load_field(path)

    def test_infinite_side_length_rejected(self, tmp_path):
        import struct

        from kslab import load_trajectory

        path = tmp_path / "inf.ksf1"
        header = struct.pack("<4sIdd", b"KSF1", 16, np.inf, 0.5)
        path.write_bytes(header + np.zeros(16 * 16).tobytes())
        with pytest.raises(ValueError, match="bad KSF1 header: side length must be positive and finite"):
            load_field(path)
        with pytest.raises(ValueError, match="bad KSF1 header: side length must be positive and finite"):
            load_trajectory(path)
