import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from risfso import numerics
from risfso.errors import DomainError, UnsupportedDomainError


def max_rel_err(got, ref):
    """Largest relative error where the reference is a normal float."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    normal = ref >= sys.float_info.min
    return float(np.max(np.abs(got[normal] - ref[normal]) / ref[normal]))


class TestErfc:
    # [0, 27] crosses the three rational ranges and the 26.543 cutoff;
    # [1e-300, 1e-3] is the tiny-argument end.
    X = np.concatenate((np.linspace(0.0, 27.0, 1081), np.geomspace(1e-300, 1e-3, 150)))
    # [0, 30] and far past the point where erfcx(x) is 1 / (x sqrt(pi)).
    U = np.concatenate((np.linspace(0.0, 30.0, 601), np.geomspace(1e-300, 1e150, 600)))

    def test_array_erfc_matches_mpmath(self):
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.erfc(x)) for x in self.X])
        got = numerics.erfc(self.X)
        # Below the normal range (x > 26.5) the result is 0.
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=sys.float_info.min)
        # No less accurate than scipy.special.erfc, 5.6e-14 off on this grid.
        assert max_rel_err(got, ref) <= max_rel_err(special.erfc(self.X), ref)

    def test_array_erfc_special_values_and_sign(self):
        got = numerics.erfc(np.array([np.nan, np.inf, -np.inf, 0.0, 30.0]))
        np.testing.assert_array_equal(got, [np.nan, 0.0, 2.0, 1.0, 0.0])
        np.testing.assert_array_equal(numerics.erfc(-self.X), 2.0 - numerics.erfc(self.X))
        np.testing.assert_array_equal(numerics.erfc(self.X[:1080].reshape(40, 27)),
                                      numerics.erfc(self.X[:1080]).reshape(40, 27))
        assert numerics.erfc(0.5) == numerics.erfc(np.array([0.5]))[0]

    def test_erfcx_matches_mpmath(self):
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.exp(mpmath.mpf(u) ** 2) * mpmath.erfc(u))
                            for u in self.U])
        got = [numerics.erfcx(float(u)) for u in self.U]
        err = max_rel_err(got, ref)
        assert err <= 6e-16
        # No less accurate than scipy.special.erfcx, 7.8e-16 off on this grid.
        assert err <= max_rel_err(special.erfcx(self.U), ref)
        # Where x * x overflows: 1 / (x sqrt(pi)), with no warning for a numpy float.
        for u in (np.float64(1e155), np.float64(1e300), math.inf):
            assert numerics.erfcx(u) == pytest.approx(1 / (u * math.sqrt(math.pi)), rel=1e-15)


# Arguments past the old |z| <= 40 range, where e^(z^2/4) overflows from |z| ~ 53:
# -60.5 is the default channel's -m/delta at N = 4096, -42.0 the closed-form one's.
FAR_Z = (-41.0, -53.0, -60.5, -100.0, -1e3, -1e5)


class TestParabolicCylinderD:
    # parabolic_cylinder_d(v, z) is the scaled e^(-z^2/4) D_v(z).
    def test_order_zero_identity(self):
        for z in (-3.0, -0.5, 0.0, *FAR_Z):
            assert numerics.parabolic_cylinder_d(0.0, z) == pytest.approx(
                math.exp(-z * z / 2.0), rel=1e-15
            )

    def test_order_minus_one_identity(self):
        for z in (-4.0, -1.0, 0.0, *FAR_Z):
            expected = math.sqrt(math.pi / 2.0) * math.erfc(z / math.sqrt(2.0))
            assert numerics.parabolic_cylinder_d(-1.0, z) == pytest.approx(expected, rel=1e-15)

    def test_quadrature_oracle_value(self):
        # frozen from 30-digit evaluation of the integral representation of D_{-3}(-2.5)
        assert numerics.parabolic_cylinder_d(-3.0, -2.5) == pytest.approx(
            43.3422272106666 * math.exp(-2.5 ** 2 / 4.0), rel=1e-14
        )

    def test_contiguous_relation(self):
        # D_{v+1}(z) - z D_v(z) + v D_{v-1}(z) = 0, for the scaled values too
        rng = np.random.default_rng(99)
        for v in range(-11, 0):
            for z in (0.0, *rng.uniform(-10.0, 0.0, 4), *FAR_Z):
                d_up = numerics.parabolic_cylinder_d(v + 1.0, z)
                d_mid = numerics.parabolic_cylinder_d(float(v), z)
                d_dn = numerics.parabolic_cylinder_d(v - 1.0, z)
                residual = d_up - z * d_mid + v * d_dn
                scale = max(abs(d_up), abs(z * d_mid), abs(v * d_dn))
                assert abs(residual) <= 1e-15 * scale

    @pytest.mark.parametrize("v,z", [
        (0.5, 0.0), (-13.0, 0.0), (0.0, 41.0),
        # Non-integer orders, and z > 0, where the recurrence would cancel.
        (-1.5, -1.0), (-0.5, 0.0), (-1.0, 1e-9), (0.0, 1.7),
        (0.0, 8.0), (-1.0, 0.3), (-1.0, 2.5),
        # The range test sees these before math.floor, which raises on them.
        (math.nan, -1.0), (-2.0, math.nan), (-math.inf, -1.0),
        (-2.0, -math.inf), (-2.0, math.inf),
    ])
    def test_outside_domain_rejected(self, v, z):
        with pytest.raises(UnsupportedDomainError):
            numerics.parabolic_cylinder_d(v, z)


class TestParabolicCylinderRecurrence:
    # Integer orders v = -n-1 at z <= 0, the inputs of the generalized
    # moments (z = -m/delta); random z have squares that round.
    Z = np.concatenate((
        [0.0, -0.0, -1e-8, -31.0, -40.0, *FAR_Z],
        np.linspace(-40.0, 0.0, 41),
        np.random.default_rng(7).uniform(-40.0, 0.0, 80),
    ))

    @pytest.mark.parametrize("n", range(12))
    def test_matches_mpmath(self, n):
        with mpmath.workdps(40):
            for z in self.Z:
                z_mp = mpmath.mpf(float(z))
                expected = mpmath.exp(-z_mp ** 2 / 4) * mpmath.pcfd(-n - 1, z_mp)
                got = numerics.parabolic_cylinder_d(-n - 1.0, float(z))
                assert abs(got / expected - 1) <= 1e-14, z


# Default channel parameters: alpha=15, beta=10, and the pointing
# exponent/gain implied by 1 mrad / 0.5 mrad jitter over 150 m + 150 m
# with a 1.2 m beam and 10 cm aperture.
ALPHA, BETA = 15.0, 10.0
C_DEFAULT = 3.2233729130647513
A0_DEFAULT = 0.013788398144659134


class TestMeijerG1330:
    def _pdf_b(self, x):
        b = (C_DEFAULT - 1.0, ALPHA - 1.0, BETA - 1.0)
        pref = ALPHA * BETA * C_DEFAULT / (
            2.0 * math.sqrt(x) * math.gamma(ALPHA) * math.gamma(BETA) * A0_DEFAULT
        )
        return pref * numerics.meijer_g_1330(
            C_DEFAULT, b, ALPHA * BETA * math.sqrt(x) / A0_DEFAULT
        )

    def test_density_normalization(self):
        # Geometric segments keep the density's narrow peak away from the
        # single infinite-interval transform, which can step over it.
        edges = [0.0] + [10.0 ** k for k in range(-6, 7)] + [math.inf]
        total = sum(
            integrate.quad(self._pdf_b, lo, hi, epsabs=1e-8 / 16.0, epsrel=1e-8, limit=300)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_generic_parameters_frozen_reference(self):
        # frozen from an independent 30-digit Mellin-Barnes evaluation
        cases = [
            ((3.2, (1.3, 4.7, 2.2), 0.5), 0.7733177280083428),
            ((3.2, (1.3, 4.7, 2.2), 50.0), 0.012288864887728625),
            ((0.5, (-0.5, 5.5, 5.0), 3.0), 3623.0063212405425),
        ]
        for (a1, b, x), expected in cases:
            assert numerics.meijer_g_1330(a1, b, x) == pytest.approx(expected, rel=1e-6)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(DomainError):
            numerics.meijer_g_1330(3.2, (1.3, 4.7, 2.2), 0.0)


class TestMeijerG1330Reference:
    # (a1, b) of the per-element density G^{3,0}_{1,3}(. | c ; c-1, alpha-1, beta-1)
    # on the default (alpha 15, beta 10), closed-form (alpha 6.5, beta 6)
    # and fig4 (alpha 6.5, beta 6, c = 0.5) channels.
    CHANNELS = {
        "default": (C_DEFAULT, (C_DEFAULT - 1.0, 14.0, 9.0)),
        "closed-form": (C_DEFAULT, (C_DEFAULT - 1.0, 5.5, 5.0)),
        "fig4": (0.5, (-0.5, 5.5, 5.0)),
    }

    @pytest.mark.parametrize("channel", list(CHANNELS))
    def test_matches_mpmath(self, channel):
        import mpmath

        a1, b = self.CHANNELS[channel]
        with mpmath.workdps(30):
            for x in np.geomspace(1e-8, 3e4, 25):
                expected = float(mpmath.meijerg([[], [a1]], [list(b), []], x))
                got = numerics.meijer_g_1330(a1, b, x)
                assert got == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a1", [2.2, 1.3])
    def test_a1_not_above_b1_rejected(self, a1):
        with pytest.raises(UnsupportedDomainError):
            numerics.meijer_g_1330(a1, (2.2, 4.7, 1.3), 1.0)

    @pytest.mark.parametrize("channel", list(CHANNELS))
    def test_array_equals_float_calls_bit_for_bit(self, channel):
        a1, b = self.CHANNELS[channel]
        x = np.geomspace(1e-8, 3e4, 25)
        got = numerics.meijer_g_1330(a1, b, x)
        assert got.tolist() == [numerics.meijer_g_1330(a1, b, float(xi)) for xi in x]
        assert isinstance(numerics.meijer_g_1330(a1, b, 1.0), float)

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_array_with_a_bad_element_rejected(self, bad):
        with pytest.raises(DomainError, match="requires finite x > 0"):
            numerics.meijer_g_1330(3.2, (1.3, 4.7, 2.2), np.array([0.5, bad, 50.0]))

    def test_underflowed_value_is_zero_where_the_quadrature_stops_short(self):
        # Past u0 ~ 1e6 the integrand keeps only the digits of u0 + s, so 1e-12
        # is out of reach; the value there is below the float range. Past
        # u0 ~ 2e9 (x ~ 1e18) the log of K still holds the integrand.
        a1, b = self.CHANNELS["closed-form"]
        x = np.array([1e14, 1e16, 1e18, 1e20])
        assert numerics.meijer_g_1330(a1, b, x).tolist() == [0.0] * 4

    def test_empty_array_gives_empty_array(self):
        assert numerics.meijer_g_1330(3.2, (1.3, 4.7, 2.2), np.array([])).shape == (0,)

    def test_quadrature_that_stops_short_raises(self, monkeypatch):
        # With one panel allowed the integral cannot reach 1e-12, and G is a
        # normal float at x = 1, so no underflow excuses it.
        monkeypatch.setattr(numerics, "QK21_LIMIT", 1)
        a1, b = self.CHANNELS["closed-form"]
        with pytest.raises(UnsupportedDomainError, match="1 panels do not reach"):
            numerics.meijer_g_1330(a1, b, 1.0)


class TestLogBesselK:
    ORDERS = [0.0, 1e-9, 0.3, 0.5, 2.7, 5.0, 12.25, 40.5]
    U = np.geomspace(1e-300, 1e10, 200)

    @pytest.mark.parametrize("nu", ORDERS)
    def test_matches_mpmath(self, nu):
        # Within 1e-13 relative in K where K is a normal float. Past the float
        # range, within 1e-15 relative in ln K, whose float spacing there is up
        # to 1.9e-6 (ln K_0(1e10) is about -1e10).
        got = numerics._log_bessel_k(nu, self.U)
        with mpmath.workdps(30):
            for u, g in zip(self.U.tolist(), got.tolist()):
                log_k = mpmath.log(mpmath.besselk(nu, u))
                if -708.0 < log_k < 709.0:
                    assert abs(mpmath.expm1(g - log_k)) <= 1e-13, (u, g)
                else:
                    assert abs(g - log_k) <= 1e-15 * abs(log_k), (u, g)

    @pytest.mark.parametrize("nu", ORDERS)
    def test_even_in_order(self, nu):
        got = numerics._log_bessel_k(-nu, self.U)
        assert got.tolist() == numerics._log_bessel_k(nu, self.U).tolist()

    @pytest.mark.parametrize("nu", ORDERS)
    def test_array_equals_float_calls_bit_for_bit(self, nu):
        got = numerics._log_bessel_k(nu, self.U)
        assert got.tolist() == [numerics._log_bessel_k(nu, np.array([u]))[0] for u in self.U]


class TestIntegrateQk21:
    # Cells (p, c, panel edges) of the integral of c y^p: exact at once, converging,
    # converging over two panels from a singular end, divergent, and past the
    # float range.
    CELLS = [(2.0, 1.0, [0.0, 1.0]), (0.5, 1.0, [0.0, 1.0]), (-0.5, 1.0, [0.0, 0.5, 1.0]),
             (-1.0, 1.0, [0.0, 1.0]), (0.0, 1e308, [0.0, 10.0])]

    @staticmethod
    def integrate(cells):
        p, c = np.array([cell[0] for cell in cells]), np.array([cell[1] for cell in cells])
        lo, hi, owner = [], [], []
        for k, (_, _, edges) in enumerate(cells):
            lo += edges[:-1]
            hi += edges[1:]
            owner += [k] * (len(edges) - 1)
        return numerics.integrate_qk21(lambda y, o: c[o][:, None] * y ** p[o][:, None],
                                       np.array(lo), np.array(hi), np.array(owner),
                                       len(cells), 1e-10)

    def test_values_and_reasons(self):
        value, err, why = self.integrate(self.CELLS)
        for k, (p, _, _) in enumerate(self.CELLS[:3]):
            assert value[k] == pytest.approx(1.0 / (p + 1.0), rel=1e-10, abs=0.0)
            assert err[k] <= 1e-10 * value[k] and why[k] is None
        assert why[3] == "400 panels do not reach the relative tolerance 1e-10"
        assert why[4] == "the integral is not finite"

    def test_cell_bits_do_not_depend_on_other_cells(self):
        together = self.integrate(self.CELLS)
        for k, cell in enumerate(self.CELLS):
            value, err, why = self.integrate([cell])
            np.testing.assert_array_equal(value, together[0][k:k + 1])
            np.testing.assert_array_equal(err, together[1][k:k + 1])
            assert why == together[2][k:k + 1]

    def test_panel_slices_are_invisible(self, monkeypatch):
        # The divergent cell bisects to 400 panels, so every slice size below
        # splits some rounds; the bits are those of one whole evaluation. The
        # integrand never sees more than one slice of panels.
        results = []
        for rows in (1, 7, numerics._QK21_ROWS, 10 ** 9):
            monkeypatch.setattr(numerics, "_QK21_ROWS", rows)
            results.append(self.integrate(self.CELLS))
        for value, err, why in results[:-1]:
            np.testing.assert_array_equal(value, results[-1][0])
            np.testing.assert_array_equal(err, results[-1][1])
            assert why == results[-1][2]
        seen = []

        def integrand(y, owner):
            seen.append(len(y))
            return np.sqrt(y)

        monkeypatch.setattr(numerics, "_QK21_ROWS", 7)
        numerics.integrate_qk21(integrand, np.zeros(20), np.ones(20), np.arange(20), 20, 1e-10)
        assert seen[:3] == [7, 7, 6] and max(seen) == 7
