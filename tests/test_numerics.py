import math

import numpy as np
import pytest

from risfso import numerics
from risfso.errors import AccuracyError, DomainError, UnsupportedDomainError


class TestParabolicCylinderD:
    def test_order_zero_identity(self):
        for z in (-3.0, -0.5, 0.0, 1.7, 8.0):
            assert numerics.parabolic_cylinder_d(0.0, z) == pytest.approx(
                math.exp(-z * z / 4.0), rel=1e-12
            )

    def test_order_minus_one_identity(self):
        for z in (-4.0, -1.0, 0.3, 2.5):
            expected = (
                math.exp(z * z / 4.0) * math.sqrt(math.pi / 2.0) * math.erfc(z / math.sqrt(2.0))
            )
            assert numerics.parabolic_cylinder_d(-1.0, z) == pytest.approx(expected, rel=1e-8)

    def test_quadrature_oracle_value(self):
        # frozen from 30-digit evaluation of the integral representation
        assert numerics.parabolic_cylinder_d(-3.0, -2.5) == pytest.approx(
            43.3422272106666, rel=1e-8
        )

    def test_contiguous_relation(self):
        # D_{v+1}(z) - z D_v(z) + v D_{v-1}(z) = 0
        rng = np.random.default_rng(99)
        for _ in range(25):
            v = rng.uniform(-10.0, -1.0)
            z = rng.uniform(-10.0, 10.0)
            d_up = numerics.parabolic_cylinder_d(v + 1.0, z)
            d_mid = numerics.parabolic_cylinder_d(v, z)
            d_dn = numerics.parabolic_cylinder_d(v - 1.0, z)
            residual = d_up - z * d_mid + v * d_dn
            scale = max(abs(d_up), abs(z * d_mid), abs(v * d_dn))
            assert abs(residual) <= 1e-7 * scale

    @pytest.mark.parametrize("v,z", [(0.5, 0.0), (-13.0, 0.0), (0.0, 41.0), (-2.0, -41.0)])
    def test_outside_domain_rejected(self, v, z):
        with pytest.raises(UnsupportedDomainError):
            numerics.parabolic_cylinder_d(v, z)


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
        q = numerics.Quadrature(abs_tol=1e-8, rel_tol=1e-8, max_subdivisions=300)
        total, _ = numerics.integrate_semi_infinite(self._pdf_b, q)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_doubled_nodes_stable(self):
        b = (C_DEFAULT - 1.0, ALPHA - 1.0, BETA - 1.0)
        x = 129.0
        coarse = numerics.meijer_g_1330(
            C_DEFAULT, b, x, numerics.MellinBarnesContour(node_count=256)
        )
        fine = numerics.meijer_g_1330(
            C_DEFAULT, b, x, numerics.MellinBarnesContour(node_count=2048)
        )
        assert coarse == pytest.approx(fine, rel=1e-6)

    def test_real_shift_invariance(self):
        b = (1.3, 4.7, 2.2)
        base = numerics.meijer_g_1330(3.2, b, 7.5)
        for shift in (0.25, 0.9, 2.0):
            moved = numerics.meijer_g_1330(
                3.2, b, 7.5, numerics.MellinBarnesContour(real_shift=-min(b) + shift)
            )
            assert moved == pytest.approx(base, rel=1e-6)

    def test_generic_parameters_frozen_reference(self):
        # frozen from an independent 30-digit Mellin-Barnes evaluation
        cases = [
            ((3.2, (1.3, 4.7, 2.2), 0.5), 0.7733177280083428),
            ((3.2, (1.3, 4.7, 2.2), 50.0), 0.012288864887728625),
            ((0.5, (-0.5, 5.5, 5.0), 3.0), 3623.0063212405425),
        ]
        for (a1, b, x), expected in cases:
            assert numerics.meijer_g_1330(a1, b, x) == pytest.approx(expected, rel=1e-6)

    def test_shift_left_of_poles_rejected(self):
        with pytest.raises(DomainError):
            numerics.meijer_g_1330(
                3.2, (1.3, 4.7, 2.2), 1.0, numerics.MellinBarnesContour(real_shift=-2.0)
            )

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(DomainError):
            numerics.meijer_g_1330(3.2, (1.3, 4.7, 2.2), 0.0)


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        value, err = numerics.integrate_semi_infinite(lambda t: math.exp(-t))
        assert value == pytest.approx(1.0, abs=1e-10)
        assert err <= 1e-8

    def test_gaussian_tail_moment(self):
        value, _ = numerics.integrate_semi_infinite(lambda t: t * math.exp(-t * t))
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_shifted_gaussian_mass(self):
        density = lambda t: math.exp(-0.5 * (t - 5.0) ** 2) / math.sqrt(2.0 * math.pi)
        value, _ = numerics.integrate_semi_infinite(density)
        mass = 0.5 * math.erfc(-5.0 / math.sqrt(2.0))
        assert value == pytest.approx(mass, rel=1e-9)

    def test_error_estimate_bounds_truth(self):
        cases = [
            (lambda t: math.exp(-t), 1.0),
            (lambda t: t * math.exp(-t * t), 0.5),
            (
                lambda t: math.exp(-0.5 * (t - 5.0) ** 2) / math.sqrt(2 * math.pi),
                0.5 * math.erfc(-5.0 / math.sqrt(2.0)),
            ),
        ]
        for f, truth in cases:
            value, err = numerics.integrate_semi_infinite(f)
            assert abs(value - truth) <= max(err, 1e-12)

    def test_budget_exhaustion_raises_with_partial(self):
        q = numerics.Quadrature(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=1)
        with pytest.raises(AccuracyError) as exc_info:
            numerics.integrate_semi_infinite(lambda t: math.sin(40.0 * t) ** 2 * math.exp(-t / 50.0), q)
        assert exc_info.value.partial is not None

    def test_bad_quadrature_settings_rejected(self):
        with pytest.raises(DomainError):
            numerics.Quadrature(abs_tol=0.0)
        with pytest.raises(DomainError):
            numerics.Quadrature(max_subdivisions=0)
