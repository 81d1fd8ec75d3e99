"""Tests for the closed-form performance expressions.

Every closed form with an oracle is checked against that independent
quadrature of its defining integral over the Gaussian aggregate-SNR
density; the amount of fading and the asymptote have none. All are
checked by limit and monotonicity laws that hold exactly.
"""

import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from risfso import analytic, channel, cli, numerics
from risfso.errors import DomainError

ALPHA = 15.0
BETA = 10.0

# Frozen: Gamma(6) * Gamma(5.5) evaluated at 30 digits, the residue
# coefficient for exponents (c, alpha, beta) = (0.5, 6.5, 6.0).
EPSILON_REF = 6281.133334146422


@pytest.fixture(scope="module")
def turb():
    return channel.TurbulenceParams(alpha=ALPHA, beta=BETA)


@pytest.fixture(scope="module")
def geo():
    return channel.PointingGeometry(1e-3, 0.25e-3, 350.0, 250.0, 1.2, 0.1)


@pytest.fixture(scope="module")
def ms(turb, geo):
    return analytic.moments(turb, geo, 128)


def summary(m, delta_sq):
    """A one-element moment summary with the given aggregate mean and variance."""
    return analytic.MomentSummary(m1=m, delta1_sq=delta_sq, n_elements=1, m=m, delta_sq=delta_sq)


class TestMoments:
    def test_first_moment_closed_form(self, turb, geo):
        ms = analytic.moments(turb, geo, 1)
        a, b, c, a0 = ALPHA, BETA, geo.c, geo.a0
        want = (
            c
            * a0 ** 2
            * math.gamma(c + 2)
            * math.gamma(a + 2)
            * math.gamma(b + 2)
            / (a ** 2 * b ** 2 * math.gamma(a) * math.gamma(b) * math.gamma(c + 3))
        )
        assert ms.m1 == pytest.approx(want, rel=1e-13)
        assert ms.m == ms.m1 and ms.delta_sq == ms.delta1_sq

    def test_aggregate_scales_linearly(self, turb, geo):
        one = analytic.moments(turb, geo, 1)
        many = analytic.moments(turb, geo, 64)
        assert many.m == pytest.approx(64 * one.m1, rel=1e-15)
        assert many.delta_sq == pytest.approx(64 * one.delta1_sq, rel=1e-15)

    def test_no_pointing_loss_limit(self, turb):
        # c -> infinity with A0 = 1 leaves only the turbulence moments:
        # E[B] -> (1 + 1/alpha)(1 + 1/beta).
        geo = channel.PointingGeometry.from_exponent(
            5e4, beam_width=1.0, aperture_radius=6.0, distance_l2=100.0
        )
        assert geo.a0 == pytest.approx(1.0, abs=1e-14)
        ms = analytic.moments(turb, geo, 1)
        want = (1 + 1 / ALPHA) * (1 + 1 / BETA)
        assert ms.m1 == pytest.approx(want, rel=1e-4)

    def test_moments_match_sampler(self, turb, geo):
        h = channel.sample_h_a(
            turb, channel.RandomStream(29, 0), 400_000
        ) * channel.sample_h_p(geo, channel.RandomStream(29, 1), 400_000)
        b = h * h
        ms = analytic.moments(turb, geo, 1)
        assert b.mean() == pytest.approx(ms.m1, abs=4 * b.std() / math.sqrt(len(b)))
        assert b.var(ddof=1) == pytest.approx(ms.delta1_sq, rel=0.05)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("a", [15.0, 1e8, 1e15, 1e30])
    def test_gamma_ratio_matches_exact_product(self, a, k):
        # Gamma(a + k) / (a^k Gamma(a)) = prod_{i<k} (1 + i/a), in exact rationals.
        exact = math.prod(1 + Fraction(i) / Fraction(a) for i in range(k))
        assert analytic._gamma_ratio(a, k) == pytest.approx(float(exact), rel=1e-15)

    def test_rejects_bad_element_count(self, turb, geo):
        for n_elements in (0, 2.5, math.nan):
            with pytest.raises(DomainError, match="n_elements must be an integer >= 1"):
                analytic.moments(turb, geo, n_elements)
            with pytest.raises(DomainError, match="n_elements must be an integer >= 1"):
                analytic.asymptotic_profile(turb, geo, n_elements)


class TestMgf:
    def test_at_zero_is_one(self, ms):
        # M(0) = P(gamma > 0) under the truncated Gaussian = the full
        # upper-tail mass, which for these parameters is 1 to double
        # precision.
        assert analytic.mgf(0.0, ms, 10.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.01, 0.274, 1.0, 4.0 / 3.0])
    @pytest.mark.parametrize("gbar", [0.1, 10.0, 1000.0, 1e14, 1e20])
    def test_matches_quadrature(self, ms, s, gbar):
        closed = analytic.mgf(s, ms, gbar)
        oracle, err = analytic.oracle_metric("mgf", ms, gbar, s=s)
        assert closed == pytest.approx(oracle, rel=1e-8, abs=10 * max(err, 1e-300))

    def test_decreasing_in_s(self, ms):
        vals = [analytic.mgf(s, ms, 5.0) for s in (0.0, 0.1, 1.0, 10.0)]
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("gbar", [1e160, 1e300])
    def test_square_of_mean_snr_may_overflow(self, ms, gbar):
        # M depends on s * gbar alone; gbar^2 overflows but the exponent does not.
        assert analytic.mgf(0.0, ms, gbar) == analytic.mgf(0.0, ms, 1.0)
        assert analytic.mgf(1.0 / gbar, ms, gbar) == pytest.approx(
            analytic.mgf(1.0, ms, 1.0), rel=1e-12
        )

    def test_rejects_negative_rate(self, ms):
        with pytest.raises(DomainError):
            analytic.mgf(-0.5, ms, 1.0)
        with pytest.raises(DomainError):
            analytic.mgf(1.0, ms, 0.0)


class TestGeneralizedMoment:
    def test_zeroth_equals_mgf_at_zero(self, ms):
        assert analytic.generalized_moment(0, ms, 3.0) == pytest.approx(
            analytic.mgf(0.0, ms, 3.0), rel=1e-10
        )

    def test_first_is_mean_snr(self, ms):
        gbar = 7.0
        got = analytic.generalized_moment(1, ms, gbar)
        # Truncation at 0 is negligible here, so E[gamma] ~ gbar * m.
        assert got == pytest.approx(gbar * ms.m, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_quadrature(self, ms, n):
        gbar = 2.0
        got = analytic.generalized_moment(n, ms, gbar)
        oracle, err = analytic.oracle_metric("moment", ms, gbar, n=n)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_past_float_range_raises(self, ms):
        # (gamma_bar * delta)^5 is past the float range at gamma_bar = 1e100.
        with pytest.raises(DomainError, match="past the float range"):
            analytic.generalized_moment(5, ms, 1e100)

    @pytest.mark.parametrize("n", [-1, 0.5])
    def test_rejects_negative_order(self, ms, n):
        # A fractional order is outside the integer orders D_v is taken at.
        with pytest.raises(DomainError):
            analytic.generalized_moment(n, ms, 1.0)


class TestAmountOfFading:
    def test_first_order_is_zero(self, ms):
        assert analytic.amount_of_fading(1, ms, 2.0) == 0.0

    def test_second_order_matches_ratio(self, ms):
        gbar = 2.0
        af = analytic.amount_of_fading(2, ms, gbar)
        m1 = analytic.generalized_moment(1, ms, gbar)
        m2 = analytic.generalized_moment(2, ms, gbar)
        assert af == pytest.approx(m2 / m1 ** 2 - 1.0, rel=1e-12)
        # Relative variance of the truncated Gaussian ~ delta^2 / m^2.
        assert af == pytest.approx(ms.delta_sq / ms.m ** 2, rel=1e-6)

    def test_decreases_with_elements(self, turb, geo):
        afs = [
            analytic.amount_of_fading(2, analytic.moments(turb, geo, n), 1.0)
            for n in (1, 16, 128)
        ]
        assert afs[0] > afs[1] > afs[2]

    @pytest.mark.parametrize("gbar", [0.5, 2.0, 500.0])
    def test_independent_of_mean_snr(self, ms, gbar):
        assert analytic.amount_of_fading(2, ms, gbar) == analytic.amount_of_fading(2, ms, 1.0)

    @pytest.mark.parametrize("gbar", [1e-300, 1e160, 1e300])
    def test_moments_out_of_float_range(self, ms, gbar):
        assert analytic.amount_of_fading(2, ms, gbar) == analytic.amount_of_fading(2, ms, 1.0)

    @pytest.mark.parametrize("n_elements", [16, 64, 128, 256])
    def test_matches_truncated_gaussian_quadrature(self, tmp_path, n_elements):
        # The closed-form workload's channel: alpha = 6.5, beta = 6, default pointing.
        path = tmp_path / "closed_form.cfg"
        path.write_text("turbulence.alpha = 6.5\nturbulence.beta = 6.0\n")
        v = cli.validate_config(str(path)).variants[0]
        ms = analytic.moments(v.turbulence, v.pointing, n_elements)
        with mpmath.workdps(50):
            m, d = mpmath.mpf(ms.m), mpmath.sqrt(mpmath.mpf(ms.delta_sq))

            def moment(n):  # E[gamma^n] at gamma_bar = 1, in t = (gamma - m) / d
                return mpmath.quad(lambda t: (m + d * t) ** n * mpmath.exp(-t * t / 2),
                                   [-m / d, 0, mpmath.inf]) / mpmath.sqrt(2 * mpmath.pi)

            want = moment(2) / moment(1) ** 2 - 1
        assert abs(analytic.amount_of_fading(2, ms, 1.0) / float(want) - 1) <= 5e-14

    # E[gamma^3] at gamma_bar = 1 is about delta^3 = 1e450, or the cube of
    # E[gamma] = m = 1e-160 underflows to 0.
    @pytest.mark.parametrize("m, delta_sq", [(1e-3, 1e300), (1e-160, 1e-330)])
    def test_ratio_past_float_range_raises(self, m, delta_sq):
        with pytest.raises(DomainError, match="past the float range"):
            analytic.amount_of_fading(3, summary(m, delta_sq), 1.0)


def test_normal_cdf_matches_mpmath():
    # Phi(x) = erfc(-x / sqrt 2) / 2: the rounding of x / sqrt 2 costs up to
    # about x^2 ulp in the lower tail, as it does in scipy.special.ndtr.
    from scipy import special

    x = np.linspace(-37.0, 5.0, 841)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.ncdf(v)) for v in x])
    err = np.abs(np.array([analytic._phi(float(v)) for v in x]) / ref - 1.0)
    assert err.max() <= 2e-13
    assert err.max() <= np.max(np.abs(special.ndtr(x) / ref - 1.0))


class TestOutage:
    def test_zero_threshold(self, ms):
        assert analytic.outage_probability(0.0, ms, 1.0) == 0.0

    def test_certain_outage_at_low_snr(self, ms):
        assert analytic.outage_probability(1.0, ms, 1e-12) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gbar", [1.0, 1e300])
    def test_infinite_threshold_is_the_mass_above_zero(self, turb, geo, gbar):
        # At N = 2^63 - 1 and 1e300, m gbar overflows, where inf - inf read nan.
        ms = analytic.moments(turb, geo, 2**63 - 1)
        assert analytic.outage_probability(math.inf, ms, gbar) == analytic._phi(ms.m / ms.delta)

    def test_matches_quadrature(self, ms):
        for gbar in (0.001, 0.01, 0.05):
            got = analytic.outage_probability(1.0, ms, gbar)
            oracle, err = analytic.oracle_metric("outage", ms, gbar, gamma_th=1.0)
            assert got == pytest.approx(oracle, rel=1e-8, abs=10 * max(err, 1e-300))

    def test_monotone_in_threshold_and_snr(self, ms):
        by_th = [analytic.outage_probability(t, ms, 0.01) for t in (0.5, 1.0, 2.0)]
        assert by_th == sorted(by_th)
        by_snr = [analytic.outage_probability(1.0, ms, g) for g in (0.005, 0.01, 0.02)]
        assert by_snr == sorted(by_snr, reverse=True)

    def test_rejects_negative_threshold(self, ms):
        with pytest.raises(DomainError):
            analytic.outage_probability(-1.0, ms, 1.0)

    def test_deep_lower_tail_does_not_cancel(self):
        # Both CDF terms lie near 1e-25 here; a difference of erf values
        # close to -1 cancels to exactly 0.
        turb = channel.TurbulenceParams(alpha=6.5, beta=6.0)
        geo = channel.PointingGeometry(1e-3, 0.5e-3, 150.0, 150.0, 1.2, 0.1)
        ms = analytic.moments(turb, geo, 256)
        gbar = channel.LinkConfig.db_to_linear(30.0)
        mu, sd = ms.m * gbar, ms.delta * gbar
        with mpmath.workdps(40):
            ref = float(mpmath.ncdf((1.0 - mu) / sd) - mpmath.ncdf(-mu / sd))
        assert ref > 0.0
        assert analytic.outage_probability(1.0, ms, gbar) == pytest.approx(ref, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("n_elements", [1, 2, 4])
    def test_high_snr_outage_keeps_relative_accuracy(self, n_elements):
        # fig4 channel: as the SNR grows, the normal CDF at the two ends of
        # [0, gamma_th] agrees in more leading digits, and a difference of
        # the two loses up to 5e-6 relative by 140 dB.
        turb = channel.TurbulenceParams(alpha=6.5, beta=6.0)
        geo = channel.PointingGeometry.from_exponent(0.5, 1.2, 0.1, 150.0)
        ms = analytic.moments(turb, geo, n_elements)
        with mpmath.workdps(60):
            m, d = mpmath.mpf(ms.m), mpmath.sqrt(mpmath.mpf(ms.delta_sq))
            for db in range(0, 145, 5):
                gbar = channel.LinkConfig.db_to_linear(float(db))
                ref = mpmath.ncdf(1 / (mpmath.mpf(gbar) * d) - m / d) - mpmath.ncdf(-m / d)
                got = analytic.outage_probability(1.0, ms, gbar)
                assert abs(got - ref) <= 1e-13 * ref, f"{db} dB"

    @pytest.mark.parametrize("db", [4.0, 6.0])
    def test_oracle_resolves_far_tail(self, turb, db):
        # Default channel at N = 4096: outage near 4.5e-71 and 4.2e-247 lies
        # far below any absolute quadrature tolerance.
        geo = channel.PointingGeometry(1e-3, 0.5e-3, 150.0, 150.0, 1.2, 0.1)
        ms = analytic.moments(turb, geo, 4096)
        gbar = channel.LinkConfig.db_to_linear(db)
        mu, sd = ms.m * gbar, ms.delta * gbar
        with mpmath.workdps(40):
            ref = float(mpmath.ncdf((1.0 - mu) / sd) - mpmath.ncdf(-mu / sd))
        assert 0.0 < ref < 1e-70
        oracle, _ = analytic.oracle_metric("outage", ms, gbar, gamma_th=1.0)
        assert oracle == pytest.approx(ref, rel=1e-6, abs=0.0)
        assert analytic.outage_probability(1.0, ms, gbar) == pytest.approx(oracle, rel=1e-6, abs=0.0)


class TestAsymptotics:
    def test_profile_reference_case(self):
        turb = channel.TurbulenceParams(alpha=6.5, beta=6.0)
        geo = channel.PointingGeometry.from_exponent(
            0.5, beam_width=1.2, aperture_radius=0.1, distance_l2=250.0
        )
        for n in (1, 2, 4):
            prof = analytic.asymptotic_profile(turb, geo, n)
            assert prof.varrho == pytest.approx(-0.5, rel=1e-12)
            assert math.exp(prof.log_epsilon) == pytest.approx(EPSILON_REF, rel=1e-12)
            assert prof.diversity_order == pytest.approx(0.25 * n, rel=1e-12)

    def test_dominant_exponent_selection(self, geo):
        # With alpha, beta >> c the pointing exponent dominates.
        turb = channel.TurbulenceParams(alpha=ALPHA, beta=BETA)
        prof = analytic.asymptotic_profile(turb, geo, 1)
        assert prof.varrho == pytest.approx(geo.c - 1.0, rel=1e-12)

    def test_coincident_exponents_rejected(self, geo):
        turb = channel.TurbulenceParams(alpha=6.0, beta=6.0)
        with pytest.raises(DomainError, match="too close for the asymptotic expansion"):
            analytic.asymptotic_profile(turb, geo, 1)

    def test_coefficient_past_float_range_rejected(self):
        # lgamma of the gap alpha - 1 - varrho overflows at alpha = 1e306.
        geo = channel.PointingGeometry(1e-3, 0.5e-3, 150.0, 150.0, 1.2, 0.1)
        with pytest.raises(DomainError, match="asymptotic coefficient is not a positive finite"):
            analytic.asymptotic_profile(channel.TurbulenceParams(1e306, BETA), geo, 1)
        prof = analytic.asymptotic_profile(channel.TurbulenceParams(1e300, BETA), geo, 1)
        assert prof.log_epsilon == pytest.approx(6.9e302, rel=1e-3)

    def test_zero_threshold_is_zero(self, turb, geo):
        prof = analytic.asymptotic_profile(turb, geo, 4)
        assert analytic.asymptotic_outage(0.0, prof, turb, geo, 1e6) == 0.0

    def test_log_slope_per_decibel(self):
        turb = channel.TurbulenceParams(alpha=6.5, beta=6.0)
        geo = channel.PointingGeometry.from_exponent(
            0.5, beam_width=1.2, aperture_radius=0.1, distance_l2=250.0
        )
        for n in (1, 2, 4):
            prof = analytic.asymptotic_profile(turb, geo, n)
            g1 = channel.LinkConfig.db_to_linear(60.0)
            g2 = channel.LinkConfig.db_to_linear(70.0)
            p1 = analytic.asymptotic_outage(1.0, prof, turb, geo, g1)
            p2 = analytic.asymptotic_outage(1.0, prof, turb, geo, g2)
            slope = (math.log10(p2) - math.log10(p1)) / 10.0
            assert slope == pytest.approx(-(1.0 + prof.varrho) * n / 20.0, rel=1e-12)

    def test_tracks_exact_outage_at_high_snr(self):
        # The ratio asymptotic/exact must approach 1 as SNR grows; the
        # exact value here is the quadrature of the single-element
        # density gamma = gamma_bar * B.
        turb = channel.TurbulenceParams(alpha=6.5, beta=6.0)
        geo = channel.PointingGeometry.from_exponent(
            0.5, beam_width=1.2, aperture_radius=0.1, distance_l2=250.0
        )
        prof = analytic.asymptotic_profile(turb, geo, 1)
        from scipy import integrate

        ratios = []
        for gbar_db in (40.0, 80.0):
            gbar = channel.LinkConfig.db_to_linear(gbar_db)
            exact, _ = integrate.quad(
                lambda x: channel.pdf_b(x, turb, geo), 0, 1.0 / gbar, limit=200
            )
            approx = analytic.asymptotic_outage(1.0, prof, turb, geo, gbar)
            ratios.append(approx / exact)
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        assert ratios[1] == pytest.approx(1.0, rel=0.05)


class TestAverageBer:
    def test_is_chiani_combination_of_mgf(self, ms):
        for gbar in (0.1, 1.0, 100.0):
            want = analytic.mgf(1.0, ms, gbar) / 12.0 + analytic.mgf(4.0 / 3.0, ms, gbar) / 4.0
            assert analytic.average_ber(1.0, ms, gbar) == pytest.approx(want, rel=1e-14)

    def test_matches_quadrature(self, ms):
        for gbar in (0.1, 1.0, 100.0, 1e20):
            got = analytic.average_ber(1.0, ms, gbar)
            oracle, err = analytic.oracle_metric("ber_chiani", ms, gbar)
            assert got == pytest.approx(oracle, rel=1e-6, abs=10 * max(err, 1e-300))

    def test_low_snr_limit_is_one_third(self, ms):
        # M(s) -> 1 as gamma_bar -> 0, so BER -> 1/12 + 1/4 = 1/3.
        assert analytic.average_ber(1.0, ms, 1e-10) == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_bounded_and_decreasing(self, ms):
        vals = [analytic.average_ber(1.0, ms, g) for g in (0.01, 0.1, 1.0, 10.0)]
        assert all(0.0 <= v <= 0.5 for v in vals)
        assert vals == sorted(vals, reverse=True)

    def test_modulation_rescaling(self, ms):
        # psi enters only through the exponential rates.
        want = analytic.mgf(0.5, ms, 2.0) / 12.0 + analytic.mgf(2.0 / 3.0, ms, 2.0) / 4.0
        assert analytic.average_ber(0.5, ms, 2.0) == pytest.approx(want, rel=1e-14)

    def test_rejects_bad_psi(self, ms):
        with pytest.raises(DomainError):
            analytic.average_ber(0.0, ms, 1.0)

    @pytest.mark.parametrize("m, delta_sq, gbar, psi", [
        (8.942799853405746e155, 1.7641828302060737e308, 2.31126515605057e-145, 546.1303289019525),
    ], ids=["nan-terms"])
    def test_mgf_past_float_range_raises(self, m, delta_sq, gbar, psi):
        # The MGF terms are nan here; no BER is returned for them.
        with pytest.raises(DomainError):
            analytic.average_ber(psi, summary(m, delta_sq), gbar)

    def test_mgf_exponent_with_overflowing_square_matches_mpmath(self):
        # (s gamma_bar delta)^2 overflows here, but the MGF exponent is
        # finite and negative, so the BER is a normal float.
        m, delta_sq = 1.8337409344613132e-156, 1.525104e-317
        gbar, psi = 4.5786185462628184e153, 187.19699791718858
        got = analytic.average_ber(psi, summary(m, delta_sq), gbar)
        with mpmath.workdps(60):
            mm, d, g = mpmath.mpf(m), mpmath.sqrt(mpmath.mpf(delta_sq)), mpmath.mpf(gbar)
            want = 0
            for w, r in zip(analytic.CHIANI_WEIGHTS, analytic.CHIANI_RATES):
                s = mpmath.mpf(r * psi)
                want += w / 2 * mpmath.erfc((s * g * d - mm / d) / mpmath.sqrt(2)) * mpmath.exp(
                    s * s * g * g * d * d / 2 - s * g * mm)
        assert got == pytest.approx(float(want), rel=1e-12)


class TestChannelCapacity:
    def test_is_fit_combination_of_mgf(self, ms):
        for gbar in (0.01, 0.1, 1.0):
            want = sum(
                e * analytic.mgf(z, ms, gbar)
                for e, z in zip(analytic.CAPACITY_ETA, analytic.CAPACITY_ZETA)
            )
            got = analytic.channel_capacity(ms, gbar)
            assert got == pytest.approx(max(want, 0.0), rel=1e-12)

    def test_increasing_in_snr(self, ms):
        vals = [analytic.channel_capacity(ms, g) for g in (0.01, 0.1, 1.0)]
        assert vals == sorted(vals)

    def test_mgf_past_float_range_raises(self):
        ms = summary(8.942799853405746e155, 1.7641828302060737e308)
        with pytest.raises(DomainError):
            analytic.channel_capacity(ms, 2.31126515605057e-145)

    def test_tracks_quadrature_in_window(self, ms):
        # Mid-window accuracy of the two-exponential log fit.
        gbar = 100.0 / ms.m
        got = analytic.channel_capacity(ms, gbar)
        oracle, _ = analytic.oracle_metric("capacity", ms, gbar)
        assert got == pytest.approx(oracle, rel=0.05)


class TestOracleMetric:
    def test_rejects_unknown_kind(self, ms):
        with pytest.raises(DomainError):
            analytic.oracle_metric("nope", ms, 1.0)

    def test_outage_requires_threshold(self, ms):
        with pytest.raises(DomainError):
            analytic.oracle_metric("outage", ms, 1.0)

    @pytest.mark.parametrize("kind", ["outage", "capacity"])
    def test_rejects_nonpositive_mean_snr(self, ms, kind):
        for gbar in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="gamma_bar must be positive"):
                analytic.oracle_metric(kind, ms, gbar, gamma_th=1.0)

    @pytest.mark.parametrize("gbar", [0.0, -1.0, math.nan])
    def test_closed_forms_reject_a_bad_mean_snr(self, ms, turb, geo, gbar):
        # The oracle's rule and message, for every closed form.
        prof = analytic.asymptotic_profile(turb, geo, ms.n_elements)
        for closed_form in (
            lambda: analytic.mgf(1.0, ms, gbar),
            lambda: analytic.generalized_moment(1, ms, gbar),
            lambda: analytic.outage_probability(1.0, ms, gbar),
            lambda: analytic.asymptotic_outage(1.0, prof, turb, geo, gbar),
            lambda: analytic.amount_of_fading(2, ms, gbar),
            lambda: analytic.average_ber(1.0, ms, gbar),
            lambda: analytic.channel_capacity(ms, gbar),
        ):
            with pytest.raises(DomainError, match="gamma_bar must be positive"):
                closed_form()

    @pytest.mark.parametrize("gbar", [1e-300, 1e160])
    def test_rejects_snr_variance_out_of_float_range(self, ms, gbar):
        with pytest.raises(DomainError):
            analytic.oracle_metric("capacity", ms, gbar)

    @pytest.mark.parametrize("kind, params, message", [
        ("ber_exactQ", {"psi": 0.0}, "psi must be positive"),
        ("ber_exactQ", {"psi": -1.0}, "psi must be positive"),
        ("ber_chiani", {"psi": 0.0}, "psi must be positive"),
        ("ber_chiani", {"psi": -1.0}, "psi must be positive"),
        ("mgf", {"s": -1.0}, "mgf requires s >= 0"),
        ("moment", {"n": -1}, "moment order must be >= 0"),
        ("moment", {"n": -2}, "moment order must be >= 0"),
        ("outage", {"gamma_th": -1.0}, "gamma_th must be non-negative"),
        ("outage", {"gamma_th": math.nan}, "gamma_th must be non-negative"),
    ])
    def test_rejects_what_the_closed_form_rejects(self, ms, kind, params, message):
        # Same domain and message as average_ber, mgf, generalized_moment and
        # outage_probability.
        with pytest.raises(DomainError, match=message):
            analytic.oracle_metric(kind, ms, 1.0, **params)

    @pytest.mark.parametrize("gamma_th", [-1.0, math.nan])
    def test_outage_closed_forms_reject_a_bad_threshold(self, ms, turb, geo, gamma_th):
        prof = analytic.asymptotic_profile(turb, geo, ms.n_elements)
        with pytest.raises(DomainError, match="gamma_th must be non-negative"):
            analytic.outage_probability(gamma_th, ms, 1.0)
        with pytest.raises(DomainError, match="gamma_th must be non-negative"):
            analytic.asymptotic_outage(gamma_th, prof, turb, geo, 1.0)

    @pytest.mark.parametrize("n_elements", [1, 4])
    def test_outage_at_subnormal_snr_variance(self, turb, n_elements):
        # At -1560 dB on the default channel 2 gbar^2 delta^2 is subnormal
        # (4.2e-320 at N = 1); the density is formed from gbar * delta instead.
        geo = channel.PointingGeometry(1e-3, 0.5e-3, 150.0, 150.0, 1.2, 0.1)
        ms = analytic.moments(turb, geo, n_elements)
        gbar = 10.0 ** -156
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _ = analytic.oracle_metric("outage", ms, gbar, gamma_th=1.0)
        assert abs(got - analytic.outage_probability(1.0, ms, gbar)) <= 1e-12

    @pytest.mark.parametrize("weights, degree", [("_QK21_WK", 31), ("_QK21_WG", 19)])
    def test_qk21_rule_is_exact_to_its_degree(self, weights, degree):
        # Kronrod's 21 nodes integrate x^k exactly for k <= 31, and the Gauss
        # weights on the 10 odd-numbered ones for k <= 19; a typo in the table
        # would otherwise show only as slower convergence.
        x, w = numerics._QK21_X, getattr(numerics, weights)
        for k in range(degree + 1):
            assert abs((w * x ** k).sum() - (1 + (-1) ** k) / (k + 1)) <= 1e-15, k
        assert abs((w * x ** (degree + 1)).sum() - 2 / (degree + 2)) > 1e-12

    def test_grid_cells_equal_float_calls_bit_for_bit(self):
        # All four sweep kinds on the closed-form channel: each cell's panels
        # and sums do not depend on the other cells of the call.
        t, g = channel.TurbulenceParams(6.5, 6.0), DEFAULT_GEO
        gammas = [channel.LinkConfig.db_to_linear(db) for db in range(41)]
        summaries = [analytic.moments(t, g, n) for n in (1, 4, 16, 64, 128, 256)]
        for kind in ("outage", "ber_exactQ", "capacity", "moment"):
            grids = [[analytic.oracle_metric(kind, ms, gb, gamma_th=1.0) for gb in gammas]
                     for ms in summaries]
            # One call over every summary gives each summary's own float
            # calls, and one summary alone gives the same list.
            assert analytic.oracle_metric(kind, summaries, gammas, gamma_th=1.0) == grids
            for ms, grid in zip(summaries, grids):
                assert analytic.oracle_metric(kind, [ms], gammas, gamma_th=1.0) == [grid], (
                    ms.n_elements, kind)
            # A bad SNR in the middle is its own error in every summary's list.
            mid = len(gammas) // 2
            batch = analytic.oracle_metric(kind, summaries, [*gammas[:mid], 1e300, *gammas[mid:]],
                                           gamma_th=1.0)
            for grid, cells in zip(grids, batch):
                assert isinstance(cells[mid], DomainError)
                assert "out of float range" in str(cells[mid])
                assert cells[:mid] + cells[mid + 1:] == grid

    def test_bad_grid_cell_is_its_own_error(self, ms):
        # 0 dB, then 3000 dB, where the variance leaves the float range, then a
        # negative SNR: each bad cell is its own error, and the 0 dB cell is
        # what a float call gives.
        ((first, bad, last),) = analytic.oracle_metric("ber_exactQ", [ms], [1.0, 1e300, -1.0])
        assert first == analytic.oracle_metric("ber_exactQ", ms, 1.0)
        assert isinstance(bad, DomainError) and "out of float range" in str(bad)
        assert isinstance(last, DomainError)
        assert str(last) == "gamma_bar must be positive and finite"

    def test_exactq_oracle_limits(self, ms):
        # At vanishing SNR the exact-Q average approaches Q(0) = 1/2
        # while the two-exponential form approaches 1/3; both stay in
        # [0, 1/2].
        exact, _ = analytic.oracle_metric("ber_exactQ", ms, 1e-10)
        approx, _ = analytic.oracle_metric("ber_chiani", ms, 1e-10)
        assert exact == pytest.approx(0.5, rel=1e-4)
        assert approx == pytest.approx(1.0 / 3.0, rel=1e-4)
        for gbar in (0.1, 1.0, 10.0, 100.0):
            exact, _ = analytic.oracle_metric("ber_exactQ", ms, gbar)
            approx, _ = analytic.oracle_metric("ber_chiani", ms, gbar)
            assert 0.0 < exact <= 0.5 + 1e-12
            assert 0.0 < approx <= 0.5 + 1e-12


class TestForms:
    # 0, the smallest subnormal, then 1e-12 ... 1e300.
    X = np.concatenate(([0.0, 5e-324], np.geomspace(1e-12, 1e300, 313)))
    # (th, psi, n, s)
    PARAMS = [(1.0, 1.0, 1, 1.0), (1e-3, 187.2, 3, 4.0 / 3.0), (1e150, 0.05, 7, 1e-3)]
    # Each kind's g(x) on one math float, the scalar reference of its form.
    SCALAR = {
        "outage": lambda x, th, psi, n, s: (x <= th) * 1.0,
        "ber_exactQ": lambda x, th, psi, n, s: 0.5 * math.erfc(math.sqrt(psi * x)),
        "ber_chiani": lambda x, th, psi, n, s: sum(
            w * math.exp(-r * psi * x)
            for w, r in zip(analytic.CHIANI_WEIGHTS, analytic.CHIANI_RATES)),
        "capacity": lambda x, th, psi, n, s: math.log1p(x) / math.log(2.0),
        "moment": lambda x, th, psi, n, s: x ** n,
        "mgf": lambda x, th, psi, n, s: math.exp(-s * x),
    }

    def test_every_kind_has_a_form(self):
        assert analytic.METRIC_KINDS == tuple(analytic._FORMS) == (
            "outage", "ber_exactQ", "ber_chiani", "capacity", "moment", "mgf")

    @pytest.mark.parametrize("kind", sorted(analytic._FORMS))
    def test_matches_scalar_reference(self, kind):
        # The scalar reference on math floats against the form on numpy
        # arrays, as the oracle and Monte Carlo run it. The array erfc
        # flushes to 0 the subnormal values math.erfc keeps.
        form = analytic._FORMS[kind]
        for th, psi, n, s in self.PARAMS:
            x = self.X[self.X <= 1e300 ** (1.0 / n)] if kind == "moment" else self.X
            got = [self.SCALAR[kind](float(xi), th, psi, n, s) for xi in x]
            np.testing.assert_allclose(got, form(x, th, psi, n, s), rtol=1e-15,
                                       atol=sys.float_info.min)

    def test_exactq_matches_mpmath(self):
        # The reference erfc takes the same rounded sqrt(psi x) as the form:
        # erfc's condition number 2u^2 would turn the half-ulp rounding of u
        # alone into up to 1.5e-13 at u = 26.
        form = analytic._FORMS["ber_exactQ"]
        with mpmath.workdps(40):
            for psi in (1.0, 187.2):
                for x, got in zip(self.X, form(self.X, None, psi, 1, 0.0)):
                    expected = 0.5 * mpmath.erfc(math.sqrt(psi * x))
                    if expected >= sys.float_info.min:
                        assert abs(got / expected - 1) <= 1e-15, x

    def test_capacity_matches_mpmath(self):
        # log1p keeps every digit of log2(1 + x) down to the smallest
        # subnormal, where log2(1.0 + x) would read 0; a subnormal result is
        # within half its spacing, math.ulp(0.0).
        form = analytic._FORMS["capacity"]
        x = self.X[1:]
        arrays = form(x, None, 1.0, 1, 0.0)
        with mpmath.workdps(40):
            for xi, got_array in zip(x, arrays):
                expected = mpmath.log1p(mpmath.mpf(float(xi))) / mpmath.log(2)
                bound = max(1e-15 * expected, mpmath.mpf(math.ulp(0.0)) / 2)
                assert abs(got_array - expected) <= bound, xi


def _mp_mgf(a, mu, sd):
    """E[exp(-a x)] over the Gaussian density (mu, sd) on [0, inf), in mpmath."""
    u = (a * sd - mu / sd) / mpmath.sqrt(2)
    if u > 1e20:
        # erfcx(u) to O(u^-4) relative; mpmath's erfc loses its digits past
        # u ~ 1e100, which Craig's form reaches as its angle goes to 0.
        erfcx = (1 - 1 / (2 * u * u)) / (u * mpmath.sqrt(mpmath.pi))
    else:
        erfcx = mpmath.exp(u * u) * mpmath.erfc(u)
    return mpmath.exp(-mu * mu / (2 * sd * sd)) * erfcx / 2


DEFAULT_GEO = channel.PointingGeometry(1e-3, 0.5e-3, 150.0, 150.0, 1.2, 0.1)
DEEP_TAIL_CHANNELS = {
    "closed-form": (channel.TurbulenceParams(6.5, 6.0), DEFAULT_GEO),
    "default": (channel.TurbulenceParams(15.0, 10.0), DEFAULT_GEO),
    "fig5 a15_b10_s1": next((v.turbulence, v.pointing) for v in cli.figure_preset("fig5").variants
                            if v.label == "a15_b10_s1"),
}


class TestOracleDeepTail:
    """BER oracles far below any absolute tolerance, against 50-digit mpmath.

    The exact-Q reference is Craig's form (1/pi) int_0^{pi/2} M(psi / sin^2 t) dt
    and the two-exponential one is (1/12) M(psi) + (1/4) M(4 psi / 3), with M
    the MGF of the same Gaussian density, so neither integrates over the SNR
    as the oracle does.
    """

    @staticmethod
    def reference(kind, ms, gbar, psi):
        with mpmath.workdps(50):
            mu = mpmath.mpf(gbar) * mpmath.mpf(ms.m)
            sd = mpmath.mpf(gbar) * mpmath.sqrt(mpmath.mpf(ms.delta_sq))
            if kind == "ber_exactQ":
                return mpmath.quad(lambda t: _mp_mgf(psi / mpmath.sin(t) ** 2, mu, sd),
                                   [0, mpmath.pi / 2]) / mpmath.pi
            return (_mp_mgf(mpmath.mpf(psi), mu, sd) / 12
                    + _mp_mgf(4 * mpmath.mpf(psi) / 3, mu, sd) / 4)

    @pytest.mark.parametrize("name, n_elements, db, kind, psi, want", [
        ("closed-form", 128, 40.0, "ber_exactQ", 1.0, 5.274576891204e-15),
        ("fig5 a15_b10_s1", 256, 30.0, "ber_exactQ", 1.0, 3.039208063920e-25),
        ("fig5 a15_b10_s1", 256, 30.0, "ber_chiani", 1.0, 3.393917693367e-25),
        ("fig5 a15_b10_s1", 256, 34.0, "ber_exactQ", 1.0, 9.608295023223e-26),
        ("fig5 a15_b10_s1", 256, 34.0, "ber_chiani", 1.0, 1.053442473041e-25),
        ("fig5 a15_b10_s1", 256, 36.0, "ber_exactQ", 1.0, 5.780039436353e-26),
        ("fig5 a15_b10_s1", 256, 36.0, "ber_chiani", 1.0, 6.308932095725e-26),
        ("fig5 a15_b10_s1", 256, 40.0, "ber_exactQ", 1.0, 2.196787043828e-26),
        ("fig5 a15_b10_s1", 256, 40.0, "ber_chiani", 1.0, 2.386930617361e-26),
        ("default", 128, 32.0, "ber_exactQ", 3000.0, 1.829474320984e-30),
        # High psi: a spike of width about 1/psi at 0 SNR, smooth in sqrt(SNR).
        ("default", 128, 32.0, "ber_exactQ", 5000.0, 1.097234554889e-30),
        ("default", 128, 36.0, "ber_exactQ", 3000.0, 7.278776267985e-31),
        ("default", 128, 40.0, "ber_exactQ", 500.0, 1.739625314761e-30),
        ("default", 128, 40.0, "ber_exactQ", 3000.0, 2.897021737429e-31),
        ("closed-form", 64, 24.0, "ber_exactQ", 1.0, 1.429765996175e-2),
        # The exact-Q spike lies far below the density mode; panels end at its edges.
        ("default", 1, 40.0, "ber_exactQ", 1e9, 4.381022724004e-11),
        ("default", 128, 100.0, "ber_exactQ", 1e4, 8.689654455392e-38),
        ("closed-form", 128, 200.0, "ber_exactQ", 1.0, 4.176276348336e-31),
        ("default", 1, 1000.0, "ber_exactQ", 1.0, 4.381022721871e-98),
    ])
    def test_ber_matches_mpmath(self, name, n_elements, db, kind, psi, want):
        ms = analytic.moments(*DEEP_TAIL_CHANNELS[name], n_elements)
        gbar = channel.LinkConfig.db_to_linear(db)
        ref = float(self.reference(kind, ms, gbar, psi))
        assert ref == pytest.approx(want, rel=1e-9, abs=0.0)
        got, _ = analytic.oracle_metric(kind, ms, gbar, psi=psi)
        assert got == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_capacity_at_tiny_snr_matches_mpmath(self, turb):
        # A 30 m beam on a 10 cm aperture, N = 1, 0 dB: the mean SNR is about
        # 6e-10, where log2(1.0 + x) keeps about 8 digits.
        geo = channel.PointingGeometry(1e-3, 0.5e-3, 150.0, 150.0, 30.0, 0.1)
        ms = analytic.moments(turb, geo, 1)
        with mpmath.workdps(50):
            mu, sd = mpmath.mpf(ms.m), mpmath.sqrt(mpmath.mpf(ms.delta_sq))
            cuts = sorted({mpmath.mpf(0), *(mu + k * sd for k in range(-12, 13, 2)
                                            if mu + k * sd > 0)})
            ref = float(mpmath.quad(lambda x: mpmath.log1p(x) * mpmath.npdf(x, mu, sd),
                                    [*cuts, mpmath.inf]) / mpmath.log(2))
        assert ref == pytest.approx(8.853455992e-10, rel=1e-9, abs=0.0)
        got, _ = analytic.oracle_metric("capacity", ms, 1.0)
        assert got == pytest.approx(ref, rel=1e-15, abs=0.0)
