"""Tests for channel parameter derivation and sample generation.

Distributional checks compare deterministic (fixed-seed) sample sets
against closed-form moments and quadrature CDFs, so they are exact
regression tests, not flaky statistical ones.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from risfso import analytic, channel
from risfso.errors import DomainError

# Frozen against a 30-digit arbitrary-precision evaluation of the
# alpha/beta formulas at cn2=5e-14 m^(-2/3), 1550 nm, 300 m, a=0.1 m.
CN2 = 5e-14
WAVELENGTH = 1550e-9
PATH_LENGTH = 300.0
APERTURE = 0.1
ALPHA_REF = 1990.17722498236
BETA_REF = 2489.26965365300

GEO_ARGS = dict(
    sigma_theta=1e-3,
    sigma_beta=0.25e-3,
    distance_l1=350.0,
    distance_l2=250.0,
    beam_width=1.2,
    aperture_radius=0.1,
)


def default_geometry(**overrides):
    args = {**GEO_ARGS, **overrides}
    return channel.PointingGeometry(**args)


class TestDeriveTurbulence:
    def test_frozen_reference_point(self):
        t = channel.derive_turbulence(CN2, WAVELENGTH, PATH_LENGTH, APERTURE)
        assert t.alpha == pytest.approx(ALPHA_REF, rel=1e-12)
        assert t.beta == pytest.approx(BETA_REF, rel=1e-12)

    def test_weak_turbulence_limit(self):
        # As Cn^2 -> 0 the scintillation vanishes and both shapes blow up.
        t = channel.derive_turbulence(1e-18, WAVELENGTH, PATH_LENGTH, APERTURE)
        assert t.alpha > 1e5 and t.beta > 1e5

    def test_monotone_in_cn2(self):
        values = [
            channel.derive_turbulence(c, WAVELENGTH, PATH_LENGTH, APERTURE)
            for c in (1e-15, 1e-14, 1e-13)
        ]
        alphas = [t.alpha for t in values]
        betas = [t.beta for t in values]
        assert alphas == sorted(alphas, reverse=True)
        assert betas == sorted(betas, reverse=True)

    @pytest.mark.parametrize("bad", ["cn2", "wavelength", "path_length", "aperture_radius"])
    def test_rejects_nonpositive_inputs(self, bad):
        args = dict(
            cn2=CN2,
            wavelength=WAVELENGTH,
            path_length=PATH_LENGTH,
            aperture_radius=APERTURE,
        )
        args[bad] = 0.0
        with pytest.raises(DomainError):
            channel.derive_turbulence(**args)


class TestDerivePointing:
    def test_peak_gain_formula(self):
        geo = default_geometry()
        nu = math.sqrt(math.pi / 2.0) * GEO_ARGS["aperture_radius"] / GEO_ARGS["beam_width"]
        assert geo.nu == pytest.approx(nu, rel=1e-15)
        assert geo.a0 == pytest.approx(math.erf(nu) ** 2, rel=1e-15)

    def test_peak_gain_approaches_one_for_wide_aperture(self):
        geo = default_geometry(aperture_radius=5.0)
        assert geo.a0 == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(DomainError):
            default_geometry(aperture_radius=50.0)

    def test_exponent_quarter_under_doubled_jitter(self):
        # c is inversely quadratic in the jitter scale, so doubling both
        # deviations divides the exponent by exactly four.
        base = default_geometry()
        doubled = default_geometry(
            sigma_theta=2 * GEO_ARGS["sigma_theta"],
            sigma_beta=2 * GEO_ARGS["sigma_beta"],
        )
        assert doubled.c == pytest.approx(base.c / 4.0, rel=1e-14)

    def test_exponent_matches_radial_variance(self):
        geo = default_geometry()
        # Var(r) per axis: ((1 + L1/L2) sigma_theta)^2 + (2 sigma_beta)^2,
        # scaled by L2^2; c = wzeq2 / (4 sigma_r_axis^2).
        var_axis = ((1.0 + geo.distance_l1 / geo.distance_l2) ** 2 * geo.sigma_theta ** 2
                    + 4.0 * geo.sigma_beta ** 2) * geo.distance_l2 ** 2
        assert geo.c == pytest.approx(geo.wzeq2 / (4.0 * var_axis), rel=1e-14)

    def test_from_exponent_roundtrip(self):
        for c in (0.5, 1.0, 3.7):
            geo = channel.PointingGeometry.from_exponent(
                c, beam_width=1.2, aperture_radius=0.1, distance_l2=250.0
            )
            assert geo.c == pytest.approx(c, rel=1e-13)
            assert geo.distance_l1 == 0.0 and geo.sigma_beta == 0.0

    def test_rejects_all_zero_jitter(self):
        with pytest.raises(DomainError):
            default_geometry(sigma_theta=0.0, sigma_beta=0.0)

    def test_rejects_bad_geometry(self):
        with pytest.raises(DomainError, match="jitter deviations must be non-negative"):
            default_geometry(sigma_beta=-1e-3)
        with pytest.raises(DomainError):
            default_geometry(distance_l2=0.0)
        with pytest.raises(DomainError):
            default_geometry(beam_width=-1.0)
        with pytest.raises(DomainError):
            channel.PointingGeometry.from_exponent(0.0, 1.2, 0.1, 250.0)


class TestRandomStream:
    def test_same_seed_reproduces(self):
        a = channel.RandomStream(2024, 3).generator().standard_normal(16)
        b = channel.RandomStream(2024, 3).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = channel.RandomStream(2024, 0).generator().standard_normal(16)
        b = channel.RandomStream(2024, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)


# The 100-point x grid of the benchmark's pdf_b pass.
PDF_B_GRID = np.geomspace(1e-6, 0.05, 100)


@pytest.fixture(scope="module")
def turb():
    return channel.TurbulenceParams(alpha=15.0, beta=10.0)


@pytest.fixture(scope="module")
def geo():
    return default_geometry()


class TestSamplers:
    N_SAMPLES = 200_000

    def test_turbulence_gain_moments(self, turb):
        h = channel.sample_h_a(turb, channel.RandomStream(7, 0), self.N_SAMPLES)
        assert np.all(h > 0)
        # E[h] = 1; E[h^2] = (1 + 1/alpha)(1 + 1/beta).
        m2 = (1 + 1 / turb.alpha) * (1 + 1 / turb.beta)
        assert h.mean() == pytest.approx(1.0, abs=4 * h.std() / math.sqrt(len(h)))
        hh = h * h
        assert hh.mean() == pytest.approx(m2, abs=4 * hh.std() / math.sqrt(len(h)))

    def test_turbulence_gain_cdf(self, turb):
        # Empirical CDF against P(XY <= h) = E_X[F_beta-gamma(h / X)],
        # computed by quadrature over the alpha-Gamma mixing density.
        h = channel.sample_h_a(turb, channel.RandomStream(11, 0), self.N_SAMPLES)
        a, b = turb.alpha, turb.beta
        for q in (0.6, 1.0, 1.5):
            truth, _ = integrate.quad(
                lambda x: stats.gamma.pdf(x, a, scale=1 / a)
                * stats.gamma.cdf(q / x, b, scale=1 / b),
                0,
                np.inf,
            )
            emp = float(np.mean(h <= q))
            tol = 4 * math.sqrt(truth * (1 - truth) / len(h))
            assert emp == pytest.approx(truth, abs=tol)

    def test_pointing_gain_support_and_law(self, geo):
        h = channel.sample_h_p(geo, channel.RandomStream(13, 0), self.N_SAMPLES)
        assert np.all(h > 0) and np.all(h <= geo.a0)
        # CDF of h_p is (h / A0)^c on (0, A0].
        stat, _ = stats.kstest(h, lambda x: np.clip(x / geo.a0, 0, 1) ** geo.c)
        assert stat < 2.0 / math.sqrt(self.N_SAMPLES)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(sigma_beta=0.5e-3, distance_l1=150.0, distance_l2=150.0),
            dict(sigma_theta=0.0),
            dict(sigma_beta=0.0, distance_l1=0.0),
        ],
        ids=["l1_350_l2_250", "l1_150_l2_150", "surface_jitter_only", "single_hop"],
    )
    def test_pointing_gain_matches_physical_jitter(self, overrides):
        # Reference: superimpose the transmitter and surface jitter angles
        # per axis and map the radial offset through the beam profile.
        geo = default_geometry(**overrides)
        g = channel.RandomStream(29, 0).generator()
        ratio = 1.0 + geo.distance_l1 / geo.distance_l2
        shape = (2, self.N_SAMPLES)
        theta = ratio * g.normal(0.0, geo.sigma_theta, shape) + 2.0 * g.normal(
            0.0, geo.sigma_beta, shape
        )
        r2 = np.sum(theta * theta, axis=0) * geo.distance_l2 ** 2
        reference = geo.a0 * np.exp(-2.0 * r2 / geo.wzeq2)
        h = channel.sample_h_p(geo, channel.RandomStream(29, 1), self.N_SAMPLES)
        assert stats.ks_2samp(reference, h).pvalue > 0.01

    def test_pointing_gain_degenerate_jitter(self):
        geo = default_geometry(sigma_theta=0.0)
        assert geo.c > 0
        h = channel.sample_h_p(
            default_geometry(sigma_theta=1e-12, sigma_beta=0.0),
            channel.RandomStream(1, 0),
            100,
        )
        assert np.allclose(h, default_geometry().a0, rtol=1e-6)

    @pytest.mark.parametrize("n_elements", [32, 300])
    def test_aggregate_matches_clt_moments(self, turb, geo, n_elements):
        # N = 300 sums one full element chunk and a partial second one.
        cfg = channel.LinkConfig(n_elements=n_elements, gamma_bar=2.5)
        z = channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(17, 0), 50_000)
        ms = analytic.moments(turb, geo, cfg.n_elements)
        se_mean = z.std(ddof=1) / math.sqrt(len(z))
        assert z.mean() == pytest.approx(ms.m, abs=4 * se_mean)
        # Variance comparison with a generous 4-sigma-equivalent band.
        assert z.var(ddof=1) == pytest.approx(ms.delta_sq, rel=0.05)

    def test_aggregate_reproducible(self, turb, geo):
        cfg = channel.LinkConfig(n_elements=8)
        z1 = channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(5, 2), 64)
        z2 = channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(5, 2), 64)
        assert np.array_equal(z1, z2)

    @pytest.mark.parametrize("sampler", ["sample_h_a", "sample_h_p", "sample_aggregate"])
    def test_size_is_required(self, turb, geo, sampler):
        args = {
            "sample_h_a": (turb,),
            "sample_h_p": (geo,),
            "sample_aggregate": (turb, geo, channel.LinkConfig(n_elements=8)),
        }[sampler]
        with pytest.raises(TypeError, match="size"):
            getattr(channel, sampler)(*args, channel.RandomStream(3))

    @pytest.mark.parametrize("size", [1, 64])
    @pytest.mark.parametrize("n_elements", [1, 128, 256])
    def test_single_chunk_aggregate_is_the_unchunked_sum(self, turb, geo, n_elements, size):
        # Up to one element chunk, Z is the plain sum over all N elements
        # drawn in one call each, bit for bit.
        cfg = channel.LinkConfig(n_elements=n_elements)
        z = channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(5, 2), size)
        g = channel.RandomStream(5, 2).generator()
        shape = (size, n_elements)
        h = channel.sample_h_a(turb, g, shape) * channel.sample_h_p(geo, g, shape)
        ref = np.sum(h * h, axis=-1)
        assert z.shape == ref.shape
        assert z.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("size", [1, "step-1", "step+1", 1696, 4096])
    @pytest.mark.parametrize("n_elements", [1, 255, 256, 257, 300, 4096])
    def test_aggregate_is_the_sum_of_tile_draws(self, turb, geo, n_elements, size):
        # The seed -> sample mapping: each chunk of up to 256 elements is drawn
        # step = _TILE // cols rows at a time, and each tile is the public
        # samplers' draw on its shape from the block's one generator, so the
        # in-place draws also have their law. Sizes end on both sides of a tile.
        step = channel._TILE // min(n_elements, channel._ELEMENT_CHUNK)
        size = {"step-1": step - 1, "step+1": step + 1}.get(size, size)
        cfg = channel.LinkConfig(n_elements=n_elements)
        z = channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(5, 2), size)
        g = channel.RandomStream(5, 2).generator()
        ref = np.zeros(size)
        for start in range(0, n_elements, 256):
            cols = min(256, n_elements - start)
            for r in range(0, size, channel._TILE // cols):
                shape = (min(channel._TILE // cols, size - r), cols)
                h = channel.sample_h_a(turb, g, shape) * channel.sample_h_p(geo, g, shape)
                ref[r:r + shape[0]] += np.sum(h * h, axis=-1)
        assert z.shape == ref.shape
        assert z.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_elements", [128, 4096])
    def test_aggregate_block_holds_one_tile_of_draws(self, turb, geo, n_elements):
        # The (2, _TILE) buffer is 1 MiB for any N; holding a whole element
        # chunk of draws took 4.5 MiB at N = 128 and 8.5 MiB at N = 4096.
        cfg = channel.LinkConfig(n_elements=n_elements)
        tracemalloc.start()
        try:
            channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(5, 2), 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    def test_aggregate_memory_does_not_grow_with_size(self, turb, geo):
        # Beyond Z itself (8 bytes a sample), a block of 16 tiles' rows holds
        # no more than one of a single tile's.
        cfg = channel.LinkConfig(n_elements=128)
        extra = {}
        for size in (4096, 65536):
            tracemalloc.start()
            try:
                channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(5, 2), size)
                extra[size] = tracemalloc.get_traced_memory()[1] - 8 * size
            finally:
                tracemalloc.stop()
        assert extra[65536] <= extra[4096]

    def test_aggregate_memory_does_not_grow_with_elements(self, turb, geo):
        peaks = {}
        for n in (1024, 8192):
            cfg = channel.LinkConfig(n_elements=n)
            tracemalloc.start()
            try:
                channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(5, 2), 512)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # An unchunked draw holds several 512 x N arrays, a ratio near 8.
        assert peaks[8192] <= 1.5 * peaks[1024]


class TestDensities:
    def test_pdf_b_matches_sampler_histogram(self, turb, geo):
        h = channel.sample_h_a(
            turb, channel.RandomStream(19, 0), 200_000
        ) * channel.sample_h_p(geo, channel.RandomStream(19, 1), 200_000)
        b = h * h
        edges = np.quantile(b, np.linspace(0.05, 0.95, 7))
        for lo, hi in zip(edges[:-1], edges[1:]):
            prob, _ = integrate.quad(lambda x: channel.pdf_b(x, turb, geo), lo, hi)
            emp = float(np.mean((b > lo) & (b <= hi)))
            tol = 5 * math.sqrt(prob * (1 - prob) / len(b))
            assert emp == pytest.approx(prob, abs=tol)

    @pytest.mark.parametrize("alpha,beta,x,ref", [(200.0, 10.0, 1e-3, 0.558338826528),
                                                  (172.0, 172.0, 1e-3, 2.25934625596e-14),
                                                  (171.0, 10.0, 1e-2, 6.25845632624e-16)])
    def test_pdf_b_where_the_gamma_function_of_a_shape_overflows(self, geo, alpha, beta, x, ref):
        # 30-digit mpmath values. Gamma(172) is past the float range, and
        # Gamma(171) Gamma(10) is too, so the prefactor is taken in lgamma.
        t = channel.TurbulenceParams(alpha, beta)
        assert channel.pdf_b(x, t, geo) == pytest.approx(ref, rel=1e-9)

    def test_pdf_b_rejects_nonpositive(self, turb, geo):
        with pytest.raises(DomainError):
            channel.pdf_b(0.0, turb, geo)

    @pytest.mark.parametrize("alpha,beta", [(15.0, 10.0), (6.5, 6.0)])
    @pytest.mark.parametrize("shape", [(100,), (4, 25)])
    def test_pdf_b_array_equals_float_calls_bit_for_bit(self, geo, alpha, beta, shape):
        t = channel.TurbulenceParams(alpha=alpha, beta=beta)
        got = channel.pdf_b(PDF_B_GRID.reshape(shape), t, geo)
        assert got.shape == shape
        assert got.ravel().tolist() == [channel.pdf_b(float(x), t, geo) for x in PDF_B_GRID]

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_pdf_b_rejects_a_bad_array_element(self, turb, geo, bad):
        with pytest.raises(DomainError, match=f"pdf_b requires finite x > 0, got {bad}"):
            channel.pdf_b(np.array([1e-3, bad, 2e-3]), turb, geo)

    def test_pdf_b_of_empty_array_is_empty(self, turb, geo):
        assert channel.pdf_b(np.array([]), turb, geo).shape == (0,)

    def test_clt_error_shrinks_with_elements(self, turb, geo):
        # KS distance between sampled aggregate SNR and its Gaussian
        # approximation must shrink as the element count grows.
        dists = []
        for n in (4, 16, 256):
            cfg = channel.LinkConfig(n_elements=n, gamma_bar=1.0)
            z = channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(23, n), 20_000)
            ms = analytic.moments(turb, geo, n)
            stat, _ = stats.kstest(
                z, stats.norm(loc=ms.m, scale=math.sqrt(ms.delta_sq)).cdf
            )
            dists.append(stat)
        assert dists[0] > dists[1] > dists[2]


@pytest.mark.parametrize("x", [5e-324, 1e300, math.inf])
@pytest.mark.parametrize("alpha,beta,c", [(15.0, 10.0, 3.2233729130647513), (6.5, 6.0, 0.5)],
                         ids=["default", "fig4"])
def test_pdf_b_at_extreme_x_is_a_density_or_domain_error(alpha, beta, c, x):
    t = channel.TurbulenceParams(alpha=alpha, beta=beta)
    g = channel.PointingGeometry.from_exponent(c, 1.2, 0.1, 150.0)
    try:
        value = channel.pdf_b(x, t, g)
    except DomainError:
        return
    assert 0.0 <= value < math.inf and math.copysign(1.0, value) == 1.0


def test_pdf_b_is_a_normal_float_where_its_meijer_g_factor_is_not():
    # 30-digit mpmath values of the density on the default channel, where
    # G is 4.0e-341 at x = 5e-324.
    t = channel.TurbulenceParams(alpha=15.0, beta=10.0)
    g = channel.PointingGeometry.from_exponent(3.2233729130647513, 1.2, 0.1, 150.0)
    assert channel.pdf_b(5e-324, t, g) == pytest.approx(9.97583764041e-192, rel=1e-9)
    assert channel.pdf_b(1e-300, t, g) == pytest.approx(1.79906001259e-177, rel=1e-9)


def test_pdf_b_far_in_the_tail_is_zero():
    # On the closed-form channel the density is below the float range here,
    # where 2 sqrt(z) of its Bessel K is past 2e9.
    t = channel.TurbulenceParams(alpha=6.5, beta=6.0)
    g = channel.PointingGeometry.from_exponent(3.2233729130647513, 1.2, 0.1, 150.0)
    assert channel.pdf_b(1e30, t, g) == 0.0


class TestLinkConfig:
    def test_db_conversion(self):
        assert channel.LinkConfig.db_to_linear(0.0) == 1.0
        assert channel.LinkConfig.db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert channel.LinkConfig.db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)
        assert channel.LinkConfig.db_to_linear(3.0) == pytest.approx(10 ** 0.3, rel=1e-15)

    def test_validation(self):
        for field, value, message in [
            ("n_elements", 0, "n_elements must be an integer >= 1"),
            ("n_elements", 2.5, "n_elements must be an integer >= 1"),
            ("n_elements", math.nan, "n_elements must be an integer >= 1"),
            ("n_elements", math.inf, "n_elements must be an integer >= 1"),
            ("gamma_bar", 0.0, "gamma_bar must be positive"),
            ("gamma_bar", math.nan, "gamma_bar must be positive"),
            ("gamma_bar", math.inf, "gamma_bar must be positive and finite"),
            ("gamma_th", -1.0, "gamma_th must be non-negative"),
            ("gamma_th", math.nan, "gamma_th must be non-negative"),
            ("psi", 0.0, "psi must be positive"),
        ]:
            with pytest.raises(DomainError, match=message):
                channel.LinkConfig(**{field: value})
