"""Transform theorems: inversion, oracle equivalence, covariances, symmetry."""

import numpy as np
import pytest
from helpers import moderate_pairs, wild_pairs

from clifford_mellin import cfmt
from clifford_mellin.algebra import CL02, CL11, CL20, SIGNATURES, Multivector, basis
from clifford_mellin.errors import ContractError, FormatError
from clifford_mellin.roots import RootPair, default_pair, make_pair, random_roots, sample_root, validate_root
from clifford_mellin.signal import (
    GridGeometry,
    LogPolarSignal,
    default_geometry,
    norm,
    random_signal,
    scalar_inner_product,
    split_signal,
)

GEO = default_geometry(32)


def nondegenerate_pair(sig):
    """A non-degenerate pair with (1, f, g, fg) independent, per algebra."""
    if sig == CL02:
        return default_pair(CL02)
    if sig == CL20:
        return RootPair(validate_root(basis(CL20)[3]), sample_root(CL20, 1.0, 0.0, 1))
    return RootPair(validate_root(basis(CL11)[2]), sample_root(CL11, 0.5, np.sqrt(1.5), 1))


# -- defining sum and oracle -------------------------------------------------------


def test_forward_of_zero():
    pair = default_pair(CL02)
    h = LogPolarSignal.from_channels(GEO, CL02)
    assert np.max(np.abs(cfmt.cfmt_forward(h, pair).coeffs)) == 0.0


def test_forward_single_sample_closed_form():
    pair = nondegenerate_pair(CL11)
    arr = np.zeros((GEO.n_s, GEO.n_theta, 4))
    i0, t0 = 5, 11
    arr[i0, t0, 0] = 1.0
    h = LogPolarSignal(GEO, CL11, arr)
    spectrum = cfmt.cfmt_forward(h, pair)
    s0 = GEO.s_values[i0]
    theta0 = GEO.theta_values[t0]
    scale = GEO.ds * GEO.dtheta / (2 * np.pi)
    for i in (0, 7, 20):
        for t in (0, 13, 31):
            v, k = GEO.v_values[i], GEO.k_values[t]
            expected = scale * (pair.f.exp(-v * s0) * pair.g.exp(-k * theta0))
            assert np.max(np.abs(spectrum.coeffs[i, t] - expected.coeffs)) <= 1e-12


def test_forward_constant_is_delta_at_dc():
    for sig in SIGNATURES:
        pair = nondegenerate_pair(sig)
        h = LogPolarSignal.constant(GEO, Multivector.scalar(sig, 1.0))
        spectrum = cfmt.cfmt_forward(h, pair)
        dc = spectrum.coeffs[GEO.n_s // 2, GEO.n_theta // 2]
        assert np.max(np.abs(dc - np.array([GEO.span, 0, 0, 0]))) <= 1e-10
        rest = spectrum.coeffs.copy()
        rest[GEO.n_s // 2, GEO.n_theta // 2] = 0.0
        assert np.max(np.abs(rest)) <= 1e-10


def test_direct_at_zero_frequency_of_constant():
    pair = default_pair(CL20)
    c = 1.75
    h = LogPolarSignal.constant(GEO, Multivector.scalar(CL20, c))
    got = cfmt.cfmt_direct(h, pair, 0.0, 0.0)
    assert got.allclose(Multivector.scalar(CL20, c * GEO.span), tol=1e-10)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_direct_agrees_with_forward_at_grid_frequencies(sig):
    rng = np.random.default_rng(2)
    h = random_signal(GEO, sig, seed=1)
    for pair in wild_pairs(sig, 2, seed=3) + [default_pair(sig)]:
        spectrum = cfmt.cfmt_forward(h, pair)
        for _ in range(100):
            i = int(rng.integers(GEO.n_s))
            t = int(rng.integers(GEO.n_theta))
            direct = cfmt.cfmt_direct(h, pair, float(GEO.v_values[i]), float(GEO.k_values[t]))
            assert np.max(np.abs(direct.coeffs - spectrum.coeffs[i, t])) <= 1e-10


def test_quaternion_kernel_special_case():
    # f = e1, g = e2 in Cl(0,2): the transform of a real signal expands into
    # the four trig sums of the classical kernel pair, one per blade channel
    pair = make_pair(basis(CL02)[1], basis(CL02)[2])
    field = np.random.default_rng(4).uniform(-1, 1, size=(GEO.n_s, GEO.n_theta))
    h = LogPolarSignal.from_channels(GEO, CL02, m0=field)
    scale = GEO.ds * GEO.dtheta / (2 * np.pi)
    s = GEO.s_values[:, None]
    theta = GEO.theta_values[None, :]
    for i, t in ((3, 4), (16, 16), (20, 9)):
        v, k = GEO.v_values[i], GEO.k_values[t]
        expected = np.array(
            [
                np.sum(field * np.cos(v * s) * np.cos(k * theta)),
                -np.sum(field * np.sin(v * s) * np.cos(k * theta)),
                -np.sum(field * np.cos(v * s) * np.sin(k * theta)),
                np.sum(field * np.sin(v * s) * np.sin(k * theta)),
            ]
        ) * scale
        got = cfmt.cfmt_direct(h, pair, float(v), float(k))
        assert np.max(np.abs(got.coeffs - expected)) <= 1e-12


@pytest.mark.parametrize("sig", SIGNATURES)
def test_direct_spectrum_matches_fast(sig):
    small = default_geometry(16)
    h = random_signal(small, sig, seed=5)
    for pair in wild_pairs(sig, 1, seed=6) + [default_pair(sig)]:
        oracle = cfmt.direct_spectrum(h, pair)
        fast = cfmt.cfmt_fast(h, pair)
        assert np.max(np.abs(oracle.coeffs - fast.coeffs)) <= 1e-10


# non-square, asymmetric, minimal and shifted windows (s_min > 0 and s_max < 0)
UNCOMMON_GRIDS = [
    (2, 2, -1.0, 1.0),
    (2, 8, 0.3, 2.9),
    (16, 8, -2.0, 2.0),
    (8, 32, 0.3, 2.9),
    (12, 6, -5.0, -1.0),
]


@pytest.mark.parametrize("grid", UNCOMMON_GRIDS)
@pytest.mark.parametrize("sig", SIGNATURES)
def test_uncommon_grids_agree_with_oracle(sig, grid):
    geo = GridGeometry(*grid)
    h = random_signal(geo, sig, seed=8)
    pair = RootPair(*random_roots(sig, 2, seed=9))
    spectrum = cfmt.cfmt_forward(h, pair)
    peak = np.max(np.abs(spectrum.coeffs))
    oracle = cfmt.direct_spectrum(h, pair)
    assert np.max(np.abs(spectrum.coeffs - oracle.coeffs)) <= 1e-10 * peak
    fast = cfmt.cfmt_fast(h, pair)
    assert np.max(np.abs(fast.coeffs - spectrum.coeffs)) <= 1e-10 * peak
    back = cfmt.cfmt_inverse(spectrum)
    assert np.max(np.abs(back.samples - h.samples)) <= 1e-10 * np.max(np.abs(h.samples))


def test_routes_leave_inputs_untouched():
    h = random_signal(GEO, CL11, seed=10)
    pair = RootPair(*random_roots(CL11, 2, seed=11))
    samples = h.samples.copy()
    spectrum = cfmt.cfmt_forward(h, pair)
    fast = cfmt.cfmt_fast(h, pair)
    coeffs = spectrum.coeffs.copy()
    back = cfmt.cfmt_inverse(spectrum)
    assert np.array_equal(h.samples, samples)
    assert np.array_equal(spectrum.coeffs, coeffs)
    for output, source in (
        (spectrum.coeffs, h.samples),
        (fast.coeffs, h.samples),
        (back.samples, spectrum.coeffs),
    ):
        assert not np.shares_memory(output, source)


def test_remap_accepts_planes_with_swapped_strides():
    # numpy < 2 returns an FFT along a middle axis with the planes axis strided
    rng = np.random.default_rng(12)
    planes = rng.normal(size=(6, 4, 4)).view(complex)
    swapped = np.swapaxes(np.swapaxes(planes, 1, 2).copy(), 1, 2)
    assert not swapped.flags.c_contiguous
    matrix = rng.normal(size=(4, 4))
    assert np.array_equal(cfmt._remap(swapped, matrix), cfmt._remap(planes, matrix))


def test_round_trip_error_follows_pair_size():
    # the documented growth: about (|f| |g|)^2 times machine epsilon
    h = random_signal(GEO, CL11, seed=0)
    for radius in (10.0, 100.0, 1000.0):
        b1, b2 = radius * np.sin(0.3), radius * np.cos(0.3)
        pair = RootPair(sample_root(CL11, b1, b2, 1), sample_root(CL11, -b1, b2, -1))
        size = float(np.sum(pair.f.value.coeffs**2) * np.sum(pair.g.value.coeffs**2))
        back = cfmt.cfmt_inverse(cfmt.cfmt_forward(h, pair))
        error = np.max(np.abs(back.samples - h.samples)) / np.max(np.abs(h.samples))
        assert error <= 4.0 * size * np.finfo(float).eps


# -- inversion ----------------------------------------------------------------------


def test_inverse_of_zero_spectrum():
    pair = default_pair(CL02)
    spectrum = cfmt.Spectrum(GEO, pair, np.zeros((GEO.n_s, GEO.n_theta, 4)))
    assert np.max(np.abs(cfmt.cfmt_inverse(spectrum).samples)) == 0.0


def test_inverse_single_coefficient_closed_form():
    pair = nondegenerate_pair(CL20)
    coeffs = np.zeros((GEO.n_s, GEO.n_theta, 4))
    i0, t0 = 19, 7
    m = Multivector(CL20, (0.3, -0.7, 0.2, 1.1))
    coeffs[i0, t0] = m.coeffs
    spectrum = cfmt.Spectrum(GEO, pair, coeffs)
    signal = cfmt.cfmt_inverse(spectrum)
    v0, k0 = GEO.v_values[i0], GEO.k_values[t0]
    for i, t in ((0, 0), (5, 30), (17, 2)):
        s, theta = GEO.s_values[i], GEO.theta_values[t]
        expected = (GEO.dv / (2 * np.pi)) * (
            pair.f.exp(v0 * s) * m * pair.g.exp(k0 * theta)
        )
        assert np.max(np.abs(signal.samples[i, t] - expected.coeffs)) <= 1e-12


@pytest.mark.parametrize("sig", SIGNATURES)
def test_round_trip_random_pairs(sig):
    geo = default_geometry(64)
    for idx, pair in enumerate(wild_pairs(sig, 3, seed=7)):
        h = random_signal(geo, sig, seed=8 + idx)
        back = cfmt.cfmt_inverse(cfmt.cfmt_forward(h, pair))
        assert h.max_abs_diff(back) <= 1e-10


@pytest.mark.parametrize("sig", SIGNATURES)
def test_round_trip_degenerate_pairs(sig):
    geo = default_geometry(64)
    f = random_roots(sig, 1, seed=9)[0]
    h = random_signal(geo, sig, seed=10)
    for pair in (RootPair(f, f), RootPair(f, -f)):
        back = cfmt.cfmt_inverse(cfmt.cfmt_forward(h, pair))
        assert h.max_abs_diff(back) <= 1e-10


# -- fast path ----------------------------------------------------------------------


@pytest.mark.parametrize("sig", SIGNATURES)
def test_fast_equals_forward(sig):
    for idx, pair in enumerate(wild_pairs(sig, 3, seed=11) + [default_pair(sig)]):
        h = random_signal(GEO, sig, seed=12 + idx)
        fast = cfmt.cfmt_fast(h, pair)
        forward = cfmt.cfmt_forward(h, pair)
        assert fast.max_abs_diff(forward) <= 1e-10


def test_fast_degenerate_pair_real_signal_vs_oracle():
    # g = -f turns the split into commuting/anticommuting complex channels
    small = default_geometry(16)
    f = random_roots(CL02, 1, seed=13)[0]
    pair = RootPair(f, -f)
    field = np.random.default_rng(14).uniform(-1, 1, size=(small.n_s, small.n_theta))
    h = LogPolarSignal.from_channels(small, CL02, m0=field)
    fast = cfmt.cfmt_fast(h, pair)
    oracle = cfmt.direct_spectrum(h, pair)
    assert np.max(np.abs(fast.coeffs - oracle.coeffs)) <= 1e-10


# -- linearity ----------------------------------------------------------------------


@pytest.mark.parametrize("sig", SIGNATURES)
def test_linearity(sig):
    pair = moderate_pairs(sig, 1, seed=15)[0]
    h1 = random_signal(GEO, sig, seed=16)
    h2 = random_signal(GEO, sig, seed=17)
    one = Multivector.scalar(sig, 1.0)

    left, right = cfmt.check_linearity(h1, h2, pair, one, one, one, one)
    assert left <= 1e-10 and right <= 1e-10

    alpha = 0.8 * one + 1.3 * pair.f.value
    beta = -0.4 * one
    alpha_r = 2.5 * one
    beta_r = 0.7 * one - 0.9 * pair.g.value
    left, right = cfmt.check_linearity(h1, h2, pair, alpha, beta, alpha_r, beta_r)
    assert left <= 1e-10 and right <= 1e-10

    left, right = cfmt.check_linearity(
        h1, h2, pair, pair.f.value, Multivector.scalar(sig, 0.0), one, one
    )
    assert left <= 1e-10 and right <= 1e-10


def test_linearity_rejects_out_of_span_coefficient():
    pair = default_pair(CL02)
    h = random_signal(GEO, CL02, seed=18)
    bad = Multivector(CL02, (1.0, 0.0, 0.0, 0.5))  # e12 is outside span{1, e1}
    with pytest.raises(ContractError):
        cfmt.check_linearity(h, h, pair, bad, bad, bad, bad)


# -- scaling and rotation -----------------------------------------------------------


def test_scale_rotate_zero_shift_is_identity():
    h = random_signal(GEO, CL02, seed=19)
    assert cfmt.apply_scale_rotate(h, 0, 0).max_abs_diff(h) == 0.0


def test_scale_rotate_rejects_fractional_steps():
    h = random_signal(GEO, CL02, seed=20)
    with pytest.raises(ContractError):
        cfmt.apply_scale_rotate(h, 0.5, 0)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_scale_rotate_spectrum_covariance(sig):
    rng = np.random.default_rng(21)
    pair = moderate_pairs(sig, 1, seed=22)[0]
    h = random_signal(GEO, sig, seed=23)
    spectrum = cfmt.cfmt_forward(h, pair)
    for _ in range(4):
        p, q = int(rng.integers(-15, 16)), int(rng.integers(-15, 16))
        shifted = cfmt.apply_scale_rotate(h, p, q)
        got = cfmt.cfmt_forward(shifted, pair)
        predicted = cfmt.predicted_shift_spectrum(spectrum, p, q)
        assert got.max_abs_diff(predicted) <= 1e-10


@pytest.mark.parametrize("sig", SIGNATURES)
def test_magnitude_invariance_blade_like(sig):
    rng = np.random.default_rng(24)
    pair = default_pair(sig)
    h = random_signal(GEO, sig, seed=25)
    reference = cfmt.cfmt_forward(h, pair).magnitude()
    for _ in range(4):
        p, q = int(rng.integers(-15, 16)), int(rng.integers(-15, 16))
        shifted = cfmt.apply_scale_rotate(h, p, q)
        mags = cfmt.cfmt_forward(shifted, pair).magnitude()
        assert np.max(np.abs(mags - reference)) <= 1e-10


def test_half_turn_rotation_alternates_sign():
    pair = default_pair(CL02)
    h = random_signal(GEO, CL02, seed=26)
    spectrum = cfmt.cfmt_forward(h, pair)
    rotated = cfmt.cfmt_forward(cfmt.apply_scale_rotate(h, 0, GEO.n_theta // 2), pair)
    signs = (-1.0) ** np.abs(GEO.k_values)
    expected = spectrum.coeffs * signs[None, :, None]
    assert np.max(np.abs(rotated.coeffs - expected)) <= 1e-10


# -- reflections ----------------------------------------------------------------------


def test_reflections_are_involutions():
    h = random_signal(GEO, CL11, seed=27)
    assert cfmt.reflect_circle(cfmt.reflect_circle(h)).max_abs_diff(h) == 0.0
    assert cfmt.reverse_rotation(cfmt.reverse_rotation(h)).max_abs_diff(h) == 0.0


def test_reflect_circle_fixes_even_signal():
    idx = (-np.arange(GEO.n_s)) % GEO.n_s
    raw = np.random.default_rng(28).uniform(-1, 1, size=(GEO.n_s, GEO.n_theta, 4))
    even = 0.5 * (raw + raw[idx, :, :])
    h = LogPolarSignal(GEO, CL02, even)
    assert cfmt.reflect_circle(h).max_abs_diff(h) == 0.0


def test_reflect_circle_requires_symmetric_window():
    geo = GridGeometry(16, 16, 0.0, 2.0)
    h = random_signal(geo, CL02, seed=29)
    with pytest.raises(ContractError):
        cfmt.reflect_circle(h)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_reflection_spectra(sig):
    pair = moderate_pairs(sig, 1, seed=30)[0]
    h = random_signal(GEO, sig, seed=31)
    spectrum = cfmt.cfmt_forward(h, pair)
    rev_s = (-np.arange(GEO.n_s)) % GEO.n_s
    rev_t = (-np.arange(GEO.n_theta)) % GEO.n_theta

    reflected = cfmt.cfmt_forward(cfmt.reflect_circle(h), pair)
    assert np.max(np.abs(reflected.coeffs - spectrum.coeffs[rev_s, :, :])) <= 1e-10

    reversed_ = cfmt.cfmt_forward(cfmt.reverse_rotation(h), pair)
    assert np.max(np.abs(reversed_.coeffs - spectrum.coeffs[:, rev_t, :])) <= 1e-10


# -- modulation ------------------------------------------------------------------------


def test_modulate_identity():
    pair = default_pair(CL02)
    h = random_signal(GEO, CL02, seed=32)
    assert cfmt.modulate(h, pair, 0.0, 0).max_abs_diff(h) == 0.0


def test_modulate_shifts_dc_delta():
    pair = nondegenerate_pair(CL02)
    h = LogPolarSignal.constant(GEO, Multivector.scalar(CL02, 1.0))
    moved = cfmt.modulate(h, pair, GEO.dv, 1)
    spectrum = cfmt.cfmt_forward(moved, pair)
    i, t = GEO.n_s // 2 + 1, GEO.n_theta // 2 + 1
    assert np.max(np.abs(spectrum.coeffs[i, t] - np.array([GEO.span, 0, 0, 0]))) <= 1e-10
    rest = spectrum.coeffs.copy()
    rest[i, t] = 0.0
    assert np.max(np.abs(rest)) <= 1e-10


@pytest.mark.parametrize("sig", SIGNATURES)
def test_modulation_shift_theorem(sig):
    rng = np.random.default_rng(33)
    pair = moderate_pairs(sig, 1, seed=34)[0]
    h = random_signal(GEO, sig, seed=35)
    spectrum = cfmt.cfmt_forward(h, pair)
    for _ in range(3):
        j0 = int(rng.integers(-10, 11))
        k0 = int(rng.integers(-10, 11))
        moved = cfmt.modulate(h, pair, j0 * GEO.dv, k0)
        got = cfmt.cfmt_forward(moved, pair)
        expected = np.roll(spectrum.coeffs, (j0, k0), axis=(0, 1))
        assert np.max(np.abs(got.coeffs - expected)) <= 1e-10


def test_modulate_rejects_off_grid_frequency():
    pair = default_pair(CL02)
    h = random_signal(GEO, CL02, seed=36)
    with pytest.raises(ContractError):
        cfmt.modulate(h, pair, 0.5 * GEO.dv, 0)
    with pytest.raises(ContractError):
        cfmt.modulate(h, pair, GEO.dv, 0.5)


# -- split interaction ------------------------------------------------------------------


@pytest.mark.parametrize("sig", SIGNATURES)
def test_split_commutes_with_transform(sig):
    for pair in moderate_pairs(sig, 2, seed=37):
        h = random_signal(GEO, sig, seed=38)
        plus_first, minus_first = split_signal(h, pair)
        spectrum = cfmt.cfmt_forward(h, pair)
        plus_after, minus_after = spectrum.split()
        assert cfmt.cfmt_forward(plus_first, pair).max_abs_diff(plus_after) <= 1e-10
        assert cfmt.cfmt_forward(minus_first, pair).max_abs_diff(minus_after) <= 1e-10


@pytest.mark.parametrize("sig", SIGNATURES)
def test_pointwise_spectral_pythagoras_blade_like(sig):
    pair = default_pair(sig)
    h = random_signal(GEO, sig, seed=39)
    spectrum = cfmt.cfmt_forward(h, pair)
    plus, minus = spectrum.split()
    total = spectrum.magnitude() ** 2
    parts = plus.magnitude() ** 2 + minus.magnitude() ** 2
    assert np.max(np.abs(total - parts)) <= 1e-12 * max(1.0, float(np.max(total)))


# -- derivative theorems -----------------------------------------------------------------


def test_derivative_order_zero_identity():
    pair = default_pair(CL02)
    h = random_signal(GEO, CL02, seed=40, band_limit=5)
    result = cfmt.check_derivative_theorems(h, pair, 0)
    assert result.radial_residual == 0.0
    assert result.angular_residual == 0.0
    assert result.band_limited


def test_derivative_cosine_examples():
    pair = default_pair(CL02)
    s = GEO.s_values[:, None] * np.ones((1, GEO.n_theta))
    theta = np.ones((GEO.n_s, 1)) * GEO.theta_values[None, :]
    h_s = LogPolarSignal.from_channels(GEO, CL02, m0=np.cos(s))
    result = cfmt.check_derivative_theorems(h_s, pair, 1)
    assert result.radial_residual <= 1e-8
    h_t = LogPolarSignal.from_channels(GEO, CL02, m0=np.cos(theta))
    result = cfmt.check_derivative_theorems(h_t, pair, 1)
    assert result.angular_residual <= 1e-8


@pytest.mark.parametrize("sig", SIGNATURES)
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_theorems_band_limited(sig, order):
    pair = moderate_pairs(sig, 1, seed=41)[0]
    h = random_signal(GEO, sig, seed=42, band_limit=5)
    result = cfmt.check_derivative_theorems(h, pair, order)
    assert result.band_limited
    assert result.radial_residual <= 1e-8
    assert result.angular_residual <= 1e-8


def test_derivative_warns_on_full_band_signal():
    pair = default_pair(CL02)
    h = random_signal(GEO, CL02, seed=43)
    result = cfmt.check_derivative_theorems(h, pair, 1)
    assert not result.band_limited


# -- power scaling ---------------------------------------------------------------------


def bump_signal(geo, sig):
    s = geo.s_values[:, None]
    theta = geo.theta_values[None, :]
    channel = np.exp(-((s / 0.8) ** 2)) * np.exp(-(((theta - np.pi) / 0.5) ** 2))
    return LogPolarSignal.from_channels(geo, sig, m0=channel)


def test_power_scaling_identity_orders_zero():
    pair = default_pair(CL02)
    h = bump_signal(GEO, CL02)
    assert cfmt.check_power_scaling(h, pair, 0, 0) <= 1e-12


@pytest.mark.parametrize("sig", SIGNATURES)
@pytest.mark.parametrize("orders", [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, 2)])
def test_power_scaling_orders(sig, orders):
    pair = moderate_pairs(sig, 1, seed=44)[0]
    h = bump_signal(GEO, sig)
    m, n = orders
    assert cfmt.check_power_scaling(h, pair, m, n) <= 1e-5


@pytest.mark.parametrize("orders,bound", [((2, 1), 1e-4), ((2, 2), 1e-2)])
def test_power_scaling_double_second_order(orders, bound):
    # both axes at the pinned difference steps: the stencil amplifies float64
    # roundoff by 1/(hv^2 hk^n), which caps the reachable accuracy here
    pair = moderate_pairs(CL02, 1, seed=44)[0]
    h = bump_signal(GEO, CL02)
    assert cfmt.check_power_scaling(h, pair, *orders) <= bound


def test_power_scaling_rejects_seam_energy():
    pair = default_pair(CL02)
    h = random_signal(GEO, CL02, seed=45)
    with pytest.raises(ContractError):
        cfmt.check_power_scaling(h, pair, 0, 1)


# -- Plancherel and Parseval --------------------------------------------------------------


@pytest.mark.parametrize("sig", SIGNATURES)
def test_plancherel_blade_like(sig):
    pair = default_pair(sig)
    h = random_signal(GEO, sig, seed=46)
    m = random_signal(GEO, sig, seed=47)
    lhs, rhs = cfmt.plancherel_check(h, m, pair)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_plancherel_reduces_to_parseval():
    pair = default_pair(CL11)
    h = random_signal(GEO, CL11, seed=48)
    lhs, rhs = cfmt.plancherel_check(h, h, pair)
    assert lhs == pytest.approx(norm(h) ** 2, rel=1e-12)
    assert rhs == pytest.approx(cfmt.cfmt_forward(h, pair).norm() ** 2, rel=1e-12)


def test_plancherel_zero_partner():
    pair = default_pair(CL02)
    h = random_signal(GEO, CL02, seed=49)
    zero = LogPolarSignal.from_channels(GEO, CL02)
    assert cfmt.plancherel_check(h, zero, pair) == (0.0, 0.0)


def test_parseval_zero_and_constant():
    pair = default_pair(CL02)
    zero = LogPolarSignal.from_channels(GEO, CL02)
    n_sig, n_spec, plus_sq, minus_sq = cfmt.parseval_check(zero, pair)
    assert (n_sig, n_spec, plus_sq, minus_sq) == (0.0, 0.0, 0.0, 0.0)

    one = LogPolarSignal.constant(GEO, Multivector.scalar(CL02, 1.0))
    n_sig, n_spec, plus_sq, minus_sq = cfmt.parseval_check(one, pair)
    expected = np.sqrt(2 * np.pi * GEO.span)
    assert n_sig == pytest.approx(expected, rel=1e-12)
    assert n_spec == pytest.approx(expected, rel=1e-10)
    assert plus_sq + minus_sq == pytest.approx(expected**2, rel=1e-10)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_parseval_random_blade_like(sig):
    pair = default_pair(sig)
    for seed in range(5):
        h = random_signal(GEO, sig, seed=50 + seed)
        n_sig, n_spec, plus_sq, minus_sq = cfmt.parseval_check(h, pair)
        assert abs(n_sig - n_spec) <= 1e-10 * n_sig
        assert abs(n_spec**2 - plus_sq - minus_sq) <= 1e-10 * n_spec**2


def test_parseval_rejects_non_blade_like():
    pair = wild_pairs(CL20, 1, seed=51)[0]
    assert not pair.blade_like
    h = random_signal(GEO, CL20, seed=52)
    with pytest.raises(ContractError, match="blade_like"):
        cfmt.parseval_check(h, pair)


# -- symmetry separation --------------------------------------------------------------------


def even_even_channel(geo, rng):
    raw = rng.uniform(-1, 1, size=(geo.n_s, geo.n_theta))
    rev_s = (-np.arange(geo.n_s)) % geo.n_s
    rev_t = (-np.arange(geo.n_theta)) % geo.n_theta
    sym = raw + raw[rev_s, :] + raw[:, rev_t] + raw[rev_s, :][:, rev_t]
    return 0.25 * sym


@pytest.mark.parametrize("sig", SIGNATURES)
def test_symmetry_even_even(sig):
    pair = nondegenerate_pair(sig)
    channel = even_even_channel(GEO, np.random.default_rng(53))
    h = LogPolarSignal.from_channels(GEO, sig, m0=channel)
    components = cfmt.symmetry_decompose(h, pair)
    total = np.sqrt(np.sum(components.ee.coeffs**2))
    for label in ("eo", "oe", "oo"):
        part = getattr(components, label)
        assert np.max(np.abs(part.coeffs)) <= 1e-10 * max(1.0, total)
    # even-even spectrum sits in the scalar channel
    assert np.max(np.abs(components.ee.coeffs[..., 1:])) <= 1e-10 * max(1.0, total)


def test_symmetry_sin_cos_is_pure_f_channel():
    pair = nondegenerate_pair(CL02)
    s = GEO.s_values[:, None] * np.ones((1, GEO.n_theta))
    theta = np.ones((GEO.n_s, 1)) * GEO.theta_values[None, :]
    h = LogPolarSignal.from_channels(GEO, CL02, m0=np.sin(s) * np.cos(theta))
    components = cfmt.symmetry_decompose(h, pair)
    eo_energy = float(np.sum(components.eo.coeffs**2))
    for label in ("ee", "oe", "oo"):
        assert float(np.sum(getattr(components, label).coeffs ** 2)) <= 1e-16 * eo_energy
    # the f channel of the pair carries everything
    f_coeffs = pair.f.value.coeffs
    projector = np.outer(f_coeffs, f_coeffs) / np.dot(f_coeffs, f_coeffs)
    flattened = components.eo.coeffs.reshape(-1, 4)
    off = flattened - flattened @ projector.T
    assert np.max(np.abs(off)) <= 1e-10


def test_symmetry_zero_signal():
    pair = nondegenerate_pair(CL11)
    h = LogPolarSignal.from_channels(GEO, CL11)
    components = cfmt.symmetry_decompose(h, pair)
    for label in ("ee", "eo", "oe", "oo"):
        assert np.max(np.abs(getattr(components, label).coeffs)) == 0.0


@pytest.mark.parametrize("sig", SIGNATURES)
def test_symmetry_components_reconstruct(sig):
    pair = nondegenerate_pair(sig)
    h = random_signal(GEO, sig, seed=54, channels=(0,))
    components = cfmt.symmetry_decompose(h, pair)
    total = (
        components.ee.coeffs
        + components.eo.coeffs
        + components.oe.coeffs
        + components.oo.coeffs
    )
    full = cfmt.cfmt_forward(h, pair)
    assert np.max(np.abs(total - full.coeffs)) <= 1e-12


def test_symmetry_rejects_bad_inputs():
    pair = nondegenerate_pair(CL02)
    not_real = random_signal(GEO, CL02, seed=55)
    with pytest.raises(ContractError):
        cfmt.symmetry_decompose(not_real, pair)
    real = random_signal(GEO, CL02, seed=56, channels=(0,))
    f = pair.f
    with pytest.raises(ContractError, match="g != "):
        cfmt.symmetry_decompose(real, RootPair(f, -f))


# -- spectra as values -------------------------------------------------------------------


def test_spectrum_pair_mixing_guard():
    h = random_signal(GEO, CL02, seed=57)
    s1 = cfmt.cfmt_forward(h, default_pair(CL02))
    s2 = cfmt.cfmt_forward(h, wild_pairs(CL02, 1, seed=58)[0])
    with pytest.raises(ContractError):
        s1.max_abs_diff(s2)


def test_clmf_round_trip(tmp_path):
    path = tmp_path / "spectrum.clmf"
    pair = nondegenerate_pair(CL11)
    h = random_signal(GridGeometry(16, 8, -2.0, 2.0), CL11, seed=59)
    spectrum = cfmt.cfmt_forward(h, pair)
    cfmt.write_clmf(path, spectrum)
    loaded = cfmt.read_clmf(path)
    assert loaded.geometry == spectrum.geometry
    assert np.array_equal(loaded.coeffs, spectrum.coeffs)
    assert np.array_equal(loaded.pair.f.value.coeffs, pair.f.value.coeffs)
    assert np.array_equal(loaded.pair.g.value.coeffs, pair.g.value.coeffs)
    # loaded spectra invert to the same signal
    assert cfmt.cfmt_inverse(loaded).max_abs_diff(h) <= 1e-10


def test_clmf_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.clmf"
    path.write_bytes(b"algebra=Cl(0,2)\nns=4\n")
    with pytest.raises(FormatError):
        cfmt.read_clmf(path)


def test_spectrum_csv_rows():
    pair = default_pair(CL02)
    h = random_signal(GridGeometry(4, 4, -1.0, 1.0), CL02, seed=60)
    spectrum = cfmt.cfmt_forward(h, pair)
    rows = list(cfmt.spectrum_csv_rows(spectrum))
    assert rows[0] == "j,k,v,m0,m1,m2,m12"
    assert len(rows) == 1 + 16
    first = rows[1].split(",")
    assert first[0] == "-2" and first[1] == "-2"
    assert float(first[2]) == pytest.approx(-2 * spectrum.geometry.dv)
