"""Transform theorems: inversion, oracle equivalence, covariances, symmetry."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from helpers import (
    joint_pass_fast,
    joint_pass_forward,
    joint_pass_inverse,
    literal_direct_sum,
    moderate_pairs,
    wild_pairs,
)

from clifford_mellin import cfmt, properties
from clifford_mellin.algebra import CL02, CL11, CL20, SIGNATURES, Multivector, basis, gp
from clifford_mellin.errors import (
    ContractError,
    DomainError,
    FormatError,
    GeometryError,
    SignatureMismatchError,
)
from clifford_mellin.properties import symmetry_pair
from clifford_mellin.roots import (
    RootPair,
    default_pair,
    make_pair,
    random_roots,
    sample_root,
    validate_root,
)
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


# -- defining sum and oracle -------------------------------------------------------


def test_forward_of_zero():
    pair = default_pair(CL02)
    h = LogPolarSignal.from_channels(GEO, CL02)
    assert np.max(np.abs(cfmt.cfmt_forward(h, pair).coeffs)) == 0.0


def test_forward_single_sample_closed_form():
    pair = symmetry_pair(CL11)
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
        pair = symmetry_pair(sig)
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


def direct_sum_cases(sig, grid):
    """A signal on the grid, 15 real frequency points (three off the grid),
    and the pairs the literal-sum tests use."""
    geo = GridGeometry(*grid)
    rng = np.random.default_rng(14)
    wild = wild_pairs(sig, 2, seed=15)
    points = [(0.37 * geo.dv, -2.5), (-1.9 * geo.dv, 0.25), (3.3, 7.75)]
    for _ in range(12):
        i, t = int(rng.integers(geo.n_s)), int(rng.integers(geo.n_theta))
        points.append((float(geo.v_values[i]), float(geo.k_values[t])))
    pairs = [default_pair(sig), *wild, RootPair(wild[0].f, -wild[0].f)]
    return random_signal(geo, sig, seed=13), points, pairs


@pytest.mark.parametrize("grid", UNCOMMON_GRIDS + [(32, 32, -np.pi, np.pi)])
@pytest.mark.parametrize("sig", SIGNATURES)
def test_direct_matches_literal_grid_sum(sig, grid):
    # the separable evaluation against the two-gp sum over every sample
    h, points, pairs = direct_sum_cases(sig, grid)
    for pair in pairs:
        want = np.array([literal_direct_sum(h, pair, v, k) for v, k in points])
        got = np.array([cfmt.cfmt_direct(h, pair, v, k).coeffs for v, k in points])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("sig", SIGNATURES)
def test_batched_direct_sums_equal_one_point_calls(sig):
    # one batched call is bit-identical to stacked one-point calls, for one
    # point, for all fifteen, and for the axes v[:, None], k[None, :] of all
    # fifteen, which broadcast to the 15 x 15 points of their meshgrid
    for grid in UNCOMMON_GRIDS + [(32, 32, -np.pi, np.pi)]:
        h, points, pairs = direct_sum_cases(sig, grid)
        v, k = np.array(points).T
        for pair in pairs:
            for count in (1, len(points)):
                want = [cfmt.cfmt_direct(h, pair, a, b).coeffs for a, b in points[:count]]
                got = cfmt._direct_sums(h, pair, v[:count], k[:count])
                assert got.shape == (count, 4)
                assert np.array_equal(got, np.array(want))
            want = [[cfmt.cfmt_direct(h, pair, a, b).coeffs for b in k] for a in v]
            got = cfmt._direct_sums(h, pair, v[:, None], k[None, :])
            assert got.shape == (len(v), len(k), 4)
            assert np.array_equal(got, np.array(want))


# 18 radial rows run in oracle blocks of 8, 8 and a ragged 2
@pytest.mark.parametrize("grid", UNCOMMON_GRIDS + [(32, 32, -np.pi, np.pi), (18, 8, -1.5, 2.5)])
@pytest.mark.parametrize("sig", SIGNATURES)
def test_direct_spectrum_is_cfmt_direct_at_every_bin(sig, grid):
    h, _, pairs = direct_sum_cases(sig, grid)
    geo = h.geometry
    for pair in pairs:
        want = [[cfmt.cfmt_direct(h, pair, float(v), float(k)).coeffs for k in geo.k_values]
                for v in geo.v_values]
        assert np.array_equal(cfmt.direct_spectrum(h, pair).coeffs, np.array(want))


def test_direct_spectrum_memory_stays_linear_in_the_bins():
    # blocks of 2 * isqrt(n_s) rows hold the 0.5 MB output and about 1 MB of
    # intermediates at 128x128; kernel rows per bin would hold
    # n_s * n_theta * (n_s + n_theta) floats, about 240 MB here in one call
    geo = default_geometry(128)
    h = random_signal(geo, CL11, seed=16)
    pair = RootPair(*random_roots(CL11, 2, seed=17))
    tracemalloc.start()
    try:
        cfmt.direct_spectrum(h, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_direct_spectrum_memory_is_bounded_by_its_output():
    # one call on the whole axes peaks at 10.5 outputs here; blocks of 32 rows
    # hold a block's grid sums and the angular kernel tables beside the output
    h = random_signal(default_geometry(256), CL11, seed=100)
    pair = RootPair(*random_roots(CL11, 2, seed=7))
    tracemalloc.start()
    try:
        out = cfmt.direct_spectrum(h, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * out.coeffs.nbytes


def test_fast_route_memory_is_bounded_by_its_output():
    # a warm call holds its split planes, which it memoises and maps as they
    # are, beside its output, each 32 bytes a node; a copy of the planes for
    # the map would peak at about 3.1 outputs
    h = random_signal(default_geometry(256), CL11, seed=101)
    pair = RootPair(*random_roots(CL11, 2, seed=8))
    cfmt.cfmt_fast(h, pair)
    tracemalloc.start()
    try:
        out = cfmt.cfmt_fast(h, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * out.coeffs.nbytes


def test_direct_sums_refuse_a_signal_from_another_algebra():
    h = random_signal(default_geometry(8), CL20, seed=1)
    with pytest.raises(SignatureMismatchError):
        cfmt._direct_sums(h, default_pair(CL02), np.zeros(3), np.zeros(3))


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
        assert not output.flags.writeable


@pytest.mark.parametrize("n_s, n_theta", [(8, 8), (32, 32), (6, 10), (16, 128), (128, 16)])
def test_routes_match_their_joint_pass_forms_bit_for_bit(n_s, n_theta):
    # the angular pass runs one plane view per call; the bits are those of
    # one call over both planes, and of fft2 in cfmt_fast
    geo = GridGeometry(n_s, n_theta, -np.pi, np.pi)
    for k, sig in enumerate(SIGNATURES):
        h = random_signal(geo, sig, seed=80 + k)
        pairs = [default_pair(sig), RootPair(*random_roots(sig, 2, seed=83 + k))]
        for pair in pairs + wild_pairs(sig, 2, seed=86 + k):
            spectrum = cfmt.cfmt_forward(h, pair)
            assert spectrum.coeffs.tobytes() == joint_pass_forward(h, pair).tobytes()
            back = cfmt.cfmt_inverse(spectrum).samples
            assert back.tobytes() == joint_pass_inverse(spectrum).tobytes()
            fast = cfmt.cfmt_fast(h, pair).coeffs
            assert fast.tobytes() == joint_pass_fast(h, pair).tobytes()


def test_overflowing_routes_raise():
    # each route hands its fresh result over uncopied, still through the finiteness check
    geo = default_geometry(8)
    pair = default_pair(CL20)
    h = LogPolarSignal.constant(geo, Multivector(CL20, [1e308] * 4))
    spectrum = cfmt.Spectrum(geo, pair, np.full((8, 8, 4), 1e308))
    for route, args in ((cfmt.cfmt_forward, (h, pair)), (cfmt.cfmt_fast, (h, pair)),
                        (cfmt.cfmt_inverse, (spectrum,))):
        with pytest.raises(DomainError, match="must be finite"), pytest.warns(RuntimeWarning):
            route(*args)


def test_map_rolls_swapped_axes_by_half_a_period():
    rng = np.random.default_rng(12)
    src = rng.normal(size=(6, 4, 4))
    rows = rng.normal(size=(6, 4, 4))
    for swap in ((False, False), (True, False), (False, True), (True, True)):
        shift = tuple(n // 2 if flag else 0 for n, flag in zip(src.shape, swap))
        expected = np.einsum("ilk,itk->itl", np.roll(rows, shift[0], axis=0),
                             np.roll(src, shift, axis=(0, 1)))
        assert np.allclose(cfmt._map(src, rows, swap), expected, rtol=0, atol=1e-14)
        assert np.allclose(cfmt._map(src.view(complex), rows[0], swap),
                           np.roll(src, shift, axis=(0, 1)) @ rows[0].T, rtol=0, atol=1e-14)


def _same_plan_bytes(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in vars(a))


def test_each_pair_holds_its_own_plan():
    coeffs = [root.value.coeffs.tolist() for root in random_roots(CL11, 2, seed=20)]
    first, second = (make_pair(*(Multivector(CL11, c) for c in coeffs)) for _ in range(2))
    assert first == second and first is not second
    assert first.plan is first.plan
    assert second.plan is not first.plan
    assert _same_plan_bytes(second.plan, first.plan)


def test_plans_key_on_exact_coefficients():
    # a root one ulp away, or one whose zeros carry the other sign, is a
    # pair of its own, and it gets the plan and the outputs of a fresh build
    h = random_signal(default_geometry(16), CL20, seed=2)
    base = RootPair(*random_roots(CL20, 2, seed=3))
    nudged = base.g.value.coeffs.copy()
    nudged[1] = np.nextafter(nudged[1], np.inf)
    e12 = Multivector.blade(CL20, 3)
    others = [
        RootPair(base.f, validate_root(Multivector(CL20, nudged))),
        make_pair(e12, -e12),  # -e12 has -0.0 coefficients
    ]
    for other in others:
        spectra = [route(h, other).coeffs for route in (cfmt.cfmt_forward, cfmt.cfmt_fast)]
        fresh = RootPair(other.f, other.g)
        assert _same_plan_bytes(other.plan, fresh.plan)
        for route, spectrum in zip((cfmt.cfmt_forward, cfmt.cfmt_fast), spectra):
            assert route(h, fresh).coeffs.tobytes() == spectrum.tobytes()


def test_plans_are_read_only():
    geo = default_geometry(16)
    plan = RootPair(*random_roots(CL02, 2, seed=4)).plan
    for name, matrix in vars(plan).items():
        assert matrix.shape == (4, 4) and not matrix.flags.writeable, name
    assert not cfmt._radial_rotations(geo, True, 1.0, (1.0, 1.0)).flags.writeable


def test_plan_is_freed_with_its_pair():
    f = random_roots(CL20, 1, seed=5)[0]
    pair = RootPair(f, -f)
    plan = weakref.ref(pair.plan)
    del pair
    gc.collect()
    assert plan() is None


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
    pair = symmetry_pair(CL20)
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
    # g = +-f included: a split-plane basis can fit every wild pair yet fail there
    f = random_roots(sig, 1, seed=21)[0]
    pairs = wild_pairs(sig, 3, seed=11) + [default_pair(sig), RootPair(f, f), RootPair(f, -f)]
    for grid in [(32, 32, -np.pi, np.pi)] + UNCOMMON_GRIDS:
        geo = GridGeometry(*grid)
        for idx, pair in enumerate(pairs):
            h = random_signal(geo, sig, seed=12 + idx)
            fast = cfmt.cfmt_fast(h, pair)
            forward = cfmt.cfmt_forward(h, pair)
            assert fast.max_abs_diff(forward) <= 1e-13 * np.max(np.abs(forward.coeffs))


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


def test_magnitude_is_bitwise_the_four_channel_sum():
    rng = np.random.default_rng(71)
    pair = default_pair(CL02)
    for _ in range(300):
        n = 2 * int(rng.integers(1, 17))
        # each channel at its own scale, so the order of the sum shows in its bits
        scales = 10.0 ** rng.uniform(-150, 150, size=4)
        coeffs = scales * rng.standard_normal((n, n, 4))
        coeffs[rng.random((n, n, 4)) < 0.2] = 0.0
        coeffs[rng.random((n, n, 4)) < 0.1] = -0.0
        got = cfmt.Spectrum(default_geometry(n), pair, coeffs).magnitude()
        want = np.sqrt(np.sum(coeffs * coeffs, axis=-1))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("fft", {"axis": 0}),
        ("fft", {"axis": 1}),
        ("fft2", {"axes": (0, 1)}),
        ("ifft", {"axis": 0, "norm": "forward"}),
        ("ifft", {"axis": 1, "norm": "forward"}),
        ("ifft", {"axis": 1}),
        ("ifft", {"axis": 0}),
    ],
)
def test_in_place_fft_call_forms_fill_their_out(name, kwargs):
    # the routes run these forms on their own (n_s, n_theta, 2) planes, an
    # angular (axis 1) form on one strided plane view per call, and read the
    # result from the array they passed as out; the plane correlation runs
    # the default-norm ifft, axis 1 then axis 0, on its 2-D power array
    original = np.random.default_rng(72).standard_normal((6, 10, 4)).view(complex)
    want = getattr(np.fft, name)(original.copy(), **kwargs)
    planes = original.copy()
    got = getattr(np.fft, name)(planes, out=planes, **kwargs)
    assert got is planes
    assert np.array_equal(planes, want)
    if kwargs.get("axis") == 1:
        planes = original.copy()
        for view in (planes[:, :, 0], planes[:, :, 1]):
            got = getattr(np.fft, name)(view, out=view, **kwargs)
            assert got is view
        assert planes.tobytes() == want.tobytes()
    power = original[:, :, 0].copy()
    want = getattr(np.fft, name)(power.copy(), **kwargs)
    got = getattr(np.fft, name)(power, out=power, **kwargs)
    assert got is power
    assert power.tobytes() == want.tobytes()


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
    pair = symmetry_pair(CL02)
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
    # the spectrum rolls cyclically by (j0, k0) when c = n_s*s_min/span is an
    # integer; otherwise a row that wraps w times past the radial band edge
    # also picks up the left factor exp(-2*pi*w*c f)
    rng = np.random.default_rng(33)
    pair = moderate_pairs(sig, 1, seed=34)[0]
    for grid in [(32, 32, -np.pi, np.pi)] + UNCOMMON_GRIDS:
        geo = GridGeometry(*grid)
        h = random_signal(geo, sig, seed=35)
        spectrum = cfmt.cfmt_forward(h, pair)
        bound = 1e-10 * max(1.0, np.max(np.abs(spectrum.coeffs)))
        c = geo.n_s * geo.s_min / geo.span
        for _ in range(3):
            j0 = int(rng.integers(-10, 11))
            k0 = int(rng.integers(-10, 11))
            moved = cfmt.modulate(h, pair, j0 * geo.dv, k0)
            got = cfmt.cfmt_forward(moved, pair).coeffs
            expected = np.roll(spectrum.coeffs, (j0, k0), axis=(0, 1))
            wraps = (np.arange(geo.n_s) - j0) // geo.n_s
            if abs(c - round(c)) <= 1e-9 * max(1.0, abs(c)):
                assert np.max(np.abs(got - expected)) <= bound
            else:
                kept = np.abs(got[wraps == 0] - expected[wraps == 0])
                assert np.max(kept, initial=0.0) <= bound
            phase = -2 * np.pi * wraps * c
            factor = np.outer(np.cos(phase), [1.0, 0.0, 0.0, 0.0])
            factor += np.outer(np.sin(phase), pair.f.value.coeffs)
            assert np.max(np.abs(got - gp(sig, factor[:, None, :], expected))) <= bound


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


def test_theorem_checks_refuse_orders_above_two():
    pair = default_pair(CL02)
    h = random_signal(default_geometry(8), CL02, seed=40, band_limit=2)
    with pytest.raises(DomainError, match="derivative order n must be an integer in 0..2"):
        cfmt.check_derivative_theorems(h, pair, 3)
    with pytest.raises(DomainError, match="power-scaling order m must be an integer in 0..2"):
        cfmt.check_power_scaling(h, pair, 3, 0)


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


@pytest.mark.parametrize("n_theta", [2, 4, 6, 32])
def test_verify_skips_power_scaling_exactly_where_the_check_refuses(n_theta):
    # the verify rule and check_power_scaling read one seam predicate: on
    # 2 and 4 angles the test bump reaches the seam, from 6 on it does not
    geo = GridGeometry(8, n_theta, -np.pi, np.pi)
    signals = properties.run_inputs(properties.draw_signals(geo, 0))[CL02]
    case = properties.Case(signals, "blade", default_pair(CL02), np.random.default_rng(0))
    if n_theta <= 4:
        with pytest.raises(ContractError, match="energy on the theta seam"):
            cfmt.check_power_scaling(signals.bump, case.pair, 0, 1)
        assert properties._seam_free(case) == "test bump carries energy on the theta seam"
    else:
        cfmt.check_power_scaling(signals.bump, case.pair, 0, 1)
        assert properties._seam_free(case) is None


@pytest.mark.parametrize("sig", SIGNATURES)
def test_power_scaling_in_s_alone_ignores_seam_energy(sig):
    # with n = 0 nothing multiplies by theta, so the identity needs no seam
    # condition: the 8x4 verify bump reaches the seam and still passes
    signals = properties.draw_signals(GridGeometry(8, 4, -np.pi, np.pi), 0)
    bump = properties.run_inputs(signals)[sig].bump
    assert cfmt._seam_fraction(bump) is not None
    for pair in (default_pair(sig), moderate_pairs(sig, 1, seed=44)[0]):
        assert cfmt.check_power_scaling(bump, pair, 1, 0) <= 1e-5


@pytest.mark.parametrize("size", [16, 32])
@pytest.mark.parametrize("sig", SIGNATURES)
def test_scaling_residuals_of_all_orders_at_once_equal_each_order_alone(sig, size):
    # one _scaling_sums call lays every order's points side by side, with
    # no point shared between orders even where offsets coincide ((1, 0) and
    # (2, 0) both step to (+-1, 0)); each order must read its own block only
    geo = default_geometry(size)
    h = bump_signal(geo, sig)
    orders = [(m, n) for m in range(3) for n in range(3)]
    sums = cfmt._scaling_sums(h, orders)
    assert [len(weights) for weights, _, _ in sums.values()] == [1, 2, 3, 2, 4, 6, 3, 6, 9]
    for pair in (default_pair(sig), RootPair(*random_roots(sig, 2, seed=46))):
        residuals = cfmt._scaling_residuals(sums, pair, geo)
        assert list(residuals) == orders
        for (m, n), residual in residuals.items():
            assert residual == cfmt.check_power_scaling(h, pair, m, n), (m, n)


def _plancherel_residual(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), 1e-30)


def _parseval_residual(n_sig, n_spec, plus_sq, minus_sq):
    return max(abs(n_sig - n_spec) / max(n_sig, 1e-30),
               abs(n_spec**2 - plus_sq - minus_sq) / max(n_spec**2, 1e-30))


@pytest.mark.parametrize("sig", SIGNATURES)
def test_verify_shared_results_equal_the_public_checks_bit_for_bit(sig):
    # verify hands precomputed spectra and signals to the kernels behind the
    # public checks; on every pair it runs, the degenerate one included, the
    # results must be the ones the public checks compute from scratch
    geo = default_geometry(16)
    signals = properties.run_inputs(properties.draw_signals(geo, 5))[sig]
    h, h2 = signals.h, signals.h2
    for name, pair in properties.verify_pairs(sig, 5, include_degenerate=True)[1:]:
        case = properties.Case(signals, name, pair, np.random.default_rng(5))
        assert case.linearity == cfmt.check_linearity(h, h2, pair, *case.coefficients)
        assert set(case.power_scaling) == set(properties.POWER_ORDERS)
        for (m, n), residual in case.power_scaling.items():
            assert residual == cfmt.check_power_scaling(signals.bump, pair, m, n)
        assert set(case.derivatives) == {1, 2}
        for n, check in case.derivatives.items():
            assert check == cfmt.check_derivative_theorems(signals.smooth, pair, n)
        assert properties._plancherel(case) == _plancherel_residual(
            *cfmt.plancherel_check(h, h2, pair))
        if pair.blade_like:
            assert properties._parseval(case) == _parseval_residual(*cfmt.parseval_check(h, pair))


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
    pair = symmetry_pair(sig)
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
    pair = symmetry_pair(CL02)
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
    pair = symmetry_pair(CL11)
    h = LogPolarSignal.from_channels(GEO, CL11)
    components = cfmt.symmetry_decompose(h, pair)
    for label in ("ee", "eo", "oe", "oo"):
        assert np.max(np.abs(getattr(components, label).coeffs)) == 0.0


@pytest.mark.parametrize("sig", SIGNATURES)
def test_symmetry_components_reconstruct(sig):
    pair = symmetry_pair(sig)
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
    pair = symmetry_pair(CL02)
    not_real = random_signal(GEO, CL02, seed=55)
    with pytest.raises(ContractError):
        cfmt.symmetry_decompose(not_real, pair)
    real = random_signal(GEO, CL02, seed=56, channels=(0,))
    f = pair.f
    with pytest.raises(ContractError, match="g != "):
        cfmt.symmetry_decompose(real, RootPair(f, -f))
    # g = e12 + 1e-11 e1 is not +-f for f = e12, but (1, f, g, fg) is singular to roundoff
    close = RootPair(validate_root(basis(CL20)[3]), sample_root(CL20, 1e-11, 0.0, 1))
    assert not close.degenerate
    with pytest.raises(ContractError, match="numerically dependent"):
        cfmt.symmetry_decompose(random_signal(GEO, CL20, seed=56, channels=(0,)), close)


# -- spectra as values -------------------------------------------------------------------


def test_spectra_are_frozen_and_keyed_by_identity():
    pair = default_pair(CL02)
    spectrum = cfmt.cfmt_forward(random_signal(GEO, CL02, seed=57), pair)
    other = cfmt.cfmt_forward(random_signal(GEO, CL02, seed=58), pair)
    for name, value in (("coeffs", other.coeffs), ("geometry", default_geometry(16)),
                        ("pair", wild_pairs(CL02, 1, seed=58)[0])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spectrum, name, value)
    by_position = cfmt.Spectrum(GEO, pair, other.coeffs)
    by_keyword = cfmt.Spectrum(geometry=GEO, pair=pair, coeffs=other.coeffs)
    for built in (by_position, by_keyword):
        assert built.geometry is GEO and built.pair is pair and built.signature is CL02
        assert built.coeffs is not other.coeffs and not built.coeffs.flags.writeable
        assert built.coeffs.tobytes() == other.coeffs.tobytes()
    with pytest.raises(DomainError, match="spectrum coefficients must be finite"):
        cfmt.Spectrum(GEO, pair, np.full_like(other.coeffs, np.nan))
    assert by_position != by_keyword and len({by_position: 0, by_keyword: 1}) == 2
    assert weakref.ref(spectrum)() is spectrum
    assert repr(spectrum).startswith("<clifford_mellin.cfmt.Spectrum object at 0x")


def test_spectrum_pair_mixing_guard():
    h = random_signal(GEO, CL02, seed=57)
    s1 = cfmt.cfmt_forward(h, default_pair(CL02))
    s2 = cfmt.cfmt_forward(h, wild_pairs(CL02, 1, seed=58)[0])
    with pytest.raises(ContractError):
        s1.max_abs_diff(s2)


def test_spectrum_grid_mixing_guard():
    pair = default_pair(CL02)
    s1 = cfmt.cfmt_forward(random_signal(GEO, CL02, seed=57), pair)
    s2 = cfmt.cfmt_forward(random_signal(default_geometry(16), CL02, seed=57), pair)
    with pytest.raises(GeometryError, match="different grids"):
        s1.max_abs_diff(s2)


def test_clmf_round_trip(tmp_path):
    path = tmp_path / "spectrum.clmf"
    pair = symmetry_pair(CL11)
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


@pytest.mark.parametrize(
    "f_line",
    [b"0.0,1.0,0.0", b"0.0,1.0,0.0,x", b"0.0,2.0,0.0,0.0", b"0.0,nan,0.0,0.0", b"0.0,1e200,0.0,0.0"],
)
def test_clmf_rejects_bad_roots(tmp_path, f_line):
    # roots that do not parse, are not finite, do not square to -1, or overflow when squared
    path = tmp_path / "bad.clmf"
    h = random_signal(GridGeometry(4, 4, -1.0, 1.0), CL02, seed=1)
    cfmt.write_clmf(path, cfmt.cfmt_forward(h, default_pair(CL02)))
    good = path.read_bytes()
    assert b"\nf=0.0,1.0,0.0,0.0\n" in good
    path.write_bytes(good.replace(b"\nf=0.0,1.0,0.0,0.0\n", b"\nf=" + f_line + b"\n"))
    with pytest.raises(FormatError):
        cfmt.read_clmf(path)

