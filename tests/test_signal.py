"""Signal-space inner products, norms, splits, and the CLMS file format."""

import dataclasses
import warnings
import weakref

import numpy as np
import pytest

from clifford_mellin.algebra import CL02, CL11, CL20, SIGNATURES, Multivector
from clifford_mellin.errors import (
    DomainError,
    FormatError,
    GeometryError,
    SignatureMismatchError,
)
from clifford_mellin.roots import default_pair
from clifford_mellin.signal import (
    GridGeometry,
    LogPolarSignal,
    default_geometry,
    inner_product,
    norm,
    random_signal,
    read_clms,
    scalar_inner_product,
    split_signal,
    write_clms,
)

GEO = default_geometry(32)


def test_geometry_validation():
    with pytest.raises(GeometryError):
        GridGeometry(3, 8, -1.0, 1.0)
    with pytest.raises(GeometryError):
        GridGeometry(8, 8, 1.0, -1.0)
    geo = GridGeometry(8, 16, -2.0, 2.0)
    assert geo.span == 4.0
    assert geo.ds == 0.5
    assert geo.dtheta == pytest.approx(2 * np.pi / 16)
    assert geo.is_symmetric
    assert not GridGeometry(8, 8, 0.0, 1.0).is_symmetric
    assert geo.v_values[geo.n_s // 2] == 0.0
    assert geo.k_values[geo.n_theta // 2] == 0.0


@pytest.mark.parametrize("sizes", [
    (4.0, 4), (4, 8.0), (True, 4), (4, np.float64(4)), ("4", 4),
    (10**5000 + 1, 4), (4, -10**5000),  # ints too long to print
])
def test_geometry_refuses_sizes_that_are_not_integers(sizes):
    with pytest.raises(GeometryError, match="must be an even integer >= 2"):
        GridGeometry(*sizes, -1.0, 1.0)


def test_geometry_accepts_numpy_integer_sizes():
    geo = GridGeometry(np.int64(4), np.int32(6), -1.0, 1.0)
    assert random_signal(geo, CL02, seed=1).samples.shape == (4, 6, 4)


@pytest.mark.parametrize("bounds, label", [
    (("0", "1"), "s_min"), ((None, 1.0), "s_min"), ((1j, 2.0), "s_min"),
    ((False, True), "s_min"), ((0.0, np.True_), "s_max"), ((0.0, [1.0]), "s_max"),
])
def test_geometry_refuses_bounds_that_are_not_real_numbers(bounds, label):
    with pytest.raises(GeometryError, match=f"{label} must be a real number"):
        GridGeometry(4, 4, *bounds)


@pytest.mark.parametrize("bounds, label", [
    ((np.nan, 1.0), "s_min"), ((0.0, np.nan), "s_max"),
    ((-np.inf, 1.0), "s_min"), ((0.0, np.inf), "s_max"), ((0.0, float("-inf")), "s_max"),
    ((0, 10**400), "s_max"),  # an int that no float holds
    ((0, 10**5000), "s_max"), ((-10**5000, 0), "s_min"),  # ints too long to print
])
def test_geometry_refuses_bounds_that_are_not_finite(bounds, label):
    with pytest.raises(GeometryError, match=f"{label} must be finite"):
        GridGeometry(4, 4, *bounds)


def test_geometry_accepts_python_and_numpy_real_bounds():
    for bounds in ((0, 1), (np.int64(-2), np.float32(1.5)), (np.float64(-1.0), 2.0), (0, 2**63)):
        geo = GridGeometry(4, 4, *bounds)
        assert type(geo.s_min) is float and type(geo.s_max) is float
        assert (geo.s_min, geo.s_max) == (float(bounds[0]), float(bounds[1]))
        assert geo.span == float(bounds[1]) - float(bounds[0])


def test_float32_bounds_give_float64_steps_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = GridGeometry(4, 4, np.float32(-1e38), np.float32(3e38))
    # in float32 this span would overflow
    assert type(wide.span) is float and np.isfinite(wide.span)
    geo = GridGeometry(4, 4, np.float32(0.1), np.float32(2.9))
    assert type(geo.dv) is float
    assert geo.dv == 2 * np.pi / (float(np.float32(2.9)) - float(np.float32(0.1)))


@pytest.mark.parametrize("bounds, label", [
    ((-1e308, 1e308), "span"), ((np.float64(-1e308), np.float64(1e308)), "span"),
    ((0.0, 1e-320), "dv"), ((0.0, 5e-324), "ds"), ((-10**308, 10**308), "span"),
])
def test_geometry_refuses_a_window_whose_steps_are_not_finite_and_positive(bounds, label):
    # finite bounds whose span, ds or dv overflows or underflows, refused
    # without a RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=f"{label} must be a finite positive float"):
            GridGeometry(4, 4, *bounds)


def test_signals_are_frozen_and_keyed_by_identity():
    h = random_signal(GEO, CL02, seed=1)
    other = random_signal(GEO, CL02, seed=2)
    for name, value in (("samples", other.samples), ("geometry", default_geometry(16)),
                        ("signature", CL20)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(h, name, value)
    assert h.samples.tobytes() != other.samples.tobytes()

    by_position = LogPolarSignal(GEO, CL02, other.samples)
    by_keyword = LogPolarSignal(geometry=GEO, signature=CL02, samples=other.samples)
    for built in (by_position, by_keyword, other.with_samples(other.samples)):
        assert built.geometry is GEO and built.signature is CL02
        assert built.samples is not other.samples and not built.samples.flags.writeable
        assert built.samples.tobytes() == other.samples.tobytes()
    channels = LogPolarSignal.from_channels(GEO, CL20, m1=2.0, m12=other.samples[..., 0])
    assert channels.signature is CL20
    zero = np.zeros((32, 32))
    assert np.array_equal(channels.samples,
                          np.stack([zero, zero + 2.0, zero, other.samples[..., 0]], axis=-1))
    with pytest.raises(GeometryError):
        LogPolarSignal(GEO, CL02, other.samples[:16])

    # equal samples make a distinct key; the repr is object's
    assert by_position != by_keyword and hash(by_position) != hash(by_keyword)
    assert len({by_position: 0, by_keyword: 1}) == 2
    assert weakref.ref(h)() is h
    assert repr(h).startswith("<clifford_mellin.signal.LogPolarSignal object at 0x")


def test_constant_inner_product():
    one = Multivector.scalar(CL02, 1.0)
    sig = LogPolarSignal.constant(GEO, one)
    result = inner_product(sig, sig)
    expected = GEO.span * 2 * np.pi
    assert result.allclose(Multivector.scalar(CL02, expected), tol=1e-10)
    assert norm(sig) == pytest.approx(np.sqrt(expected), rel=1e-12)


def test_inner_product_zero_and_single_sample():
    zero = LogPolarSignal.from_channels(GEO, CL11)
    a = random_signal(GEO, CL11, seed=1)
    assert inner_product(a, zero) == Multivector(CL11, (0, 0, 0, 0))

    arr = np.zeros((GEO.n_s, GEO.n_theta, 4))
    m = Multivector(CL11, (0.3, -1.2, 0.5, 2.0))
    arr[3, 7] = m.coeffs
    single = LogPolarSignal(GEO, CL11, arr)
    got = inner_product(single, single)
    expected = (m * m.principal_reverse()) * (GEO.ds * GEO.dtheta)
    assert got.allclose(expected, tol=1e-14)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_scalar_inner_product_symmetric(sig):
    a = random_signal(GEO, sig, seed=2)
    b = random_signal(GEO, sig, seed=3)
    lhs = scalar_inner_product(a, b)
    rhs = scalar_inner_product(b, a)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_orthogonal_blade_channels():
    rng = np.random.default_rng(4)
    fa = rng.uniform(-1, 1, size=(GEO.n_s, GEO.n_theta))
    fb = rng.uniform(-1, 1, size=(GEO.n_s, GEO.n_theta))
    a = LogPolarSignal.from_channels(GEO, CL20, m1=fa)
    b = LogPolarSignal.from_channels(GEO, CL20, m2=fb)
    assert abs(scalar_inner_product(a, b)) <= 1e-12


def test_self_inner_product_is_norm_squared():
    a = random_signal(GEO, CL02, seed=5)
    assert scalar_inner_product(a, a) == pytest.approx(norm(a) ** 2, rel=1e-12)
    assert inner_product(a, a).scalar_part == pytest.approx(norm(a) ** 2, rel=1e-12)


def test_norm_homogeneity_and_zero():
    a = random_signal(GEO, CL02, seed=6)
    scaled = a.with_samples(a.samples * -2.5)
    assert norm(scaled) == pytest.approx(2.5 * norm(a), rel=1e-12)
    assert norm(LogPolarSignal.from_channels(GEO, CL02)) == 0.0


def test_cauchy_schwarz():
    for seed in range(10):
        a = random_signal(GEO, CL11, seed=seed)
        b = random_signal(GEO, CL11, seed=seed + 100)
        assert scalar_inner_product(a, b) ** 2 <= norm(a) ** 2 * norm(b) ** 2 * (1 + 1e-12)


def test_split_signal_reconstruction_and_pythagoras():
    pair = default_pair(CL02)
    a = random_signal(GEO, CL02, seed=7)
    plus, minus = split_signal(a, pair)
    assert np.max(np.abs(plus.samples + minus.samples - a.samples)) <= 1e-15
    total = norm(a) ** 2
    assert abs(total - norm(plus) ** 2 - norm(minus) ** 2) <= 1e-12 * total


def test_split_signal_eigenspace_component():
    pair = default_pair(CL02)
    base = random_signal(GEO, CL02, seed=8)
    plus, _ = split_signal(base, pair)
    again_plus, again_minus = split_signal(plus, pair)
    assert np.max(np.abs(again_plus.samples - plus.samples)) <= 1e-12
    assert np.max(np.abs(again_minus.samples)) <= 1e-12


def test_measure_consistency_under_refinement():
    # Riemann-sum smoke test: doubling both resolutions moves the norm < 1%
    def build(geo):
        s = geo.s_values[:, None]
        t = geo.theta_values[None, :]
        channel = 1.0 + 0.5 * np.cos(s) * np.sin(2 * t) + 0.25 * np.sin(2 * s)
        return LogPolarSignal.from_channels(geo, CL02, m0=channel)

    coarse = build(default_geometry(32))
    fine = build(default_geometry(64))
    assert abs(norm(coarse) - norm(fine)) / norm(fine) < 0.01


def test_geometry_mismatch_rejected():
    a = random_signal(GEO, CL02, seed=9)
    b = random_signal(default_geometry(16), CL02, seed=9)
    with pytest.raises(GeometryError):
        inner_product(a, b)


def test_signals_from_different_algebras_do_not_mix():
    a = random_signal(GEO, CL20, seed=9)
    b = random_signal(GEO, CL02, seed=9)
    with pytest.raises(SignatureMismatchError, match="signals in Cl"):
        a.max_abs_diff(b)


def test_nonfinite_samples_rejected():
    arr = np.zeros((GEO.n_s, GEO.n_theta, 4))
    arr[0, 0, 0] = np.inf
    with pytest.raises(DomainError):
        LogPolarSignal(GEO, CL02, arr)


def test_band_limited_random_signal():
    sig = random_signal(GEO, CL02, seed=10, band_limit=4)
    spec = np.fft.fft2(sig.samples[..., 0])
    fs = np.fft.fftfreq(GEO.n_s, d=1.0 / GEO.n_s)
    ft = np.fft.fftfreq(GEO.n_theta, d=1.0 / GEO.n_theta)
    high = (np.abs(fs)[:, None] > 4) | (np.abs(ft)[None, :] > 4)
    assert np.max(np.abs(spec[high])) <= 1e-10 * np.max(np.abs(spec))


def test_clms_round_trip(tmp_path):
    path = tmp_path / "signal.clms"
    original = random_signal(GridGeometry(16, 32, -1.5, 2.5), CL11, seed=11)
    write_clms(path, original)
    loaded = read_clms(path)
    assert loaded.signature == original.signature
    assert loaded.geometry == original.geometry
    assert np.array_equal(loaded.samples, original.samples)


def test_clms_header_errors(tmp_path):
    path = tmp_path / "bad.clms"
    path.write_bytes(b"algebra=Cl(0,2)\nns=16\n")
    with pytest.raises(FormatError):
        read_clms(path)
    path.write_bytes(b"algebra=Cl(9,9)\nns=4\nntheta=4\nsmin=0\nsmax=1\n")
    with pytest.raises(FormatError):
        read_clms(path)
    path.write_bytes(b"algebra=Cl(0,2)\nns 4\nntheta=4\nsmin=0\nsmax=1\n")
    with pytest.raises(FormatError, match="malformed header line 'ns 4'"):
        read_clms(path)
    # finite bounds whose span overflows: a format error at read
    path.write_bytes(b"algebra=Cl(0,2)\nns=4\nntheta=4\nsmin=-1e308\nsmax=1e308\n"
                     + bytes(4 * 4 * 4 * 8))
    with pytest.raises(FormatError, match="span must be a finite positive float"):
        read_clms(path)
    good = random_signal(GridGeometry(4, 4, -1.0, 1.0), CL02, seed=1)
    write_clms(path, good)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError):
        read_clms(path)
