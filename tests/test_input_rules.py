"""The real rule and the count rule on the numbers callers pass.

Every refused number raises a library error that names the argument, and a
few inputs of other numeric types stay accepted with the bits of their
Python-typed twins."""

import numpy as np
import pytest

from clifford_mellin import cfmt
from clifford_mellin.algebra import CL02, CL20, Multivector
from clifford_mellin.errors import (
    CliffordMellinError, ContractError, DomainError, GeometryError, OffManifoldError)
from clifford_mellin.imaging import ImageSignalSource, RasterImage, to_log_polar
from clifford_mellin.roots import default_pair, export_manifold, random_roots, sample_root
from clifford_mellin.signal import GridGeometry, LogPolarSignal, default_geometry, random_signal

H = random_signal(default_geometry(8), CL02, seed=1, band_limit=2)
PAIR = default_pair(CL02)
IMG = RasterImage(np.zeros((8, 8)))
HUGE = np.full((8, 8), 10**400, dtype=object)

# (call, the library error it raises, the argument its message starts with)
REFUSALS = {
    "int-coefficient-past-float": (
        lambda: Multivector(CL20, (10**400, 0, 0, 0)), DomainError, "coefficients"),
    "int-scalar-past-float": (
        lambda: Multivector.scalar(CL20, 10**400), DomainError, "coefficients"),
    "int-blade-coefficient-past-float": (
        lambda: Multivector.blade(CL20, 1, 10**400), DomainError, "coefficients"),
    "negative-blade-index": (lambda: Multivector.blade(CL20, -1), DomainError, "index"),
    "float-blade-index-of-a-multivector": (
        lambda: Multivector.blade(CL20, 1.0), DomainError, "index"),
    "blade-index-past-e12": (lambda: Multivector.blade(CL20, 4), DomainError, "index"),
    "text-coefficient": (
        lambda: Multivector(CL20, ("a", 0, 0, 0)), DomainError, "coefficients"),
    "int-samples-past-float": (
        lambda: LogPolarSignal(default_geometry(2), CL20,
                               np.full((2, 2, 4), 10**400, dtype=object)),
        DomainError, "signal samples"),
    "int-pixels-past-float": (lambda: RasterImage(HUGE), DomainError, "pixels"),
    "nan-pixels": (lambda: RasterImage(np.full((8, 8), np.nan)), DomainError, "pixels"),
    "int-chart-point-past-float": (
        lambda: sample_root(CL20, 10**400, 0.0, 1), DomainError, "(b1, b2)"),
    "bool-branch": (lambda: sample_root(CL20, 0.0, 0.0, True), OffManifoldError, "branch"),
    "float-branch": (lambda: sample_root(CL20, 0.0, 0.0, 1.0), OffManifoldError, "branch"),
    "int-direct-frequency-past-float": (
        lambda: cfmt.cfmt_direct(H, PAIR, 10**400, 0.0), DomainError, "v"),
    "int-modulation-frequency-past-float": (
        lambda: cfmt.modulate(H, PAIR, 10**400, 0), DomainError, "v0"),
    "int-angular-modulation-past-float": (
        lambda: cfmt.modulate(H, PAIR, 0.0, 10**400), DomainError, "k0"),
    "bool-angular-modulation": (
        lambda: cfmt.modulate(H, PAIR, 0.0, True), ContractError, "k0"),
    "bool-steps": (lambda: cfmt.apply_scale_rotate(H, True, 0), ContractError, "a_steps"),
    "fractional-derivative-order": (
        lambda: cfmt.check_derivative_theorems(H, PAIR, 1.5), DomainError, "derivative order n"),
    "fractional-power-order": (
        lambda: cfmt.check_power_scaling(H, PAIR, 0.5, 0), DomainError, "power-scaling order m"),
    "float-power-order": (
        lambda: cfmt.check_power_scaling(H, PAIR, 1.0, 0), DomainError, "power-scaling order m"),
    "int-power-order-too-long-to-print": (
        lambda: cfmt.check_power_scaling(H, PAIR, 0, 10**5000), DomainError,
        "power-scaling order n"),
    "fractional-root-count": (lambda: random_roots(CL20, 2.5, 1), OffManifoldError, "n"),
    "bool-root-count": (lambda: random_roots(CL20, True, 1), OffManifoldError, "n"),
    "fractional-root-seed": (lambda: random_roots(CL20, 2, 2.5), OffManifoldError, "seed"),
    "negative-root-seed": (lambda: random_roots(CL20, 2, -1), OffManifoldError, "seed"),
    "bool-root-seed": (lambda: random_roots(CL20, 2, True), OffManifoldError, "seed"),
    "fractional-signal-seed": (
        lambda: random_signal(default_geometry(2), CL20, 2.5), DomainError, "seed"),
    "negative-signal-seed": (
        lambda: random_signal(default_geometry(2), CL20, -1), DomainError, "seed"),
    "bool-signal-seed": (
        lambda: random_signal(default_geometry(2), CL20, True), DomainError, "seed"),
    "fractional-resolution": (
        lambda: export_manifold(CL20, 2.5), OffManifoldError, "resolution"),
    "float-blade-index": (
        lambda: ImageSignalSource(IMG, CL02, (1.0,)), DomainError, "mapping entry"),
    "bool-blade-index": (
        lambda: ImageSignalSource(IMG, CL02, (True,)), DomainError, "mapping entry"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_refused_number_raises_a_library_error_naming_the_argument(case):
    call, error, name = REFUSALS[case]
    with pytest.raises(CliffordMellinError) as info:
        call()
    assert info.type is error
    message = str(info.value)
    assert message.startswith(f"{name} must be "), message
    assert len(message) < 200, message  # no int printed digit by digit


def test_errors_for_refused_values_stay_value_errors():
    # callers that catch ValueError keep catching the library's refusals
    assert issubclass(DomainError, ValueError) and issubclass(GeometryError, ValueError)


def _bits(values):
    """Each value's bits: an array's dtype, shape and bytes, or a value with its type."""
    return [(v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else (type(v), v)
            for v in values]


def _resampled(mapping):
    source = ImageSignalSource(RasterImage(np.linspace(0, 1, 256).reshape(16, 16)), CL02, mapping)
    return to_log_polar(source, GridGeometry(8, 8, -1.0, 1.5), center=(7.5, 7.5)).samples


# (got, expected): what the library makes of each input, and its twin's bits
ACCEPTED = {
    "numpy-int-sizes": lambda: (
        vars(GridGeometry(np.int64(8), np.int32(6), -1.0, 1.0)).values(), (8, 6, -1.0, 1.0)),
    "numpy-int-steps": lambda: (
        [cfmt.apply_scale_rotate(H, np.int64(3), np.int64(-5)).samples],
        [cfmt.apply_scale_rotate(H, 3, -5).samples]),
    "numpy-float-bounds": lambda: (
        vars(GridGeometry(8, 8, np.float64(-1.5), np.float64(2.5))).values(), (8, 8, -1.5, 2.5)),
    "huge-and-signed-zero-coefficients": lambda: (
        [Multivector(CL20, (1e300, -0.0, 0.0, -1e300)).coeffs,
         Multivector.scalar(CL20, -0.0).coeffs, Multivector.blade(CL20, 2, 1e300).coeffs],
        [np.array([1e300, -0.0, 0.0, -1e300]), np.array([-0.0, 0.0, 0.0, 0.0]),
         np.array([0.0, 0.0, 1e300, 0.0])]),
    "infinite-pixels-clamp": lambda: (
        [RasterImage(np.where(np.eye(8) > 0, np.inf, -np.inf)).pixels],
        [np.eye(8)[:, :, None]]),
    "numpy-int-blade-indices": lambda: (
        [_resampled((np.int64(3),))], [_resampled((3,))]),
}


@pytest.mark.parametrize("case", ACCEPTED)
def test_numbers_of_other_types_keep_the_bits_of_their_python_twins(case):
    got, expected = ACCEPTED[case]()
    assert _bits(got) == _bits(expected)
