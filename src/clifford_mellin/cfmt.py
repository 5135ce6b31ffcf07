"""The Clifford Fourier-Mellin transform over Cl(p,q), p+q=2.

For a signal h on the log-polar grid and a pair (f, g) of square roots of -1
the transform is

    H(v, k) = (1/2pi) * sum_{s,theta} exp(-f v s) h(s,theta) exp(-g k theta) ds dtheta,

with the left radial kernel and the right angular kernel never reordered
around h (f and g need not commute with the samples).  Three evaluation
routes are provided:

* cfmt_direct: the literal double sum at one real (v, k); the oracle.
* cfmt_forward: exact FFT evaluation.  Left multiplication by exp(-f v s)
  and right multiplication by exp(-g k theta) are each complex-linear for a
  complex structure on the coefficient space (L_f resp. R_g squares to -I),
  so each pass is a plain FFT in the two planes of that structure.
* cfmt_fast: the quasi-complex route.  The signal splits into the +-
  eigenparts of x -> f x g; on each part the left radial kernel converts to
  a right kernel with a sign flip, so both kernels act in the commutative
  subalgebra generated by g and one complex FFT per plane does the work.

The FFT routes share one core: (n_s, n_theta, 4) coordinates in a plane
basis, viewed as complex without a copy, are the two planes; one real 4x4 map
links the passes, a (-1)^(i+t) sign pattern replaces fftshift (sizes are
even), and the s_min phase and the scale form one per-row factor.

The inverse carries the weight dv/(2pi) = 1/span per radial frequency bin,
which makes the discrete pair exactly unitary; spectral norms use the
measure dv per v-bin and weight 1 per k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Multivector,
    Signature,
    gp,
    left_matrix,
    right_matrix,
)
from .errors import ContractError, DomainError, FormatError, GeometryError, SignatureMismatchError
from .roots import RootOfMinusOne, RootPair
from .signal import (
    GridGeometry,
    LogPolarSignal,
    TWO_PI,
    _format_header,
    _read_header,
    norm as signal_norm,
    scalar_inner_product,
    split_signal,
)
from .split import split_array

__all__ = [
    "Spectrum",
    "SymmetryComponents",
    "DerivativeCheck",
    "cfmt_forward",
    "cfmt_direct",
    "direct_spectrum",
    "cfmt_inverse",
    "cfmt_fast",
    "check_linearity",
    "apply_scale_rotate",
    "predicted_shift_spectrum",
    "reflect_circle",
    "reverse_rotation",
    "modulate",
    "check_derivative_theorems",
    "check_power_scaling",
    "plancherel_check",
    "parseval_check",
    "symmetry_decompose",
    "write_clmf",
    "read_clmf",
    "spectrum_csv_rows",
]


class Spectrum:
    """Transform coefficients on centered frequency axes.

    coeffs[i, t] holds the multivector at v = 2*pi*j/span with
    j = i - n_s/2 and integer angular frequency k = t - n_theta/2.
    The spectrum remembers the root pair that produced it; combining
    spectra from different pairs is a contract error.
    """

    def __init__(self, geometry: GridGeometry, pair: RootPair, coeffs: np.ndarray):
        arr = np.array(coeffs, dtype=float)
        expected = (geometry.n_s, geometry.n_theta, 4)
        if arr.shape != expected:
            raise GeometryError(f"coefficient shape {arr.shape} does not match {expected}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("spectrum coefficients must be finite")
        arr.flags.writeable = False
        self.geometry = geometry
        self.pair = pair
        self.coeffs = arr

    @property
    def signature(self) -> Signature:
        return self.pair.signature

    def norm(self) -> float:
        """Spectral L2 norm with measure dv per v-bin and weight 1 per k."""
        return float(np.sqrt(np.sum(self.coeffs * self.coeffs) * self.geometry.dv))

    def magnitude(self) -> np.ndarray:
        """Pointwise modulus |H(v,k)| as an (n_s, n_theta) array."""
        return np.sqrt(np.sum(self.coeffs * self.coeffs, axis=-1))

    def split(self) -> tuple["Spectrum", "Spectrum"]:
        plus, minus = split_array(self.coeffs, self.pair)
        return (
            Spectrum(self.geometry, self.pair, plus),
            Spectrum(self.geometry, self.pair, minus),
        )

    def _check_mixable(self, other: "Spectrum") -> None:
        if self.geometry != other.geometry:
            raise GeometryError("spectra live on different grids")
        if not (
            np.array_equal(self.pair.f.value.coeffs, other.pair.f.value.coeffs)
            and np.array_equal(self.pair.g.value.coeffs, other.pair.g.value.coeffs)
            and self.signature == other.signature
        ):
            raise ContractError("cannot mix spectra produced by different root pairs")

    def max_abs_diff(self, other: "Spectrum") -> float:
        self._check_mixable(other)
        return float(np.max(np.abs(self.coeffs - other.coeffs)))

    def with_coeffs(self, coeffs: np.ndarray) -> "Spectrum":
        return Spectrum(self.geometry, self.pair, coeffs)


def _check_signal_pair(h: LogPolarSignal, pair: RootPair) -> None:
    if h.signature != pair.signature:
        raise SignatureMismatchError(
            f"signal in {h.signature.name}, roots in {pair.signature.name}"
        )


# -- shared FFT core ----------------------------------------------------------------


def _plane_basis(j_matrix: np.ndarray) -> np.ndarray:
    """Column basis (u1, J u1, u3, J u3) splitting R^4 into two J-invariant
    planes, for J with J @ J = -I, so that J is multiplication by i in each.
    u1 is the scalar unit; u3 is the standard basis vector giving the largest
    determinant."""
    unit = np.eye(4)
    candidates = [
        np.column_stack([unit[0], j_matrix @ unit[0], u3, j_matrix @ u3]) for u3 in unit[1:]
    ]
    return max(candidates, key=lambda basis: abs(np.linalg.det(basis)))


def _pair_bases(pair: RootPair) -> tuple[np.ndarray, np.ndarray]:
    """Plane bases of the left structure L_f and the right structure R_g."""
    sig, f, g = pair.signature, pair.f.value.coeffs, pair.g.value.coeffs
    return _plane_basis(left_matrix(sig, f)), _plane_basis(right_matrix(sig, g))


def _remap(arr: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a real 4x4 matrix to each coefficient vector of arr, given as
    (n_s, n_theta, 4) reals or as their (n_s, n_theta, 2) complex planes; the
    fresh (n_s, n_theta, 4) result's .view(complex) is its planes, uncopied."""
    coords = np.ascontiguousarray(arr).view(float)
    return (coords.reshape(-1, 4) @ matrix.T).reshape(coords.shape)


def _dft(z: np.ndarray, axis: int, sign: float) -> np.ndarray:
    """Unnormalised sum_m z[m] exp(sign * 2*pi*i*j*m/n) along axis."""
    if sign < 0:
        return np.fft.fft(z, axis=axis)
    return np.fft.ifft(z, axis=axis, norm="forward")


def _alternate_signs(z: np.ndarray) -> np.ndarray:
    """Multiply z in place by (-1)^(i+t) over its first two axes, return it.
    On the input of an even-length DFT pass this rolls the output by half a
    period: fftshift before a forward pass, ifftshift after an inverse one."""
    z[1::2] *= -1
    z[:, 1::2] *= -1
    return z


def _radial_factor(geometry: GridGeometry, sign: float, scale: float) -> np.ndarray:
    """scale * exp(sign * i * v_j * s_min) per centred row j, shaped (n_s, 1, 1)."""
    j = np.arange(geometry.n_s) - geometry.n_s // 2
    phase = np.exp(sign * 2j * np.pi * j * geometry.s_min / geometry.span)
    return (scale * phase)[:, None, None]


# -- transform routes --------------------------------------------------------------


def cfmt_forward(h: LogPolarSignal, pair: RootPair) -> Spectrum:
    """Exact FFT evaluation of the defining sum, without splitting.

    The angular pass runs in the two planes of the right-multiplication
    structure R_g, the radial pass in the planes of the left-multiplication
    structure L_f; both are plain complex FFTs there.
    """
    _check_signal_pair(h, pair)
    geo = h.geometry
    basis_f, basis_g = _pair_bases(pair)

    z = _alternate_signs(_remap(h.samples, np.linalg.inv(basis_g)).view(complex))
    z = _dft(z, 1, -1.0)
    z = _dft(_remap(z, np.linalg.solve(basis_f, basis_g)).view(complex), 0, -1.0)
    z *= _radial_factor(geo, -1.0, geo.ds * geo.dtheta / TWO_PI)
    return Spectrum(geo, pair, _remap(z, basis_f))


def cfmt_inverse(spectrum: Spectrum) -> LogPolarSignal:
    """Inverse transform, with the weight dv/(2pi) = 1/span per radial bin.

    The round trip is exact to roundoff for roots of order one; its error
    grows like (|f| |g|)^2 times machine epsilon.  On a 32x32 grid, Cl(1,1)
    pairs at chart radius 10, 100 and 1000 give relative errors of about
    2e-12, 4e-8 and 1e-4."""
    geo = spectrum.geometry
    basis_f, basis_g = _pair_bases(spectrum.pair)

    z = _remap(spectrum.coeffs, np.linalg.inv(basis_f)).view(complex)
    z *= _radial_factor(geo, +1.0, 1.0 / geo.span)
    z = _dft(z, 0, +1.0)
    z = _remap(z, np.linalg.solve(basis_g, basis_f)).view(complex)
    z = _alternate_signs(_dft(z, 1, +1.0))
    return LogPolarSignal(geo, spectrum.signature, _remap(z, basis_g))


def cfmt_fast(h: LogPolarSignal, pair: RootPair) -> Spectrum:
    """Quasi-complex route: split h, flip the radial kernel to the right side
    with the per-part sign, and transform both parts in the planes of R_g."""
    _check_signal_pair(h, pair)
    geo = h.geometry
    _, basis_g = _pair_bases(pair)
    to_planes = np.linalg.inv(basis_g)
    scale = geo.ds * geo.dtheta / TWO_PI

    total = np.zeros((geo.n_s, geo.n_theta, 2), dtype=complex)
    for radial_sign, part in zip((+1.0, -1.0), split_array(h.samples, pair)):
        z = _alternate_signs(_remap(part, to_planes).view(complex))
        z = _dft(_dft(z, 1, -1.0), 0, radial_sign)
        z *= _radial_factor(geo, radial_sign, scale)
        total += z
    return Spectrum(geo, pair, _remap(total, basis_g))


def _kernel_values(root: RootOfMinusOne, angles: np.ndarray) -> np.ndarray:
    """exp(root * angle) as an (..., 4) coefficient array."""
    out = np.zeros(angles.shape + (4,))
    out[..., 0] = np.cos(angles)
    out += np.sin(angles)[..., None] * root.value.coeffs
    return out


def cfmt_direct(h: LogPolarSignal, pair: RootPair, v: float, k: float) -> Multivector:
    """Literal double sum at one real frequency point (v, k)."""
    _check_signal_pair(h, pair)
    geo = h.geometry
    sig = h.signature
    kernel_left = _kernel_values(pair.f, -v * geo.s_values)
    kernel_right = _kernel_values(pair.g, -k * geo.theta_values)
    terms = gp(sig, kernel_left[:, None, :], h.samples)
    terms = gp(sig, terms, kernel_right[None, :, :])
    total = terms.reshape(-1, 4).sum(axis=0)
    return Multivector(sig, total * (geo.ds * geo.dtheta / TWO_PI))


def direct_spectrum(h: LogPolarSignal, pair: RootPair) -> Spectrum:
    """Full spectrum by the literal sum at every grid frequency.

    Each bin is evaluated independently, so the cost is quadratic in the
    total sample count; this is the oracle the FFT routes are checked
    against.
    """
    geo = h.geometry
    coeffs = np.empty((geo.n_s, geo.n_theta, 4))
    for i, v in enumerate(geo.v_values):
        for t, k in enumerate(geo.k_values):
            coeffs[i, t] = cfmt_direct(h, pair, float(v), float(k)).coeffs
    return Spectrum(geo, pair, coeffs)


# -- operator actions on signals and spectra ------------------------------------------


def _span_coefficients(value: Multivector, root: RootOfMinusOne) -> tuple[float, float]:
    """Decompose value = a*1 + b*root, requiring the off-span residue <= 1e-12."""
    basis = np.column_stack([np.array([1.0, 0, 0, 0]), root.value.coeffs])
    coeffs, residual, _, _ = np.linalg.lstsq(basis, value.coeffs, rcond=None)
    off = value.coeffs - basis @ coeffs
    if np.max(np.abs(off)) > 1e-12:
        raise ContractError(
            f"coefficient {value!r} is not in span(1, root) (residue {np.max(np.abs(off)):.3e})"
        )
    return float(coeffs[0]), float(coeffs[1])


def check_linearity(
    h1: LogPolarSignal,
    h2: LogPolarSignal,
    pair: RootPair,
    alpha: Multivector,
    beta: Multivector,
    alpha_right: Multivector,
    beta_right: Multivector,
) -> tuple[float, float]:
    """Residuals of left linearity (coefficients in span{1, f}) and right
    linearity (coefficients in span{1, g})."""
    for value in (alpha, beta):
        _span_coefficients(value, pair.f)
    for value in (alpha_right, beta_right):
        _span_coefficients(value, pair.g)

    mixed = h1.with_samples(
        gp(h1.signature, np.broadcast_to(alpha.coeffs, h1.samples.shape), h1.samples)
        + gp(h1.signature, np.broadcast_to(beta.coeffs, h2.samples.shape), h2.samples)
    )
    s1 = cfmt_forward(h1, pair)
    s2 = cfmt_forward(h2, pair)
    left_expected = gp(
        s1.signature, np.broadcast_to(alpha.coeffs, s1.coeffs.shape), s1.coeffs
    ) + gp(s2.signature, np.broadcast_to(beta.coeffs, s2.coeffs.shape), s2.coeffs)
    left_residual = float(np.max(np.abs(cfmt_forward(mixed, pair).coeffs - left_expected)))

    mixed_r = h1.with_samples(
        gp(h1.signature, h1.samples, np.broadcast_to(alpha_right.coeffs, h1.samples.shape))
        + gp(h2.signature, h2.samples, np.broadcast_to(beta_right.coeffs, h2.samples.shape))
    )
    right_expected = gp(
        s1.signature, s1.coeffs, np.broadcast_to(alpha_right.coeffs, s1.coeffs.shape)
    ) + gp(s2.signature, s2.coeffs, np.broadcast_to(beta_right.coeffs, s2.coeffs.shape))
    right_residual = float(np.max(np.abs(cfmt_forward(mixed_r, pair).coeffs - right_expected)))
    return left_residual, right_residual


def apply_scale_rotate(h: LogPolarSignal, a_steps: int, phi_steps: int) -> LogPolarSignal:
    """Sample h at (s + a_steps*ds, theta + phi_steps*dtheta), cyclically.

    This realizes m(r, theta) = h(a r, theta + phi) for a = exp(a_steps*ds)
    and phi = phi_steps*dtheta.  Fractional shifts require resampling and are
    rejected here.
    """
    for steps, label in ((a_steps, "a_steps"), (phi_steps, "phi_steps")):
        if not isinstance(steps, (int, np.integer)):
            raise ContractError(f"{label} must be an integer number of grid steps")
    return h.with_samples(np.roll(h.samples, shift=(-a_steps, -phi_steps), axis=(0, 1)))


def predicted_shift_spectrum(spectrum: Spectrum, a_steps: int, phi_steps: int) -> Spectrum:
    """Spectrum of the scale/rotated signal: exp(f v s_a) H(v,k) exp(g k phi)."""
    geo = spectrum.geometry
    pair = spectrum.pair
    sig = spectrum.signature
    s_a = a_steps * geo.ds
    phi = phi_steps * geo.dtheta
    kernel_left = _kernel_values(pair.f, geo.v_values * s_a)
    kernel_right = _kernel_values(pair.g, geo.k_values * phi)
    out = gp(sig, kernel_left[:, None, :], spectrum.coeffs)
    out = gp(sig, out, kernel_right[None, :, :])
    return spectrum.with_coeffs(out)


def _require_symmetric(geometry: GridGeometry, operation: str) -> None:
    if not geometry.is_symmetric:
        raise ContractError(
            f"{operation} needs a symmetric radial window (s_min = -s_max);"
            f" got [{geometry.s_min}, {geometry.s_max}]"
        )


def _reversal_index(n: int) -> np.ndarray:
    return (-np.arange(n)) % n


def reflect_circle(h: LogPolarSignal) -> LogPolarSignal:
    """Reflection r -> 1/r, i.e. s -> -s about the grid's s = 0 line.

    Exact only on symmetric windows, where the map is a grid automorphism;
    the spectrum of the result is H(-v, k) with the centered index negated
    (the j = -n_s/2 row maps to itself)."""
    _require_symmetric(h.geometry, "reflect_circle")
    return h.with_samples(h.samples[_reversal_index(h.geometry.n_s), :, :])


def reverse_rotation(h: LogPolarSignal) -> LogPolarSignal:
    """Reflection theta -> -theta; the spectrum of the result is H(v, -k)."""
    return h.with_samples(h.samples[:, _reversal_index(h.geometry.n_theta), :])


def modulate(h: LogPolarSignal, pair: RootPair, v0: float, k0: int) -> LogPolarSignal:
    """Radial and rotary modulation exp(f v0 s) h exp(g k0 theta).

    v0 must be an exact grid frequency (an integer multiple of dv) and k0 an
    integer, so the spectrum of the result is H shifted cyclically by
    (v0/dv, k0) bins."""
    _check_signal_pair(h, pair)
    geo = h.geometry
    steps = v0 / geo.dv
    if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
        raise ContractError(f"v0 = {v0} is not a grid frequency (dv = {geo.dv})")
    if not isinstance(k0, (int, np.integer)):
        raise ContractError(f"k0 must be an integer, got {k0!r}")
    kernel_left = _kernel_values(pair.f, v0 * geo.s_values)
    kernel_right = _kernel_values(pair.g, k0 * geo.theta_values)
    out = gp(h.signature, kernel_left[:, None, :], h.samples)
    out = gp(h.signature, out, kernel_right[None, :, :])
    return h.with_samples(out)


# -- derivative and power-scaling theorems ---------------------------------------------


def _band_limited(h: LogPolarSignal) -> bool:
    """True when the top third of both frequency axes carries no energy."""
    geo = h.geometry
    fs = np.fft.fftfreq(geo.n_s, d=1.0 / geo.n_s)
    ft = np.fft.fftfreq(geo.n_theta, d=1.0 / geo.n_theta)
    high = (np.abs(fs)[:, None] > geo.n_s / 3.0) | (np.abs(ft)[None, :] > geo.n_theta / 3.0)
    total = 0.0
    high_energy = 0.0
    for c in range(4):
        spec = np.fft.fft2(h.samples[..., c])
        power = np.abs(spec) ** 2
        total += float(power.sum())
        high_energy += float(power[high].sum())
    return total == 0.0 or high_energy <= 1e-20 * total


def _spectral_derivative(h: LogPolarSignal, axis: int, order: int) -> LogPolarSignal:
    """Channelwise spectral differentiation along s (axis 0) or theta (axis 1)."""
    if order == 0:
        return h
    geo = h.geometry
    if axis == 0:
        omega = TWO_PI * np.fft.fftfreq(geo.n_s, d=geo.ds)
        shape = (geo.n_s, 1, 1)
    else:
        omega = TWO_PI * np.fft.fftfreq(geo.n_theta, d=geo.dtheta)
        shape = (1, geo.n_theta, 1)
    factor = (1j * omega.reshape(shape)) ** order
    spec = np.fft.fft(h.samples, axis=axis) * factor
    return h.with_samples(np.fft.ifft(spec, axis=axis).real)


def _root_power(root: RootOfMinusOne, n: int) -> Multivector:
    """root^n for n = 0, 1, 2 using root^2 = -1."""
    sig = root.signature
    if n % 4 == 0:
        return Multivector.scalar(sig, 1.0)
    if n % 4 == 1:
        return root.value
    if n % 4 == 2:
        return Multivector.scalar(sig, -1.0)
    return -root.value


@dataclass(frozen=True)
class DerivativeCheck:
    radial_residual: float
    angular_residual: float
    band_limited: bool


def check_derivative_theorems(h: LogPolarSignal, pair: RootPair, n: int) -> DerivativeCheck:
    """Compare transforms of (r d/dr)^n h and (d/dtheta)^n h against
    (f v)^n H(v,k) and H(v,k) (g k)^n.

    The derivatives are taken spectrally on the grid, which is exact for
    band-limited input; non-band-limited input only sets the warning flag.
    """
    if n < 0 or n > 2:
        raise DomainError(f"derivative order must be 0..2, got {n}")
    _check_signal_pair(h, pair)
    geo = h.geometry
    sig = h.signature
    base = cfmt_forward(h, pair)

    radial = cfmt_forward(_spectral_derivative(h, 0, n), pair)
    f_pow = _root_power(pair.f, n)
    factor_left = (geo.v_values**n)[:, None, None] * np.broadcast_to(
        f_pow.coeffs, base.coeffs.shape
    )
    expected_radial = gp(sig, factor_left, base.coeffs)
    radial_residual = float(np.max(np.abs(radial.coeffs - expected_radial)))

    angular = cfmt_forward(_spectral_derivative(h, 1, n), pair)
    g_pow = _root_power(pair.g, n)
    factor_right = (geo.k_values**n)[None, :, None] * np.broadcast_to(
        g_pow.coeffs, base.coeffs.shape
    )
    expected_angular = gp(sig, base.coeffs, factor_right)
    angular_residual = float(np.max(np.abs(angular.coeffs - expected_angular)))

    return DerivativeCheck(radial_residual, angular_residual, _band_limited(h))


_FD_WEIGHTS = {
    0: ((0, 1.0),),
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
}

POWER_SCALING_PROBES = ((0.75, 1.25), (1.5, -2.25), (-0.5, 0.5))


def check_power_scaling(
    h: LogPolarSignal,
    pair: RootPair,
    m: int,
    n: int,
    probes: tuple[tuple[float, float], ...] = POWER_SCALING_PROBES,
) -> float:
    """Relative residual of the power-scaling identity at real frequencies.

    The transform of (ln r)^m theta^n h must equal f^m times the m-th
    v-derivative and n-th k-derivative of H, times g^n.  Derivatives are
    approximated by central differences of the literal sum (step 1e-3*dv in
    v and 1e-3 in k); the theta multiplication is not periodic, so signals
    carrying energy on the theta seam are rejected.
    """
    if not (0 <= m <= 2 and 0 <= n <= 2):
        raise DomainError(f"power-scaling orders must be 0..2, got ({m}, {n})")
    _check_signal_pair(h, pair)
    geo = h.geometry

    power = np.sum(h.samples * h.samples)
    seam = np.sum(h.samples[:, [0, -1], :] ** 2)
    if power > 0 and seam / power > 1e-12:
        raise ContractError(
            f"signal carries energy on the theta seam (fraction {seam / power:.3e});"
            " power scaling in theta needs it to vanish there"
        )

    s_grid = geo.s_values[:, None, None]
    theta_grid = geo.theta_values[None, :, None]
    scaled = h.with_samples(h.samples * s_grid**m * theta_grid**n)

    step_v = 1e-3 * geo.dv
    step_k = 1e-3
    f_pow = _root_power(pair.f, m)
    g_pow = _root_power(pair.g, n)

    worst = 0.0
    for v_units, k_value in probes:
        v_value = v_units * geo.dv
        lhs = cfmt_direct(scaled, pair, v_value, k_value)
        rhs = np.zeros(4)
        for ov, wv in _FD_WEIGHTS[m]:
            for ok, wk in _FD_WEIGHTS[n]:
                sample = cfmt_direct(h, pair, v_value + ov * step_v, k_value + ok * step_k)
                rhs += (wv / step_v**m) * (wk / step_k**n) * sample.coeffs
        rhs_mv = f_pow * Multivector(h.signature, rhs) * g_pow
        scale = max(
            float(np.max(np.abs(lhs.coeffs))), float(np.max(np.abs(rhs_mv.coeffs))), 1e-30
        )
        worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs_mv.coeffs))) / scale)
    return worst


# -- Plancherel, Parseval, symmetry ---------------------------------------------------


def plancherel_check(h: LogPolarSignal, m: LogPolarSignal, pair: RootPair) -> tuple[float, float]:
    """Both sides of <h, m> = <H, M> with the discrete measures
    (ds*dtheta on the signal side, dv per v-bin on the spectral side)."""
    _check_signal_pair(h, pair)
    lhs = scalar_inner_product(h, m)
    hs = cfmt_forward(h, pair)
    ms = cfmt_forward(m, pair)
    rhs = float(np.sum(hs.coeffs * ms.coeffs) * h.geometry.dv)
    return lhs, rhs


def parseval_check(h: LogPolarSignal, pair: RootPair) -> tuple[float, float, float, float]:
    """(||h||, ||H||, ||H_plus||^2, ||H_minus||^2) for a blade-like pair."""
    if not pair.blade_like:
        raise ContractError(
            "parseval_check requires a pair with blade_like flag set"
            " (principal reverse must negate both roots)"
        )
    spectrum = cfmt_forward(h, pair)
    plus, minus = spectrum.split()
    return signal_norm(h), spectrum.norm(), plus.norm() ** 2, minus.norm() ** 2


@dataclass(frozen=True)
class SymmetryComponents:
    """Spectra of the four parity components of a real signal.

    Channel assignment under the transform kernel:
      ee (even radius, even angle)  -> scalar channel
      eo (odd radius, even angle)   -> f channel
      oe (even radius, odd angle)   -> g channel
      oo (odd radius, odd angle)    -> fg channel
    off_span maps each label to the off-channel energy fraction.
    """

    ee: Spectrum
    eo: Spectrum
    oe: Spectrum
    oo: Spectrum
    off_span: dict


def symmetry_decompose(h: LogPolarSignal, pair: RootPair) -> SymmetryComponents:
    """Split a real signal into parity components and verify that each
    transforms into a single channel of the basis (1, f, g, fg)."""
    _check_signal_pair(h, pair)
    geo = h.geometry
    sig = h.signature
    _require_symmetric(geo, "symmetry_decompose")

    other = float(np.max(np.abs(h.samples[..., 1:])))
    if other > 1e-12:
        raise ContractError(
            f"symmetry_decompose needs a real signal; non-scalar channels reach {other:.3e}"
        )
    if pair.degenerate:
        raise ContractError("symmetry_decompose requires g != +-f")

    channel_basis = np.column_stack(
        [
            np.array([1.0, 0.0, 0.0, 0.0]),
            pair.f.value.coeffs,
            pair.g.value.coeffs,
            (pair.f.value * pair.g.value).coeffs,
        ]
    )
    singular_values = np.linalg.svd(channel_basis, compute_uv=False)
    if singular_values[-1] <= 1e-10 * max(1.0, singular_values[0]):
        raise ContractError(
            "the set (1, f, g, fg) is numerically dependent; symmetry separation undefined"
        )

    samples = h.samples
    rs = samples[_reversal_index(geo.n_s), :, :]
    rt = samples[:, _reversal_index(geo.n_theta), :]
    rst = rs[:, _reversal_index(geo.n_theta), :]

    parts = {
        "ee": 0.25 * (samples + rs + rt + rst),
        "eo": 0.25 * (samples - rs + rt - rst),
        "oe": 0.25 * (samples + rs - rt - rst),
        "oo": 0.25 * (samples - rs - rt + rst),
    }

    spectra = {}
    off_span = {}
    total_energy = 0.0
    for label, arr in parts.items():
        spectrum = cfmt_forward(h.with_samples(arr), pair)
        spectra[label] = spectrum
        total_energy += float(np.sum(spectrum.coeffs**2))

    channel_of = {"ee": 0, "eo": 1, "oe": 2, "oo": 3}
    basis_inv = np.linalg.inv(channel_basis)
    for label, spectrum in spectra.items():
        coords = spectrum.coeffs @ basis_inv.T
        kept = np.zeros_like(coords)
        kept[..., channel_of[label]] = coords[..., channel_of[label]]
        off = spectrum.coeffs - kept @ channel_basis.T
        fraction = float(np.sum(off**2)) / max(total_energy, 1e-300)
        off_span[label] = fraction
        if fraction > 1e-10:
            raise ContractError(
                f"component {label} leaks {fraction:.3e} of the spectral energy"
                " outside its channel"
            )

    return SymmetryComponents(
        spectra["ee"], spectra["eo"], spectra["oe"], spectra["oo"], off_span
    )


# -- CLMF v1 file format -----------------------------------------------------------


def _format_mv(coeffs: np.ndarray) -> str:
    return ",".join(repr(float(c)) for c in coeffs)


def _parse_mv(sig: Signature, text: str) -> Multivector:
    parts = text.split(",")
    if len(parts) != 4:
        raise FormatError(f"expected 4 comma-separated floats, got {text!r}")
    try:
        return Multivector(sig, [float(p) for p in parts])
    except (ValueError, DomainError) as exc:
        raise FormatError(f"bad multivector {text!r}: {exc}") from exc


def write_clmf(path, spectrum: Spectrum) -> None:
    """CLMF v1: text header (algebra, grid, f, g), then little-endian float64
    coefficients in centered frequency order, four per bin."""
    geo = spectrum.geometry
    header = _format_header(
        [
            ("algebra", spectrum.signature.name),
            ("ns", str(geo.n_s)),
            ("ntheta", str(geo.n_theta)),
            ("smin", repr(geo.s_min)),
            ("smax", repr(geo.s_max)),
            ("f", _format_mv(spectrum.pair.f.value.coeffs)),
            ("g", _format_mv(spectrum.pair.g.value.coeffs)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(spectrum.coeffs, dtype="<f8").tobytes())


def read_clmf(path) -> Spectrum:
    from .roots import make_pair

    with open(path, "rb") as fh:
        data = fh.read()
    fields, offset = _read_header(
        data, ["algebra", "ns", "ntheta", "smin", "smax", "f", "g"]
    )
    try:
        sig = Signature.parse(fields["algebra"])
        geo = GridGeometry(
            int(fields["ns"]),
            int(fields["ntheta"]),
            float(fields["smin"]),
            float(fields["smax"]),
        )
        pair = make_pair(_parse_mv(sig, fields["f"]), _parse_mv(sig, fields["g"]))
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"invalid CLMF header: {exc}") from exc
    expected = geo.n_s * geo.n_theta * 4
    payload = np.frombuffer(data, dtype="<f8", offset=offset)
    if payload.size != expected:
        raise FormatError(f"CLMF payload holds {payload.size} floats, expected {expected}")
    return Spectrum(geo, pair, payload.reshape(geo.n_s, geo.n_theta, 4))


def spectrum_csv_rows(spectrum: Spectrum):
    """Rows for the CSV export with header j,k,v,m0,m1,m2,m12."""
    geo = spectrum.geometry
    yield "j,k,v,m0,m1,m2,m12"
    j_values = np.arange(-geo.n_s // 2, geo.n_s // 2)
    k_values = np.arange(-geo.n_theta // 2, geo.n_theta // 2)
    for i, j in enumerate(j_values):
        v = repr(float(geo.dv * j))
        for t, k in enumerate(k_values):
            c = [repr(float(x)) for x in spectrum.coeffs[i, t]]
            yield f"{j},{k},{v},{c[0]},{c[1]},{c[2]},{c[3]}"
