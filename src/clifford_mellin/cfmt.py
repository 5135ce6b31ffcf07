"""The Clifford Fourier-Mellin transform over Cl(p,q), p+q=2.

For a signal h on the log-polar grid and a pair (f, g) of square roots of -1
the transform is

    H(v, k) = (1/2pi) * sum_{s,theta} exp(-f v s) h(s,theta) exp(-g k theta) ds dtheta,

with the left radial kernel and the right angular kernel never reordered
around h (f and g need not commute with the samples).  Three evaluation
routes are provided:

* cfmt_direct: the literal double sum at one real (v, k); the oracle.  Each
  kernel is cos - root*sin, so the sum reduces to four real-weighted grid
  sums (cos/sin in s times cos/sin in theta) that f and g then multiply by
  the geometric product; it uses no FFT and no plane basis.  It is the
  one-point case of the kernel _direct_sums, which takes any v and k that
  broadcast, bit-identical to one call per point: points (P,) x (P,) make P
  kernel rows per axis.  _direct_sums runs in two stages: the pair-free
  grid sums (_grid_sums), then their f/g tail (_pair_sums).  direct_spectrum
  builds the angular table of the whole axis k[None, :] once and sums blocks
  of 2 * isqrt(n_s) radial rows v[:, None] against it (_table_sums).  Power
  scaling keeps the first stage's sums for a signal, one block per order
  (_scaling_sums); verify makes them once per run, and each pair adds one
  tail call over all blocks.
* cfmt_forward: exact FFT evaluation.  Left multiplication by exp(-f v s)
  and right multiplication by exp(-g k theta) are each complex-linear for a
  complex structure on the coefficient space (L_f resp. R_g squares to -I),
  so each pass is a plain FFT in the two planes of that structure.
* cfmt_fast: the quasi-complex route.  The signal splits into the +-
  eigenparts of the sandwich S: x -> f x g; on x_+ the left radial kernel
  exp(-f v s) equals the right kernel exp(+g v s), on x_- it equals
  exp(-g v s), so both kernels act in the commutative subalgebra generated
  by g.  Each eigenspace is one R_g-complex plane (see split); in the basis
  (u_+, R_g u_+, u_-, R_g u_-) the split is part of the input map and the
  2-D FFT of both planes does the work, the + plane's rows then gathered in
  place to run at -j.  Those planes (_split_planes) are the one layout of the
  split spectra: cfmt_fast maps them as they are, and imaging.register
  correlates them through _kept_planes and _plane_correlation, which with
  _plane_norm alone read the layout.  The correlation sums the planes'
  cross-power into one fresh array and inverts it there by two in-place 1-D
  passes in ifft2's order, as _split_planes runs fft2's.

The planes are kept by two rules, each entry keyed by its signal object,
read-only, 32 bytes per node (128 KB at 64x64), and gone when its signal
dies.  cfmt_fast keeps its last signal's planes under that call's pair, a
one-signal memo (_FAST_PLANES) that its next call replaces.  _kept_planes
keeps, for every signal register correlates, the planes under the pair last
asked for and their norm without the DC bins (_KEPT_PLANES), for the
signal's lifetime: signals are frozen, and a corpus entry meets many
queries.  An entry taken from the memo shares its array, and a descriptor
alone keeps no planes beyond the memo's.  Both rules match pairs by
identity, so an equal pair built anew recomputes the planes with the same
bits.

The FFT routes share one core: (n_s, n_theta, 4) coordinates in a plane basis,
viewed as complex without a copy, are the two planes.  A route is its in-place
FFT passes between real 4x4 plane maps, one stacked matmul each, and no other
pass over the grid but cfmt_fast's one row gather of plane 0.  A radial pass
is one call over both planes; an angular pass is one call per plane, on a
strided view of it, since one call over both runs numpy's FFT loop once per
radial row.  On an even grid fftshift is a swap of halves, so a map reads its
source with halves swapped; the s_min phase and the scale are a per-row
rotation of each plane in the map beside the radial pass.  The last map's
fresh array becomes the result uncopied, through signal._Fresh.  The bases
come from the pair's plan (RootPair.plan), the rotations are built once per
grid and route, and a call only forms the product of a basis and the
rotations.

The inverse carries the weight dv/(2pi) = 1/span per radial frequency bin,
which makes the discrete pair exactly unitary; spectral norms use the
measure dv per v-bin and weight 1 per k.

Spectra share the signal module's grid-array codec: Spectrum validates its
coefficients with the same check as LogPolarSignal, and CLMF v1 is the CLMS
grid file with f= and g= header lines added.  Spectrum CSV and the imaging
descriptor CSV are both rendered by frequency_csv_rows.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import Multivector, Signature, gp
from .errors import ContractError, DomainError, FormatError, GeometryError, NotARootError
from .roots import RootOfMinusOne, RootPair, make_pair
from .signal import (
    GridGeometry,
    LogPolarSignal,
    TWO_PI,
    _Fresh,
    _grid_array,
    _read_grid_file,
    _write_grid_file,
    norm as signal_norm,
    scalar_inner_product,
)
from .split import split_array


@dataclass(frozen=True, eq=False, repr=False)
class Spectrum:
    """Transform coefficients on centered frequency axes.

    coeffs[i, t] holds the multivector at v = 2*pi*j/span with
    j = i - n_s/2 and integer angular frequency k = t - n_theta/2.
    The spectrum remembers the root pair that produced it; combining
    spectra from different pairs is a contract error.  Frozen, and hashed
    and compared by identity, like LogPolarSignal.
    """

    geometry: GridGeometry
    pair: RootPair
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _grid_array(self.geometry, self.coeffs, "spectrum coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def signature(self) -> Signature:
        return self.pair.signature

    def norm(self) -> float:
        """Spectral L2 norm with measure dv per v-bin and weight 1 per k."""
        return float(np.sqrt(np.sum(self.coeffs * self.coeffs) * self.geometry.dv))

    def magnitude(self) -> np.ndarray:
        """Pointwise modulus |H(v,k)| as an (n_s, n_theta) array; the channel
        sum runs left to right, as np.sum's does over four channels."""
        sq = self.coeffs * self.coeffs
        return np.sqrt(((sq[..., 0] + sq[..., 1]) + sq[..., 2]) + sq[..., 3])

    def split(self) -> tuple["Spectrum", "Spectrum"]:
        plus, minus = split_array(self.coeffs, self.pair)
        return (
            Spectrum(self.geometry, self.pair, plus),
            Spectrum(self.geometry, self.pair, minus),
        )

    def max_abs_diff(self, other: "Spectrum") -> float:
        _check_mixable(self, other, "spectra")
        return float(np.max(np.abs(self.coeffs - other.coeffs)))


def _check_mixable(a, b, what: str) -> None:
    """Spectra, or descriptors, mix only on one grid and under one root pair."""
    if a.geometry is not b.geometry and a.geometry != b.geometry:
        raise GeometryError(f"{what} live on different grids")
    if a.pair is not b.pair and a.pair != b.pair:
        raise ContractError(f"cannot mix {what} made with different root pairs")


# -- shared FFT core ----------------------------------------------------------------


def _map(src: np.ndarray, matrices: np.ndarray, swap=(False, False)) -> np.ndarray:
    """Apply a real 4x4 matrix, or one per row of src, to each coefficient
    vector of src, given as (n_s, n_theta, 4) reals or their (n_s, n_theta, 2)
    complex planes, reading each axis flagged in swap with its halves swapped.
    One stacked matmul writes the fresh (n_s, n_theta, 4) result, whose
    .view(complex) is its planes, uncopied."""
    coords = src.view(float)
    out = np.empty(coords.shape)
    a, b = (1 + bool(flag) for flag in swap)
    blocks = (a, coords.shape[0] // a, b, coords.shape[1] // b, 4)
    acting = np.ascontiguousarray(np.swapaxes(matrices, -1, -2))  # vectors are rows
    if acting.ndim == 3:  # one matrix per row of src, so swapped with its rows
        acting = acting.reshape(a, -1, 1, 4, 4)[::-1]
    np.matmul(coords.reshape(blocks)[::-1, :, ::-1], acting, out=out.reshape(blocks))
    return out


@lru_cache(maxsize=64)
def _radial_rotations(geometry: GridGeometry, centred: bool, scale: float, signs) -> np.ndarray:
    """Read-only per-row (n_s, 4, 4) matrices multiplying plane p, as complex
    numbers, by scale * exp(signs[p] * i * v_j * s_min) at radial frequency
    index j, which runs in FFT order or, if centred, up from -n_s/2.  The last
    64 are cached, since each route passes the same arguments for a grid on
    every call."""
    if centred:
        j = np.arange(geometry.n_s) - geometry.n_s // 2
    else:
        j = np.fft.fftfreq(geometry.n_s, 1 / geometry.n_s)
    angle = (j * geometry.dv * geometry.s_min)[:, None, None]
    p0, p1 = signs  # signs[p] * i on plane p's (re, im)
    turn = np.array([[0, -p0, 0, 0], [p0, 0, 0, 0], [0, 0, 0, -p1], [0, 0, p1, 0]])
    rotations = scale * (np.cos(angle) * np.eye(4) + np.sin(angle) * turn)
    rotations.flags.writeable = False
    return rotations


def _angular_pass(z: np.ndarray, transform, **kwargs) -> None:
    """Run transform along the angular axis of the (n_s, n_theta, 2) planes z
    in place, one call per strided plane view (see the module docstring)."""
    for plane in (z[:, :, 0], z[:, :, 1]):
        transform(plane, axis=1, out=plane, **kwargs)


# -- transform routes --------------------------------------------------------------


def cfmt_forward(h: LogPolarSignal, pair: RootPair) -> Spectrum:
    """Exact FFT evaluation of the defining sum, without splitting.

    The angular pass runs in the two planes of the right-multiplication
    structure R_g, the radial pass in the planes of the left-multiplication
    structure L_f; both are plain complex FFTs there.
    """
    pair.require_algebra(h.signature, "signal")
    geo = h.geometry
    plan = pair.plan
    rows = plan.basis_f @ _radial_rotations(geo, False, geo.ds * geo.dtheta / TWO_PI, (-1.0, -1.0))

    z = _map(h.samples, plan.inv_g).view(complex)
    _angular_pass(z, np.fft.fft)
    z = _map(z, plan.g_to_f, swap=(False, True)).view(complex)
    np.fft.fft(z, axis=0, out=z)
    return Spectrum(geo, pair, _Fresh(_map(z, rows, swap=(True, False))))


def cfmt_inverse(spectrum: Spectrum) -> LogPolarSignal:
    """Inverse transform, with the weight dv/(2pi) = 1/span per radial bin.

    The round trip is exact to roundoff for roots of order one; its error
    grows like (|f| |g|)^2 times machine epsilon.  On a 32x32 grid, Cl(1,1)
    pairs at chart radius 10, 100 and 1000 give relative errors of about
    2e-12, 4e-8 and 1e-4."""
    geo = spectrum.geometry
    plan = spectrum.pair.plan
    rows = _radial_rotations(geo, True, 1.0 / geo.span, (1.0, 1.0)) @ plan.inv_f

    z = _map(spectrum.coeffs, rows, swap=(True, True)).view(complex)
    # 1-D passes: np.fft.ifft2 ignores its out argument in numpy 2.4.6
    np.fft.ifft(z, axis=0, norm="forward", out=z)
    z = _map(z, plan.f_to_g).view(complex)
    _angular_pass(z, np.fft.ifft, norm="forward")
    return LogPolarSignal(geo, spectrum.signature, _Fresh(_map(z, plan.basis_g)))


def _split_planes(h: LogPolarSignal, pair: RootPair) -> np.ndarray:
    """Read-only (n_s, n_theta, 2) complex planes that cfmt_fast maps: fft2 of
    h's split-basis coordinates under pair, as fft2 runs it (the angular pass,
    then the radial pass), with plane 0's row j read from row -j mod n_s.
    Plane 0 holds x_+ and plane 1 holds x_-, each with R_g acting as i; both
    planes' DC bins stay at [0, 0]."""
    pair.require_algebra(h.signature, "signal")
    z = _map(h.samples, pair.plan.inv_split).view(complex)
    _angular_pass(z, np.fft.fft)  # fft2's own order, last axis first: same bits
    np.fft.fft(z, axis=0, out=z)
    z[1:, :, 0] = z[:0:-1, :, 0]  # row j from row -j; numpy copies an overlapping source
    z.flags.writeable = False
    return z


def _plane_norm(planes: np.ndarray) -> float:
    """Parseval norm of the signal behind _split_planes' planes with both DC
    bins left out, that is of the mean-removed signal in the split basis."""
    varying = planes.reshape(-1)[2:]  # plane 0's and plane 1's DC bins lead
    return math.sqrt(np.vdot(varying, varying).real / (planes.shape[0] * planes.shape[1]))


def _plane_correlation(planes1: np.ndarray, planes2: np.ndarray) -> np.ndarray:
    """Cyclic cross-correlation of two signals' mean-removed split planes, a
    fresh (n_s, n_theta) real array: the cross-power conj(planes2) * planes1,
    plane 0's read back at -j, summed over the planes, its DC bin zeroed,
    and the real part of its inverse 2-D FFT, run in place as two 1-D passes
    in ifft2's own order (the angular pass, then the radial pass): same bits."""
    cross = np.conj(planes2)
    cross *= planes1
    power = np.empty(cross.shape[:2], complex)
    np.add(cross[0, :, 0], cross[0, :, 1], out=power[0])
    np.add(cross[:0:-1, :, 0], cross[1:, :, 1], out=power[1:])
    power[0, 0] = 0.0
    # 1-D passes: np.fft.ifft2 ignores its out argument in numpy 2.4.6
    np.fft.ifft(power, axis=1, out=power)
    np.fft.ifft(power, axis=0, out=power)
    return power.real


# signal -> (pair, planes) of the last cfmt_fast call, a one-signal memo
_FAST_PLANES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# signal -> (pair, planes, _plane_norm) of every signal _kept_planes has seen
_KEPT_PLANES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kept_planes(h: LogPolarSignal, pair: RootPair) -> tuple[np.ndarray, float]:
    """(planes, norm) of h under this very pair object: _split_planes(h, pair),
    taken from the kept map, else from cfmt_fast's memo, else computed, and
    _plane_norm of them; kept from then on for as long as h lives."""
    entry = _KEPT_PLANES.get(h)
    if entry is None or entry[0] is not pair:
        memo = _FAST_PLANES.get(h)
        planes = memo[1] if memo is not None and memo[0] is pair else _split_planes(h, pair)
        entry = _KEPT_PLANES[h] = (pair, planes, _plane_norm(planes))
    return entry[1], entry[2]


def cfmt_fast(h: LogPolarSignal, pair: RootPair) -> Spectrum:
    """Quasi-complex route: the paper's split, as one FFT over two planes.

    In the plan's split basis, plane 0 holds x_+ and plane 1 holds x_-,
    each as a complex function with R_g acting as i.  Both get the angular
    kernel exp(-i k theta); the radial kernel is exp(+i v s) on plane 0 and
    exp(-i v s) on plane 1.  So one 2-D FFT serves both, and plane 0 reads
    its rows at -j, which turns the negative-sign radial DFT into the
    positive one (_split_planes).  Those planes are memoised for register
    (_kept_planes) and mapped as they are.  The cost is that of cfmt_forward
    with one 4x4 map fewer and one row gather on a single plane more.
    """
    geo = h.geometry
    planes = _split_planes(h, pair)  # computed on every call, so timings stay honest
    _FAST_PLANES.clear()
    _FAST_PLANES[h] = (pair, planes)
    plan = pair.plan
    rows = plan.split @ _radial_rotations(geo, False, geo.ds * geo.dtheta / TWO_PI, (1.0, -1.0))
    return Spectrum(geo, pair, _Fresh(_map(planes, rows, swap=(True, True))))


def _kernel_values(root: RootOfMinusOne, angles: np.ndarray) -> np.ndarray:
    """exp(root * angle) as an (..., 4) coefficient array."""
    out = np.zeros(angles.shape + (4,))
    out[..., 0] = np.cos(angles)
    out += np.sin(angles)[..., None] * root.value.coeffs
    return out


def _kernel_sandwich(sig: Signature, left: np.ndarray, arr: np.ndarray,
                     right: np.ndarray) -> np.ndarray:
    """left[i] * arr[i, t] * right[t] on an (n_s, n_theta, 4) grid array, the
    left product first."""
    return gp(sig, gp(sig, left[:, None, :], arr), right[None, :, :])


def _direct_sums(h: LogPolarSignal, pair: RootPair, v: np.ndarray | float,
                 k: np.ndarray | float) -> np.ndarray:
    """The literal double sum at the real points v, k broadcast, as a shape +
    (4,) array: the pair-free _grid_sums, then their f/g tail _pair_sums."""
    pair.require_algebra(h.signature, "signal")
    return _pair_sums(_grid_sums(h, v, k), pair, h.geometry)


def _cos_sin(angles: np.ndarray) -> np.ndarray:
    """cos and sin of angles, stacked on a new second-to-last axis."""
    return np.stack([np.cos(angles), np.sin(angles)], axis=-2)


def _grid_sums(h: LogPolarSignal, v: np.ndarray | float, k: np.ndarray | float) -> np.ndarray:
    """The four real-weighted grid sums of cfmt_direct at the points v, k
    broadcast, as a shape + (2, 2, 4) array: sums[..., a, b] = A_ab, a radial
    and b angular (cos, sin).  No root enters."""
    k = np.asarray(k, dtype=float)
    return _table_sums(h, v, _cos_sin(-k[..., None] * h.geometry.theta_values))


def _table_sums(h: LogPolarSignal, v: np.ndarray | float, table: np.ndarray) -> np.ndarray:
    """_grid_sums given the angular table, k.shape + (2, n_theta), of its k
    axis: one (2 v.size, n_s) @ samples product makes the radial sums at
    every v, one stacked matmul against the table the angular ones."""
    geo = h.geometry
    v = np.asarray(v, dtype=float)
    rows = _cos_sin(-v[..., None] * geo.s_values).reshape(-1, geo.n_s)
    partial = (rows @ h.samples.reshape(geo.n_s, -1)).reshape(v.shape + (2, geo.n_theta, 4))
    return table[..., None, :, :] @ partial


def _pair_sums(sums: np.ndarray, pair: RootPair, geo: GridGeometry) -> np.ndarray:
    """A_cC + f (A_sC + A_sS g) + A_cS g at each point of a shape + (2, 2, 4)
    array of _grid_sums, times the measure, as a shape + (4,) array: f and g
    enter through two geometric products over all points.  Its rows are per
    point, so any subset of points gets the bits a call on that subset alone
    would give."""
    sig = pair.signature
    flat = sums.reshape(-1, 2, 2, 4)
    # (A_cS g, A_sS g) per point; gp takes (2P, 4) rows faster than (P, 2, 4)
    times_g = gp(sig, flat[:, :, 1].reshape(-1, 4), pair.g.value.coeffs).reshape(-1, 2, 4)
    total = flat[:, 0, 0] + times_g[:, 0] + gp(sig, pair.f.value.coeffs,
                                               flat[:, 1, 0] + times_g[:, 1])
    return (total * (geo.ds * geo.dtheta / TWO_PI)).reshape(sums.shape[:-3] + (4,))


def cfmt_direct(h: LogPolarSignal, pair: RootPair, v: float, k: float) -> Multivector:
    """Literal double sum at one real frequency point (v, k).

    With exp(-f v s) = c(s) + f sn(s) and exp(-g k theta) = C(theta) + g Sn(theta)
    (c, sn the cosine and sine of -v s; C, Sn those of -k theta) the sum is
    A_cC + f (A_sC + A_sS g) + A_cS g, where A_ab = sum a(s) b(theta) h(s, theta)
    are four real-weighted grid sums; f and g enter through the geometric
    product, never through a plane basis or an FFT.  This is _direct_sums at
    one point.
    """
    return Multivector(h.signature, _direct_sums(h, pair, v, k))


def direct_spectrum(h: LogPolarSignal, pair: RootPair) -> Spectrum:
    """Full spectrum by the literal sum at every grid frequency.

    Each bin is the sum cfmt_direct evaluates, filled into one output in
    blocks of 2 * isqrt(n_s) radial rows: the angular table of the whole k
    axis, n_theta^2 cosines and sines, is built once, and each block of v
    is summed against it, which costs n_s * n_theta * (n_s + n_theta) in
    all.  Beside the output a block holds O(sqrt(n_s) * n_theta) grid sums,
    so the peak stays a few outputs when n_theta <= n_s (2.8x at 256^2); on
    wide grids the table sets it (42 MB at 8 x 1024).  Rows are independent,
    so the bits are those of one _direct_sums call on the whole axes.  This
    is the oracle the FFT routes are checked against.
    """
    pair.require_algebra(h.signature, "signal")
    geo = h.geometry
    table = _cos_sin(-geo.k_values[None, :, None] * geo.theta_values)
    block = 2 * math.isqrt(geo.n_s)
    coeffs = np.empty((geo.n_s, geo.n_theta, 4))
    for start in range(0, geo.n_s, block):
        rows = slice(start, start + block)
        coeffs[rows] = _pair_sums(_table_sums(h, geo.v_values[rows, None], table), pair, geo)
    return Spectrum(geo, pair, _Fresh(coeffs))


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
    return _linearity(h1, h2, cfmt_forward(h1, pair), cfmt_forward(h2, pair),
                      alpha, beta, alpha_right, beta_right)


def _linearity(
    h1: LogPolarSignal,
    h2: LogPolarSignal,
    s1: Spectrum,
    s2: Spectrum,
    alpha: Multivector,
    beta: Multivector,
    alpha_right: Multivector,
    beta_right: Multivector,
) -> tuple[float, float]:
    """check_linearity given the spectra s1, s2 of h1, h2 under its pair."""
    sig, pair = h1.signature, s1.pair
    mixed = h1.with_samples(gp(sig, alpha.coeffs, h1.samples) + gp(sig, beta.coeffs, h2.samples))
    left_expected = gp(sig, alpha.coeffs, s1.coeffs) + gp(sig, beta.coeffs, s2.coeffs)
    left_residual = float(np.max(np.abs(cfmt_forward(mixed, pair).coeffs - left_expected)))

    mixed_r = h1.with_samples(
        gp(sig, h1.samples, alpha_right.coeffs) + gp(sig, h2.samples, beta_right.coeffs)
    )
    right_expected = gp(sig, s1.coeffs, alpha_right.coeffs) + gp(sig, s2.coeffs, beta_right.coeffs)
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
    return Spectrum(geo, pair, _kernel_sandwich(
        sig, _kernel_values(pair.f, geo.v_values * s_a), spectrum.coeffs,
        _kernel_values(pair.g, geo.k_values * phi)))


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
    integer.  The spectrum of the result is H shifted by (v0/dv, k0) bins;
    the shift is cyclic only when c = n_s*s_min/span is an integer, as on
    every symmetric window.  Otherwise a row that wraps w times past the
    radial band edge is also multiplied on the left by exp(-2*pi*w*c f)."""
    pair.require_algebra(h.signature, "signal")
    geo = h.geometry
    steps = v0 / geo.dv
    if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
        raise ContractError(f"v0 = {v0} is not a grid frequency (dv = {geo.dv})")
    if not isinstance(k0, (int, np.integer)):
        raise ContractError(f"k0 must be an integer, got {k0!r}")
    return h.with_samples(_kernel_sandwich(
        h.signature, _kernel_values(pair.f, v0 * geo.s_values), h.samples,
        _kernel_values(pair.g, k0 * geo.theta_values)))


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
    if n == 1:
        return root.value
    return Multivector.scalar(root.signature, 1.0 if n == 0 else -1.0)


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
    pair.require_algebra(h.signature, "signal")
    derivatives = {n: _spectral_derivatives(h, n)}
    return _derivative_checks(cfmt_forward(h, pair), derivatives, _band_limited(h))[n]


def _spectral_derivatives(h: LogPolarSignal, n: int) -> tuple[LogPolarSignal, LogPolarSignal]:
    """(r d/dr)^n h and (d/dtheta)^n h, taken spectrally."""
    return _spectral_derivative(h, 0, n), _spectral_derivative(h, 1, n)


def _derivative_checks(base: Spectrum, derivatives: dict, band_limited: bool
                       ) -> dict[int, DerivativeCheck]:
    """check_derivative_theorems at each order n of derivatives, which maps n
    to _spectral_derivatives(h, n), given h's spectrum base and band-limit flag."""
    pair, geo, sig = base.pair, base.geometry, base.signature
    checks = {}
    for n, (radial_signal, angular_signal) in derivatives.items():
        radial = cfmt_forward(radial_signal, pair)
        f_pow = _root_power(pair.f, n)
        factor_left = (geo.v_values**n)[:, None, None] * f_pow.coeffs
        expected_radial = gp(sig, factor_left, base.coeffs)
        radial_residual = float(np.max(np.abs(radial.coeffs - expected_radial)))

        angular = cfmt_forward(angular_signal, pair)
        g_pow = _root_power(pair.g, n)
        factor_right = (geo.k_values**n)[None, :, None] * g_pow.coeffs
        expected_angular = gp(sig, base.coeffs, factor_right)
        angular_residual = float(np.max(np.abs(angular.coeffs - expected_angular)))
        checks[n] = DerivativeCheck(radial_residual, angular_residual, band_limited)
    return checks


_FD_WEIGHTS = {
    0: ((0, 1.0),),
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
}

POWER_SCALING_PROBES = ((0.75, 1.25), (1.5, -2.25), (-0.5, 0.5))


def _seam_fraction(h: LogPolarSignal) -> float | None:
    """h's energy share on the theta seam if above 1e-12, which power scaling refuses."""
    power = np.sum(h.samples * h.samples)
    seam = np.sum(h.samples[:, [0, -1], :] ** 2)
    return seam / power if power > 0 and seam / power > 1e-12 else None


def check_power_scaling(h: LogPolarSignal, pair: RootPair, m: int, n: int) -> float:
    """Relative residual of the power-scaling identity at real frequencies.

    The transform of (ln r)^m theta^n h must equal f^m times the m-th
    v-derivative and n-th k-derivative of H, times g^n.  Derivatives are
    approximated by central differences of the literal sum (step 1e-3*dv in
    v and 1e-3 in k); the theta multiplication is not periodic, so for n > 0
    signals carrying energy on the theta seam are rejected.
    """
    if not (0 <= m <= 2 and 0 <= n <= 2):
        raise DomainError(f"power-scaling orders must be 0..2, got ({m}, {n})")
    pair.require_algebra(h.signature, "signal")
    if n > 0 and (fraction := _seam_fraction(h)) is not None:
        raise ContractError(
            f"signal carries energy on the theta seam (fraction {fraction:.3e});"
            " power scaling in theta needs it to vanish there"
        )
    return _scaling_residuals(_scaling_sums(h, ((m, n),)), pair, h.geometry)[m, n]


def _scaling_sums(h: LogPolarSignal, orders) -> dict:
    """The pair-free stage of check_power_scaling on one signal: for each
    order (m, n), its stencil's weights, the grid sums (_grid_sums) at the
    probes of its scaled signal (ln r)^m theta^n h, (probes, 2, 2, 4), and at
    its difference points, (probes, points, 2, 2, 4).  One _grid_sums call
    takes every order's points, probe by probe, and one per order its probes."""
    geo = h.geometry
    step_v, step_k = 1e-3 * geo.dv, 1e-3
    probes = np.array([(v_units * geo.dv, k_value) for v_units, k_value in POWER_SCALING_PROBES])
    stencils = [[(ov, ok, (wv / step_v**m) * (wk / step_k**n))
                 for ov, wv in _FD_WEIGHTS[m] for ok, wk in _FD_WEIGHTS[n]]
                for m, n in orders]
    points = np.array([(v_value + ov * step_v, k_value + ok * step_k)
                       for v_value, k_value in probes.tolist()
                       for stencil in stencils for ov, ok, _ in stencil])
    point_sums = _grid_sums(h, points[:, 0], points[:, 1]).reshape(len(probes), -1, 2, 2, 4)
    blocks = np.split(point_sums, np.cumsum([len(stencil) for stencil in stencils])[:-1], axis=1)
    sums = {}
    for (m, n), stencil, block in zip(orders, stencils, blocks):
        samples = h.samples * geo.s_values[:, None, None]**m * geo.theta_values[None, :, None]**n
        scaled = _grid_sums(h.with_samples(samples), probes[:, 0], probes[:, 1])
        sums[m, n] = ([weight for _, _, weight in stencil], scaled, block)
    return sums


def _scaling_residuals(sums: dict, pair: RootPair, geo: GridGeometry) -> dict:
    """The f/g tail of check_power_scaling: each order's relative residual
    from the pair-free sums, through one _pair_sums call over every order's
    probes and points."""
    sig = pair.signature
    rows = [part.reshape(-1, 2, 2, 4) for entry in sums.values() for part in entry[1:]]
    values = iter(np.split(_pair_sums(np.concatenate(rows), pair, geo),
                           np.cumsum([len(part) for part in rows])[:-1]))
    residuals = {}
    for (m, n), (weights, _, points) in sums.items():
        lhs, at_points = next(values), next(values).reshape(points.shape[:2] + (4,))
        rhs = np.zeros(lhs.shape)
        for column, weight in enumerate(weights):
            rhs += weight * at_points[:, column]
        rhs = gp(sig, gp(sig, _root_power(pair.f, m).coeffs, rhs), _root_power(pair.g, n).coeffs)
        scale = np.maximum(np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1)), 1e-30)
        residuals[m, n] = float(np.max(np.abs(lhs - rhs).max(axis=1) / scale))
    return residuals


# -- Plancherel, Parseval, symmetry ---------------------------------------------------


def plancherel_check(h: LogPolarSignal, m: LogPolarSignal, pair: RootPair) -> tuple[float, float]:
    """Both sides of <h, m> = <H, M> with the discrete measures
    (ds*dtheta on the signal side, dv per v-bin on the spectral side)."""
    pair.require_algebra(h.signature, "signal")
    return _plancherel(h, m, cfmt_forward(h, pair), cfmt_forward(m, pair))


def _plancherel(h: LogPolarSignal, m: LogPolarSignal, hs: Spectrum, ms: Spectrum
                ) -> tuple[float, float]:
    """plancherel_check given the spectra hs, ms of h, m."""
    lhs = scalar_inner_product(h, m)
    rhs = float(np.sum(hs.coeffs * ms.coeffs) * h.geometry.dv)
    return lhs, rhs


def parseval_check(h: LogPolarSignal, pair: RootPair) -> tuple[float, float, float, float]:
    """(||h||, ||H||, ||H_plus||^2, ||H_minus||^2) for a blade-like pair."""
    pair.require_blade_like("parseval_check")
    spectrum = cfmt_forward(h, pair)
    return _parseval(h, spectrum, spectrum.split())


def _parseval(h: LogPolarSignal, spectrum: Spectrum, parts) -> tuple[float, float, float, float]:
    """parseval_check given h's spectrum and its split parts."""
    plus, minus = parts
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
    """Split a real signal into parity components and transform each; each
    should land in a single channel of the basis (1, f, g, fg), and off_span
    reports the fraction of the spectral energy it leaks outside it."""
    pair.require_algebra(h.signature, "signal")
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
        off_span[label] = float(np.sum(off**2)) / max(total_energy, 1e-300)

    return SymmetryComponents(
        spectra["ee"], spectra["eo"], spectra["oe"], spectra["oo"], off_span
    )


# -- CLMF v1 file format and CSV export -----------------------------------------------


def write_clmf(path, spectrum: Spectrum) -> None:
    """CLMF v1: the grid-file header plus f= and g= lines (four comma-separated
    floats each), then the coefficients in centered frequency order, four per bin."""
    roots = tuple((key, ",".join(map(repr, root.value.coeffs.tolist())))
                  for key, root in (("f", spectrum.pair.f), ("g", spectrum.pair.g)))
    _write_grid_file(path, spectrum.signature, spectrum.geometry, spectrum.coeffs, roots)


def read_clmf(path) -> Spectrum:
    def load(sig, geo, coeffs, roots):
        try:
            pair = make_pair(*(Multivector(sig, [float(x) for x in text.split(",")])
                               for text in roots))
        except (ValueError, NotARootError) as exc:  # DomainError is a ValueError
            raise FormatError(f"invalid CLMF roots {roots}: {exc}") from exc
        return Spectrum(geo, pair, coeffs)

    return _read_grid_file(path, load, ("f", "g"))


def frequency_csv_rows(geometry: GridGeometry, values: np.ndarray, columns: str):
    """CSV rows with header j,k,v,<columns>, then one row per bin of the
    (n_s, n_theta, m) values in centered order: j, k, v = dv*j and the bin's
    m values, each float as its repr.  The ",k," fields are made once per
    call and v's repr once per radial row."""
    yield f"j,k,v,{columns}"
    k_fields = [f",{k}," for k in range(-geometry.n_theta // 2, geometry.n_theta // 2)]
    m = values.shape[-1]
    rows = values.reshape(geometry.n_s, -1).tolist()
    for j, row in zip(range(-geometry.n_s // 2, geometry.n_s // 2), rows):
        v = repr(float(geometry.dv * j))
        cells = map(",".join, zip(*[map(repr, row)] * m))  # m reprs per bin, in order
        yield from map(str.__add__, [f"{j}{k_field}{v}," for k_field in k_fields], cells)


def spectrum_csv_rows(spectrum: Spectrum):
    """Rows for the CSV export with header j,k,v,m0,m1,m2,m12."""
    return frequency_csv_rows(spectrum.geometry, spectrum.coeffs, "m0,m1,m2,m12")
