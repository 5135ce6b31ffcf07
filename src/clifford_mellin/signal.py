"""Multivector-valued signals on a uniform log-polar grid.

The grid discretizes (r, theta) through s = ln r: scaling the source becomes
a cyclic shift along s and rotation a cyclic shift along theta.  The radial
window [s_min, s_max), its bounds held as Python floats, is periodic with
period S = s_max - s_min, and the measure dtheta dr/r becomes the uniform
weight ds*dtheta, which keeps the discrete transform pair exactly invertible.

Signals are frozen after construction.  Reductions (inner products, norms)
run as single numpy sums over the fixed row-major layout, so results are
deterministic run to run.

The (n_s, n_theta, 4) grid array passes the real rule with its grid shape,
as cfmt.Spectrum's does (and, for (n_s, n_theta) magnitudes,
imaging.Descriptor's), and has one file codec, _write_grid_file and
_read_grid_file: a key=value header (algebra, grid, then any extra keys)
followed by exactly n_s * n_theta * 4 little-endian float64 values.  The
codec turns every error in a file, the rule's included, into a FormatError.  CLMS stores a signal with no extra
keys; cfmt's CLMF stores a spectrum with its roots as f= and g=.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Multivector, Signature, _count, _Fresh, _real, gp, principal_reverse_signs,
    scalar_product_array)
from .errors import DomainError, FormatError, GeometryError, SignatureMismatchError
from .roots import RootPair
from .split import split_array

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridGeometry:
    """Uniform periodic grid in (s = ln r, theta).

    theta spans [0, 2*pi) with step 2*pi/n_theta; s spans [s_min, s_max)
    with step span/n_s and is cyclic with period span = s_max - s_min.
    The sizes are held as Python ints and the bounds as Python floats,
    whatever integer or real type they came in.
    """

    n_s: int
    n_theta: int
    s_min: float
    s_max: float

    def __post_init__(self):
        for label in ("n_s", "n_theta"):
            n = _count(getattr(self, label), label, GeometryError, 2, even=True)
            object.__setattr__(self, label, n)
        for label in ("s_min", "s_max"):
            value = getattr(self, label)  # a number: the real rule alone reads "0" and True
            if isinstance(value, bool) or not isinstance(
                    value, (int, float, np.integer, np.floating)):
                raise GeometryError(f"{label} must be a real number, got {value!r}")
            object.__setattr__(self, label, float(_real(value, label, GeometryError)))
        if not self.s_max > self.s_min:
            raise GeometryError(f"need s_max > s_min, got [{self.s_min}, {self.s_max}]")
        for label in ("span", "ds", "dv"):
            value = getattr(self, label)
            if not 0.0 < value < np.inf:
                raise GeometryError(f"{label} must be a finite positive float, got {value!r}")

    @property
    def span(self) -> float:
        return self.s_max - self.s_min

    @property
    def ds(self) -> float:
        return self.span / self.n_s

    @property
    def dtheta(self) -> float:
        return TWO_PI / self.n_theta

    @property
    def dv(self) -> float:
        """Radial frequency step 2*pi/span."""
        return TWO_PI / self.span

    @property
    def s_values(self) -> np.ndarray:
        return self.s_min + self.ds * np.arange(self.n_s)

    @property
    def theta_values(self) -> np.ndarray:
        return self.dtheta * np.arange(self.n_theta)

    @property
    def v_values(self) -> np.ndarray:
        """Centered radial frequencies 2*pi*j/span, j = -n_s/2 .. n_s/2 - 1."""
        return self.dv * np.arange(-self.n_s // 2, self.n_s // 2)

    @property
    def k_values(self) -> np.ndarray:
        """Centered integer angular frequencies."""
        return np.arange(-self.n_theta // 2, self.n_theta // 2).astype(float)

    @property
    def is_symmetric(self) -> bool:
        """True when s_min = -s_max, so s -> -s is a grid automorphism."""
        return abs(self.s_min + self.s_max) <= 1e-12 * max(1.0, abs(self.s_max))


def default_geometry(n: int = 64) -> GridGeometry:
    return GridGeometry(n, n, -np.pi, np.pi)


@dataclass(frozen=True, eq=False, repr=False)
class LogPolarSignal:
    """Multivector samples on a GridGeometry, stored as an (n_s, n_theta, 4) array.
    Frozen, and hashed and compared by identity, since caches key on it."""

    geometry: GridGeometry
    signature: Signature
    samples: np.ndarray

    def __post_init__(self):
        geo = self.geometry
        samples = _real(self.samples, "signal samples", shape=(geo.n_s, geo.n_theta, 4))
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_channels(cls, geometry, signature, m0=0.0, m1=0.0, m2=0.0, m12=0.0):
        """Build a signal from per-blade channels (scalars or (n_s, n_theta) arrays)."""
        shape = (geometry.n_s, geometry.n_theta)
        arr = np.zeros(shape + (4,))
        for i, channel in enumerate((m0, m1, m2, m12)):
            arr[..., i] = np.broadcast_to(channel, shape)
        return cls(geometry, signature, arr)

    @classmethod
    def constant(cls, geometry, value: Multivector) -> "LogPolarSignal":
        arr = np.broadcast_to(value.coeffs, (geometry.n_s, geometry.n_theta, 4))
        return cls(geometry, value.signature, arr.copy())

    def with_samples(self, samples: np.ndarray) -> "LogPolarSignal":
        return LogPolarSignal(self.geometry, self.signature, samples)

    def max_abs_diff(self, other: "LogPolarSignal") -> float:
        _check_compatible(self, other)
        return float(np.max(np.abs(self.samples - other.samples)))


def _check_compatible(a: LogPolarSignal, b: LogPolarSignal) -> None:
    if a.signature != b.signature:
        raise SignatureMismatchError(
            f"signals in {a.signature.name} and {b.signature.name}"
        )
    if a.geometry != b.geometry:
        raise GeometryError("signals live on different grids")


def inner_product(a: LogPolarSignal, b: LogPolarSignal) -> Multivector:
    """Grid sum of a * ~b weighted by ds*dtheta (the measure dtheta dr/r)."""
    _check_compatible(a, b)
    flipped = b.samples * principal_reverse_signs(a.signature)
    products = gp(a.signature, a.samples, flipped)
    total = products.reshape(-1, 4).sum(axis=0)
    return Multivector(a.signature, total * (a.geometry.ds * a.geometry.dtheta))


def scalar_inner_product(a: LogPolarSignal, b: LogPolarSignal) -> float:
    """Scalar part of the inner product; symmetric in its arguments."""
    _check_compatible(a, b)
    flipped = b.samples * principal_reverse_signs(a.signature)
    values = scalar_product_array(a.signature, a.samples, flipped)
    return float(values.sum() * a.geometry.ds * a.geometry.dtheta)


def norm(a: LogPolarSignal) -> float:
    """L2 norm: sqrt of the measure-weighted sum of squared moduli."""
    total = float(np.sum(a.samples * a.samples))
    return float(np.sqrt(total * a.geometry.ds * a.geometry.dtheta))


def split_signal(a: LogPolarSignal, pair: RootPair) -> tuple[LogPolarSignal, LogPolarSignal]:
    """Pointwise split of every sample with respect to the pair."""
    pair.require_algebra(a.signature, "signal")
    plus, minus = split_array(a.samples, pair)
    return a.with_samples(plus), a.with_samples(minus)


def random_signal(
    geometry: GridGeometry,
    signature: Signature,
    seed: int,
    band_limit: int | None = None,
    channels: tuple[int, ...] = (0, 1, 2, 3),
) -> LogPolarSignal:
    """Deterministic random signal; band_limit keeps only |frequency| <= limit
    on both axes (the mask is symmetric, so samples stay real)."""
    rng = np.random.default_rng(_count(seed, "seed", low=0))
    arr = np.zeros((geometry.n_s, geometry.n_theta, 4))
    if band_limit is not None:
        fs = np.fft.fftfreq(geometry.n_s, d=1.0 / geometry.n_s)
        ft = np.fft.fftfreq(geometry.n_theta, d=1.0 / geometry.n_theta)
        mask = (np.abs(fs)[:, None] <= band_limit) & (np.abs(ft)[None, :] <= band_limit)
    for c in channels:
        field = rng.uniform(-1.0, 1.0, size=(geometry.n_s, geometry.n_theta))
        if band_limit is not None:
            field = np.fft.ifft2(np.fft.fft2(field) * mask).real
        arr[..., c] = field
    return LogPolarSignal(geometry, signature, _Fresh(arr))


# -- grid files: CLMS v1 (signals) and CLMF v1 (spectra) -----------------------------

_HEADER_KEYS = ("algebra", "ns", "ntheta", "smin", "smax")


def _write_grid_file(path, signature: Signature, geometry: GridGeometry, array: np.ndarray,
                     extra: tuple[tuple[str, str], ...] = ()) -> None:
    """Header lines key=value for the algebra, the grid and then extra, followed
    by the array as little-endian float64 values in row-major order."""
    values = (signature.name, str(geometry.n_s), str(geometry.n_theta),
              repr(geometry.s_min), repr(geometry.s_max))
    fields = [*zip(_HEADER_KEYS, values), *extra]
    with open(path, "wb") as fh:
        fh.write("".join(f"{key}={value}\n" for key, value in fields).encode("ascii"))
        fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def _read_grid_file(path, load, extra_keys: tuple[str, ...] = ()):
    """load(signature, geometry, array, extra values) for a file that
    _write_grid_file wrote.  A malformed header, a payload that is not exactly
    n_s * n_theta * 4 float64 values, or a payload that load refuses with a
    DomainError (a non-finite value, say) raises FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = {}
    offset = 0
    for key in _HEADER_KEYS + tuple(extra_keys):
        end = data.find(b"\n", offset)
        if end < 0:
            raise FormatError(f"truncated header, missing {key}=")
        name, equals, value = data[offset:end].decode("ascii", errors="replace").partition("=")
        if not equals:
            raise FormatError(f"malformed header line {name!r}")
        if name != key:
            raise FormatError(f"expected header key {key!r}, found {name!r}")
        fields[key] = value
        offset = end + 1
    try:
        sig = Signature.parse(fields["algebra"])
        geo = GridGeometry(int(fields["ns"]), int(fields["ntheta"]),
                           float(fields["smin"]), float(fields["smax"]))
    except (ValueError, DomainError) as exc:
        raise FormatError(f"invalid header: {exc}") from exc
    expected = geo.n_s * geo.n_theta * 4 * 8
    if len(data) - offset != expected:
        raise FormatError(f"payload holds {len(data) - offset} bytes, expected {expected}")
    array = np.frombuffer(data, dtype="<f8", offset=offset).reshape(geo.n_s, geo.n_theta, 4)
    try:
        return load(sig, geo, array, [fields[key] for key in extra_keys])
    except DomainError as exc:
        raise FormatError(f"invalid payload: {exc}") from exc


def write_clms(path, signal: LogPolarSignal) -> None:
    """CLMS v1: the grid-file header, then the samples, four blade
    coefficients per sample in row-major sample order."""
    _write_grid_file(path, signal.signature, signal.geometry, signal.samples)


def read_clms(path) -> LogPolarSignal:
    return _read_grid_file(path, lambda sig, geo, samples, _: LogPolarSignal(geo, sig, samples))
