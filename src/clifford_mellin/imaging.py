"""Image ingestion, log-polar resampling, invariant descriptors, registration.

Gray images map to the scalar channel; RGB images map to the e1, e2, e12
channels (the scalar channel stays zero).  That rule is a convention adopted
for all three algebras, mirroring how pure-quaternion components encode
color in Cl(0,2).

Resampling a rotated or rescaled image about the same center shifts the
log-polar signal cyclically, so the pointwise transform magnitude is a
rotation/scale invariant descriptor, and cross-correlation over cyclic
shifts recovers the rotation angle and the log-scale.

Work that is the same on every query is done once.  Resampling splits into a
sampling plan and a gather: the plan is two (4, n_s, n_theta) arrays, one
row per bilinear corner, holding the flat raster index and the weight (zero
off the raster) of every grid node, 64 bytes per node (256 KB at 64x64).  It
depends only on the geometry, the center and the image height and width; a
center coordinate of -0.0 shares the plan of +0.0, whose weights can differ
from its own only in the sign of a zero, which the gather's +0.0 start
absorbs.  The last SAMPLING_PLAN_CACHE_SIZE plans are kept, so at most that
many times 64 * n_s * n_theta bytes: 1 MB at 64x64, 64 MB at 512x512.  The
gather runs one image channel at a time: one indexed read of the channel's
plane at all four corners' indices, one in-place multiply by the weights,
and the sum of the four corner rows from 0.0 in plan order, which is written
into the channel's blade.

register correlates the split planes of cfmt's quasi-complex route, the same
per-signal spectra that a descriptor's cfmt_fast call computes, so a query is
transformed once for its descriptor and its registration.  cfmt owns their
layout, their correlation and norm, and how long they are kept (cfmt's
module docstring); every output is what the uncached computation gives.  The
correlation is inverted in place in the cross-power array it sums, and
register masks the peak's lobe in the real part of that array.  A descriptor
distance is one BLAS dot of the flat magnitude difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cfmt
from .algebra import Signature, _count, _real
from .cfmt import _check_mixable, cfmt_fast
from .errors import DomainError, FormatError, GeometryError, ImageParseError
from .roots import RootPair, default_pair
from .signal import GridGeometry, LogPolarSignal, _check_compatible, _Fresh

GRAY_TO_SCALAR = (0,)
RGB_TO_VECTOR_BLADES = (1, 2, 3)

# register reports a match when the correlation peak is at least this many
# times the highest value outside its main lobe
MIN_CONFIDENCE = 1.05

ROUNDOFF_SCORE = 1e-12
"""The score below which register takes its correlation for roundoff.  Two
signals with no channel in common (a gray and an RGB image) correlate to
exactly zero channel by channel, but a split basis mixes the channels, so
through the planes they correlate to roundoff only.  The two forward FFTs,
the cross-power and the inverse FFT each err by about eps * log2(n_s n_theta)
relative to the norms, so such a pair scores at most a small multiple of
that: under 4 * 40 * eps = 3.6e-14 on any grid of fewer than 2**40 nodes,
which the floor clears by a factor of 28.  Measured on 64x64 grids under
the Cl(0,2) default pair, gray-against-RGB pairs of ring-blob images scored
at most 2.4e-16 in a prototype, and at most 1.2e-16 on the 1024 pairs of
the image-match corpora at seeds 3 and 4 and 1.8e-16 on the 1152 pairs of
the output digest's images.  Any real correlation scores far above the
floor: unrelated random signals 0.025-0.11 on 16x16 to 64x64 grids, true
image pairs 0.98 and more."""

SAMPLING_PLAN_CACHE_SIZE = 4


@dataclass(frozen=True)
class RasterImage:
    """Pixel raster, gray (h, w) or RGB (h, w, 3), under the real rule: copied
    unless a _Fresh array, clamped to [0, 1] in place (+-inf too), NaN refused."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = _real(self.pixels, "pixels", clip=(0.0, 1.0))
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise DomainError(f"expected (h, w) or (h, w, 3) pixels, got {arr.shape}")
        if arr.shape[0] < 8 or arr.shape[1] < 8:
            raise DomainError(f"image must be at least 8x8, got {arr.shape[:2]}")
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    def intensity(self) -> np.ndarray:
        return self.pixels.mean(axis=2)

    def centroid(self) -> tuple[float, float]:
        """Intensity centroid as (x, y); image center for an all-black image."""
        weights = self.intensity()
        total = float(weights.sum())
        if total <= 0.0:
            return ((self.width - 1) / 2.0, (self.height - 1) / 2.0)
        ys, xs = np.mgrid[0 : self.height, 0 : self.width]
        return (
            float((xs * weights).sum() / total),
            float((ys * weights).sum() / total),
        )


# -- PGM (P5) / PPM (P6) ----------------------------------------------------------


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ImageParseError("unexpected end of header", pos)
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def read_image(path) -> RasterImage:
    """Parse a binary PGM (P5) or PPM (P6) file with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise ImageParseError(f"unknown magic {magic!r}; need P5 or P6", 0)
    channels = 1 if magic == b"P5" else 3
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise ImageParseError(f"non-numeric header token {token!r}", pos) from None
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}; only 255 is handled")
    if width <= 0 or height <= 0:
        raise ImageParseError(f"bad dimensions {width}x{height}", pos)
    pos += 1  # single whitespace byte separates header from raster
    expected = width * height * channels
    raster = data[pos : pos + expected]
    if len(raster) < expected:
        raise ImageParseError(
            f"raster truncated: {len(raster)} of {expected} bytes", pos + len(raster)
        )
    pixels = np.frombuffer(raster, np.uint8) / 255.0
    shape = (height, width) if channels == 1 else (height, width, 3)
    return RasterImage(_Fresh(pixels.reshape(shape)))


def _write_pnm(path, magic: str, pixels: np.ndarray) -> None:
    """Values in [0, 1] as a binary PGM/PPM raster with maxval 255."""
    arr = np.clip(np.asarray(pixels, dtype=float), 0.0, 1.0)
    raster = np.round(arr * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """Write a (h, w) array of values in [0, 1] as binary PGM."""
    _write_pnm(path, "P5", gray)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write a (h, w, 3) array of values in [0, 1] as binary PPM."""
    _write_pnm(path, "P6", rgb)


# -- image to multivector field ----------------------------------------------------


@dataclass(frozen=True)
class ImageSignalSource:
    """An image together with the channel-to-blade rule used to sample it."""

    image: RasterImage
    signature: Signature
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.image.channels:
            raise DomainError(
                f"mapping has {len(self.mapping)} entries for"
                f" {self.image.channels} image channels"
            )
        blades = {_count(b, "mapping entry", low=0, high=3) for b in self.mapping}
        if len(blades) < len(self.mapping):
            raise DomainError(f"mapping {self.mapping} must be distinct blade indices 0..3")


def ingest(path, sig: Signature, mapping: tuple[int, ...] | None = None) -> ImageSignalSource:
    """Load an image and fix its channel-to-blade rule.

    Defaults: gray -> scalar channel; RGB -> (e1, e2, e12) with the scalar
    channel zero.  Pass mapping to override.
    """
    image = read_image(path)
    if mapping is None:
        mapping = GRAY_TO_SCALAR if image.channels == 1 else RGB_TO_VECTOR_BLADES
    return ImageSignalSource(image, sig, tuple(mapping))


def _corner_plan(xs: np.ndarray, ys: np.ndarray, h: int, w: int) -> tuple:
    """The bilinear reads of float (x, y) positions on an h x w raster: a
    read-only (flat indices, weights) pair of (4,) + xs.shape arrays, one row
    per corner in the order (x0, y0), (x1, y0), (x0, y1), (x1, y1), with the
    weight zero where the corner lies outside the raster."""
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx = xs - x0
    fy = ys - y0
    # a (y corner, x corner) pair of axes, which the reshape flattens in order
    ix = np.stack([x0, x0 + 1])
    iy = np.stack([y0, y0 + 1])
    weights = np.stack([1.0 - fy, fy])[:, None] * np.stack([1.0 - fx, fx])
    weights *= ((iy >= 0) & (iy < h))[:, None] & ((ix >= 0) & (ix < w))
    indices = iy.clip(0, h - 1)[:, None] * w + ix.clip(0, w - 1)
    shape = (4,) + xs.shape
    indices, weights = indices.reshape(shape), weights.reshape(shape)
    indices.flags.writeable = weights.flags.writeable = False
    return indices, weights


def _gather(plane: np.ndarray, plan: tuple) -> np.ndarray:
    """Apply a corner plan to one (h, w) channel plane: a fresh array of the
    plan's node shape, the sum from 0.0 of the corners' weighted reads in
    plan order."""
    indices, weights = plan
    reads = plane.reshape(-1)[indices]
    reads *= weights
    return (((0.0 + reads[0]) + reads[1]) + reads[2]) + reads[3]


@lru_cache(maxsize=SAMPLING_PLAN_CACHE_SIZE)
def _log_polar_plan(geometry: GridGeometry, center: tuple, h: int, w: int) -> tuple:
    """The corner plan of the geometry's nodes about center on an h x w
    raster; the last SAMPLING_PLAN_CACHE_SIZE plans are cached."""
    cx, cy = center
    radii = np.exp(geometry.s_values)[:, None]
    angles = geometry.theta_values[None, :]
    return _corner_plan(cx + radii * np.cos(angles), cy + radii * np.sin(angles), h, w)


def to_log_polar(
    source: ImageSignalSource,
    geometry: GridGeometry,
    center: tuple[float, float] | None = None,
) -> LogPolarSignal:
    """Resample the image on the (s, theta) grid: node (s, theta) reads the
    image at center + exp(s) * (cos theta, sin theta), bilinearly."""
    image = source.image
    if center is None:
        center = image.centroid()
    cx, cy = center
    if not (0 <= cx <= image.width - 1 and 0 <= cy <= image.height - 1):
        raise GeometryError(f"center {center} outside the {image.width}x{image.height} image")
    r_max = float(np.exp(geometry.s_max))
    limit = min(image.width, image.height) / 2.0 - 1.0
    if r_max > limit:
        fits = (f"; the largest s_max that fits is ln({limit:.2f}) ="
                f" {np.floor(np.log(limit) * 1e4) / 1e4:.4f}" if limit > 0 else "")
        raise GeometryError(
            f"outer radius exp(s_max) = {r_max:.2f} exceeds the usable radius {limit:.2f}{fits}"
        )
    plan = _log_polar_plan(geometry, (cx, cy), image.height, image.width)
    samples = np.zeros((geometry.n_s, geometry.n_theta, 4))
    for c, blade in enumerate(source.mapping):
        samples[..., blade] = _gather(image.pixels[..., c], plan)
    return LogPolarSignal(geometry, source.signature, _Fresh(samples))


# -- descriptors and registration -----------------------------------------------------


@dataclass(frozen=True)
class Descriptor:
    """Pointwise transform magnitude; invariant under integer grid
    scale/rotation shifts of the source signal.  The magnitudes are a
    read-only float copy, or the array of a _Fresh, checked to be finite and
    shaped (n_s, n_theta) on the geometry."""

    magnitudes: np.ndarray
    geometry: GridGeometry
    pair: RootPair

    def __post_init__(self):
        geo = self.geometry
        magnitudes = _real(self.magnitudes, "magnitudes", shape=(geo.n_s, geo.n_theta))
        object.__setattr__(self, "magnitudes", magnitudes)

    def l2_distance(self, other: "Descriptor") -> float:
        """Euclidean distance of the magnitudes: with d the flat difference
        self.magnitudes - other.magnitudes, math.sqrt(np.dot(d, d)), one BLAS
        dot.  Its bits can depend on the BLAS thread count: with OpenBLAS
        0.3.31, one and two threads gave the same bits up to 10 000 bins and
        different bits on some longer vectors.  A 64x64 grid has 4096."""
        _check_mixable(self, other, "descriptors")
        diff = np.subtract(self.magnitudes, other.magnitudes).reshape(-1)
        return math.sqrt(np.dot(diff, diff))


def descriptor(signal: LogPolarSignal, pair: RootPair) -> Descriptor:
    """Transform magnitude of the signal; the pair must be blade-like, since
    only then is the magnitude shift-invariant."""
    pair.require_blade_like("descriptor")
    spectrum = cfmt_fast(signal, pair)
    return Descriptor(_Fresh(spectrum.magnitude()), signal.geometry, pair)


@dataclass(frozen=True)
class RegistrationResult:
    scale: float
    angle: float
    confidence: float
    matched: bool
    steps: tuple[int, int]
    score: float


def register(
    h1: LogPolarSignal, h2: LogPolarSignal, pair: RootPair | None = None
) -> RegistrationResult:
    """Estimate (scale a, angle phi) with h2(s, theta) ~ h1(s + ln a, theta + phi).

    The signals are correlated in the split planes of pair (the signals'
    default_pair when None), the 2-D spectra that cfmt_fast computes, kept
    as cfmt's module docstring states (cfmt._kept_planes): the planes'
    cross-power is summed, its DC bin zeroed (which removes the means), and
    the real part of its inverse 2-D FFT, two 1-D passes in place in the
    summed array, is the cyclic cross-correlation
    (cfmt._plane_correlation).  An integer shift multiplies each plane
    spectrum by a phase, so the correlation peaks at the shift under any
    pair.  Under a default_pair, whose split basis is sqrt(2) times an
    orthogonal one in Cl(0,2) and orthogonal otherwise, it is the
    channel-summed correlation of the mean-removed signals times 2 or 1.
    Confidence is the ratio of the peak to the second peak, measured outside
    the main lobe (a cyclic neighborhood of one sixteenth of each axis);
    below MIN_CONFIDENCE the result reports no match, and with no positive
    value outside the lobe it is infinite.  Score is the peak over the
    product of the two mean-removed norms, at most 1 by Cauchy-Schwarz (up
    to roundoff); below ROUNDOFF_SCORE the correlation is roundoff and is
    taken as zero, which gives steps (0, 0), confidence 1.0 and no match.
    """
    _check_compatible(h1, h2)
    geo = h1.geometry
    if pair is None:
        pair = default_pair(h1.signature)
    planes1, norm1 = cfmt._kept_planes(h1, pair)
    planes2, norm2 = cfmt._kept_planes(h2, pair)
    corr = cfmt._plane_correlation(planes1, planes2)
    pi, pt = np.unravel_index(int(np.argmax(corr)), corr.shape)
    peak = float(corr[pi, pt])
    score = peak / (norm1 * norm2) if peak > 0.0 else 0.0
    if score < ROUNDOFF_SCORE:
        return RegistrationResult(1.0, 0.0, 1.0, False, (0, 0), score)
    # corr views a fresh array, so the main lobe is masked in place
    excl_s = max(1, geo.n_s // 16)
    excl_t = max(1, geo.n_theta // 16)
    rows = (pi + np.arange(-excl_s, excl_s + 1)) % geo.n_s
    cols = (pt + np.arange(-excl_t, excl_t + 1)) % geo.n_theta
    corr[np.ix_(rows, cols)] = -np.inf
    second = float(np.max(corr))
    confidence = np.inf if second <= 0.0 else peak / second

    p_centered = int((pi + geo.n_s // 2) % geo.n_s - geo.n_s // 2)
    q_centered = int((pt + geo.n_theta // 2) % geo.n_theta - geo.n_theta // 2)
    return RegistrationResult(
        scale=float(np.exp(p_centered * geo.ds)),
        angle=float(q_centered * geo.dtheta),
        confidence=float(confidence),
        matched=bool(confidence >= MIN_CONFIDENCE),
        steps=(p_centered, q_centered),
        score=score,
    )
