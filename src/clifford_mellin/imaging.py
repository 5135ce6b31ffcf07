"""Image ingestion, log-polar resampling, invariant descriptors, registration.

Gray images map to the scalar channel; RGB images map to the e1, e2, e12
channels (the scalar channel stays zero).  That rule is a convention adopted
for all three algebras, mirroring how pure-quaternion components encode
color in Cl(0,2).

Resampling a rotated or rescaled image about the same center shifts the
log-polar signal cyclically, so the pointwise transform magnitude is a
rotation/scale invariant descriptor, and cross-correlation over cyclic
shifts recovers the rotation angle and the log-scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Signature
from .cfmt import cfmt_fast
from .errors import DomainError, FormatError, GeometryError, ImageParseError
from .roots import RootPair
from .signal import GridGeometry, LogPolarSignal, _check_compatible

GRAY_TO_SCALAR = (0,)
RGB_TO_VECTOR_BLADES = (1, 2, 3)

# register reports a match when the correlation peak is at least this many
# times the highest value outside its main lobe
MIN_CONFIDENCE = 1.05


@dataclass(frozen=True)
class RasterImage:
    """Pixel raster with values clamped to [0, 1]; gray (h, w) or RGB (h, w, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.pixels, dtype=float)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise DomainError(f"expected (h, w) or (h, w, 3) pixels, got {arr.shape}")
        if arr.shape[0] < 8 or arr.shape[1] < 8:
            raise DomainError(f"image must be at least 8x8, got {arr.shape[:2]}")
        arr = np.clip(arr, 0.0, 1.0)
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
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(float) / 255.0
    shape = (height, width) if channels == 1 else (height, width, 3)
    return RasterImage(pixels.reshape(shape))


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
        if len(set(self.mapping)) != len(self.mapping) or any(
            not 0 <= b <= 3 for b in self.mapping
        ):
            raise DomainError(f"mapping {self.mapping} must be distinct blade indices 0..3")

    def multivector_field(self) -> np.ndarray:
        """(h, w, 4) blade coefficients of the image."""
        field = np.zeros((self.image.height, self.image.width, 4))
        for channel, blade in enumerate(self.mapping):
            field[..., blade] = self.image.pixels[..., channel]
        return field


def ingest(path, sig: Signature, mapping: tuple[int, ...] | None = None) -> ImageSignalSource:
    """Load an image and fix its channel-to-blade rule.

    Defaults: gray -> scalar channel; RGB -> (e1, e2, e12) with the scalar
    channel zero.  Pass mapping to override.
    """
    image = read_image(path)
    if mapping is None:
        mapping = GRAY_TO_SCALAR if image.channels == 1 else RGB_TO_VECTOR_BLADES
    return ImageSignalSource(image, sig, tuple(mapping))


def _bilinear_sample(field: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of an (h, w, c) field at float (x, y) positions;
    reads outside the raster return 0."""
    h, w = field.shape[:2]
    flat = field.reshape(h * w, -1)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx = xs - x0
    fy = ys - y0
    out = np.zeros(xs.shape + (field.shape[2],))
    for dy in (0, 1):
        for dx in (0, 1):
            xx = x0 + dx
            yy = y0 + dy
            weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            valid = (xx >= 0) & (xx < w) & (yy >= 0) & (yy < h)
            values = flat[yy.clip(0, h - 1) * w + xx.clip(0, w - 1)]
            out += values * (weight * valid)[..., None]
    return out


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
    radii = np.exp(geometry.s_values)[:, None]
    angles = geometry.theta_values[None, :]
    xs = cx + radii * np.cos(angles)
    ys = cy + radii * np.sin(angles)
    samples = np.zeros((geometry.n_s, geometry.n_theta, 4))
    samples[..., list(source.mapping)] = _bilinear_sample(image.pixels, xs, ys)
    return LogPolarSignal(geometry, source.signature, samples)


# -- descriptors and registration -----------------------------------------------------


@dataclass(frozen=True)
class Descriptor:
    """Pointwise transform magnitude; invariant under integer grid
    scale/rotation shifts of the source signal."""

    magnitudes: np.ndarray
    geometry: GridGeometry
    pair: RootPair

    def l2_distance(self, other: "Descriptor") -> float:
        if self.geometry != other.geometry:
            raise GeometryError("descriptors live on different grids")
        return float(np.sqrt(np.sum((self.magnitudes - other.magnitudes) ** 2)))


def descriptor(signal: LogPolarSignal, pair: RootPair) -> Descriptor:
    """Transform magnitude of the signal; the pair must be blade-like, since
    only then is the magnitude shift-invariant."""
    pair.require_blade_like("descriptor")
    spectrum = cfmt_fast(signal, pair)
    return Descriptor(spectrum.magnitude(), signal.geometry, pair)


@dataclass(frozen=True)
class RegistrationResult:
    scale: float
    angle: float
    confidence: float
    matched: bool
    steps: tuple[int, int]


def register(
    h1: LogPolarSignal, h2: LogPolarSignal, pair: RootPair | None = None
) -> RegistrationResult:
    """Estimate (scale a, angle phi) with h2(s, theta) ~ h1(s + ln a, theta + phi).

    The peak of the channel-summed cyclic cross-correlation of the
    mean-removed signals (computed spectrally) locates the shift.
    Confidence is the ratio of the peak to the second peak, measured outside
    the main lobe (a cyclic neighborhood of one sixteenth of each axis);
    below MIN_CONFIDENCE the result reports no match.  The pair argument is
    accepted for interface symmetry with descriptor-based pipelines and does
    not enter the correlation.
    """
    _check_compatible(h1, h2)
    geo = h1.geometry
    a1 = h1.samples - h1.samples.mean(axis=(0, 1), keepdims=True)
    a2 = h2.samples - h2.samples.mean(axis=(0, 1), keepdims=True)
    cross = np.fft.rfft2(a1, axes=(0, 1)) * np.conj(np.fft.rfft2(a2, axes=(0, 1)))
    corr = np.fft.irfft2(cross.sum(axis=-1), s=(geo.n_s, geo.n_theta))

    peak_flat = int(np.argmax(corr))
    pi, pt = np.unravel_index(peak_flat, corr.shape)
    excl_s = max(1, geo.n_s // 16)
    excl_t = max(1, geo.n_theta // 16)
    masked = corr.copy()
    rows = (pi + np.arange(-excl_s, excl_s + 1)) % geo.n_s
    cols = (pt + np.arange(-excl_t, excl_t + 1)) % geo.n_theta
    masked[np.ix_(rows, cols)] = -np.inf
    second = float(np.max(masked))
    peak = float(corr[pi, pt])
    if second <= 0.0:
        confidence = np.inf if peak > 0.0 else 1.0
    else:
        confidence = peak / second

    p_centered = int((pi + geo.n_s // 2) % geo.n_s - geo.n_s // 2)
    q_centered = int((pt + geo.n_theta // 2) % geo.n_theta - geo.n_theta // 2)
    return RegistrationResult(
        scale=float(np.exp(p_centered * geo.ds)),
        angle=float(q_centered * geo.dtheta),
        confidence=float(confidence),
        matched=bool(confidence >= MIN_CONFIDENCE),
        steps=(p_centered, q_centered),
    )
