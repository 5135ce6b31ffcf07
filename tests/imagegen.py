"""Synthetic image corpus for imaging and registration tests."""

import numpy as np

from clifford_mellin.imaging import _corner_plan, _gather


def blob_image(size=128, seed=0, n_blobs=4):
    """Asymmetric gray image: a few Gaussian blobs around the center."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    image = np.zeros((size, size))
    for _ in range(n_blobs):
        cx = size / 2 + rng.uniform(-size / 5, size / 5)
        cy = size / 2 + rng.uniform(-size / 5, size / 5)
        width = rng.uniform(size / 16, size / 8)
        amplitude = rng.uniform(0.4, 1.0)
        image += amplitude * np.exp(-(((xs - cx) ** 2 + (ys - cy) ** 2) / width**2))
    peak = image.max()
    return image / peak if peak > 0 else image


def ring_blob_image(size=128, seed=0, n_blobs=5):
    """Blobs on a mid-radius ring: content stays inside the resampling
    annulus under moderate rotation/scaling, which registration assumes."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    c = (size - 1) / 2.0
    image = np.zeros((size, size))
    for _ in range(n_blobs):
        rad = rng.uniform(13.0, 30.0)
        ang = rng.uniform(0, 2 * np.pi)
        bx, by = c + rad * np.cos(ang), c + rad * np.sin(ang)
        width = rng.uniform(4.0, 8.0)
        amp = rng.uniform(0.5, 1.0)
        image += amp * np.exp(-(((xs - bx) ** 2 + (ys - by) ** 2) / width**2))
    return image / image.max()


def disk_image(size=128, radius=20.0):
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    c = (size - 1) / 2.0
    return (np.hypot(xs - c, ys - c) <= radius).astype(float)


def _bilinear_sample(field, xs, ys):
    """Bilinear interpolation of an (h, w, c) field at float (x, y) positions,
    through the resampler's corner plan, one channel plane at a time; reads
    outside the raster return 0."""
    plan = _corner_plan(xs, ys, *field.shape[:2])
    out = np.empty(xs.shape + field.shape[2:])
    for c in range(field.shape[2]):
        out[..., c] = _gather(field[..., c], plan)
    return out


def warp_similarity(pixels, angle, scale, center=None):
    """out(x, y) = in(center + scale * R(angle) @ ((x, y) - center)).

    Resampling the output on a log-polar grid about the same center shifts
    the signal by (+ln scale, +angle) relative to the input's resampling.
    """
    pixels = np.asarray(pixels, dtype=float)
    h, w = pixels.shape[:2]
    if center is None:
        center = ((w - 1) / 2.0, (h - 1) / 2.0)
    cx, cy = center
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    dx = xs - cx
    dy = ys - cy
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    src_x = cx + scale * (cos_a * dx - sin_a * dy)
    src_y = cy + scale * (sin_a * dx + cos_a * dy)
    field = pixels[..., None] if pixels.ndim == 2 else pixels
    out = _bilinear_sample(field, src_x, src_y)
    return out[..., 0] if pixels.ndim == 2 else out
