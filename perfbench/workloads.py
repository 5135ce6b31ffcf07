"""The benchmark's three workloads, their seeded inputs and their output checks.

Each workload has the same shape:

* ``prepare(workdir)`` generates the workload's inputs from its seed, writes
  the ones that live on disk, and builds any index it needs.  This is the
  set-up that ``setup_s`` times (together with one warm-up op).
* ``inputs(i)`` picks op ``i``'s inputs; it is not timed.
* ``op(inputs)`` is the timed call into the library.
* ``check(inputs, output)`` decides, outside the timed span, whether the
  output is correct.  Workload-specific counts go to ``counters``.

The library is reached through its module attributes (``cfmt.cfmt_forward``
rather than an imported name) so that the tracer's wrappers and the tests'
monkeypatches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

from clifford_mellin import algebra, cfmt, cli, imaging, roots, signal

# Relative tolerance of the round-trip and direct-sum oracle checks.
TRANSFORM_TOL = 1e-10


@dataclass
class Attempt:
    ok: bool
    seconds: float
    error: str | None = None


def attempt(workload, i: int, tracer=None) -> Attempt:
    """Run op ``i`` of ``workload`` and check its output.

    Only the op itself is timed, and only the op is traced.  An op fails if
    it raises or if its output fails the check.
    """
    args = workload.inputs(i)
    if tracer is not None:
        tracer.op = i
    start = time.perf_counter()
    try:
        output = workload.op(args)
    except Exception:  # a raising op is a failed op, not a failed benchmark
        return Attempt(False, time.perf_counter() - start, traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.op = None
    seconds = time.perf_counter() - start
    try:
        ok = bool(workload.check(args, output))
    except Exception:
        return Attempt(False, seconds, traceback.format_exc())
    return Attempt(ok, seconds, None if ok else f"op {i}: output check failed")


def _relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(actual - expected)) / max(np.max(np.abs(expected)), 1e-300))


# -- synthetic images -------------------------------------------------------------------


def ring_blobs(rng, size: int, radii: tuple[float, float], widths: tuple[float, float],
               n_blobs: int = 5) -> np.ndarray:
    """Gray image of Gaussian blobs on an annulus about the image center, so
    that content stays inside the resampling annulus under moderate warps."""
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    c = (size - 1) / 2.0
    image = np.zeros((size, size))
    for _ in range(n_blobs):
        rad = rng.uniform(*radii)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        width = rng.uniform(*widths)
        amp = rng.uniform(0.5, 1.0)
        bx, by = c + rad * math.cos(ang), c + rad * math.sin(ang)
        image += amp * np.exp(-(((xs - bx) ** 2 + (ys - by) ** 2) / width**2))
    return image / image.max()


def warp_similarity(pixels: np.ndarray, angle: float, scale: float) -> np.ndarray:
    """out(x) = in(c + scale * R(angle) (x - c)) about the image center c,
    bilinear, zero outside.  Resampling the output on a log-polar grid about c
    shifts the signal by (+ln scale, +angle).  Written here rather than taken
    from the library, so that the benchmark's inputs stay fixed when the
    library's resampling changes."""
    h, w = pixels.shape[:2]
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    dx, dy = xs - cx, ys - cy
    src_x = cx + scale * (math.cos(angle) * dx - math.sin(angle) * dy)
    src_y = cy + scale * (math.sin(angle) * dx + math.cos(angle) * dy)
    field = pixels[..., None] if pixels.ndim == 2 else pixels
    x0 = np.floor(src_x).astype(int)
    y0 = np.floor(src_y).astype(int)
    fx, fy = src_x - x0, src_y - y0
    out = np.zeros(field.shape)
    for oy in (0, 1):
        for ox in (0, 1):
            xx, yy = x0 + ox, y0 + oy
            weight = (fx if ox else 1.0 - fx) * (fy if oy else 1.0 - fy)
            valid = (xx >= 0) & (xx < w) & (yy >= 0) & (yy < h)
            values = field[yy.clip(0, h - 1), xx.clip(0, w - 1)]
            out += np.where(valid[..., None], values * weight[..., None], 0.0)
    return out[..., 0] if pixels.ndim == 2 else out


def _within_one_cell(angle: float, scale: float, true_angle: float, true_scale: float,
                     geo) -> bool:
    """Acceptance criterion 9's rule: angle and log-scale each within one grid cell."""
    angle_err = abs((angle - true_angle + math.pi) % (2.0 * math.pi) - math.pi)
    scale_err = abs(math.log(scale) - math.log(true_scale))
    return angle_err <= geo.dtheta and scale_err <= geo.ds


# -- spectra-512 ------------------------------------------------------------------------


class Spectra512:
    """cfmt_forward then cfmt_inverse on 512x512 signals: the large-grid regime.

    Ops rotate through Cl(2,0), Cl(1,1), Cl(0,2); each algebra has a pool of
    signals and of random root pairs from the sampling window, and op i takes
    the next (signal, pair) combination of its algebra.
    """

    name = "spectra-512"
    N = 512
    SIGNALS_PER_ALGEBRA = 4
    PAIRS_PER_ALGEBRA = 6
    ORACLE_BINS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.counters = Counter()

    def prepare(self, workdir) -> None:
        geo = signal.GridGeometry(self.N, self.N, -math.pi, math.pi)
        self.signals, self.pairs = [], []
        for a, sig in enumerate(algebra.SIGNATURES):
            base = self.seed * 1000 + 100 * a
            self.signals.append([signal.random_signal(geo, sig, seed=base + j)
                                 for j in range(self.SIGNALS_PER_ALGEBRA)])
            found = roots.random_roots(sig, 2 * self.PAIRS_PER_ALGEBRA, seed=base + 99)
            self.pairs.append([roots.RootPair(found[2 * j], found[2 * j + 1])
                               for j in range(self.PAIRS_PER_ALGEBRA)])

    def inputs(self, i: int):
        a, j = i % 3, i // 3
        h = self.signals[a][j % self.SIGNALS_PER_ALGEBRA]
        pair = self.pairs[a][j % self.PAIRS_PER_ALGEBRA]
        rng = np.random.default_rng((self.seed, i))
        bins = rng.integers(0, self.N, size=(self.ORACLE_BINS, 2))
        return h, pair, bins

    def op(self, args):
        h, pair, _ = args
        spectrum = cfmt.cfmt_forward(h, pair)
        return spectrum, cfmt.cfmt_inverse(spectrum)

    def check(self, args, output) -> bool:
        h, pair, bins = args
        spectrum, back = output
        if _relative_error(back.samples, h.samples) > TRANSFORM_TOL:
            return False
        geo = h.geometry
        peak = float(np.max(np.abs(spectrum.coeffs)))
        for i, t in bins:
            direct = cfmt.cfmt_direct(h, pair, float(geo.v_values[i]), float(geo.k_values[t]))
            if np.max(np.abs(direct.coeffs - spectrum.coeffs[i, t])) > TRANSFORM_TOL * peak:
                return False
        return True


# -- image-match ------------------------------------------------------------------------


class ImageMatch:
    """Match a warped query image against an indexed corpus: many small grids.

    The corpus alternates gray PGM and RGB PPM ring-blob images.  Each query
    is a seeded similarity warp of one corpus image; the op reads it, takes
    its descriptor, finds the nearest corpus descriptor and registers the
    query against that entry.
    """

    name = "image-match"
    SIZE = 128
    CORPUS = 32
    QUERIES = 64
    CENTER = (63.5, 63.5)

    def __init__(self, seed: int):
        self.seed = seed
        self.counters = Counter()
        self.geometry = signal.GridGeometry(64, 64, math.log(2.0), math.log(55.0))
        self.pair = roots.default_pair(algebra.CL02)

    def _image(self, rng, rgb: bool) -> np.ndarray:
        def gray():
            return ring_blobs(rng, self.SIZE, (13.0, 30.0), (4.0, 8.0))
        return np.stack([gray(), gray(), gray()], axis=-1) if rgb else gray()

    def _write(self, path: str, pixels: np.ndarray) -> str:
        if pixels.ndim == 2:
            path += ".pgm"
            imaging.write_pgm(path, pixels)
        else:
            path += ".ppm"
            imaging.write_ppm(path, pixels)
        return path

    def _signal(self, path: str):
        source = imaging.ingest(path, algebra.CL02)
        return imaging.to_log_polar(source, self.geometry, center=self.CENTER)

    def prepare(self, workdir) -> None:
        rng = np.random.default_rng((self.seed, 1))
        images = [self._image(rng, rgb=k % 2 == 1) for k in range(self.CORPUS)]
        paths = [self._write(os.path.join(workdir, f"corpus{k:03d}"), image)
                 for k, image in enumerate(images)]
        self.queries = []
        for q in range(self.QUERIES):
            target = int(rng.integers(self.CORPUS))
            angle = float(rng.uniform(-math.pi, math.pi))
            scale = float(math.exp(rng.uniform(-0.2, 0.2)))
            warped = warp_similarity(images[target], angle, scale)
            path = self._write(os.path.join(workdir, f"query{q:03d}"), warped)
            self.queries.append((path, target, angle, scale))
        self.corpus = []
        for path in paths:
            h = self._signal(path)
            self.corpus.append((h, imaging.descriptor(h, self.pair)))

    def inputs(self, i: int):
        return self.queries[i % self.QUERIES]

    def op(self, args):
        path = args[0]
        h = self._signal(path)
        query = imaging.descriptor(h, self.pair)
        distances = [query.l2_distance(entry) for _, entry in self.corpus]
        best = int(np.argmin(distances))
        return best, imaging.register(self.corpus[best][0], h, self.pair)

    def check(self, args, output) -> bool:
        _, target, angle, scale = args
        best, result = output
        top1 = best == target
        self.counters["top1"] += top1
        return top1 and result.matched and _within_one_cell(
            result.angle, result.scale, angle, scale, self.geometry)


# -- cli-roundtrip ----------------------------------------------------------------------


def read_clms_payload(path: str) -> np.ndarray:
    """Samples of a CLMS v1 file, parsed without the library: five header
    lines, then little-endian float64."""
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    for _ in range(5):
        offset = data.index(b"\n", offset) + 1
    return np.frombuffer(data, dtype="<f8", offset=offset)


class CliRoundtrip:
    """One CLI session per op through ``cli.main(argv)`` at default flags
    (64x64 grid, Cl(0,2), blade pair): transform, invert, descriptor,
    register and verify."""

    name = "cli-roundtrip"
    SIGNALS = 8
    IMAGES = 8
    SIZE = 64
    GRID = signal.default_geometry(64)

    def __init__(self, seed: int):
        self.seed = seed
        self.counters = Counter()

    def prepare(self, workdir) -> None:
        self.workdir = str(workdir)
        rng = np.random.default_rng((self.seed, 2))
        self.signals = []
        for k in range(self.SIGNALS):
            path = os.path.join(self.workdir, f"signal{k}.clms")
            h = signal.random_signal(self.GRID, algebra.CL02, seed=self.seed * 1000 + k)
            signal.write_clms(path, h)
            self.signals.append(path)
        self.images = []
        for k in range(self.IMAGES):
            base = ring_blobs(rng, self.SIZE, (6.0, 16.0), (2.5, 5.0))
            angle = float(rng.uniform(-math.pi, math.pi))
            scale = float(math.exp(rng.uniform(-0.2, 0.2)))
            a = os.path.join(self.workdir, f"base{k}.pgm")
            b = os.path.join(self.workdir, f"warped{k}.pgm")
            imaging.write_pgm(a, base)
            imaging.write_pgm(b, warp_similarity(base, angle, scale))
            self.images.append((a, b, angle, scale))

    def inputs(self, i: int):
        out = {name: os.path.join(self.workdir, name)
               for name in ("spectrum.clmf", "back.clms", "descriptor.csv")}
        return (self.signals[i % self.SIGNALS], self.images[i % self.IMAGES],
                self.seed * 1000 + i, out)

    def op(self, args):
        clms, (a, b, _, _), verify_seed, out = args
        center = f"{(self.SIZE - 1) / 2},{(self.SIZE - 1) / 2}"
        session = [
            ["transform", clms, "--out", out["spectrum.clmf"]],
            ["invert", out["spectrum.clmf"], "--out", out["back.clms"]],
            ["descriptor", clms, "--out", out["descriptor.csv"]],
            ["register", a, b, "--center", center],
            ["verify", "--seed", str(verify_seed)],
        ]
        results = []
        for argv in session:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            results.append((code, stdout.getvalue()))
        return results

    def check(self, args, output) -> bool:
        clms, (_, _, angle, scale), _, out = args
        if any(code != 0 for code, _ in output):
            return False
        self.counters["bytes_written"] += sum(os.path.getsize(p) for p in out.values())
        if _relative_error(read_clms_payload(out["back.clms"]), read_clms_payload(clms)) \
                > TRANSFORM_TOL:
            return False
        with open(out["descriptor.csv"]) as fh:
            lines = fh.read().splitlines()
        if lines[0] != "j,k,v,mag" or len(lines) != self.GRID.n_s * self.GRID.n_theta + 1:
            return False
        registered = json.loads(output[3][1])
        if not (registered["matched"] and _within_one_cell(
                registered["angle_rad"], registered["scale"], angle, scale, self.GRID)):
            return False
        report = json.loads(output[4][1])
        self.counters["verify_rows"] += len(report["results"])
        self.counters["verify_failures"] += report["failures"]
        return report["failures"] == 0


WORKLOADS = {w.name: w for w in (Spectra512, ImageMatch, CliRoundtrip)}
