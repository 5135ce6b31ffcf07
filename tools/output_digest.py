"""Print one SHA-256 digest per output family of the library.

A change that claims byte-identical outputs shows it by running this script
on the parent commit's checkout and on the change, and comparing the two
listings:

    python tools/output_digest.py > change.txt
    python tools/output_digest.py --root PARENT_CHECKOUT > parent.txt
    cmp parent.txt change.txt

The families:

* ``verify``: the ``clifford-mellin verify`` stdout for seeds 0 and 7 on the
  default grid, and for seed 7 with ``--pair-degenerate``; ``verify-small``
  is the seed-0 report on an 8x4 grid, where rules skip rows that run on the
  default grid.
* ``forward``, ``inverse``, ``fast``: the bytes of ``cfmt_forward``,
  ``cfmt_inverse`` (of that forward spectrum) and ``cfmt_fast`` on 8x8 to
  512x512 grids, with a symmetric and an asymmetric radial window, in all
  three algebras, under the default pair and one random pair.
* ``routes-rect``: the same three routes' bytes, with the same windows,
  algebras and pairs, on the non-square grids 6x10, 16x128 and 128x16, where
  the radial and angular passes differ in length.
* ``split``: on the same grids, signals and pairs, the plus and minus parts
  of ``Spectrum.split()`` of each forward spectrum and of ``split_signal``
  of each signal.
* ``spectrum-csv``: the text of ``spectrum_csv_rows`` of each of those
  forward spectra.
* ``direct``: the bytes of the literal-sum oracle, ``direct_spectrum``, and
  of ``cfmt_direct`` at three real points off the grid, on the grids of
  ``DIRECT_GRIDS`` in all three algebras, under the default pair, a random
  pair and the degenerate pair (f, -f).
* ``checks``: the residuals of the public theorem checks on 16x16 and 32x32
  grids in all three algebras, under the default pair and one random pair:
  ``check_linearity``, ``check_derivative_theorems`` at orders 0 to 2,
  ``check_power_scaling`` at every order pair (m, n) in 0..2 on a seam-free
  bump, ``plancherel_check``, ``parseval_check`` on the blade-like pair, and
  the ``off_span`` of ``symmetry_decompose`` on a real signal.
* ``products``: the bytes of ``gp`` on the operand shapes its callers use,
  (4,) x grid, grid x (4,), (n, 1, 4) x grid, grid x (1, n, 4), grid x grid,
  (n, 4) x (4,) and (2000, 4) x (2000, 4), on 8x8 to 64x64 grids in all
  three algebras, with random signs, magnitudes from 1e-3 to 1e3 and a
  tenth of the entries +-0.0; and on the (2000, 4) draws, row by row, the
  ``Multivector`` product and ``outer_product``.
* ``exp``: the bytes of ``RootOfMinusOne.exp`` at the angles of
  ``EXP_ANGLES``, -0.0 among them, for 50 ``random_roots`` per algebra.
* ``resample``, ``descriptors``, ``distances``, ``registrations``: gray and
  RGB images from ``tests/imagegen.py``, warped, written as PGM/PPM, read
  back and resampled on a 64x64 grid about a fixed center and about their
  centroids; the bytes of every ``to_log_polar`` signal, and of each image
  resampled about the fixed center under one custom channel-to-blade
  mapping; every descriptor, every pairwise distance and every ordered
  pairwise ``register`` result, wrong and gray-vs-RGB pairs included, with
  its confidence and its score where the checkout reports one.
* ``registration-verdicts``: of the same ``register`` results, only the
  steps, matched, scale and angle, which stay fixed when a change moves the
  confidence at roundoff.
* ``cli-descriptor``, ``cli-register``: the CSV that ``descriptor`` writes
  and the ``register`` summary without its config, with the exit codes.

Each line reads ``family digest count``, where count is the number of items
hashed.  The run takes about half a minute and peaks near 140 MB.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import struct
import sys
import tempfile
from pathlib import Path

GRID_SIZES = (8, 16, 32, 64, 128, 256, 512)
PRODUCT_GRIDS = (8, 16, 32, 64)
RECT_GRIDS = ((6, 10), (16, 128), (128, 16))  # (n_s, n_theta)
# (n_s, n_theta, s_min, s_max): minimal, non-square, asymmetric and shifted
# windows, then square and rectangular grids
DIRECT_GRIDS = (
    (2, 2, -1.0, 1.0), (2, 8, 0.3, 2.9), (16, 8, -2.0, 2.0), (8, 32, 0.3, 2.9),
    (12, 6, -5.0, -1.0), (8, 8, -math.pi, math.pi), (32, 32, -math.pi, math.pi),
    (64, 64, -math.pi, math.pi), (32, 128, 0.1, 1.7), (128, 16, -1.0, 3.0),
)
EXP_ANGLES = (0.0, -0.0, 1e-300, 0.5, -1.25, math.pi / 2, -math.pi, 7.0, -40.0)
IMAGE_SIZE = 128
CENTER = (63.5, 63.5)
WARPS = ((0.0, 1.0), (0.7, 1.1), (-2.1, 0.92))
# channels -> a mapping other than the default one
CUSTOM_MAPPINGS = {1: (3,), 3: (2, 0, 3)}


class Digest:
    def __init__(self):
        self.hash = hashlib.sha256()
        self.count = 0

    def add(self, data: bytes) -> None:
        self.hash.update(struct.pack("<Q", len(data)))
        self.hash.update(data)
        self.count += 1

    def add_array(self, arr) -> None:
        self.add(repr((arr.shape, arr.dtype.str)).encode() + arr.tobytes())


def _cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def verify_digests(cli) -> dict:
    digests = {}
    for name, argv in (
        ("verify-seed0", ["verify", "--seed", "0"]),
        ("verify-seed7", ["verify", "--seed", "7"]),
        ("verify-seed7-pair-degenerate", ["verify", "--seed", "7", "--pair-degenerate"]),
        ("verify-small", ["verify", "--ns", "8", "--ntheta", "4"]),
    ):
        digest = digests[name] = Digest()
        code, out = _cli(cli, argv)
        digest.add(f"{code}\n{out}".encode())
    return digests


def transform_digests() -> dict:
    from clifford_mellin import cfmt
    from clifford_mellin.algebra import SIGNATURES
    from clifford_mellin.roots import RootPair, default_pair, random_roots
    from clifford_mellin.signal import GridGeometry, random_signal, split_signal

    def cases(grids):
        """(h, pair) on each (n_s, n_theta) grid, with both radial windows, in
        all three algebras, under the default pair and one random pair."""
        for n_s, n_theta in grids:
            for window in ((-math.pi, math.pi), (math.log(2.0), math.log(55.0))):
                geo = GridGeometry(n_s, n_theta, *window)
                for k, sig in enumerate(SIGNATURES):
                    h = random_signal(geo, sig, seed=1000 * n_s + k)
                    f, g = random_roots(sig, 2, seed=n_theta + k)
                    for pair in (default_pair(sig), RootPair(f, g)):
                        yield h, pair

    names = ("forward", "inverse", "fast", "split", "spectrum-csv", "routes-rect")
    digests = {name: Digest() for name in names}
    for h, pair in cases((n, n) for n in GRID_SIZES):
        spectrum = cfmt.cfmt_forward(h, pair)
        digests["forward"].add_array(spectrum.coeffs)
        digests["inverse"].add_array(cfmt.cfmt_inverse(spectrum).samples)
        digests["fast"].add_array(cfmt.cfmt_fast(h, pair).coeffs)
        for part in spectrum.split():
            digests["split"].add_array(part.coeffs)
        for part in split_signal(h, pair):
            digests["split"].add_array(part.samples)
        csv = hashlib.sha256()  # line by line: a 512x512 CSV is ~25 MB
        for row in cfmt.spectrum_csv_rows(spectrum):
            csv.update(row.encode() + b"\n")
        digests["spectrum-csv"].add(csv.digest())
    for h, pair in cases(RECT_GRIDS):
        spectrum = cfmt.cfmt_forward(h, pair)
        digests["routes-rect"].add_array(spectrum.coeffs)
        digests["routes-rect"].add_array(cfmt.cfmt_inverse(spectrum).samples)
        digests["routes-rect"].add_array(cfmt.cfmt_fast(h, pair).coeffs)
    return digests


def direct_digests() -> dict:
    from clifford_mellin import cfmt
    from clifford_mellin.algebra import SIGNATURES
    from clifford_mellin.roots import RootPair, default_pair, random_roots
    from clifford_mellin.signal import GridGeometry, random_signal

    digest = Digest()
    for n, grid in enumerate(DIRECT_GRIDS):
        geo = GridGeometry(*grid)
        points = ((0.37 * geo.dv, -2.5), (-1.9 * geo.dv, 0.25), (3.3, 7.75))
        for k, sig in enumerate(SIGNATURES):
            h = random_signal(geo, sig, seed=5000 + 10 * n + k)
            f, g = random_roots(sig, 2, seed=6000 + 10 * n + k)
            for pair in (default_pair(sig), RootPair(f, g), RootPair(f, -f)):
                digest.add_array(cfmt.direct_spectrum(h, pair).coeffs)
                for v, kv in points:
                    digest.add_array(cfmt.cfmt_direct(h, pair, v, kv).coeffs)
    return {"direct": digest}


def check_digests() -> dict:
    import numpy as np
    from clifford_mellin import cfmt
    from clifford_mellin.algebra import SIGNATURES, Multivector
    from clifford_mellin.properties import symmetry_pair
    from clifford_mellin.roots import RootPair, default_pair, random_roots
    from clifford_mellin.signal import GridGeometry, LogPolarSignal, random_signal

    digest = Digest()
    for n in (16, 32):
        geo = GridGeometry(n, n, -math.pi, math.pi)
        s, theta = geo.s_values[:, None], geo.theta_values[None, :]
        bump_channel = np.exp(-((s / 1.2) ** 2) - ((theta - math.pi) / 0.6) ** 2)
        for k, sig in enumerate(SIGNATURES):
            seed = 3000 * n + 10 * k
            h, h2 = random_signal(geo, sig, seed=seed), random_signal(geo, sig, seed=seed + 1)
            smooth = random_signal(geo, sig, seed=seed + 2, band_limit=4)
            bump = LogPolarSignal.from_channels(geo, sig, m0=bump_channel)
            one = Multivector.scalar(sig, 1.0)
            f, g = random_roots(sig, 2, seed=seed + 3)
            for pair in (default_pair(sig), RootPair(f, g)):
                values = list(cfmt.check_linearity(
                    h, h2, pair, 0.7 * one + 0.4 * pair.f.value, 1.5 * one, 0.3 * one,
                    -1.1 * one + 0.8 * pair.g.value))
                for order in range(3):
                    check = cfmt.check_derivative_theorems(smooth, pair, order)
                    values += [check.radial_residual, check.angular_residual, check.band_limited]
                values += [cfmt.check_power_scaling(bump, pair, m, q)
                           for m in range(3) for q in range(3)]
                values += cfmt.plancherel_check(h, h2, pair)
                if pair.blade_like:
                    values += cfmt.parseval_check(h, pair)
                digest.add(repr(values).encode())
            real = random_signal(geo, sig, seed=seed + 4, channels=(0,))
            off_span = cfmt.symmetry_decompose(real, symmetry_pair(sig)).off_span
            digest.add(repr(sorted(off_span.items())).encode())
    return {"checks": digest}


def product_digests() -> dict:
    import numpy as np
    from clifford_mellin.algebra import SIGNATURES, Multivector, gp, outer_product

    def draw(rng, *shape):
        """Random signs, magnitudes from 1e-3 to 1e3, a tenth of the entries +-0.0."""
        x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        x[rng.random(shape) < 0.1] *= 0.0
        return x

    digest = Digest()
    for n in PRODUCT_GRIDS:
        for k, sig in enumerate(SIGNATURES):
            rng = np.random.default_rng(7000 + 10 * n + k)
            grid, other, one = draw(rng, n, n, 4), draw(rng, n, n, 4), draw(rng, 4)
            column, row, points = draw(rng, n, 1, 4), draw(rng, 1, n, 4), draw(rng, n, 4)
            left, right = draw(rng, 2000, 4), draw(rng, 2000, 4)
            for a, b in ((one, grid), (grid, one), (column, grid), (grid, row), (grid, other),
                         (points, one), (left, right)):
                digest.add_array(gp(sig, a, b))
            pairs = [(Multivector(sig, a), Multivector(sig, b)) for a, b in zip(left, right)]
            digest.add_array(np.array([(x * y).coeffs for x, y in pairs]))
            digest.add_array(np.array([outer_product(x, y).coeffs for x, y in pairs]))
    return {"products": digest}


def exp_digests() -> dict:
    from clifford_mellin.algebra import SIGNATURES
    from clifford_mellin.roots import random_roots

    digest = Digest()
    for k, sig in enumerate(SIGNATURES):
        for root in random_roots(sig, 50, seed=8000 + k):
            for angle in EXP_ANGLES:
                digest.add_array(root.exp(angle).coeffs)
    return {"exp": digest}


def _images():
    """(name, pixels) of gray and RGB images and their warps."""
    import numpy as np
    from imagegen import blob_image, ring_blob_image, warp_similarity

    bases = []
    for k in range(4):
        bases.append((f"gray{k}", ring_blob_image(IMAGE_SIZE, seed=k)))
        rgb = [blob_image(IMAGE_SIZE, seed=10 + 3 * k + c) for c in range(3)]
        bases.append((f"rgb{k}", np.stack(rgb, axis=-1)))
    for name, pixels in bases:
        for w, (angle, scale) in enumerate(WARPS):
            yield f"{name}-w{w}", warp_similarity(pixels, angle, scale, center=CENTER)


def image_digests(workdir: str) -> dict:
    import numpy as np

    from clifford_mellin import imaging
    from clifford_mellin.algebra import CL02
    from clifford_mellin.roots import default_pair
    from clifford_mellin.signal import GridGeometry

    geo = GridGeometry(64, 64, math.log(2.0), math.log(55.0))
    pair = default_pair(CL02)
    digests = {name: Digest() for name in
               ("resample", "descriptors", "distances", "registrations", "registration-verdicts")}
    paths, signals = [], []
    for name, pixels in _images():
        path = os.path.join(workdir, name + (".pgm" if pixels.ndim == 2 else ".ppm"))
        (imaging.write_pgm if pixels.ndim == 2 else imaging.write_ppm)(path, pixels)
        paths.append(path)
        source = imaging.ingest(path, CL02)
        for center in (CENTER, None):
            signals.append(imaging.to_log_polar(source, geo, center=center))
            digests["resample"].add_array(signals[-1].samples)
        custom = imaging.ingest(path, CL02, CUSTOM_MAPPINGS[source.image.channels])
        digests["resample"].add_array(imaging.to_log_polar(custom, geo, center=CENTER).samples)

    descs = [imaging.descriptor(h, pair) for h in signals]
    for desc in descs:
        digests["descriptors"].add_array(desc.magnitudes)
    for a in descs:
        digests["distances"].add_array(np.array([a.l2_distance(b) for b in descs]))
    for h1 in signals:
        for h2 in signals:
            r = imaging.register(h1, h2, pair)
            verdict = struct.pack("<dd?ii", r.scale, r.angle, r.matched, *r.steps)
            digests["registration-verdicts"].add(verdict)
            score = struct.pack("<d", r.score) if hasattr(r, "score") else b""
            digests["registrations"].add(verdict + struct.pack("<d", r.confidence) + score)
    return digests, paths


def cli_digests(cli, workdir: str, paths: list) -> dict:
    digests = {name: Digest() for name in ("cli-descriptor", "cli-register")}
    csv = os.path.join(workdir, "descriptor.csv")
    for path in paths[::3]:
        code, _ = _cli(cli, ["descriptor", path, "--out", csv,
                             "--smin", "0.7", "--smax", "4.0", "--center", "63.5,63.5"])
        with open(csv, "rb") as fh:
            digests["cli-descriptor"].add(f"{code}\n".encode() + fh.read())
    for a in paths[::3]:
        for b in paths[1::6]:
            code, out = _cli(cli, ["register", a, b, "--smin", "0.7", "--smax", "4.0"])
            summary = json.loads(out)
            del summary["config"]
            digests["cli-register"].add(f"{code}\n{json.dumps(summary, sort_keys=True)}".encode())
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ and tests/ are digested (default: this one)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]

    from clifford_mellin import cli

    digests = verify_digests(cli)
    digests.update(transform_digests())
    digests.update(direct_digests())
    digests.update(check_digests())
    digests.update(product_digests())
    digests.update(exp_digests())
    with tempfile.TemporaryDirectory() as workdir:
        images, paths = image_digests(workdir)
        digests.update(images)
        digests.update(cli_digests(cli, workdir, paths))
    for name, digest in digests.items():
        print(f"{name} {digest.hash.hexdigest()} {digest.count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
