"""Command-line surface: transforms, property verification, registration.

Each subcommand takes only the flags it reads; a CLMS input fixes the
algebra and grid, and a root flag left out is that root of the algebra's
default pair.  Every command echoes what it used in the JSON summary, is
deterministic for a fixed seed (PCG64), and writes output files atomically
(temp file then rename).  Exit codes: 0 success, 1 usage, 2 file format,
3 violated contract or domain error, 4 registration found no match.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

from . import cfmt, properties
from .algebra import CL02, Multivector, Signature
from .errors import CliffordMellinError, DomainError, FormatError
from .imaging import ingest, register, descriptor, to_log_polar
from .roots import RootPair, default_pair, export_manifold, make_pair
from .signal import (
    GridGeometry,
    LogPolarSignal,
    default_geometry,
    norm as signal_norm,
    random_signal,
    read_clms,
    write_clms,
)
from .split import split


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _parse_floats(text: str, count: int, form: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    return values


def _parse_floats4(text: str) -> tuple[float, ...]:
    return _parse_floats(text, 4, "4 comma-separated floats")


def _parse_center(text: str) -> tuple[float, float]:
    return _parse_floats(text, 2, "x,y")


def _nonnegative(convert, form: str):
    """A flag type: text that convert reads as a number in [0, inf)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = -1
        if not 0 <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        return value
    return parse


def _parse_algebra(text: str) -> Signature:
    try:
        return Signature.parse(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _pair(sig: Signature, f, g) -> RootPair:
    """The roots the flags give; each one left out is that root of default_pair(sig)."""
    default = default_pair(sig)
    if f is None and g is None:
        return default
    return make_pair(
        default.f.value if f is None else Multivector(sig, f),
        default.g.value if g is None else Multivector(sig, g),
    )


def _grid(args, n: int = 64) -> GridGeometry:
    """default_geometry(n) with each grid flag given (not None) in its place."""
    flags = {"n_s": args.ns, "n_theta": args.ntheta, "s_min": args.smin, "s_max": args.smax}
    return replace(default_geometry(n), **{k: v for k, v in flags.items() if v is not None})


def _echo(args, sig=None, pair=None, geo=None, center=None) -> dict:
    """The command's own flags, with the algebra, roots, grid and center it resolved in their place."""
    config = dict(vars(args))
    if sig is not None:
        config["algebra"] = sig.name
    if pair is not None:
        config.update(f=pair.f.value.coeffs.tolist(), g=pair.g.value.coeffs.tolist())
    if geo is not None:
        config.update(ns=geo.n_s, ntheta=geo.n_theta, smin=geo.s_min, smax=geo.s_max)
    if center is not None:
        config["center"] = list(center)
    return config


def _atomic_write(path: str, write_fn) -> None:
    """Write via a sibling temp file and atomic rename; no partial outputs."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".clifford-mellin-")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: str | None, text: str) -> None:
    """Write text to path atomically, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return

    def write(tmp: str) -> None:
        with open(tmp, "w") as fh:
            fh.write(text)

    _atomic_write(path, write)


def _emit(payload: dict, file=None) -> None:
    """Print the JSON summary to file, stdout by default; a command whose CSV
    went to stdout passes stderr, so each stream parses.  The summary is
    strict JSON: a non-finite float raises ValueError rather than print as
    Infinity or NaN."""
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False), file=file)


_IMAGE_ONLY = ("algebra", "ns", "ntheta", "smin", "smax", "center")  # a CLMS input fixes these


def _image_signal(path, sig: Signature, geometry: GridGeometry, center):
    """The image at path resampled on geometry about center, or about its
    intensity centroid when center is None; also the center used."""
    source = ingest(path, sig)
    if center is None:
        center = source.image.centroid()
    return to_log_polar(source, geometry, center=center), center


def _load_signal(args) -> tuple[LogPolarSignal, tuple[float, float] | None]:
    """A CLMS input as its header says, or a PGM/PPM image resampled on the
    flags' grid; also the resampling center, None for a CLMS input."""
    path = args.inputs[0]
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic in (b"P5", b"P6"):
        return _image_signal(path, args.algebra or CL02, _grid(args), args.center)
    flags = [f"--{name}" for name in _IMAGE_ONLY if getattr(args, name) is not None]
    if flags:
        raise UsageError(f"{' '.join(flags)}: for image inputs only; "
                         f"the CLMS header of {path} fixes the algebra and grid")
    return read_clms(path), None


# -- transform / invert ------------------------------------------------------------


def cmd_transform(args) -> int:
    h, center = _load_signal(args)
    pair = _pair(h.signature, args.f, args.g)

    start = time.perf_counter()
    spectrum = cfmt.cfmt_fast(h, pair)
    time_fast = time.perf_counter() - start

    if args.out:
        _atomic_write(args.out, lambda tmp: cfmt.write_clmf(tmp, spectrum))
    n_sig = signal_norm(h)
    n_spec = spectrum.norm()
    # Parseval holds only for blade-like pairs; elsewhere the norm gap means nothing.
    if pair.blade_like:
        parseval = {"relative_difference": abs(n_sig - n_spec) / max(n_sig, 1e-300)}
    else:
        parseval = {"blade_like": False}
    _emit(
        {
            "config": _echo(args, h.signature, pair, h.geometry, center),
            "norm_signal": n_sig,
            "norm_spectrum": n_spec,
            **parseval,
            "time_fast_s": time_fast,
        }
    )
    return 0


def cmd_invert(args) -> int:
    spectrum = cfmt.read_clmf(args.inputs[0])
    h = cfmt.cfmt_inverse(spectrum)
    if args.out:
        _atomic_write(args.out, lambda tmp: write_clms(tmp, h))
    _emit(
        {
            "config": _echo(args, spectrum.signature, spectrum.pair, spectrum.geometry),
            "norm_signal": signal_norm(h),
            "norm_spectrum": spectrum.norm(),
        }
    )
    return 0


def cmd_fast_bench(args) -> int:
    pair = _pair(args.algebra, args.f, args.g)
    h = random_signal(_grid(args, 256), args.algebra, seed=args.seed)

    start = time.perf_counter()
    fast = cfmt.cfmt_fast(h, pair)
    time_fast = time.perf_counter() - start
    start = time.perf_counter()
    direct = cfmt.direct_spectrum(h, pair)
    time_direct = time.perf_counter() - start
    warm = []
    for _ in range(5):
        start = time.perf_counter()
        cfmt.cfmt_fast(h, pair)
        warm.append(time.perf_counter() - start)
    peak = float(np.max(np.abs(direct.coeffs)))
    _emit(
        {
            "config": _echo(args, args.algebra, pair, h.geometry),
            "time_fast_s": time_fast,
            "time_fast_warm_s": min(warm),
            "time_direct_s": time_direct,
            "speedup": time_direct / max(time_fast, 1e-12),
            "oracle_max_rel_diff": fast.max_abs_diff(direct) / max(peak, 1e-300),
        }
    )
    return 0


# -- split / manifold / descriptor ------------------------------------------------------


def cmd_split(args) -> int:
    pair = _pair(args.algebra, args.f, args.g)
    parts = split(Multivector(args.algebra, args.x), pair)
    _emit(
        {
            "config": _echo(args, args.algebra, pair),
            "plus": list(parts.plus.coeffs),
            "minus": list(parts.minus.coeffs),
        }
    )
    return 0


def cmd_manifold(args) -> int:
    rows = export_manifold(args.algebra, args.resolution)
    lines = ["b1,b2,beta,branch"]
    lines += [f"{b1!r},{b2!r},{beta!r},{branch}" for b1, b2, beta, branch in rows]
    text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    _emit({"config": _echo(args, args.algebra), "points": len(rows)},
          None if args.out else sys.stderr)
    return 0


def cmd_descriptor(args) -> int:
    h, center = _load_signal(args)
    pair = _pair(h.signature, args.f, args.g)
    desc = descriptor(h, pair)
    geo = h.geometry
    # one row per bin in centred order, v = dv*j, each float as its repr; the
    # ",k," fields are made once and v's repr once per radial row
    k_fields = [f",{k}," for k in range(-geo.n_theta // 2, geo.n_theta // 2)]
    lines = ["j,k,v,mag"]
    for j, row in zip(range(-geo.n_s // 2, geo.n_s // 2), desc.magnitudes.tolist()):
        v = repr(geo.dv * j)
        lines += [f"{j}{k_field}{v},{mag!r}" for k_field, mag in zip(k_fields, row)]
    _write_text(args.out, "\n".join(lines) + "\n")
    _emit({"config": _echo(args, h.signature, pair, geo, center),
           "bins": int(desc.magnitudes.size)}, None if args.out else sys.stderr)
    return 0


def cmd_register(args) -> int:
    geometry = _grid(args, 64)
    # the images fill blade channels, which the default pair's split basis,
    # orthogonal up to a factor, correlates as they are
    pair = default_pair(CL02)
    signals, centers = zip(*(_image_signal(path, CL02, geometry, args.center)
                             for path in args.inputs))
    result = register(*signals, pair)
    _emit(
        {
            "config": {**_echo(args, CL02, pair, geometry), "centers": [list(c) for c in centers]},
            "scale": result.scale,
            "angle_rad": result.angle,
            # infinite when nothing outside the main lobe correlates positively
            "confidence": result.confidence if math.isfinite(result.confidence) else None,
            "score": result.score,
            "matched": result.matched,
        }
    )
    return 0 if result.matched else 4


# -- verify -----------------------------------------------------------------------------


def cmd_verify(args) -> int:
    geometry = _grid(args, 32)
    rows = properties.verify_rows(geometry, args.seed, args.tol, args.pair_degenerate)
    failures = sum(1 for row in rows if row["pass"] is False)
    report = {"config": _echo(args, geo=geometry), "results": rows, "failures": failures}
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return 3 if failures else 0


# -- parser: each subcommand declares only the flags its handler reads ------------------


def _add_algebra(p, default: Signature | None) -> None:
    p.add_argument("--algebra", type=_parse_algebra, default=default,
                   help="algebra name: Cl(2,0), Cl(1,1) or Cl(0,2) (default Cl(0,2))")


def _add_pair(p) -> None:
    p.add_argument("--f", type=_parse_floats4, default=None,
                   help="first root of -1 as four blade coefficients m0,m1,m2,m12 "
                        "(default: that root of the algebra's default pair)")
    p.add_argument("--g", type=_parse_floats4, default=None,
                   help="second root of -1, same format and default rule")


def _add_grid(p, n: int) -> None:
    p.add_argument("--ns", type=int, help=f"radial sample count (even; default {n})")
    p.add_argument("--ntheta", type=int, help=f"angular sample count (even; default {n})")
    p.add_argument("--smin", type=float, help="lower log-radius bound (default -pi)")
    p.add_argument("--smax", type=float, help="upper log-radius bound (default pi)")


def _add_center(p) -> None:
    p.add_argument("--center", type=_parse_center, default=None,
                   help="image resampling center x,y (default: intensity centroid)")


def _add_out(p) -> None:
    p.add_argument("--out", type=str, default=None, help="output file path")


def _add_seed(p) -> None:
    p.add_argument("--seed", type=_nonnegative(int, "an integer >= 0"), default=0,
                   help="PCG64 seed for random signals")


def _add_signal_command(sub, name: str, text: str) -> None:
    """transform and descriptor: a CLMS INPUT fixes what the image-only flags set."""
    p = sub.add_parser(name, help=text)
    p.add_argument("inputs", nargs=1, metavar="INPUT")
    _add_out(p)
    _add_pair(p)
    _add_algebra(p, None)
    _add_grid(p, 64)
    _add_center(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clifford-mellin",
                     description="Clifford Fourier-Mellin transforms, property checks, registration")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_signal_command(sub, "transform", "transform a CLMS signal or PGM/PPM image")

    p = sub.add_parser("invert", help="invert a CLMF spectrum back to a CLMS signal")
    p.add_argument("inputs", nargs=1, metavar="SPECTRUM")
    _add_out(p)

    p = sub.add_parser("fast-bench",
                       help="time the fast path against the literal-sum oracle; compare the spectra")
    _add_algebra(p, CL02)
    _add_pair(p)
    _add_grid(p, 256)
    _add_seed(p)

    p = sub.add_parser("verify", help="run the property suite and emit a JSON report")
    _add_grid(p, 32)
    _add_seed(p)
    p.add_argument("--tol", type=_nonnegative(float, "a finite float >= 0"), default=None,
                   help="tolerance replacing every default gate")
    _add_out(p)
    p.add_argument("--pair-degenerate", action="store_true",
                   help="also exercise the degenerate pair g = -f")

    p = sub.add_parser("split", help="split a multivector with respect to the root pair")
    _add_algebra(p, CL02)
    _add_pair(p)
    p.add_argument("--x", type=_parse_floats4, required=True,
                   help="multivector to split, four blade coefficients")

    p = sub.add_parser("register", help="estimate rotation/scale between two images")
    p.add_argument("inputs", nargs=2, metavar="IMAGE")
    _add_grid(p, 64)
    _add_center(p)

    p = sub.add_parser("manifold", help="export the root manifold point cloud as CSV")
    _add_algebra(p, CL02)
    p.add_argument("--resolution", type=int, default=33)
    _add_out(p)

    _add_signal_command(sub, "descriptor", "export the invariant magnitude descriptor as CSV")

    return parser


# Parsing leaves the parser unchanged, so one serves every main() call in a
# process instead of ~1.8 ms of argparse set-up per call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up per call, so a replaced cmd_* (a test spy, a tracer) is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FormatError as exc:
        sys.stderr.write(f"format error: {exc}\n")
        return 2
    except CliffordMellinError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
