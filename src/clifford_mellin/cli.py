"""Command-line surface: transforms, property verification, registration.

Every command echoes its canonical configuration in the JSON summary, is
deterministic for a fixed seed (PCG64), and writes output files atomically
(temp file then rename).  Exit codes: 0 success, 1 usage, 2 file format,
3 violated contract or domain error, 4 registration found no match.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import cfmt, properties
from .algebra import Multivector, Signature
from .errors import CliffordMellinError, FormatError
from .imaging import ingest, register, descriptor, to_log_polar
from .roots import RootPair, export_manifold, make_pair
from .signal import (
    GridGeometry,
    LogPolarSignal,
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


def _parse_floats4(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated floats, got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_center(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected x,y, got {text!r}")
    return (float(parts[0]), float(parts[1]))


@dataclass(frozen=True)
class RunConfig:
    """Canonical run description; identical configs with a fixed seed yield
    identical outputs.  Every flag default lives in the parser; the fields
    with defaults here are declared by some subcommands only."""

    command: str
    algebra: str
    f: tuple[float, ...]
    g: tuple[float, ...]
    ns: int
    ntheta: int
    smin: float
    smax: float
    seed: int
    tol: float | None
    out: str | None
    center: tuple[float, float] | None
    inputs: tuple[str, ...] = ()
    resolution: int | None = None
    pair_degenerate: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Inverse of dataclasses.asdict after a JSON round trip."""
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})

    @property
    def signature(self) -> Signature:
        return Signature.parse(self.algebra)

    @property
    def geometry(self) -> GridGeometry:
        return GridGeometry(self.ns, self.ntheta, self.smin, self.smax)

    @property
    def pair(self) -> RootPair:
        sig = self.signature
        return make_pair(Multivector(sig, self.f), Multivector(sig, self.g))


_CONFIG_FIELDS = {field.name for field in fields(RunConfig)}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    return RunConfig.from_dict({**values, "algebra": args.algebra.name})


def _with_geometry(config: RunConfig, geo: GridGeometry) -> RunConfig:
    """The config echoing the grid that was actually used."""
    return replace(config, ns=geo.n_s, ntheta=geo.n_theta, smin=geo.s_min, smax=geo.s_max)


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


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _load_signal(config: RunConfig, path: str) -> LogPolarSignal:
    """CLMS signals load directly; PGM/PPM images resample onto the grid."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic in (b"P5", b"P6"):
        source = ingest(path, config.signature)
        return to_log_polar(source, config.geometry, center=config.center)
    return read_clms(path)


# -- transform / invert ------------------------------------------------------------


def cmd_transform(args) -> int:
    config = _config_from_args(args)
    pair = config.pair
    h = _load_signal(config, config.inputs[0])
    config = _with_geometry(config, h.geometry)

    start = time.perf_counter()
    spectrum = cfmt.cfmt_fast(h, pair)
    time_fast = time.perf_counter() - start

    if config.out:
        _atomic_write(config.out, lambda tmp: cfmt.write_clmf(tmp, spectrum))
    n_sig = signal_norm(h)
    n_spec = spectrum.norm()
    # Parseval holds only for blade-like pairs; elsewhere the norm gap means nothing.
    if pair.blade_like:
        parseval = {"relative_difference": abs(n_sig - n_spec) / max(n_sig, 1e-300)}
    else:
        parseval = {"blade_like": False}
    _emit(
        {
            "config": asdict(config),
            "norm_signal": n_sig,
            "norm_spectrum": n_spec,
            **parseval,
            "time_fast_s": time_fast,
        }
    )
    return 0


def cmd_invert(args) -> int:
    config = _config_from_args(args)
    spectrum = cfmt.read_clmf(config.inputs[0])
    pair = spectrum.pair
    config = replace(
        _with_geometry(config, spectrum.geometry),
        algebra=spectrum.signature.name,
        f=tuple(pair.f.value.coeffs.tolist()),
        g=tuple(pair.g.value.coeffs.tolist()),
    )
    h = cfmt.cfmt_inverse(spectrum)
    if config.out:
        _atomic_write(config.out, lambda tmp: write_clms(tmp, h))
    _emit(
        {
            "config": asdict(config),
            "norm_signal": signal_norm(h),
            "norm_spectrum": spectrum.norm(),
        }
    )
    return 0


def _time_direct(h: LogPolarSignal, pair: RootPair, full: bool) -> tuple[float, bool, int]:
    """Wall time of the per-bin direct sum; unless full, grids beyond 2048
    bins measure a row subset and scale by the bin count (per-bin work is
    constant)."""
    geo = h.geometry
    total_bins = geo.n_s * geo.n_theta
    if full or total_bins <= 2048:
        start = time.perf_counter()
        cfmt.direct_spectrum(h, pair)
        return time.perf_counter() - start, False, total_bins
    rows = max(1, 2048 // geo.n_theta)
    start = time.perf_counter()
    for i in range(rows):
        v = float(geo.v_values[i])
        for k in geo.k_values:
            cfmt.cfmt_direct(h, pair, v, float(k))
    elapsed = time.perf_counter() - start
    measured = rows * geo.n_theta
    return elapsed * total_bins / measured, True, measured


def cmd_fast_bench(args) -> int:
    config = _config_from_args(args)
    pair = config.pair
    h = random_signal(config.geometry, config.signature, seed=config.seed)

    start = time.perf_counter()
    cfmt.cfmt_fast(h, pair)
    time_fast = time.perf_counter() - start
    time_direct, extrapolated, bins = _time_direct(h, pair, args.full_direct)
    _emit(
        {
            "config": asdict(config),
            "time_fast_s": time_fast,
            "time_direct_s": time_direct,
            "direct_extrapolated": extrapolated,
            "direct_bins_measured": bins,
            "speedup": time_direct / max(time_fast, 1e-12),
        }
    )
    return 0


# -- split / manifold / descriptor ------------------------------------------------------


def cmd_split(args) -> int:
    config = _config_from_args(args)
    pair = config.pair
    x = Multivector(config.signature, args.x)
    parts = split(x, pair)
    _emit(
        {
            "config": asdict(config),
            "plus": list(parts.plus.coeffs),
            "minus": list(parts.minus.coeffs),
        }
    )
    return 0


def cmd_manifold(args) -> int:
    config = _config_from_args(args)
    rows = export_manifold(config.signature, config.resolution)
    lines = ["b1,b2,beta,branch"]
    lines += [f"{b1!r},{b2!r},{beta!r},{branch}" for b1, b2, beta, branch in rows]
    text = "\n".join(lines) + "\n"
    if config.out:
        _atomic_write(config.out, lambda tmp: open(tmp, "w").write(text))
    else:
        sys.stdout.write(text)
    _emit({"config": asdict(config), "points": len(rows)})
    return 0


def cmd_descriptor(args) -> int:
    config = _config_from_args(args)
    pair = config.pair
    h = _load_signal(config, config.inputs[0])
    config = _with_geometry(config, h.geometry)
    desc = descriptor(h, pair)
    geo = h.geometry
    lines = ["j,k,v,mag"]
    j_values = range(-geo.n_s // 2, geo.n_s // 2)
    k_values = range(-geo.n_theta // 2, geo.n_theta // 2)
    for j, row in zip(j_values, desc.magnitudes.tolist()):
        v = repr(float(geo.dv * j))
        lines += [f"{j},{k},{v},{mag!r}" for k, mag in zip(k_values, row)]
    text = "\n".join(lines) + "\n"
    if config.out:
        _atomic_write(config.out, lambda tmp: open(tmp, "w").write(text))
    else:
        sys.stdout.write(text)
    _emit({"config": asdict(config), "bins": int(desc.magnitudes.size)})
    return 0


def cmd_register(args) -> int:
    config = _config_from_args(args)
    signals = []
    for path in config.inputs:
        source = ingest(path, config.signature)
        signals.append(to_log_polar(source, config.geometry, center=config.center))
    result = register(signals[0], signals[1], config.pair)
    _emit(
        {
            "config": asdict(config),
            "scale": result.scale,
            "angle_rad": result.angle,
            "confidence": result.confidence,
            "matched": result.matched,
        }
    )
    return 0 if result.matched else 4


# -- verify -----------------------------------------------------------------------------


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    rows = properties.verify_rows(config.geometry, config.seed, config.tol, config.pair_degenerate)
    failures = sum(1 for row in rows if row["pass"] is False)
    report = {"config": asdict(config), "results": rows, "failures": failures}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if config.out:
        _atomic_write(config.out, lambda tmp: open(tmp, "w").write(text))
    sys.stdout.write(text)
    return 3 if failures else 0


# -- parser ----------------------------------------------------------------------------


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algebra", type=Signature.parse, default=Signature.parse("Cl(0,2)"),
                        help="algebra name: Cl(2,0), Cl(1,1) or Cl(0,2)")
    parser.add_argument("--f", type=_parse_floats4, default=(0.0, 1.0, 0.0, 0.0),
                        help="first root of -1 as four blade coefficients m0,m1,m2,m12")
    parser.add_argument("--g", type=_parse_floats4, default=(0.0, 0.0, 1.0, 0.0),
                        help="second root of -1, same format")
    parser.add_argument("--ns", type=int, default=64, help="radial sample count (even)")
    parser.add_argument("--ntheta", type=int, default=64, help="angular sample count (even)")
    parser.add_argument("--smin", type=float, default=-np.pi, help="lower log-radius bound")
    parser.add_argument("--smax", type=float, default=np.pi, help="upper log-radius bound")
    parser.add_argument("--seed", type=int, default=0, help="PCG64 seed for random corpora")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override for verify gates")
    parser.add_argument("--out", type=str, default=None, help="output file path")
    parser.add_argument("--center", type=_parse_center, default=None,
                        help="image resampling center x,y (default: intensity centroid)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clifford-mellin",
                     description="Clifford Fourier-Mellin transforms, property checks, registration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", parents=[], help="transform a CLMS signal or PGM/PPM image")
    _add_shared(p)
    p.add_argument("inputs", nargs=1, metavar="INPUT")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("invert", help="invert a CLMF spectrum back to a CLMS signal")
    _add_shared(p)
    p.add_argument("inputs", nargs=1, metavar="SPECTRUM")
    p.set_defaults(handler=cmd_invert)

    p = sub.add_parser("fast-bench", help="benchmark the fast path against the direct sum")
    _add_shared(p)
    p.add_argument("--full-direct", action="store_true",
                   help="measure every direct bin instead of extrapolating")
    p.set_defaults(handler=cmd_fast_bench, ns=256, ntheta=256)

    p = sub.add_parser("verify", help="run the property suite and emit a JSON report")
    _add_shared(p)
    p.add_argument("--pair-degenerate", action="store_true",
                   help="also exercise the degenerate pair g = -f")
    p.set_defaults(handler=cmd_verify, ns=32, ntheta=32)

    p = sub.add_parser("split", help="split a multivector with respect to the root pair")
    _add_shared(p)
    p.add_argument("--x", type=_parse_floats4, required=True,
                   help="multivector to split, four blade coefficients")
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("register", help="estimate rotation/scale between two images")
    _add_shared(p)
    p.add_argument("inputs", nargs=2, metavar="IMAGE")
    p.set_defaults(handler=cmd_register)

    p = sub.add_parser("manifold", help="export the root manifold point cloud as CSV")
    _add_shared(p)
    p.add_argument("--resolution", type=int, default=33)
    p.set_defaults(handler=cmd_manifold)

    p = sub.add_parser("descriptor", help="export the invariant magnitude descriptor as CSV")
    _add_shared(p)
    p.add_argument("inputs", nargs=1, metavar="INPUT")
    p.set_defaults(handler=cmd_descriptor)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
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
