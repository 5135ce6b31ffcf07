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

from . import cfmt
from .algebra import Multivector, Signature, basis
from .errors import (
    CliffordMellinError,
    ContractError,
    DomainError,
    FormatError,
)
from .imaging import ingest, register, descriptor, to_log_polar
from .roots import (
    RootPair,
    default_pair,
    export_manifold,
    make_pair,
    random_roots,
    sample_root,
    validate_root,
)
from .signal import (
    GridGeometry,
    LogPolarSignal,
    norm as signal_norm,
    random_signal,
    read_clms,
    split_signal,
    write_clms,
)
from .split import exp_swap_check, f_split, mixed_scalar, recombine, split

DEFAULT_TOLERANCES = {
    "algebra": 1e-12,
    "split": 1e-10,
    "transform": 1e-10,
    "derivative": 1e-8,
    "power_scaling": 1e-5,
}


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


def _pairs_for_verify(sig: Signature, seed: int, include_degenerate: bool):
    named = [("blade", default_pair(sig))]
    roots = random_roots(sig, 2, seed=seed)
    named.append(("random", RootPair(roots[0], roots[1])))
    if include_degenerate:
        named.append(("degenerate", RootPair(roots[0], -roots[0])))
    return named


def _symmetry_pair(sig: Signature) -> RootPair:
    if sig.squares == (-1, -1):
        return default_pair(sig)
    if sig.squares == (1, 1):
        return RootPair(validate_root(basis(sig)[3]), sample_root(sig, 1.0, 0.0, 1))
    return RootPair(validate_root(basis(sig)[2]), sample_root(sig, 0.5, float(np.sqrt(1.5)), 1))


def _verify_rows(config: RunConfig) -> list[dict]:
    rows = []

    def add(prop, algebra, pair_name, residual, tolerance, note=None, gated=True):
        tol = config.tol if config.tol is not None else tolerance
        row = {
            "property": prop,
            "algebra": algebra,
            "pair": pair_name,
            "residual": float(residual),
            "tolerance": tol,
            "pass": bool(residual <= tol) if gated else None,
        }
        if note:
            row["note"] = note
        rows.append(row)

    def skip(prop, algebra, pair_name, reason):
        rows.append(
            {
                "property": prop,
                "algebra": algebra,
                "pair": pair_name,
                "residual": None,
                "tolerance": None,
                "pass": None,
                "status": f"skipped ({reason})",
            }
        )

    geometry = config.geometry
    rng = np.random.default_rng(config.seed)
    from .algebra import SIGNATURES, gp, principal_reverse_signs, scalar_product_array

    for sig in SIGNATURES:
        name = sig.name
        one, e1, e2, e12 = basis(sig)
        eps = sig.squares

        # multiplication rules on all basis-vector pairs
        residual = 0.0
        for k, a in enumerate((e1, e2)):
            for l, b in enumerate((e1, e2)):
                anti = a * b + b * a
                want = 2.0 * eps[k] if k == l else 0.0
                residual = max(
                    residual, float(np.max(np.abs(anti.coeffs - np.array([want, 0, 0, 0]))))
                )
        add("multiplication_rules", name, "-", residual, DEFAULT_TOLERANCES["algebra"])

        triples = rng.uniform(-1, 1, size=(3, 2000, 4))
        left = gp(sig, gp(sig, triples[0], triples[1]), triples[2])
        right = gp(sig, triples[0], gp(sig, triples[1], triples[2]))
        add("associativity", name, "-", np.max(np.abs(left - right)), DEFAULT_TOLERANCES["algebra"])

        blades = basis(sig)
        residual = 0.0
        for i, ea in enumerate(blades):
            for j, eb in enumerate(blades):
                value = float(
                    scalar_product_array(
                        sig,
                        ea.principal_reverse().coeffs,
                        eb.coeffs,
                    )
                )
                residual = max(residual, abs(value - (1.0 if i == j else 0.0)))
        add("basis_duality", name, "-", residual, DEFAULT_TOLERANCES["algebra"])

        samples = rng.uniform(-1, 1, size=(2000, 4))
        sq_coeffs = np.sum(samples * samples, axis=-1)
        sq_product = scalar_product_array(sig, samples, samples * principal_reverse_signs(sig))
        add(
            "modulus_identity",
            name,
            "-",
            np.max(np.abs(sq_coeffs - sq_product)),
            DEFAULT_TOLERANCES["algebra"],
        )

        for pair_name, pair in _pairs_for_verify(sig, config.seed + 1, config.pair_degenerate):
            h = random_signal(geometry, sig, seed=config.seed + 2)
            x = Multivector(sig, rng.uniform(-1, 1, size=4))

            parts = split(x, pair)
            back = recombine(parts)
            add(
                "split_reconstruction",
                name,
                pair_name,
                np.max(np.abs(back.coeffs - x.coeffs)),
                DEFAULT_TOLERANCES["split"],
            )
            fx = pair.f.value * parts.plus * pair.g.value
            residual = float(np.max(np.abs(fx.coeffs - parts.plus.coeffs)))
            fx = pair.f.value * parts.minus * pair.g.value
            residual = max(residual, float(np.max(np.abs(fx.coeffs + parts.minus.coeffs))))
            add("split_eigen_action", name, pair_name, residual, DEFAULT_TOLERANCES["split"])

            fg = pair.f.value * pair.g.value
            xpf, xmf = f_split(x, pair.f)
            combo = xpf * ((one + fg) * 0.5) + xmf * ((one - fg) * 0.5)
            add(
                "split_linear_combination",
                name,
                pair_name,
                np.max(np.abs(combo.coeffs - parts.plus.coeffs)),
                DEFAULT_TOLERANCES["split"],
            )

            add(
                "split_exp_swap",
                name,
                pair_name,
                exp_swap_check(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)), x, pair),
                DEFAULT_TOLERANCES["split"],
            )

            if pair.blade_like:
                y = Multivector(sig, rng.uniform(-1, 1, size=4))
                a, b = mixed_scalar(x, y, pair)
                add(
                    "split_orthogonality",
                    name,
                    pair_name,
                    max(abs(a), abs(b)),
                    DEFAULT_TOLERANCES["split"],
                )
            else:
                skip("split_orthogonality", name, pair_name, "non-blade-like pair")

            spectrum = cfmt.cfmt_forward(h, pair)
            add(
                "transform_round_trip",
                name,
                pair_name,
                cfmt.cfmt_inverse(spectrum).max_abs_diff(h),
                DEFAULT_TOLERANCES["transform"],
            )
            add(
                "transform_fast_vs_forward",
                name,
                pair_name,
                cfmt.cfmt_fast(h, pair).max_abs_diff(spectrum),
                DEFAULT_TOLERANCES["transform"],
            )
            residual = 0.0
            for _ in range(8):
                i = int(rng.integers(geometry.n_s))
                t = int(rng.integers(geometry.n_theta))
                direct = cfmt.cfmt_direct(
                    h, pair, float(geometry.v_values[i]), float(geometry.k_values[t])
                )
                residual = max(residual, float(np.max(np.abs(direct.coeffs - spectrum.coeffs[i, t]))))
            add("transform_direct_oracle", name, pair_name, residual, DEFAULT_TOLERANCES["transform"])

            plus_sig, minus_sig = split_signal(h, pair)
            plus_spec, minus_spec = spectrum.split()
            residual = max(
                cfmt.cfmt_forward(plus_sig, pair).max_abs_diff(plus_spec),
                cfmt.cfmt_forward(minus_sig, pair).max_abs_diff(minus_spec),
            )
            add("split_transform_commutation", name, pair_name, residual, DEFAULT_TOLERANCES["transform"])

            p, q = int(rng.integers(-10, 11)), int(rng.integers(-10, 11))
            shifted = cfmt.apply_scale_rotate(h, p, q)
            shifted_spec = cfmt.cfmt_forward(shifted, pair)
            predicted = cfmt.predicted_shift_spectrum(spectrum, p, q)
            add(
                "scale_rotate_covariance",
                name,
                pair_name,
                shifted_spec.max_abs_diff(predicted),
                DEFAULT_TOLERANCES["transform"],
            )
            mag_residual = float(np.max(np.abs(shifted_spec.magnitude() - spectrum.magnitude())))
            if pair.blade_like:
                add(
                    "magnitude_invariance",
                    name,
                    pair_name,
                    mag_residual,
                    DEFAULT_TOLERANCES["transform"],
                )
            else:
                add(
                    "magnitude_invariance",
                    name,
                    pair_name,
                    mag_residual,
                    DEFAULT_TOLERANCES["transform"],
                    note="recorded only; identity asserted for blade-like pairs",
                    gated=False,
                )

            if pair.blade_like:
                plus_mag = plus_spec.magnitude() ** 2
                minus_mag = minus_spec.magnitude() ** 2
                total = spectrum.magnitude() ** 2
                scale = max(1.0, float(np.max(total)))
                add(
                    "spectral_modulus_pythagoras",
                    name,
                    pair_name,
                    float(np.max(np.abs(total - plus_mag - minus_mag))) / scale,
                    1e-12,
                )
            else:
                skip("spectral_modulus_pythagoras", name, pair_name, "non-blade-like pair")

            h2 = random_signal(geometry, sig, seed=config.seed + 3)
            alpha = Multivector.scalar(sig, 0.7) + 0.4 * pair.f.value
            beta_r = Multivector.scalar(sig, -1.1) + 0.8 * pair.g.value
            left_res, right_res = cfmt.check_linearity(
                h, h2, pair, alpha, Multivector.scalar(sig, 1.5), Multivector.scalar(sig, 0.3), beta_r
            )
            add("left_linearity", name, pair_name, left_res, DEFAULT_TOLERANCES["transform"])
            add("right_linearity", name, pair_name, right_res, DEFAULT_TOLERANCES["transform"])

            rev_s = (-np.arange(geometry.n_s)) % geometry.n_s
            rev_t = (-np.arange(geometry.n_theta)) % geometry.n_theta
            reflected = cfmt.cfmt_forward(cfmt.reflect_circle(h), pair)
            add(
                "reflection_radial",
                name,
                pair_name,
                np.max(np.abs(reflected.coeffs - spectrum.coeffs[rev_s, :, :])),
                DEFAULT_TOLERANCES["transform"],
            )
            reversed_spec = cfmt.cfmt_forward(cfmt.reverse_rotation(h), pair)
            add(
                "reflection_angular",
                name,
                pair_name,
                np.max(np.abs(reversed_spec.coeffs - spectrum.coeffs[:, rev_t, :])),
                DEFAULT_TOLERANCES["transform"],
            )

            j0, k0 = int(rng.integers(-8, 9)), int(rng.integers(-8, 9))
            moved = cfmt.modulate(h, pair, j0 * geometry.dv, k0)
            expected = np.roll(spectrum.coeffs, (j0, k0), axis=(0, 1))
            add(
                "modulation_shift",
                name,
                pair_name,
                np.max(np.abs(cfmt.cfmt_forward(moved, pair).coeffs - expected)),
                DEFAULT_TOLERANCES["transform"],
            )

            smooth = random_signal(geometry, sig, seed=config.seed + 4, band_limit=4)
            for order in (1, 2):
                result = cfmt.check_derivative_theorems(smooth, pair, order)
                add(
                    f"derivative_radial_order_{order}",
                    name,
                    pair_name,
                    result.radial_residual,
                    DEFAULT_TOLERANCES["derivative"],
                )
                add(
                    f"derivative_angular_order_{order}",
                    name,
                    pair_name,
                    result.angular_residual,
                    DEFAULT_TOLERANCES["derivative"],
                )

            s_col = geometry.s_values[:, None]
            t_row = geometry.theta_values[None, :]
            bump = np.exp(-((s_col / (0.25 * geometry.span)) ** 2)) * np.exp(
                -(((t_row - np.pi) / 0.5) ** 2)
            )
            bump_signal = LogPolarSignal.from_channels(geometry, sig, m0=bump)
            for m_ord, n_ord in ((1, 0), (0, 1), (1, 1)):
                add(
                    f"power_scaling_{m_ord}{n_ord}",
                    name,
                    pair_name,
                    cfmt.check_power_scaling(bump_signal, pair, m_ord, n_ord),
                    DEFAULT_TOLERANCES["power_scaling"],
                )

            if pair.blade_like:
                lhs, rhs = cfmt.plancherel_check(h, h2, pair)
                add(
                    "plancherel",
                    name,
                    pair_name,
                    abs(lhs - rhs) / max(abs(lhs), 1e-30),
                    DEFAULT_TOLERANCES["transform"],
                )
                n_sig, n_spec, plus_sq, minus_sq = cfmt.parseval_check(h, pair)
                residual = max(
                    abs(n_sig - n_spec) / max(n_sig, 1e-30),
                    abs(n_spec**2 - plus_sq - minus_sq) / max(n_spec**2, 1e-30),
                )
                add("parseval", name, pair_name, residual, DEFAULT_TOLERANCES["transform"])
            else:
                skip("plancherel", name, pair_name, "non-blade-like pair")
                skip("parseval", name, pair_name, "non-blade-like pair")

            if pair_name == "degenerate":
                skip("symmetry_separation", name, pair_name, "g=±f")

        pair = _symmetry_pair(sig)
        real = random_signal(geometry, sig, seed=config.seed + 5, channels=(0,))
        try:
            components = cfmt.symmetry_decompose(real, pair)
            add(
                "symmetry_separation",
                name,
                "symmetry",
                max(components.off_span.values()),
                DEFAULT_TOLERANCES["transform"],
            )
        except ContractError as exc:
            rows.append(
                {
                    "property": "symmetry_separation",
                    "algebra": name,
                    "pair": "symmetry",
                    "residual": None,
                    "tolerance": None,
                    "pass": False,
                    "status": str(exc),
                }
            )

    return rows


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    rows = _verify_rows(config)
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
