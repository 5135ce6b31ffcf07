"""The paper's properties as one table, and the loop that checks them.

Each ``Property`` holds a name, a default tolerance, the pairs it runs on,
the rules it needs and a check that returns the residual.  Each rule gives
a reason the case is out of scope, or None; the first reason is the one way
a row reads ``skipped``.  ``case_rows`` runs the table, or the rows it is
named, on one ``Case``; ``verify_rows`` runs it on verify's cases over the
three algebras, and is what ``clifford-mellin verify`` prints.  The
acceptance criteria run the same rows on cases of their own.  Every random
draw comes from the generator a case is given, shared by a run's cases in
table order; the test signals seed their own generators.  Each result that
several rows share is built once, at the widest scope it allows.  The fixed
pairs (``roots.default_pair``, ``symmetry_pair``) are built once per process
and algebra.  ``draw_signals`` draws verify's test signals, whose samples
depend on the grid and the seed but not the algebra; ``run_inputs`` derives
once what depends on the given signals alone (the smooth signal's spectral
derivatives and band-limit flag, the bump's seam fraction and its pair-free
power-scaling grid sums) and returns one namespace per algebra with the
signals tagged with its signature.  What also depends on the pair (the
spectra of h and h2, the split of h's, the power-scaling residuals, from the
shared sums) is built once per ``Case``, which hands it to the private
kernels behind cfmt's public checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import algebra, cfmt, roots, signal
from .algebra import SIGNATURES, Multivector, Signature, basis
from .errors import ContractError
from .roots import RootPair
from .signal import GridGeometry, LogPolarSignal, split_signal
from .split import exp_swap_check, f_split, mixed_scalar, split

TOLERANCES = {
    "algebra": 1e-12,
    "split": 1e-10,
    "transform": 1e-10,
    "derivative": 1e-8,
    "power_scaling": 1e-5,
}

ON_ALGEBRA = ("-",)  # properties of the algebra itself, pair "-"
ON_PAIRS = ("blade", "random", "degenerate")
POWER_ORDERS = ((1, 0), (0, 1), (1, 1))


@cache
def symmetry_pair(sig: Signature) -> RootPair:
    """A pair for which (1, f, g, fg) is a well-conditioned basis, so the
    parity components of a real signal land in separate channels.  Built
    once per process and algebra, like roots.default_pair."""
    if sig.squares == (-1, -1):
        return roots.default_pair(sig)
    if sig.squares == (1, 1):
        return RootPair(roots.validate_root(basis(sig)[3]), roots.sample_root(sig, 1.0, 0.0, 1))
    return RootPair(
        roots.validate_root(basis(sig)[2]), roots.sample_root(sig, 0.5, float(np.sqrt(1.5)), 1)
    )


def verify_pairs(sig: Signature, seed: int, include_degenerate: bool):
    """(name, pair) in report order; the algebra's own rows come first."""
    f, g = roots.random_roots(sig, 2, seed=seed + 1)
    named = [("-", None), ("blade", roots.default_pair(sig)), ("random", RootPair(f, g))]
    if include_degenerate:
        named.append(("degenerate", RootPair(f, -f)))
    return named + [("symmetry", symmetry_pair(sig))]


def draw_signals(geometry: GridGeometry, seed: int) -> dict[str, LogPolarSignal]:
    """verify's test signals, each seeding its own generator.  Their samples
    depend on the grid and the seed, not the algebra, so they are drawn once,
    in Cl(2,0)."""

    def draw(offset: int, **options) -> LogPolarSignal:
        return signal.random_signal(geometry, SIGNATURES[0], seed=seed + offset, **options)

    s_col, t_row = geometry.s_values[:, None], geometry.theta_values[None, :]
    radial = np.exp(-((s_col / (0.25 * geometry.span)) ** 2))
    bump = LogPolarSignal.from_channels(
        geometry, SIGNATURES[0], m0=radial * np.exp(-(((t_row - np.pi) / 0.5) ** 2)))
    return {"bump": bump, "h": draw(2), "h2": draw(3), "smooth": draw(4, band_limit=4),
            "real": draw(5, channels=(0,))}


def run_inputs(signals: dict[str, LogPolarSignal]) -> dict[Signature, SimpleNamespace]:
    """The given test signals, all on one grid, and what the rows derive
    from them alone, as one namespace per algebra with each signal tagged
    with its signature: from ``smooth`` its spectral derivatives and
    band-limit flag, from ``bump`` its seam fraction and power-scaling grid
    sums.  Samples do not depend on the algebra, so each is derived once for
    all three.  With no signals a namespace holds its algebra alone, which
    is all the algebra and split rows read."""
    geometry = next(iter(signals.values())).geometry if signals else None
    shared, derivatives = {"geometry": geometry}, {}
    if (smooth := signals.get("smooth")) is not None:
        shared["band_limited"] = cfmt._band_limited(smooth)
        derivatives = {n: cfmt._spectral_derivatives(smooth, n) for n in (1, 2)}
    if (bump := signals.get("bump")) is not None:
        shared["bump_seam"] = cfmt._seam_fraction(bump)
        shared["power_sums"] = cfmt._scaling_sums(bump, POWER_ORDERS)

    def tag(h: LogPolarSignal, sig: Signature) -> LogPolarSignal:
        return LogPolarSignal(geometry, sig, h.samples)

    return {sig: SimpleNamespace(
        **shared, sig=sig, **{name: tag(h, sig) for name, h in signals.items()},
        derivatives={n: (tag(radial, sig), tag(angular, sig))
                     for n, (radial, angular) in derivatives.items()})
        for sig in SIGNATURES}


class Case:
    """One pair of one algebra, with the shared generator and each result
    that several properties use, built on first use."""

    def __init__(self, signals: SimpleNamespace, name: str, pair: RootPair | None, rng):
        self.signals, self.name, self.pair, self.rng = signals, name, pair, rng
        self.sig, self.geometry = signals.sig, signals.geometry

    @property
    def h(self) -> LogPolarSignal:
        return self.signals.h

    @cached_property
    def x(self) -> Multivector:
        return Multivector(self.sig, self.rng.uniform(-1, 1, size=4))

    @cached_property
    def parts(self):
        return split(self.x, self.pair)

    @cached_property
    def spectrum(self) -> cfmt.Spectrum:
        return cfmt.cfmt_forward(self.h, self.pair)

    @cached_property
    def spectrum2(self) -> cfmt.Spectrum:
        return cfmt.cfmt_forward(self.signals.h2, self.pair)

    @cached_property
    def split_spectra(self):
        return self.spectrum.split()

    @cached_property
    def shifted(self):
        """The spectrum of h scaled and rotated by random steps, and its prediction."""
        p, q = int(self.rng.integers(-10, 11)), int(self.rng.integers(-10, 11))
        shifted = cfmt.cfmt_forward(cfmt.apply_scale_rotate(self.h, p, q), self.pair)
        return shifted, cfmt.predicted_shift_spectrum(self.spectrum, p, q)

    @property
    def coefficients(self) -> tuple[Multivector, ...]:
        """(alpha, beta) in span{1, f} and (alpha_right, beta_right) in span{1, g}."""
        sig, f, g = self.sig, self.pair.f.value, self.pair.g.value
        return (Multivector.scalar(sig, 0.7) + 0.4 * f, Multivector.scalar(sig, 1.5),
                Multivector.scalar(sig, 0.3), Multivector.scalar(sig, -1.1) + 0.8 * g)

    @cached_property
    def linearity(self) -> tuple[float, float]:
        return cfmt._linearity(self.h, self.signals.h2, self.spectrum, self.spectrum2,
                               *self.coefficients)

    @cached_property
    def derivatives(self) -> dict:
        base = cfmt.cfmt_forward(self.signals.smooth, self.pair)
        return cfmt._derivative_checks(base, self.signals.derivatives, self.signals.band_limited)

    @cached_property
    def power_scaling(self) -> dict:
        return cfmt._scaling_residuals(self.signals.power_sums, self.pair, self.geometry)


# -- rules: each gives the reason to skip a case, or None -------------------------------


def _blade_like(case: Case) -> str | None:
    return None if case.pair.blade_like else "non-blade-like pair"


def _distinct(case: Case) -> str | None:
    return "g=±f" if case.pair.degenerate else None


def _symmetric_window(case: Case) -> str | None:
    return None if case.geometry.is_symmetric else "asymmetric radial window"


def _cyclic_modulation(case: Case) -> str | None:
    """A radial shift wraps cyclically only when n_s*s_min/span is an integer."""
    offset = case.geometry.n_s * case.geometry.s_min / case.geometry.span
    cyclic = abs(offset - round(offset)) <= 1e-9 * max(1.0, abs(offset))
    return None if cyclic else "n_s*s_min/span not an integer"


def _band_limited(case: Case) -> str | None:
    """The spectral derivatives are exact only for a band-limited signal."""
    return None if case.signals.band_limited else "test signal not band-limited on this grid"


def _seam_free(case: Case) -> str | None:
    """Power scaling in theta needs a bump with no energy on the theta seam."""
    return None if case.signals.bump_seam is None else "test bump carries energy on the theta seam"


# -- checks: each returns the residual of one property ----------------------------------


def _multiplication_rules(case: Case) -> float:
    _, e1, e2, _ = basis(case.sig)
    residual = 0.0
    for k, a in enumerate((e1, e2)):
        for l, b in enumerate((e1, e2)):
            want = 2.0 * case.sig.squares[k] if k == l else 0.0
            anti = a * b + b * a
            residual = max(residual, float(np.max(np.abs(anti.coeffs - np.array([want, 0, 0, 0])))))
    return residual


def _associativity(case: Case) -> float:
    sig = case.sig
    triples = case.rng.uniform(-1, 1, size=(3, 2000, 4))
    left = algebra.gp(sig, algebra.gp(sig, triples[0], triples[1]), triples[2])
    right = algebra.gp(sig, triples[0], algebra.gp(sig, triples[1], triples[2]))
    return np.max(np.abs(left - right))


def _basis_duality(case: Case) -> float:
    sig = case.sig
    blades = basis(sig)
    residual = 0.0
    for i, ea in enumerate(blades):
        reversed_a = ea.principal_reverse().coeffs
        for j, eb in enumerate(blades):
            value = float(algebra.scalar_product_array(sig, reversed_a, eb.coeffs))
            residual = max(residual, abs(value - (1.0 if i == j else 0.0)))
    return residual


def _modulus_identity(case: Case) -> float:
    sig = case.sig
    samples = case.rng.uniform(-1, 1, size=(2000, 4))
    sq_coeffs = np.sum(samples * samples, axis=-1)
    signs = algebra.principal_reverse_signs(sig)
    sq_product = algebra.scalar_product_array(sig, samples, samples * signs)
    return np.max(np.abs(sq_coeffs - sq_product))


def _split_eigen_action(case: Case) -> float:
    f, g = case.pair.f.value, case.pair.g.value
    plus, minus = case.parts.plus, case.parts.minus
    residual = float(np.max(np.abs((f * plus * g).coeffs - plus.coeffs)))
    return max(residual, float(np.max(np.abs((f * minus * g).coeffs + minus.coeffs))))


def _split_linear_combination(case: Case) -> float:
    one = basis(case.sig)[0]
    fg = case.pair.f.value * case.pair.g.value
    xpf, xmf = f_split(case.x, case.pair.f)
    combo = xpf * ((one + fg) * 0.5) + xmf * ((one - fg) * 0.5)
    return np.max(np.abs(combo.coeffs - case.parts.plus.coeffs))


def _split_orthogonality(case: Case) -> float:
    y = Multivector(case.sig, case.rng.uniform(-1, 1, size=4))
    a, b = mixed_scalar(case.x, y, case.pair)
    return max(abs(a), abs(b))


def _transform_direct_oracle(case: Case) -> float:
    geo, rng = case.geometry, case.rng
    i, t = np.array([(rng.integers(geo.n_s), rng.integers(geo.n_theta)) for _ in range(8)]).T
    direct = cfmt._direct_sums(case.h, case.pair, geo.v_values[i], geo.k_values[t])
    return np.max(np.abs(direct - case.spectrum.coeffs[i, t]))


def _split_transform_commutation(case: Case) -> float:
    plus_sig, minus_sig = split_signal(case.h, case.pair)
    plus_spec, minus_spec = case.split_spectra
    return max(
        cfmt.cfmt_forward(plus_sig, case.pair).max_abs_diff(plus_spec),
        cfmt.cfmt_forward(minus_sig, case.pair).max_abs_diff(minus_spec),
    )


def _spectral_modulus_pythagoras(case: Case) -> float:
    plus, minus = case.split_spectra
    total = case.spectrum.magnitude() ** 2
    scale = max(1.0, float(np.max(total)))
    return float(np.max(np.abs(total - plus.magnitude() ** 2 - minus.magnitude() ** 2))) / scale


def _reflection(case: Case, axis: int) -> float:
    """s -> -s (axis 0) or theta -> -theta (axis 1) negates that frequency index."""
    reflect = cfmt.reflect_circle if axis == 0 else cfmt.reverse_rotation
    reflected = cfmt.cfmt_forward(reflect(case.h), case.pair).coeffs
    index = cfmt._reversal_index(reflected.shape[axis])
    return np.max(np.abs(reflected - np.take(case.spectrum.coeffs, index, axis)))


def _modulation_shift(case: Case) -> float:
    j0, k0 = int(case.rng.integers(-8, 9)), int(case.rng.integers(-8, 9))
    moved = cfmt.modulate(case.h, case.pair, j0 * case.geometry.dv, k0)
    expected = np.roll(case.spectrum.coeffs, (j0, k0), axis=(0, 1))
    return np.max(np.abs(cfmt.cfmt_forward(moved, case.pair).coeffs - expected))


def _plancherel(case: Case) -> float:
    lhs, rhs = cfmt._plancherel(case.h, case.signals.h2, case.spectrum, case.spectrum2)
    return abs(lhs - rhs) / max(abs(lhs), 1e-30)


def _parseval(case: Case) -> float:
    n_sig, n_spec, plus_sq, minus_sq = cfmt._parseval(case.h, case.spectrum, case.split_spectra)
    return max(
        abs(n_sig - n_spec) / max(n_sig, 1e-30),
        abs(n_spec**2 - plus_sq - minus_sq) / max(n_spec**2, 1e-30),
    )


# -- the table --------------------------------------------------------------------------


@dataclass(frozen=True)
class Property:
    """One row kind of the report, present on ``pairs`` and skipped by the
    first rule in ``needs`` that gives a reason.  ``record_off_blade`` keeps
    the residual but no verdict on pairs that are not blade-like."""

    name: str
    tolerance: float
    check: Callable[[Case], float]
    pairs: tuple[str, ...] = ON_PAIRS
    needs: tuple[Callable[[Case], str | None], ...] = ()
    record_off_blade: bool = False


_ALGEBRA, _SPLIT, _TRANSFORM = (TOLERANCES[k] for k in ("algebra", "split", "transform"))

TABLE = (
    Property("multiplication_rules", _ALGEBRA, _multiplication_rules, ON_ALGEBRA),
    Property("associativity", _ALGEBRA, _associativity, ON_ALGEBRA),
    Property("basis_duality", _ALGEBRA, _basis_duality, ON_ALGEBRA),
    Property("modulus_identity", _ALGEBRA, _modulus_identity, ON_ALGEBRA),
    Property("split_reconstruction", _SPLIT,
             lambda c: np.max(np.abs((c.parts.plus + c.parts.minus).coeffs - c.x.coeffs))),
    Property("split_eigen_action", _SPLIT, _split_eigen_action),
    Property("split_linear_combination", _SPLIT, _split_linear_combination),
    Property("split_exp_swap", _SPLIT,
             lambda c: exp_swap_check(*map(float, c.rng.uniform(-5, 5, size=2)), c.x, c.pair)),
    Property("split_orthogonality", _SPLIT, _split_orthogonality, needs=(_blade_like,)),
    Property("transform_round_trip", _TRANSFORM,
             lambda c: cfmt.cfmt_inverse(c.spectrum).max_abs_diff(c.h)),
    Property("transform_fast_vs_forward", _TRANSFORM,
             lambda c: cfmt.cfmt_fast(c.h, c.pair).max_abs_diff(c.spectrum)),
    Property("transform_direct_oracle", _TRANSFORM, _transform_direct_oracle),
    Property("split_transform_commutation", _TRANSFORM, _split_transform_commutation),
    Property("scale_rotate_covariance", _TRANSFORM,
             lambda c: c.shifted[0].max_abs_diff(c.shifted[1])),
    Property("magnitude_invariance", _TRANSFORM,
             lambda c: float(np.max(np.abs(c.shifted[0].magnitude() - c.spectrum.magnitude()))),
             record_off_blade=True),
    Property("spectral_modulus_pythagoras", 1e-12, _spectral_modulus_pythagoras,
             needs=(_blade_like,)),
    Property("left_linearity", _TRANSFORM, lambda c: c.linearity[0]),
    Property("right_linearity", _TRANSFORM, lambda c: c.linearity[1]),
    Property("reflection_radial", _TRANSFORM, lambda c: _reflection(c, 0),
             needs=(_symmetric_window,)),
    Property("reflection_angular", _TRANSFORM, lambda c: _reflection(c, 1)),
    Property("modulation_shift", _TRANSFORM, _modulation_shift, needs=(_cyclic_modulation,)),
    *(Property(f"derivative_{axis}_order_{n}", TOLERANCES["derivative"],
               lambda c, n=n, axis=axis: getattr(c.derivatives[n], f"{axis}_residual"),
               needs=(_band_limited,))
      for n in (1, 2) for axis in ("radial", "angular")),
    *(Property(f"power_scaling_{m}{n}", TOLERANCES["power_scaling"],
               lambda c, m=m, n=n: c.power_scaling[m, n], needs=(_seam_free,) if n else ())
      for m, n in POWER_ORDERS),
    Property("plancherel", _TRANSFORM, _plancherel, needs=(_blade_like,)),
    Property("parseval", _TRANSFORM, _parseval, needs=(_blade_like,)),
    Property("symmetry_separation", _TRANSFORM,
             lambda c: max(cfmt.symmetry_decompose(c.signals.real, c.pair).off_span.values()),
             ("degenerate", "symmetry"), needs=(_distinct, _symmetric_window)),
)


_UNMEASURED = {"residual": None, "tolerance": None}


def _row(prop: Property, case: Case, tol: float | None) -> dict:
    row = {"property": prop.name, "algebra": case.sig.name, "pair": case.name}
    try:
        reason = next((reason for rule in prop.needs if (reason := rule(case))), None)
        if reason:
            return {**row, **_UNMEASURED, "pass": None, "status": f"skipped ({reason})"}
        residual = float(prop.check(case))
    except ContractError as exc:
        return {**row, **_UNMEASURED, "pass": False, "status": str(exc)}
    tolerance = tol if tol is not None else prop.tolerance
    row.update({"residual": residual, "tolerance": tolerance, "pass": residual <= tolerance})
    if prop.record_off_blade and not case.pair.blade_like:
        row.update({"pass": None, "note": "recorded only; identity asserted for blade-like pairs"})
    if not np.isfinite(residual):  # strict JSON has no nan or inf; "pass" is decided above
        row.update({"residual": None, "status": f"residual is {residual}"})
    return row


def case_rows(case: Case, names=None, tol: float | None = None) -> list[dict]:
    """The rows of TABLE present on the case's pair, in table order, or only
    those named in ``names``; ``tol`` replaces every default tolerance."""
    return [_row(prop, case, tol) for prop in TABLE
            if case.name in prop.pairs and (names is None or prop.name in names)]


def verify_rows(
    geometry: GridGeometry, seed: int, tol: float | None = None, include_degenerate: bool = False
) -> list[dict]:
    """One row per property and case over the three algebras; ``tol``
    replaces every default tolerance."""
    rng = np.random.default_rng(seed)
    rows = []
    for sig, signals in run_inputs(draw_signals(geometry, seed)).items():
        for name, pair in verify_pairs(sig, seed, include_degenerate):
            rows += case_rows(Case(signals, name, pair, rng), tol=tol)
    return rows
