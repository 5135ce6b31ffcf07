"""Square roots of -1 in Cl(p,q), p+q=2, and validated root pairs.

Roots are parameterized by the chart f = b1*e1 + b2*e2 + beta*e12 with zero
scalar part and beta^2 = e2^2*b1^2 + e1^2*b2^2 + e1^2*e2^2, which traces a
quadric surface in each algebra: a unit sphere in Cl(0,2), a two-sheet
hyperboloid in Cl(2,0), and a signed quadric in Cl(1,1).

One root rule serves validate_root and random_roots: |a|^2, the sum of the
squared coefficients, is a finite float, |a*a + 1| <= ROOT_TOL * max(1, |a|^2)
and |scalar part| <= ROOT_TOL.  The bound grows with |a|^2 because roundoff in
a*a does, so every point the chart computes passes.  RootPair owns the pair
rules: operands in its algebra, and a blade-like pair where an identity needs one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import CL11, Multivector, Signature, principal_reverse_signs, scalar_product_array
from .errors import ContractError, NotARootError, OffManifoldError, SignatureMismatchError

ROOT_TOL = 1e-12

# random sampling windows; the Cl(1,1) and Cl(2,0) regions are unbounded and
# are restricted to parameters of magnitude at most 10
SAMPLING_BOUND = 10.0


def manifold_beta_squared(sig: Signature, b1, b2):
    """beta^2 required by the root constraint for the given (b1, b2), floats
    or arrays."""
    e1, e2 = sig.squares
    return e2 * b1 * b1 + e1 * b2 * b2 + e1 * e2


@dataclass(frozen=True)
class RootOfMinusOne:
    """A validated multivector f with f*f = -1 and zero scalar part."""

    value: Multivector

    @property
    def signature(self) -> Signature:
        return self.value.signature

    @property
    def b1(self) -> float:
        return float(self.value.coeffs[1])

    @property
    def b2(self) -> float:
        return float(self.value.coeffs[2])

    @property
    def beta(self) -> float:
        return float(self.value.coeffs[3])

    @property
    def parameters(self) -> tuple[float, float, float]:
        return (self.b1, self.b2, self.beta)

    @property
    def blade_like(self) -> bool:
        """True when the principal reverse negates the root."""
        flipped = self.value.coeffs * principal_reverse_signs(self.signature)
        return bool(np.all(np.abs(flipped + self.value.coeffs) <= ROOT_TOL))

    def exp(self, angle: float) -> Multivector:
        """exp(angle * f) = cos(angle) + f sin(angle), exact for f*f = -1."""
        return Multivector.scalar(self.signature, math.cos(angle)) + self.value * math.sin(
            angle
        )

    def __neg__(self) -> "RootOfMinusOne":
        return RootOfMinusOne(-self.value)


def _check_roots(sig: Signature, coeffs: np.ndarray) -> None:
    """The root rule on an (n, 4) array of candidates: the first row that breaks
    it raises NotARootError with its residual |a*a + 1|.  |a|^2 is formed
    first, so a row too large to square is refused without an overflow; e1,
    e2 and e12 anticommute, so a*a = Sc(a*a) + 2*a0*(a - a0)."""
    with np.errstate(over="ignore"):
        size = np.sum(coeffs * coeffs, axis=-1)
    fits = np.isfinite(size)
    a = np.where(fits[:, None], coeffs, 0.0)
    square = np.concatenate(
        [scalar_product_array(sig, a, a)[:, None], 2.0 * a[:, :1] * a[:, 1:]], axis=-1
    )
    scale = np.maximum(1.0, np.where(fits, size, 1.0))
    excess = (square + (1.0, 0.0, 0.0, 0.0)) / scale[:, None]
    relative = np.sqrt(np.sum(excess * excess, axis=-1))
    bad = ~fits | (relative > ROOT_TOL) | (np.abs(coeffs[:, 0]) > ROOT_TOL)
    if not np.any(bad):
        return
    i = int(np.argmax(bad))
    root = Multivector(sig, coeffs[i])
    residual = float(relative[i] * scale[i]) if fits[i] else math.inf
    if not fits[i]:
        reason = "is too large to square: |a|^2 overflows"
    elif relative[i] > ROOT_TOL:
        reason = f"squares to {Multivector(sig, square[i])!r}, not -1 (residual {residual:.3e})"
    else:
        reason = f"has nonzero scalar part {root.scalar_part:.3e}"
    raise NotARootError(f"{root!r} {reason}", residual)


def validate_root(a: Multivector) -> RootOfMinusOne:
    """Accept a as a square root of -1 under the root rule, or raise NotARootError."""
    _check_roots(a.signature, a.coeffs[None, :])
    return RootOfMinusOne(a)


def sample_root(sig: Signature, b1: float, b2: float, branch: int) -> RootOfMinusOne:
    """Root at chart point (b1, b2) with beta = branch * sqrt(beta^2).

    branch must be +1 or -1; it is never chosen at random so sampled roots
    are reproducible.
    """
    if branch not in (1, -1):
        raise OffManifoldError(f"branch must be +1 or -1, got {branch!r}")
    beta_sq = manifold_beta_squared(sig, b1, b2)
    if beta_sq < 0.0:
        raise OffManifoldError(
            f"({b1}, {b2}) is outside the admissible region of {sig.name}"
            f" (beta^2 = {beta_sq:.3e})"
        )
    beta = branch * math.sqrt(beta_sq)
    return validate_root(Multivector(sig, (0.0, b1, b2, beta)))


def random_roots(sig: Signature, n: int, seed: int) -> list[RootOfMinusOne]:
    """n validated roots with (b1, b2) drawn from the admissible region.

    Deterministic for a fixed seed (PCG64 generator).  In Cl(1,1) the region
    is unbounded, so b2 is drawn first with 1 <= |b2| <= 10 and b1 within the
    induced bound; Cl(2,0) uses the window [-10, 10]^2.
    """
    if n < 1:
        raise OffManifoldError(f"need n >= 1 roots, got {n}")
    rng = np.random.default_rng(seed)
    if sig.squares == (-1, -1):
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=n))
        angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
        b1, b2 = radius * np.cos(angle), radius * np.sin(angle)
    elif sig == CL11:
        b2 = rng.uniform(1.0, SAMPLING_BOUND, size=n) * rng.choice((-1.0, 1.0), size=n)
        b1 = rng.uniform(-1.0, 1.0, size=n) * np.sqrt(b2 * b2 - 1.0)
    else:
        b1 = rng.uniform(-SAMPLING_BOUND, SAMPLING_BOUND, size=n)
        b2 = rng.uniform(-SAMPLING_BOUND, SAMPLING_BOUND, size=n)
    branch = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    beta = branch * np.sqrt(manifold_beta_squared(sig, b1, b2))
    coeffs = np.stack([np.zeros(n), b1, b2, beta], axis=-1)
    _check_roots(sig, coeffs)
    return [RootOfMinusOne(Multivector(sig, c)) for c in coeffs]


@dataclass(frozen=True)
class RootPair:
    """Two square roots of -1 in the same algebra, parameterizing a split."""

    f: RootOfMinusOne
    g: RootOfMinusOne

    def __post_init__(self):
        if self.f.signature != self.g.signature:
            raise SignatureMismatchError(
                f"root pair mixes {self.f.signature.name} and {self.g.signature.name}"
            )

    @property
    def signature(self) -> Signature:
        return self.f.signature

    @property
    def degenerate(self) -> bool:
        """True when g equals f or -f componentwise."""
        fc, gc = self.f.value.coeffs, self.g.value.coeffs
        return bool(
            np.all(np.abs(gc - fc) <= ROOT_TOL) or np.all(np.abs(gc + fc) <= ROOT_TOL)
        )

    @property
    def blade_like(self) -> bool:
        """True when the principal reverse negates both roots."""
        return self.f.blade_like and self.g.blade_like

    def require_algebra(self, sig: Signature, what: str) -> None:
        """Refuse an operand from another algebra; what names it in the error."""
        if sig != self.signature:
            raise SignatureMismatchError(f"{what} in {sig.name}, roots in {self.signature.name}")

    def require_blade_like(self, operation: str) -> None:
        """Refuse a pair that is not blade-like for an operation whose identity
        holds only on blade-like pairs."""
        if not self.blade_like:
            raise ContractError(
                f"{operation} requires a pair with blade_like flag set"
                " (principal reverse must negate both roots)"
            )


def make_pair(f: Multivector, g: Multivector) -> RootPair:
    """Validate both multivectors and assemble a RootPair."""
    return RootPair(validate_root(f), validate_root(g))


def default_pair(sig: Signature) -> RootPair:
    """A canonical blade-like pair: (e1, e2) in Cl(0,2), else the unique
    blade-like root with its negative."""
    if sig.squares == (-1, -1):
        return make_pair(Multivector.blade(sig, 1), Multivector.blade(sig, 2))
    index = 3 if sig.squares == (1, 1) else 2
    # blade(..., -1.0) rather than -blade, which would carry -0.0 coefficients
    return make_pair(Multivector.blade(sig, index), Multivector.blade(sig, index, -1.0))


def export_manifold(sig: Signature, resolution: int) -> list[tuple[float, float, float, int]]:
    """Point cloud (b1, b2, beta, branch) covering the root manifold.

    Charts: polar (b1, b2) grids for Cl(0,2) (radius up to 1) and Cl(2,0)
    (radius up to 2); for Cl(1,1) both b2 sheets are swept directly in the
    transverse coordinate.  Duplicate points and the redundant branch row at
    beta = 0 are dropped, so resolution 2 yields the minimal cloud.
    """
    if resolution < 2:
        raise OffManifoldError(f"resolution must be >= 2, got {resolution}")
    points: list[tuple[float, float, float]] = []
    if sig == CL11:
        # both b2 sheets swept in the transverse coordinate w, where beta = w
        # exactly on this chart
        for b1 in np.linspace(-2.0, 2.0, resolution):
            for w in np.linspace(0.0, 2.0, resolution):
                mag = math.sqrt(1.0 + b1 * b1 + w * w)
                points.append((float(b1), mag, float(w)))
                points.append((float(b1), -mag, float(w)))
    else:
        max_radius = 1.0 if sig.squares == (-1, -1) else 2.0
        angles = 2.0 * math.pi * np.arange(resolution) / resolution
        for radius in np.linspace(0.0, max_radius, resolution):
            for angle in angles:
                b1 = float(radius * math.cos(angle))
                b2 = float(radius * math.sin(angle))
                beta_sq = manifold_beta_squared(sig, b1, b2)
                if beta_sq < -1e-12:
                    continue
                points.append((b1, b2, math.sqrt(max(beta_sq, 0.0))))
    rows: list[tuple[float, float, float, int]] = []
    seen = set()
    for b1, b2, beta in points:
        for branch in (1, -1):
            if branch == -1 and beta == 0.0:
                continue
            row = (b1, b2, branch * beta, branch)
            if row not in seen:
                seen.add(row)
                rows.append(row)
    return rows
