"""The two-root split x = x_plus + x_minus with x_pm = (x +- f x g)/2.

The sandwich map x -> f x g is an involution, and the two split parts are
its +1/-1 eigenvectors.  With g = -f the split reduces to the decomposition
into parts commuting and anticommuting with f.  For blade-like pairs
(principal reverse negates both roots) the parts are orthogonal, which gives
the Pythagorean modulus identity used by the transform theorems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, left_matrix, right_matrix
from .roots import RootOfMinusOne, RootPair


@dataclass(frozen=True)
class SplitPair:
    """Eigenvector parts (plus, minus) of the sandwich map for a root pair."""

    plus: Multivector
    minus: Multivector
    pair: RootPair


def split(x: Multivector, pair: RootPair) -> SplitPair:
    """x_pm = (x +- f x g)/2."""
    pair.require_algebra(x.signature, "value")
    sandwich = pair.f.value * x * pair.g.value
    return SplitPair(0.5 * (x + sandwich), 0.5 * (x - sandwich), pair)


def recombine(sp: SplitPair) -> Multivector:
    return sp.plus + sp.minus


def sandwich_matrix(pair: RootPair) -> np.ndarray:
    """Matrix S = L_f R_g with S @ x = coefficients of f x g.

    S is an involution that commutes with R_g, and S != +-I because no root
    of -1 is central; so its +-1 eigenspaces are two R_g-invariant planes."""
    sig = pair.signature
    return left_matrix(sig, pair.f.value.coeffs) @ right_matrix(sig, pair.g.value.coeffs)


def split_array(samples: np.ndarray, pair: RootPair) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise split of a (...,4) coefficient array."""
    sandwich = samples @ sandwich_matrix(pair).T
    return 0.5 * (samples + sandwich), 0.5 * (samples - sandwich)


def f_split(x: Multivector, f: RootOfMinusOne) -> tuple[Multivector, Multivector]:
    """Parts of x commuting and anticommuting with f.

    Uses the closed form f^-1 = -f, so the commuting part is (x - f x f)/2.
    A value from another algebra raises SignatureMismatchError in the product.
    """
    sandwich = f.value * x * f.value
    return 0.5 * (x - sandwich), 0.5 * (x + sandwich)


def mixed_scalar(x: Multivector, y: Multivector, pair: RootPair) -> tuple[float, float]:
    """Scalar parts Sc(x_plus ~y_minus) and Sc(x_minus ~y_plus).

    Both vanish for blade-like pairs; the blade_like flag is a precondition
    and violating it raises ContractError.
    """
    pair.require_blade_like("mixed_scalar")
    xs = split(x, pair)
    ys = split(y, pair)
    first = (xs.plus * ys.minus.principal_reverse()).scalar_part
    second = (xs.minus * ys.plus.principal_reverse()).scalar_part
    return first, second


def exp_swap_check(alpha: float, beta: float, x: Multivector, pair: RootPair) -> float:
    """Largest componentwise discrepancy in the exponential swap identity.

    For both split parts of x the three expressions
    exp(alpha f) x_pm exp(beta g), x_pm exp((beta -+ alpha) g) and
    exp((alpha -+ beta) f) x_pm must coincide.
    """
    parts = split(x, pair)
    exp_f = pair.f.exp(alpha)
    exp_g = pair.g.exp(beta)
    residual = 0.0
    for sign, part in ((+1.0, parts.plus), (-1.0, parts.minus)):
        sandwich = exp_f * part * exp_g
        right_only = part * pair.g.exp(beta - sign * alpha)
        left_only = pair.f.exp(alpha - sign * beta) * part
        residual = max(
            residual,
            float(np.max(np.abs(sandwich.coeffs - right_only.coeffs))),
            float(np.max(np.abs(sandwich.coeffs - left_only.coeffs))),
        )
    return residual
