"""The two-root split x = x_plus + x_minus with x_pm = (x +- f x g)/2.

The sandwich map x -> f x g is an involution, and the two split parts are
its +1/-1 eigenvectors.  With g = -f the split reduces to the decomposition
into parts commuting and anticommuting with f.  For blade-like pairs
(principal reverse negates both roots) the parts are orthogonal, which gives
the Pythagorean modulus identity used by the transform theorems.

split_array reads the sandwich S = L_f R_g from the pair's plan
(RootPair.plan), which cfmt's FFT routes read too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector
from .roots import RootOfMinusOne, RootPair


@dataclass(frozen=True)
class SplitPair:
    """Eigenvector parts (plus, minus) of the sandwich map for a root pair."""

    plus: Multivector
    minus: Multivector


def split(x: Multivector, pair: RootPair) -> SplitPair:
    """x_pm = (x +- f x g)/2."""
    pair.require_algebra(x.signature, "value")
    sandwich = pair.f.value * x * pair.g.value
    return SplitPair(0.5 * (x + sandwich), 0.5 * (x - sandwich))


def split_array(samples: np.ndarray, pair: RootPair) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise split of a (...,4) coefficient array by the plan's S."""
    sandwich = samples @ pair.plan.sandwich.T
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
