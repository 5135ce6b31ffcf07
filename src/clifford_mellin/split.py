"""The two-root split x = x_plus + x_minus with x_pm = (x +- f x g)/2.

The sandwich map x -> f x g is an involution, and the two split parts are
its +1/-1 eigenvectors.  With g = -f the split reduces to the decomposition
into parts commuting and anticommuting with f.  For blade-like pairs
(principal reverse negates both roots) the parts are orthogonal, which gives
the Pythagorean modulus identity used by the transform theorems.

The 4x4 matrices a root pair fixes are its plan, _Plan, built once per pair
value by _plan and shared by split_array and cfmt's FFT routes.  Its sandwich
S = L_f R_g commutes with R_g, and S != +-I because no root of -1 is central;
so the +-1 eigenspaces of S are two R_g-invariant planes: the split basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import Multivector, Signature, left_matrix, right_matrix
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


# entries kept by each plan cache: root pairs in _cached_plan, grid and route
# arguments in cfmt._radial_rotations
PLAN_CACHE_SIZE = 64


def _plane_basis(j_matrix: np.ndarray) -> np.ndarray:
    """Column basis (u1, J u1, u3, J u3) splitting R^4 into two J-invariant
    planes, for J with J @ J = -I, so that J is multiplication by i in each.
    u1 is the scalar unit; u3 is the standard basis vector giving the largest
    determinant."""
    candidates = np.empty((3, 4, 4))  # one per u3 = e1, e2, e12
    candidates[:, :, 0], candidates[:, :, 1] = np.eye(4)[0], j_matrix[:, 0]
    candidates[:, :, 2], candidates[:, :, 3] = np.eye(4)[1:], j_matrix[:, 1:].T
    return candidates[np.argmax(np.abs(np.linalg.det(candidates)))]


def _split_basis(sandwich: np.ndarray, j_matrix: np.ndarray) -> np.ndarray:
    """Column basis (u+, R_g u+, u-, R_g u-) of the +-1 eigenplanes of the
    sandwich S = L_f R_g, given S and j_matrix = R_g, with u+- the largest
    column of the projector (I +- S)/2.  Each projector is nonzero and its
    range is one R_g-invariant plane, on which R_g has no real eigenvector; so
    the basis is invertible for every pair, g = +-f included."""
    columns = []
    for sign in (+1.0, -1.0):
        projector = 0.5 * (np.eye(4) + sign * sandwich)
        u = projector[:, np.argmax(np.sum(projector * projector, axis=0))]
        columns += [u, j_matrix @ u]
    return np.column_stack(columns)


@dataclass(frozen=True)
class _Plan:
    """A pair's read-only matrices: S @ x = f x g (split_array), the plane bases
    of L_f and R_g with their inverses and changes of basis (cfmt_forward,
    cfmt_inverse), and the split basis with its inverse (cfmt_fast)."""

    sandwich: np.ndarray  # L_f R_g
    basis_f: np.ndarray
    basis_g: np.ndarray
    inv_f: np.ndarray
    inv_g: np.ndarray
    g_to_f: np.ndarray  # basis_f^-1 basis_g
    f_to_g: np.ndarray  # basis_g^-1 basis_f
    split: np.ndarray
    inv_split: np.ndarray


def _plan(pair: RootPair) -> _Plan:
    """The pair's plan, cached on the exact bytes of its coefficients: pairs
    equal in value share one entry, and a root one ulp or one zero sign away
    gets its own."""
    return _cached_plan(pair.signature, pair.f.value.coeffs.tobytes(),
                        pair.g.value.coeffs.tobytes())


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_plan(sig: Signature, f: bytes, g: bytes) -> _Plan:
    left, right = left_matrix(sig, np.frombuffer(f)), right_matrix(sig, np.frombuffer(g))
    sandwich = left @ right
    basis_f, basis_g = _plane_basis(left), _plane_basis(right)
    split_basis = _split_basis(sandwich, right)
    matrices = (sandwich, basis_f, basis_g, np.linalg.inv(basis_f), np.linalg.inv(basis_g),
                np.linalg.solve(basis_f, basis_g), np.linalg.solve(basis_g, basis_f),
                split_basis, np.linalg.inv(split_basis))
    for matrix in matrices:
        matrix.flags.writeable = False
    return _Plan(*matrices)


def split_array(samples: np.ndarray, pair: RootPair) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise split of a (...,4) coefficient array by the plan's S."""
    sandwich = samples @ _plan(pair).sandwich.T
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
