"""Arithmetic for the three 4-dimensional real Clifford algebras Cl(p,q), p+q=2.

Elements carry four real coefficients over the blade basis (1, e1, e2, e12).
The geometric product is generated from a per-signature structure-constant
table; every involution reduces to a per-blade sign flip.  All values are
immutable and every operation is a pure function, so the module is safe to
use from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import DomainError, SignatureMismatchError, SingularElementError

BLADE_NAMES = ("1", "e1", "e2", "e12")
BLADE_GRADES = (0, 1, 1, 2)

_GRADE_INDICES = {0: (0,), 1: (1, 2), 2: (3,)}

# inverse() declares an element singular when |det| <= this times modulus^4
INVERSE_DET_RTOL = 1e-12


@dataclass(frozen=True)
class Signature:
    """Algebra signature (p, q): p basis vectors square to +1 and q to -1."""

    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) not in ((2, 0), (1, 1), (0, 2)):
            raise DomainError(
                f"unsupported signature ({self.p},{self.q}); only p+q=2 algebras"
            )

    @property
    def squares(self) -> tuple[int, int]:
        """(e1^2, e2^2) for this signature."""
        eps = (1,) * self.p + (-1,) * self.q
        return eps[0], eps[1]

    @property
    def name(self) -> str:
        return f"Cl({self.p},{self.q})"

    @classmethod
    def parse(cls, text: str) -> "Signature":
        """Parse the canonical form "Cl(p,q)"."""
        cleaned = text.strip()
        for sig in SIGNATURES:
            if cleaned == sig.name:
                return sig
        raise DomainError(f"unknown algebra {text!r}; expected Cl(2,0), Cl(1,1) or Cl(0,2)")


CL20 = Signature(2, 0)
CL11 = Signature(1, 1)
CL02 = Signature(0, 2)
SIGNATURES = (CL20, CL11, CL02)


def _blade_mul(a_bits: int, b_bits: int, eps: tuple[int, int]) -> tuple[int, int]:
    """Multiply basis blades given as bitmasks (bit0 = e1, bit1 = e2).

    Each generator of b moves left past the generators of a with a higher
    index (one sign flip per transposition); repeated generators contract
    to their square.  Returns (result bitmask, sign).
    """
    sign = 1
    for k in (0, 1):
        if b_bits & (1 << k):
            above = a_bits & ~((1 << (k + 1)) - 1)
            if bin(above).count("1") & 1:
                sign = -sign
            if a_bits & (1 << k):
                sign *= eps[k]
    return a_bits ^ b_bits, sign


@lru_cache(maxsize=None)
def structure_table(sig: Signature) -> tuple[tuple[tuple[int, int], ...], ...]:
    """4x4 table of (target blade index, sign) for the geometric product."""
    eps = sig.squares
    return tuple(
        tuple(_blade_mul(i, j, eps) for j in range(4)) for i in range(4)
    )


@lru_cache(maxsize=None)
def product_tensor(sig: Signature) -> np.ndarray:
    """Dense (4,4,4) tensor C with (a b)_k = sum_ij a_i b_j C[i,j,k]."""
    table = structure_table(sig)
    tensor = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            target, sign = table[i][j]
            tensor[i, j, target] = sign
    tensor.flags.writeable = False
    return tensor


def gp(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product on (...,4) coefficient arrays, broadcasting."""
    e1, e2 = sig.squares
    a0, a1, a2, a3 = (a[..., i] for i in range(4))
    b0, b1, b2, b3 = (b[..., i] for i in range(4))
    return np.stack(
        [
            a0 * b0 + e1 * a1 * b1 + e2 * a2 * b2 - e1 * e2 * a3 * b3,
            a0 * b1 + a1 * b0 - e2 * a2 * b3 + e2 * a3 * b2,
            a0 * b2 + a2 * b0 + e1 * a1 * b3 - e1 * a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
        ],
        axis=-1,
    )


def reverse_signs(sig: Signature) -> np.ndarray:
    """Per-blade signs of the reverse: grades 0 and 1 fixed, grade 2 negated."""
    return np.array([1.0, 1.0, 1.0, -1.0])


def principal_reverse_signs(sig: Signature) -> np.ndarray:
    """Per-blade signs of the principal reverse (bar then reverse)."""
    e1, e2 = sig.squares
    return np.array([1.0, float(e1), float(e2), float(-e1 * e2)])


def scalar_product_array(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar part of the geometric product, broadcasting over (...,4) arrays."""
    e1, e2 = sig.squares
    return (
        a[..., 0] * b[..., 0]
        + e1 * a[..., 1] * b[..., 1]
        + e2 * a[..., 2] * b[..., 2]
        - e1 * e2 * a[..., 3] * b[..., 3]
    )


def left_matrix(sig: Signature, a: np.ndarray) -> np.ndarray:
    """Matrix L with L @ x = coefficients of a * x."""
    return np.einsum("i,ijk->kj", a, product_tensor(sig))


def right_matrix(sig: Signature, a: np.ndarray) -> np.ndarray:
    """Matrix R with R @ x = coefficients of x * a."""
    return np.einsum("j,ijk->ki", a, product_tensor(sig))


def _coerce_coeffs(values: Iterable[float]) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(-1)
    if arr.shape != (4,):
        raise DomainError(f"expected 4 blade coefficients, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("coefficients must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Multivector:
    """Element of Cl(p,q), p+q=2, as coefficients over (1, e1, e2, e12)."""

    signature: Signature
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coerce_coeffs(self.coeffs))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        return cls(sig, (float(value), 0.0, 0.0, 0.0))

    @classmethod
    def blade(cls, sig: Signature, index: int, coefficient: float = 1.0) -> "Multivector":
        coeffs = np.zeros(4)
        coeffs[index] = coefficient
        return cls(sig, coeffs)

    # -- ring structure -------------------------------------------------------

    def _check_same(self, other: "Multivector") -> None:
        if self.signature != other.signature:
            raise SignatureMismatchError(
                f"operands in {self.signature.name} and {other.signature.name}"
            )

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_same(other)
        return Multivector(self.signature, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_same(other)
        return Multivector(self.signature, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(self.signature, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            return Multivector(self.signature, gp(self.signature, self.coeffs, other.coeffs))
        if isinstance(other, (int, float)):
            return Multivector(self.signature, self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.signature, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.signature, self.coeffs / float(other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multivector)
            and self.signature == other.signature
            and bool(np.all(self.coeffs == other.coeffs))
        )

    def allclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        self._check_same(other)
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))

    def __repr__(self) -> str:
        terms = []
        for c, name in zip(self.coeffs, BLADE_NAMES):
            if c != 0.0:
                terms.append(f"{c:+g}" + ("" if name == "1" else f"*{name}"))
        body = " ".join(terms) if terms else "0"
        return f"<{body} | {self.signature.name}>"

    # -- involutions and norms ------------------------------------------------

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def grade(self, k: int) -> "Multivector":
        if k not in _GRADE_INDICES:
            raise DomainError(f"grade index {k} outside 0..2")
        out = np.zeros(4)
        idx = list(_GRADE_INDICES[k])
        out[idx] = self.coeffs[idx]
        return Multivector(self.signature, out)

    def reverse(self) -> "Multivector":
        return Multivector(self.signature, self.coeffs * reverse_signs(self.signature))

    def principal_reverse(self) -> "Multivector":
        return Multivector(
            self.signature, self.coeffs * principal_reverse_signs(self.signature)
        )

    def modulus(self) -> float:
        return float(np.sqrt(np.dot(self.coeffs, self.coeffs)))


def basis(sig: Signature) -> tuple[Multivector, Multivector, Multivector, Multivector]:
    """The blade basis (1, e1, e2, e12) of the algebra."""
    return tuple(Multivector.blade(sig, i) for i in range(4))


# -- operation surface ---------------------------------------------------------


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    return a * b


def grade_part(a: Multivector, k: int) -> Multivector:
    return a.grade(k)


def scalar_product(a: Multivector, b: Multivector) -> float:
    a._check_same(b)
    return float(scalar_product_array(a.signature, a.coeffs, b.coeffs))


def outer_product(a: Multivector, b: Multivector) -> Multivector:
    """Grade-raising part of the product, extended bilinearly over grades."""
    a._check_same(b)
    sig = a.signature
    out = np.zeros(4)
    for k, ki in _GRADE_INDICES.items():
        ak = np.zeros(4)
        ak[list(ki)] = a.coeffs[list(ki)]
        if not ak.any():
            continue
        for s, si in _GRADE_INDICES.items():
            if k + s > 2:
                continue
            bs = np.zeros(4)
            bs[list(si)] = b.coeffs[list(si)]
            if not bs.any():
                continue
            prod = gp(sig, ak, bs)
            target = list(_GRADE_INDICES[k + s])
            out[target] += prod[target]
    return Multivector(sig, out)


def reverse(a: Multivector) -> Multivector:
    return a.reverse()


def principal_reverse(a: Multivector) -> Multivector:
    return a.principal_reverse()


def modulus(a: Multivector) -> float:
    return a.modulus()


def _det3(m: np.ndarray) -> float:
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _adjugate4(m: np.ndarray) -> np.ndarray:
    """Closed-form adjugate so that m @ adj = det(m) * I."""
    adj = np.empty((4, 4))
    rows = np.arange(4)
    for i in range(4):
        for j in range(4):
            minor = m[np.ix_(rows != j, rows != i)]
            adj[i, j] = (-1) ** (i + j) * _det3(minor)
    return adj


def inverse(a: Multivector) -> Multivector:
    """Inverse via the adjugate of the left-regular representation.

    The determinant threshold INVERSE_DET_RTOL * modulus^4 keeps the
    singularity decision deterministic; zero divisors exist in all three
    algebras.
    """
    sig = a.signature
    left = left_matrix(sig, a.coeffs)
    adj = _adjugate4(left)
    det = float(left[0] @ adj[:, 0])
    scale = a.modulus() ** 4
    if abs(det) <= INVERSE_DET_RTOL * scale or scale == 0.0:
        raise SingularElementError(f"{a!r} is not invertible (det {det:.3e})")
    return Multivector(sig, adj[:, 0] / det)
