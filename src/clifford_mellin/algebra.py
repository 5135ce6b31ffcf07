"""Arithmetic for the three 4-dimensional real Clifford algebras Cl(p,q), p+q=2.

Elements carry four real coefficients over the blade basis (1, e1, e2, e12).
An algebra is fixed by the squares (e1^2, e2^2), and the product is written
out in _product for any pair of squares: a Multivector's product is _product
at the signature's squares and the outer product is _product at squares
(0, 0), both on Python floats.  gp evaluates the same formula on arrays from
_TERMS, the same terms in the same order, each square of +-1 folded into the
choice of add or subtract: it copies each operand's components into
contiguous planes once and accumulates each output component in one plane.
(+-a) * b = +-(a * b) and x + (-y) = x - y hold exactly, so the two carriers
give the same bits; test_gp_equals_the_stacked_product_bit_for_bit (gp
against _product on strided views) and
test_float_and_array_carriers_agree_bit_for_bit (gp against the Multivector
product) guard that.  The left and right multiplication matrices are gp on
the identity.  Every involution reduces to a per-blade sign flip, and
a^-1 = conj(a) / (a conj(a)) with a conj(a) a scalar.  All values are
immutable and every operation is a pure function, so the module is safe to
use from any number of threads.

Numbers from callers (coefficients, samples, pixels, frequencies, grid sizes,
orders, counts) pass one of two rules: the real rule _real (a finite float64
array of what numpy converts) or the count rule _count (an int, not a bool, in
bounds), each raising the caller's error naming the argument, never its digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, SignatureMismatchError, SingularElementError

BLADE_NAMES = ("1", "e1", "e2", "e12")

_GRADE_INDICES = {0: (0,), 1: (1, 2), 2: (3,)}

# inverse() declares an element singular when det L_a = (a conj(a))^2 is at
# most this times modulus^4
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


def _product(squares: tuple[int, int], a, b) -> tuple:
    """Components of the product of a = (a0, a1, a2, a3) and b = (b0, ..., b3)
    for generators with e1^2, e2^2 = squares (and e1 e2 = -e2 e1).

    The components are Python floats or broadcasting arrays; both round each
    multiplication and addition to double with no fused multiply-add, so
    their results are bit-identical.  gp's _TERMS lists these terms in this
    order, and a rewrite of a term here must be made there too.
    """
    e1, e2 = squares
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 + e1 * a1 * b1 + e2 * a2 * b2 - e1 * e2 * a3 * b3,
        a0 * b1 + a1 * b0 - e2 * a2 * b3 + e2 * a3 * b2,
        a0 * b2 + a2 * b0 + e1 * a1 * b3 - e1 * a3 * b1,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    )


def _signed_terms(squares: tuple[int, int]) -> tuple:
    """_product's terms at squares of +-1, per output component and in its
    order: the first term (i, j) is the product a_i * b_j, and each further
    (op, i, j) adds or subtracts a_i * b_j, op carrying the term's sign."""
    e1, e2 = squares
    signed = (
        ((0, 0), (e1, 1, 1), (e2, 2, 2), (-e1 * e2, 3, 3)),
        ((0, 1), (1, 1, 0), (-e2, 2, 3), (e2, 3, 2)),
        ((0, 2), (1, 2, 0), (e1, 1, 3), (-e1, 3, 1)),
        ((0, 3), (1, 3, 0), (1, 1, 2), (-1, 2, 1)),
    )
    return tuple(
        (first, tuple((np.add if sign > 0 else np.subtract, i, j) for sign, i, j in rest))
        for first, *rest in signed
    )


_TERMS = {sig.squares: _signed_terms(sig.squares) for sig in SIGNATURES}


def _planes(x) -> list[np.ndarray]:
    """The four components of a (..., 4) array as contiguous planes, views of
    one copy; a (4,) operand gives 0-d arrays, so shapes broadcast as the
    operands do."""
    x = np.asarray(x, dtype=float)
    planes = x.transpose((x.ndim - 1, *range(x.ndim - 1))).copy()
    return [planes[i, ...] for i in range(4)]


def gp(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product on (...,4) coefficient arrays, broadcasting.

    Each operand's components are copied once into contiguous planes, and
    each output component accumulates _product's terms in _product's order
    in one plane, a term's sign picking add or subtract.  (+-a) * b =
    +-(a * b) and x + (-y) = x - y hold exactly, so the bits are those of
    _product on the components."""
    a_planes, b_planes = _planes(a), _planes(b)
    shape = np.broadcast(a_planes[0], b_planes[0]).shape
    out = np.empty(shape + (4,))
    acc, term = np.empty(shape), np.empty(shape)
    for k, ((i, j), rest) in enumerate(_TERMS[sig.squares]):
        np.multiply(a_planes[i], b_planes[j], acc)
        for op, i, j in rest:
            np.multiply(a_planes[i], b_planes[j], term)
            op(acc, term, acc)
        out[..., k] = acc
    return out


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
    """Matrix L with L @ x = coefficients of a * x: column j is a * e_j."""
    return gp(sig, a, np.eye(4)).T


def right_matrix(sig: Signature, a: np.ndarray) -> np.ndarray:
    """Matrix R with R @ x = coefficients of x * a: column j is e_j * a."""
    return gp(sig, np.eye(4), a).T


@dataclass(frozen=True)
class _Fresh:
    """A float array its maker hands over, keeping no reference: the real rule takes it uncopied."""

    array: np.ndarray


def _real(values, name: str, error: type = DomainError, clip: tuple | None = None,
          shape: tuple | None = None) -> np.ndarray:
    """The real rule: values as a new float64 array (0-d for a scalar) or a _Fresh's array,
    read-only if a shape is given, which it must have (else GeometryError), and clipped in
    place into clip if given; raises error naming name unless all are finite reals."""
    try:
        arr = values.array if type(values) is _Fresh else np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # numpy's messages print no int
        raise error(f"{name} must be finite and real: {exc}") from None
    if shape is not None:  # a grid array
        if arr.shape != shape:
            raise GeometryError(f"{name} shape {arr.shape} does not match grid {shape}")
        arr.flags.writeable = False
    if clip is not None:
        np.clip(arr, *clip, out=arr)
    if not (all(map(math.isfinite, arr.tolist())) if arr.ndim == 1 else np.isfinite(arr).all()):
        raise error(f"{name} must be finite")
    return arr


def _count(value, name: str, error: type = DomainError, low=None, high=None, even=False) -> int:
    """The count rule: value, an int or numpy integer but not a bool, in [low,
    high] (None: unbounded) and even if asked, as a Python int; else error."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (even and value % 2)
            or (low is not None and value < low) or (high is not None and value > high)):
        big = isinstance(value, int) and value.bit_length() > 64  # maybe too long to print
        shown = f"an int of {value.bit_length()} bits" if big else repr(value)
        bounds = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
        raise error(f"{name} must be {'an even' if even else 'an'} integer{bounds}, got {shown}")
    return int(value)


@dataclass(frozen=True, eq=False)
class Multivector:
    """Element of Cl(p,q), p+q=2, as coefficients over (1, e1, e2, e12)."""

    signature: Signature
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _real(self.coeffs, "coefficients").ravel()
        if coeffs.shape != (4,):
            raise DomainError(f"expected 4 blade coefficients, got shape {coeffs.shape}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        return cls(sig, (value, 0.0, 0.0, 0.0))

    @classmethod
    def blade(cls, sig: Signature, index: int, coefficient: float = 1.0) -> "Multivector":
        coeffs = [0.0] * 4  # so the real rule, not this store, converts it
        coeffs[_count(index, "index", low=0, high=3)] = coefficient
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
            return Multivector(self.signature, _product(
                self.signature.squares, self.coeffs.tolist(), other.coeffs.tolist()))
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
        # grades 0 and 1 fixed, grade 2 negated
        return Multivector(self.signature, self.coeffs * np.array([1.0, 1.0, 1.0, -1.0]))

    def principal_reverse(self) -> "Multivector":
        return Multivector(
            self.signature, self.coeffs * principal_reverse_signs(self.signature)
        )

    def modulus(self) -> float:
        return float(np.sqrt(np.dot(self.coeffs, self.coeffs)))


def basis(sig: Signature) -> tuple[Multivector, Multivector, Multivector, Multivector]:
    """The blade basis (1, e1, e2, e12) of the algebra."""
    return tuple(Multivector.blade(sig, i) for i in range(4))


# -- operations with no method form -------------------------------------------


def scalar_product(a: Multivector, b: Multivector) -> float:
    a._check_same(b)
    return float(scalar_product_array(a.signature, a.coeffs, b.coeffs))


def outer_product(a: Multivector, b: Multivector) -> Multivector:
    """Grade-raising part of the product, extended bilinearly over grades:
    the product with both squares set to zero."""
    a._check_same(b)
    return Multivector(a.signature, _product((0, 0), a.coeffs.tolist(), b.coeffs.tolist()))


def inverse(a: Multivector) -> Multivector:
    """a^-1 = conj(a) / (a conj(a)), with conj the Clifford conjugate
    (1, -e1, -e2, -e12) and a conj(a) a scalar in all three algebras.

    det L_a = (a conj(a))^2, so the threshold
    (a conj(a))^2 <= INVERSE_DET_RTOL * modulus^4 is the determinant rule of
    the left-regular representation; it keeps the singularity decision
    deterministic, as zero divisors exist in all three algebras.
    """
    sig = a.signature
    conj = a.coeffs * np.array([1.0, -1.0, -1.0, -1.0])
    norm = float(scalar_product_array(sig, a.coeffs, conj))
    scale = a.modulus() ** 4
    if norm * norm <= INVERSE_DET_RTOL * scale or scale == 0.0:
        raise SingularElementError(f"{a!r} is not invertible (a conj(a) = {norm:.3e})")
    return Multivector(sig, conj / norm)
