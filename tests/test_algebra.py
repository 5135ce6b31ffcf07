"""Algebra axioms: multiplication rules, involutions, duals, modulus, inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifford_mellin import algebra
from clifford_mellin.algebra import (
    CL02,
    CL11,
    CL20,
    SIGNATURES,
    Multivector,
    Signature,
    basis,
    inverse,
    outer_product,
    scalar_product,
)
from clifford_mellin.errors import (
    DomainError,
    SignatureMismatchError,
    SingularElementError,
)
from helpers import product_tensor, stacked_product, wide_coefficients

coeff = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
coeffs4 = st.tuples(coeff, coeff, coeff, coeff)
signatures = st.sampled_from(SIGNATURES)


def mv(sig, m0=0.0, m1=0.0, m2=0.0, m12=0.0):
    return Multivector(sig, (m0, m1, m2, m12))


def random_mvs(sig, n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return [Multivector(sig, c) for c in rng.uniform(-scale, scale, size=(n, 4))]


# -- multiplication rules -------------------------------------------------------


@pytest.mark.parametrize("sig", SIGNATURES)
def test_basis_vector_multiplication_rules(sig):
    # e_k e_l + e_l e_k = 2 eps_k delta_kl on all four vector pairs
    one, e1, e2, e12 = basis(sig)
    eps = sig.squares
    vectors = (e1, e2)
    for k, a in enumerate(vectors):
        for l, b in enumerate(vectors):
            anti = a * b + b * a
            expected = Multivector.scalar(sig, 2.0 * eps[k] if k == l else 0.0)
            assert anti == expected


def test_structure_examples():
    one, e1, e2, e12 = basis(CL20)
    assert e1 * e1 == one
    assert (basis(CL02)[1] * basis(CL02)[2]) == basis(CL02)[3]
    assert (basis(CL02)[2] * basis(CL02)[1]) == -basis(CL02)[3]
    b11 = basis(CL11)
    assert b11[3] * b11[3] == b11[0]


@pytest.mark.parametrize("sig", SIGNATURES)
def test_gp_matches_structure_table(sig):
    # the written-out product must agree with the bitmask multiplication table
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, size=(50, 4))
    b = rng.uniform(-2, 2, size=(50, 4))
    via_table = np.einsum("ni,nj,ijk->nk", a, b, product_tensor(sig))
    assert np.allclose(algebra.gp(sig, a, b), via_table, atol=1e-12)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_associativity_exact_integers(sig):
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = (
            Multivector(sig, rng.integers(-4, 5, size=4).astype(float))
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_associativity_random_floats(sig):
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, size=(10_000, 4))
    b = rng.uniform(-1, 1, size=(10_000, 4))
    c = rng.uniform(-1, 1, size=(10_000, 4))
    left = algebra.gp(sig, algebra.gp(sig, a, b), c)
    right = algebra.gp(sig, a, algebra.gp(sig, b, c))
    assert np.max(np.abs(left - right)) <= 1e-12


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatchError):
        mv(CL20, 1.0) * mv(CL02, 1.0)
    with pytest.raises(SignatureMismatchError):
        scalar_product(mv(CL20, 1.0), mv(CL11, 1.0))


@pytest.mark.parametrize("op", [
    lambda x: x * "a",
    lambda x: x * 2j,
    lambda x: 2j * x,
    lambda x: "a" * x,
    lambda x: x / "a",
], ids=["mul-str", "mul-complex", "rmul-complex", "rmul-str", "div-str"])
def test_non_numeric_operands_raise_type_error(op):
    # Multivector returns NotImplemented, so Python raises TypeError
    with pytest.raises(TypeError):
        op(mv(CL20, 1.0, 2.0, 3.0, 4.0))


def test_signature_parse():
    assert Signature.parse("Cl(1,1)") == CL11
    with pytest.raises(DomainError):
        Signature.parse("Cl(3,0)")
    with pytest.raises(DomainError):
        Signature(2, 1)


# -- grades ---------------------------------------------------------------------


def test_grade_part_examples():
    a = mv(CL20, 3.0, 2.0, 0.0, -1.0)
    assert a.grade(2) == mv(CL20, 0.0, 0.0, 0.0, -1.0)
    assert a.grade(0) == Multivector.scalar(CL20, a.scalar_part)
    assert basis(CL20)[1].grade(0) == mv(CL20)
    with pytest.raises(DomainError):
        a.grade(3)


@given(signatures, coeffs4)
def test_grade_parts_reconstruct(sig, c):
    a = Multivector(sig, c)
    total = a.grade(0) + a.grade(1) + a.grade(2)
    assert total == a


# -- scalar and outer products ----------------------------------------------------


def test_scalar_product_examples():
    assert scalar_product(basis(CL20)[1], basis(CL20)[1]) == 1.0
    assert scalar_product(basis(CL20)[1], basis(CL20)[2]) == 0.0
    assert scalar_product(basis(CL02)[3], basis(CL02)[3]) == -1.0


def test_outer_product_examples():
    one, e1, e2, e12 = basis(CL11)
    assert outer_product(e1, e2) == e12
    assert outer_product(e1, e1) == mv(CL11)
    assert outer_product(one + e1, e2) == e2 + e12


@pytest.mark.parametrize("sig", SIGNATURES)
def test_outer_product_antisymmetric_on_vectors(sig):
    for a, b in zip(random_mvs(sig, 50, seed=7), random_mvs(sig, 50, seed=8)):
        va, vb = a.grade(1), b.grade(1)
        half_comm = 0.5 * (va * vb - vb * va)
        assert outer_product(va, vb).allclose(half_comm, tol=1e-12)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_outer_product_matches_disjoint_blade_table(sig):
    # grade-raising products are those of blades with no common generator
    disjoint = np.array([[(i & j) == 0 for j in range(4)] for i in range(4)])
    tensor = product_tensor(sig) * disjoint[:, :, None]
    for a, b in zip(random_mvs(sig, 50, seed=9), random_mvs(sig, 50, seed=10)):
        expected = np.einsum("i,j,ijk->k", a.coeffs, b.coeffs, tensor)
        assert np.allclose(outer_product(a, b).coeffs, expected, atol=1e-15)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_float_and_array_carriers_agree_bit_for_bit(sig):
    # Multivector products run the product formula on Python floats, gp on
    # array views; both must round identically, signed zeros included
    rng = np.random.default_rng(29)
    shape = (2, 2000, 4)
    a, b = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    a[rng.random(a.shape) < 0.1] *= 0.0
    b[rng.random(b.shape) < 0.1] *= 0.0
    products = algebra.gp(sig, a, b)
    outers = np.stack(algebra._product((0, 0), a.T, b.T), axis=-1)
    assert np.signbit(outers[outers == 0.0]).any()
    for i in range(len(a)):
        x, y = Multivector(sig, a[i]), Multivector(sig, b[i])
        assert (x * y).coeffs.tobytes() == products[i].tobytes()
        assert outer_product(x, y).coeffs.tobytes() == outers[i].tobytes()


@pytest.mark.parametrize("sig", SIGNATURES)
def test_gp_equals_the_stacked_product_bit_for_bit(sig):
    # gp sums each component's terms on contiguous planes; the bits must be
    # those of the product formula on strided views, on every operand shape
    # its callers use and on operands whose components are 0-d
    rng = np.random.default_rng(31)
    shapes = [((4,), (4,)), ((4,), (1, 4)), ((2000, 4), (2000, 4))]
    for n in (8, 16, 32, 64):
        grid = (n, n, 4)
        shapes += [((4,), grid), (grid, (4,)), ((n, 1, 4), grid), (grid, (1, n, 4)),
                   (grid, grid), ((n, 4), (4,))]
    for a_shape, b_shape in shapes:
        a, b = wide_coefficients(rng, *a_shape), wide_coefficients(rng, *b_shape)
        got, want = algebra.gp(sig, a, b), stacked_product(sig, a, b)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), (a_shape, b_shape)


# -- involutions ------------------------------------------------------------------


def test_reverse_examples():
    one, e1, e2, e12 = basis(CL20)
    assert e12.reverse() == -e12
    assert (one + e1).reverse() == one + e1
    assert mv(CL20, 2.0, 0.0, 0.0, -3.0).reverse() == mv(CL20, 2.0, 0.0, 0.0, 3.0)


def test_principal_reverse_examples():
    assert basis(CL02)[1].principal_reverse() == -basis(CL02)[1]
    assert basis(CL20)[3].principal_reverse() == -basis(CL20)[3]
    assert basis(CL02)[3].principal_reverse() == -basis(CL02)[3]


@given(signatures, coeffs4)
def test_involutions_are_involutions(sig, c):
    a = Multivector(sig, c)
    assert a.reverse().reverse() == a
    assert a.principal_reverse().principal_reverse() == a


@pytest.mark.parametrize("sig", SIGNATURES)
def test_reverse_is_antiautomorphism(sig):
    for a, b in zip(random_mvs(sig, 100, seed=13), random_mvs(sig, 100, seed=14)):
        assert (a * b).reverse().allclose(b.reverse() * a.reverse(), tol=1e-12)
        assert (a * b).principal_reverse().allclose(
            b.principal_reverse() * a.principal_reverse(), tol=1e-12
        )


# -- duality and modulus -----------------------------------------------------------


@pytest.mark.parametrize("sig", SIGNATURES)
def test_basis_duality(sig):
    # principal reverse of e_A pairs to the Kronecker delta on all 16 pairs
    blades = basis(sig)
    for i, ea in enumerate(blades):
        for j, eb in enumerate(blades):
            value = scalar_product(ea.principal_reverse(), eb)
            assert value == (1.0 if i == j else 0.0)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_reciprocal_basis(sig):
    eps = sig.squares
    vectors = (basis(sig)[1], basis(sig)[2])
    for l, el in enumerate(vectors):
        rec = eps[l] * el
        for k, ek in enumerate(vectors):
            assert scalar_product(rec, ek) == (1.0 if l == k else 0.0)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_modulus_identity_random(sig):
    rng = np.random.default_rng(21)
    arr = rng.uniform(-1, 1, size=(10_000, 4))
    sq_coeffs = np.sum(arr * arr, axis=-1)
    sq_product = algebra.scalar_product_array(
        sig, arr, arr * algebra.principal_reverse_signs(sig)
    )
    assert np.max(np.abs(sq_coeffs - sq_product) / np.maximum(sq_coeffs, 1e-30)) <= 1e-12


def test_modulus_examples():
    for sig in SIGNATURES:
        assert mv(sig, 1.0, 1.0, 1.0, 1.0).modulus() == 2.0
        assert mv(sig).modulus() == 0.0
    assert mv(CL11, 0.0, 0.0, 0.0, 3.0).modulus() == 3.0


@pytest.mark.parametrize("sig", SIGNATURES)
def test_orthogonality_criterion(sig):
    # Sc(a * b.principal_reverse()) equals the Euclidean coefficient pairing
    for a, b in zip(random_mvs(sig, 200, seed=31), random_mvs(sig, 200, seed=32)):
        lhs = scalar_product(a, b.principal_reverse())
        rhs = float(np.dot(a.coeffs, b.coeffs))
        assert abs(lhs - rhs) <= 1e-12


# -- inverse -----------------------------------------------------------------------


def test_inverse_examples():
    f = basis(CL02)[1]
    assert inverse(f).allclose(-f, tol=1e-12)
    assert inverse(Multivector.scalar(CL20, 2.0)) == Multivector.scalar(CL20, 0.5)
    with pytest.raises(SingularElementError):
        inverse(mv(CL20, 1.0, 1.0))
    with pytest.raises(SingularElementError):
        inverse(mv(CL11))


def _clifford_norm(sig, c):
    # a * conj(a) is this pure scalar; zero exactly on the zero-divisor cone
    e1, e2 = sig.squares
    return c[0] ** 2 - e1 * c[1] ** 2 - e2 * c[2] ** 2 + e1 * e2 * c[3] ** 2


@pytest.mark.parametrize("sig", SIGNATURES)
def test_inverse_random(sig):
    # sampled away from the zero-divisor cone, where the 1e-12 contract is meaningful
    rng = np.random.default_rng(41)
    count = 0
    while count < 200:
        c = rng.uniform(-1, 1, size=4)
        if abs(_clifford_norm(sig, c)) < 0.05:
            continue
        a = Multivector(sig, c)
        inv = inverse(a)
        count += 1
        assert (a * inv).allclose(Multivector.scalar(sig, 1.0), tol=1e-12)
        assert (inv * a).allclose(Multivector.scalar(sig, 1.0), tol=1e-12)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_inverse_matches_conjugation_formula(sig):
    # cross-check: a^-1 = conj(a)/N(a) wherever N(a) is safely nonzero
    rng = np.random.default_rng(43)
    for _ in range(100):
        c = rng.uniform(-1, 1, size=4)
        norm = _clifford_norm(sig, c)
        if abs(norm) < 0.05:
            continue
        a = Multivector(sig, c)
        conj = Multivector(sig, c * np.array([1.0, -1.0, -1.0, -1.0]))
        assert inverse(a).allclose(conj / norm, tol=1e-10)


@pytest.mark.parametrize("sig", (CL20, CL11))
def test_inverse_near_zero_divisor_cone(sig):
    # with |a conj(a)| down to 1e-5 |a|^2 the residual grows like the
    # conditioning |a|^2 / |a conj(a)|, and stays within 4 eps of it
    rng = np.random.default_rng(47)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    e1, e2 = sig.squares
    count = 0
    while count < 300:
        rest = rng.uniform(-1, 1, size=3)
        # a0^2 - q is a conj(a), so a0 = sqrt(q + t) puts it at about t
        q = e1 * rest[0] ** 2 + e2 * rest[1] ** 2 - e1 * e2 * rest[2] ** 2
        t = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5, -2) * (q + np.sum(rest**2))
        if q + t <= 0.0:
            continue
        c = np.concatenate(([np.sqrt(q + t)], rest)) * 10.0 ** rng.uniform(-2, 2)
        sq_mod = float(np.dot(c, c))
        norm = abs(_clifford_norm(sig, c))
        if not 1e-5 * sq_mod <= norm <= 1e-2 * sq_mod:
            continue
        count += 1
        a = Multivector(sig, c)
        inv = inverse(a).coeffs
        bound = 4.0 * np.finfo(float).eps * sq_mod / norm
        assert np.linalg.norm(algebra.gp(sig, c, inv) - one) <= bound
        assert np.linalg.norm(algebra.gp(sig, inv, c) - one) <= bound


# -- construction guards ------------------------------------------------------------


def test_nonfinite_coefficients_rejected():
    with pytest.raises(DomainError):
        mv(CL20, float("nan"))
    with pytest.raises(DomainError):
        mv(CL20, float("inf"))


def test_left_right_matrices():
    # each entry is +-a_i or zero, so the matrices equal the table's exactly
    rng = np.random.default_rng(51)
    for sig in SIGNATURES:
        tensor = product_tensor(sig)
        for a, x in rng.uniform(-1, 1, size=(20, 2, 4)):
            left, right = algebra.left_matrix(sig, a), algebra.right_matrix(sig, a)
            assert np.array_equal(left, np.einsum("i,ijk->kj", a, tensor))
            assert np.array_equal(right, np.einsum("j,ijk->ki", a, tensor))
            assert np.allclose(left @ x, algebra.gp(sig, a, x))
            assert np.allclose(right @ x, algebra.gp(sig, x, a))


@settings(max_examples=50)
@given(signatures, coeffs4, coeffs4)
def test_scalar_part_is_symmetric(sig, ca, cb):
    a, b = Multivector(sig, ca), Multivector(sig, cb)
    lhs = scalar_product(a, b)
    rhs = scalar_product(b, a)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))
