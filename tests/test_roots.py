"""Root manifolds: validation, chart sampling, random corpora, export."""

import math
import warnings

import numpy as np
import pytest

from clifford_mellin.algebra import CL02, CL11, CL20, SIGNATURES, Multivector, basis, inverse
from clifford_mellin.errors import NotARootError, OffManifoldError, SignatureMismatchError
from clifford_mellin.roots import (
    RootPair,
    default_pair,
    export_manifold,
    make_pair,
    manifold_beta_squared,
    random_roots,
    sample_root,
    validate_root,
)


def test_validate_accepts_basis_roots():
    root = validate_root(basis(CL02)[1])
    assert root.parameters == (1.0, 0.0, 0.0)
    root = validate_root(basis(CL20)[3])
    assert root.parameters == (0.0, 0.0, 1.0)


def test_validate_rejects_non_roots():
    with pytest.raises(NotARootError) as err:
        validate_root(basis(CL20)[1])
    assert err.value.residual == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(NotARootError):
        validate_root(Multivector.scalar(CL02, 1.0))


def test_validate_bound_scales_with_root_size():
    # the chart computes this point; its square misses -1 by 1.8e-12 of roundoff
    root = sample_root(CL20, 100.0, 30.0, 1)
    assert root.parameters[:2] == (100.0, 30.0)
    b1, b2, beta = root.parameters
    with pytest.raises(NotARootError):
        validate_root(Multivector(CL20, (0.0, b1, b2, beta * (1.0 + 1e-6))))
    # unit-sized candidates still face the plain ROOT_TOL bound
    with pytest.raises(NotARootError):
        validate_root(Multivector(CL02, (0.0, 1.0 + 1e-9, 0.0, 0.0)))


def test_validate_refuses_a_root_too_large_to_square():
    # |a|^2 overflows; the rule refuses it before squaring, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotARootError, match="too large to square"):
            validate_root(Multivector(CL20, (0, 1e200, 0, 0)))


def test_sample_root_examples():
    assert sample_root(CL20, 0.0, 0.0, 1).value == basis(CL20)[3]
    root = sample_root(CL02, 1.0, 0.0, 1)
    assert root.value == basis(CL02)[1]
    assert root.beta == 0.0
    with pytest.raises(OffManifoldError):
        sample_root(CL02, 1.0, 1.0, 1)
    with pytest.raises(OffManifoldError):
        sample_root(CL02, 0.0, 0.0, 2)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_random_roots_square_to_minus_one(sig):
    roots = random_roots(sig, 500, seed=7)
    assert len(roots) == 500
    one = Multivector.scalar(sig, 1.0)
    for root in roots:
        sq = root.value * root.value
        assert (sq + one).modulus() <= 1e-12
        # chart constraint from the manifold equation
        want = manifold_beta_squared(sig, root.b1, root.b2)
        assert abs(root.beta**2 - want) <= 1e-12 * max(1.0, abs(want))


def test_random_roots_deterministic():
    a = random_roots(CL11, 50, seed=3)
    b = random_roots(CL11, 50, seed=3)
    assert all(x.value == y.value for x, y in zip(a, b))
    c = random_roots(CL11, 50, seed=4)
    assert any(x.value != y.value for x, y in zip(a, c))


def test_random_roots_admissible_region():
    for root in random_roots(CL02, 200, seed=9):
        assert root.b1**2 + root.b2**2 <= 1.0 + 1e-12
    for root in random_roots(CL11, 200, seed=9):
        assert abs(root.b2) >= 1.0
        assert abs(root.b2) <= 10.0 + 1e-12


@pytest.mark.parametrize("sig", SIGNATURES)
def test_inverse_of_root_is_negation(sig):
    for root in random_roots(sig, 50, seed=11):
        assert inverse(root.value).allclose(-root.value, tol=1e-10)


def test_cl02_roots_are_blade_like():
    for root in random_roots(CL02, 200, seed=13):
        assert root.blade_like
    f, g = random_roots(CL02, 2, seed=14)
    assert RootPair(f, g).blade_like


def test_blade_like_flags_other_algebras():
    assert validate_root(basis(CL20)[3]).blade_like
    assert validate_root(basis(CL11)[2]).blade_like
    # a root with a grade-1 component in Cl(1,1) is not negated by the
    # principal reverse even though it squares to -1
    mixed = sample_root(CL11, 0.5, math.sqrt(1.25), 1)
    assert not mixed.blade_like


def test_pair_flags():
    f = validate_root(basis(CL02)[1])
    pair = RootPair(f, f)
    assert pair.degenerate
    assert RootPair(f, -f).degenerate
    g = validate_root(basis(CL02)[2])
    assert not RootPair(f, g).degenerate
    with pytest.raises(SignatureMismatchError):
        RootPair(f, validate_root(basis(CL20)[3]))


def test_default_pairs():
    for sig in SIGNATURES:
        pair = default_pair(sig)
        assert pair.blade_like
    assert not default_pair(CL02).degenerate
    assert default_pair(CL20).degenerate
    assert default_pair(CL11).degenerate


@pytest.mark.parametrize("sig", SIGNATURES)
def test_default_pair_has_no_negative_zeros(sig):
    # a -0.0 would show up as "-0.0" in the echoed roots and the CLMF g= line
    pair = default_pair(sig)
    for root in (pair.f, pair.g):
        coeffs = root.value.coeffs
        assert not np.any(np.signbit(coeffs[coeffs == 0.0]))


def test_make_pair_validates():
    with pytest.raises(NotARootError):
        make_pair(basis(CL20)[1], basis(CL20)[3])


@pytest.mark.parametrize(
    "sig,constraint",
    [
        (CL02, lambda b1, b2, beta: b1**2 + b2**2 + beta**2 - 1.0),
        (CL20, lambda b1, b2, beta: beta**2 - b1**2 - b2**2 - 1.0),
        (CL11, lambda b1, b2, beta: beta**2 + b1**2 - b2**2 + 1.0),
    ],
)
def test_export_manifold_quadrics(sig, constraint):
    rows = export_manifold(sig, 17)
    assert len(rows) > 0
    for b1, b2, beta, branch in rows:
        assert abs(constraint(b1, b2, beta)) <= 1e-12
        assert branch in (1, -1)


def test_export_manifold_minimal_cloud():
    rows = export_manifold(CL02, 2)
    assert len(rows) == 4
    with pytest.raises(OffManifoldError):
        export_manifold(CL02, 1)


def test_export_manifold_cl11_sheet_edge_is_exact():
    # on the w = 0 edge beta is exactly zero and only one branch row appears
    rows = export_manifold(CL11, 5)
    edge = [r for r in rows if r[2] == 0.0]
    assert len(edge) == 10  # 5 b1 values x 2 sheets
    assert all(branch == 1 for _, _, _, branch in edge)


def test_root_exponential():
    f = validate_root(basis(CL02)[1])
    assert f.exp(0.0) == Multivector.scalar(CL02, 1.0)
    half_turn = f.exp(math.pi / 2.0)
    assert half_turn.allclose(f.value, tol=1e-15)
    # exp(a f) exp(b f) = exp((a+b) f) in the commutative subalgebra of f
    for root in random_roots(CL11, 20, seed=17):
        a, b = 0.7, -1.9
        lhs = root.exp(a) * root.exp(b)
        assert lhs.allclose(root.exp(a + b), tol=1e-12)
