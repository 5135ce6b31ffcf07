"""Root manifolds: validation, chart sampling, random corpora, export."""

import collections.abc
import dataclasses
import math
import warnings

import numpy as np
import pytest

from clifford_mellin import properties, roots
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


def test_validate_refuses_a_scalar_part():
    # a scalar part of 2e-12 moves the square of this chart point by 4e-8,
    # within the size-scaled bound, so only the scalar-part rule refuses it
    b1, b2, beta = sample_root(CL20, 1e4, 0.0, 1).parameters
    with pytest.raises(NotARootError, match="has nonzero scalar part"):
        validate_root(Multivector(CL20, (2e-12, b1, b2, beta)))


def test_validate_refuses_a_root_too_large_to_square():
    # |a|^2 overflows; the rule refuses it before squaring, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotARootError, match="too large to square"):
            validate_root(Multivector(CL20, (0, 1e200, 0, 0)))


def test_validate_refuses_a_candidate_too_large_to_validate():
    # s*(e1 + e12) squares to exactly 0 in Cl(2,0): at s = 4e5 its residual 1
    # exceeds the bound, and from |a|^2 = 5e11 on, where the bound reaches 1/2,
    # the size alone is refused
    for s in (4e5, 1e6, 1e7):
        nilpotent = Multivector(CL20, (0.0, s, 0.0, s))
        assert (nilpotent * nilpotent).coeffs.tolist() == [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(NotARootError):
            validate_root(nilpotent)
    with pytest.raises(NotARootError, match="too large to validate"):
        validate_root(Multivector(CL20, (0.0, 1e7, 0.0, 1e7)))
    # the limit is |a|^2 < 5e11: chart points just inside pass, just outside do not
    sample_root(CL20, 4.99e5, 0.0, 1)
    with pytest.raises(NotARootError, match="too large to validate"):
        sample_root(CL20, 5e5, 0.0, 1)


@pytest.mark.parametrize("sig, radius", [(CL20, 1e4), (CL11, 1e4), (CL02, 1.0)])
def test_sample_root_passes_up_to_chart_radius_1e4(sig, radius):
    # Cl(0,2)'s chart is the unit disk, so its edge stands in for 1e4
    for angle in np.linspace(0.3, 0.3 + 2 * np.pi, 8, endpoint=False):
        b1, b2 = radius * np.sin(angle), radius * np.cos(angle)
        if sig == CL11 and abs(b2) < abs(b1) + 1.0:
            b1, b2 = b2, b1  # keep |b2| > |b1| inside the Cl(1,1) region
        for branch in (1, -1):
            assert sample_root(sig, b1, b2, branch).parameters[:2] == (b1, b2)


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


@pytest.mark.parametrize("sig", SIGNATURES)
def test_random_roots_refuses_an_empty_draw(sig):
    with pytest.raises(OffManifoldError, match="need n >= 1 roots"):
        random_roots(sig, 0, seed=1)


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


def test_root_flags_are_computed_once_and_stay_out_of_equality(monkeypatch):
    class CountingNumpy:
        calls = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def all(self, *args, **kwargs):
            self.calls += 1
            return np.all(*args, **kwargs)

    spy = CountingNumpy()
    monkeypatch.setattr(roots, "np", spy)
    e1, e2 = (basis(CL02)[i] for i in (1, 2))
    pair, twin = RootPair(validate_root(e1), validate_root(e2)), make_pair(e1, e2)
    assert pair.blade_like and not pair.degenerate
    computed = spy.calls
    assert computed > 0
    for _ in range(3):
        assert pair.blade_like and not pair.degenerate
        assert pair.f.blade_like and pair.g.blade_like
    assert spy.calls == computed
    # the flags live beside the fields: equality, repr and fields ignore them
    assert set(vars(pair)) == {"f", "g", "degenerate"} and "degenerate" not in vars(twin)
    assert pair == twin and twin == pair and repr(pair) == repr(twin)
    assert pair.f == twin.f and pair != RootPair(pair.f, -pair.g)
    assert [field.name for field in dataclasses.fields(pair)] == ["f", "g"]
    # a root and a pair declare themselves unhashable, cached flags or not,
    # and the error names their own class, not the Multivector inside
    for item in (pair, twin, pair.f, twin.f):
        assert not isinstance(item, collections.abc.Hashable)
        with pytest.raises(TypeError, match=f"unhashable type: '{type(item).__name__}'"):
            hash(item)


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
    # one array sum gives the bits of the scalar plus the scaled root
    angles = (0.0, -0.0, 1e-300, -0.7, 2.5, -math.pi, 40.0)
    for sig in SIGNATURES:
        for root in random_roots(sig, 10, seed=18):
            for angle in angles:
                two_step = Multivector.scalar(sig, math.cos(angle)) + root.value * math.sin(angle)
                assert root.exp(angle).coeffs.tobytes() == two_step.coeffs.tobytes()


@pytest.mark.parametrize("sig", SIGNATURES)
@pytest.mark.parametrize("build", [default_pair, properties.symmetry_pair])
def test_fixed_pairs_are_built_once_and_stay_frozen(build, sig):
    pair = build(sig)
    assert build(sig) is pair
    fresh = build.__wrapped__(sig)  # validated anew, past the cache
    assert fresh == pair
    for root, fresh_root in ((pair.f, fresh.f), (pair.g, fresh.g)):
        assert root.value.coeffs.tobytes() == fresh_root.value.coeffs.tobytes()
        assert not root.value.coeffs.flags.writeable
        with pytest.raises(ValueError):
            root.value.coeffs[1] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.f = pair.g
    with pytest.raises(TypeError, match="RootPair"):
        hash(pair)
