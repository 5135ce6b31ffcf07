"""Split identities: reconstruction, eigen-action, orthogonality, exponentials."""

import numpy as np
import pytest
from helpers import gp_split_array, moderate_pairs, random_multivectors, wild_pairs

from clifford_mellin.algebra import CL02, CL11, CL20, SIGNATURES, Multivector, basis
from clifford_mellin.errors import ContractError, SignatureMismatchError
from clifford_mellin.roots import RootPair, default_pair, make_pair, random_roots, validate_root
from clifford_mellin.split import exp_swap_check, f_split, mixed_scalar, recombine, split, split_array


def test_split_example_cl02():
    pair = make_pair(basis(CL02)[1], basis(CL02)[2])
    parts = split(Multivector.scalar(CL02, 1.0), pair)
    assert parts.plus.allclose(Multivector(CL02, (0.5, 0, 0, 0.5)), tol=1e-15)
    assert parts.minus.allclose(Multivector(CL02, (0.5, 0, 0, -0.5)), tol=1e-15)


def test_split_zero():
    pair = default_pair(CL11)
    parts = split(Multivector(CL11, (0, 0, 0, 0)), pair)
    assert parts.plus == Multivector(CL11, (0, 0, 0, 0))
    assert parts.minus == Multivector(CL11, (0, 0, 0, 0))


@pytest.mark.parametrize("sig", SIGNATURES)
def test_split_reconstruction(sig):
    # tolerance scales with the sandwich magnitude, the ulp scale of the halves
    for pair in wild_pairs(sig, 10, seed=3):
        for x in random_multivectors(sig, 100, seed=4):
            sandwich = pair.f.value * x * pair.g.value
            scale = max(1.0, float(np.max(np.abs(sandwich.coeffs))))
            back = recombine(split(x, pair))
            assert np.max(np.abs(back.coeffs - x.coeffs)) <= 1e-15 * scale


@pytest.mark.parametrize("sig", SIGNATURES)
def test_eigen_action_moderate_pairs(sig):
    for pair in moderate_pairs(sig, 10, seed=5):
        f, g = pair.f.value, pair.g.value
        for x in random_multivectors(sig, 20, seed=6):
            parts = split(x, pair)
            assert (f * parts.plus * g).allclose(parts.plus, tol=1e-12)
            assert (f * parts.minus * g).allclose(-parts.minus, tol=1e-12)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_eigen_action_full_windows(sig):
    for pair in wild_pairs(sig, 10, seed=5):
        f, g = pair.f.value, pair.g.value
        for x in random_multivectors(sig, 10, seed=6):
            parts = split(x, pair)
            assert (f * parts.plus * g).allclose(parts.plus, tol=1e-10)
            assert (f * parts.minus * g).allclose(-parts.minus, tol=1e-10)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_sandwich_is_involution(sig):
    for pair in moderate_pairs(sig, 10, seed=7):
        f, g = pair.f.value, pair.g.value
        for x in random_multivectors(sig, 20, seed=8):
            assert (f * (f * x * g) * g).allclose(x, tol=1e-12)


def test_resplit_is_idempotent():
    pair = default_pair(CL02)
    for x in random_multivectors(CL02, 50, seed=9):
        plus = split(x, pair).plus
        again = split(plus, pair)
        assert again.plus.allclose(plus, tol=1e-12)
        assert again.minus.allclose(Multivector(CL02, (0, 0, 0, 0)), tol=1e-12)


def test_degenerate_pair_matches_f_split():
    # with g = -f the two-root split is the commuting/anticommuting split
    for sig in SIGNATURES:
        for f in random_roots(sig, 10, seed=10):
            pair = RootPair(f, -f)
            for x in random_multivectors(sig, 10, seed=11):
                parts = split(x, pair)
                commuting, anticommuting = f_split(x, f)
                assert parts.plus == commuting
                assert parts.minus == anticommuting


def test_f_split_examples():
    f = validate_root(basis(CL02)[3])
    e1 = basis(CL02)[1]
    commuting, anticommuting = f_split(e1, f)
    assert commuting.allclose(Multivector(CL02, (0, 0, 0, 0)), tol=1e-15)
    assert anticommuting.allclose(e1, tol=1e-15)

    c = Multivector.scalar(CL02, 2.5)
    commuting, anticommuting = f_split(c, f)
    assert commuting == c
    assert anticommuting == Multivector(CL02, (0, 0, 0, 0))

    commuting, anticommuting = f_split(f.value, f)
    assert commuting == f.value
    assert anticommuting == Multivector(CL02, (0, 0, 0, 0))


@pytest.mark.parametrize("sig", SIGNATURES)
def test_f_split_commutation_property(sig):
    from helpers import moderate_roots

    for f in moderate_roots(sig, 10, seed=12):
        for x in random_multivectors(sig, 10, seed=13):
            commuting, anticommuting = f_split(x, f)
            scale = max(1.0, (f.value * x * f.value).modulus())
            back = commuting + anticommuting
            assert np.max(np.abs(back.coeffs - x.coeffs)) <= 1e-15 * scale
            assert (commuting * f.value).allclose(f.value * commuting, tol=1e-12)
            assert (anticommuting * f.value).allclose(
                -(f.value * anticommuting), tol=1e-12
            )


@pytest.mark.parametrize("sig", SIGNATURES)
def test_linear_combination_identity(sig):
    # x_pm expressed through the single-root splits of f and of g
    for pair in moderate_pairs(sig, 8, seed=14):
        f, g = pair.f, pair.g
        fg = f.value * g.value
        one = Multivector.scalar(sig, 1.0)
        for x in random_multivectors(sig, 10, seed=15):
            parts = split(x, pair)
            xpf, xmf = f_split(x, f)
            xpg, xmg = f_split(x, g)
            for sign, target in ((1.0, parts.plus), (-1.0, parts.minus)):
                via_f = xpf * ((one + sign * fg) * 0.5) + xmf * ((one - sign * fg) * 0.5)
                via_g = ((one + sign * fg) * 0.5) * xpg + ((one - sign * fg) * 0.5) * xmg
                assert via_f.allclose(target, tol=1e-12)
                assert via_g.allclose(target, tol=1e-12)


def test_mixed_scalar_vanishes_cl02():
    for pair in wild_pairs(CL02, 10, seed=16):
        for x, y in zip(
            random_multivectors(CL02, 10, seed=17), random_multivectors(CL02, 10, seed=18)
        ):
            a, b = mixed_scalar(x, y, pair)
            assert abs(a) <= 1e-12
            assert abs(b) <= 1e-12


def test_mixed_scalar_blade_pairs_other_algebras():
    e12 = validate_root(basis(CL20)[3])
    pair = RootPair(e12, e12)
    for x, y in zip(
        random_multivectors(CL20, 20, seed=19), random_multivectors(CL20, 20, seed=20)
    ):
        a, b = mixed_scalar(x, y, pair)
        assert abs(a) <= 1e-12
        assert abs(b) <= 1e-12
    zero = Multivector(CL20, (0, 0, 0, 0))
    assert mixed_scalar(zero, zero, pair) == (0.0, 0.0)


def test_mixed_scalar_rejects_non_blade_like():
    roots = random_roots(CL20, 2, seed=21)
    pair = RootPair(roots[0], roots[1])
    assert not pair.blade_like
    with pytest.raises(ContractError, match="blade_like"):
        mixed_scalar(
            random_multivectors(CL20, 1, 22)[0], random_multivectors(CL20, 1, 23)[0], pair
        )


@pytest.mark.parametrize("sig", SIGNATURES)
def test_modulus_pythagoras_blade_like(sig):
    pair = default_pair(sig)
    for x in random_multivectors(sig, 100, seed=24):
        parts = split(x, pair)
        total = x.modulus() ** 2
        parts_sum = parts.plus.modulus() ** 2 + parts.minus.modulus() ** 2
        assert abs(total - parts_sum) <= 1e-12 * max(1.0, total)


def test_exp_swap_identity_trivial():
    pair = default_pair(CL02)
    x = Multivector(CL02, (0.3, -0.2, 0.9, 0.1))
    assert exp_swap_check(0.0, 0.0, x, pair) == 0.0


def test_exp_swap_plus_part_fixed_for_equal_angles():
    pair = default_pair(CL02)
    x = Multivector(CL02, (0.3, -0.2, 0.9, 0.1))
    plus = split(x, pair).plus
    alpha = 0.77
    moved = pair.f.exp(alpha) * plus * pair.g.exp(alpha)
    assert moved.allclose(plus, tol=1e-14)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_exp_swap_random(sig):
    rng = np.random.default_rng(25)
    for pair in wild_pairs(sig, 10, seed=26):
        for x in random_multivectors(sig, 10, seed=27):
            alpha = rng.uniform(-10, 10)
            beta = rng.uniform(-10, 10)
            assert exp_swap_check(alpha, beta, x, pair) <= 1e-10


def test_split_signature_mismatch():
    pair = default_pair(CL02)
    with pytest.raises(SignatureMismatchError):
        split(Multivector.scalar(CL20, 1.0), pair)
    with pytest.raises(SignatureMismatchError):
        f_split(Multivector.scalar(CL20, 1.0), pair.f)


@pytest.mark.parametrize("sig", SIGNATURES)
def test_split_array_matches_gp_sandwich(sig):
    # the one 4x4 matrix against the two broadcast geometric products
    samples = np.random.default_rng(28).uniform(-1, 1, size=(9, 7, 4))
    f = random_roots(sig, 1, seed=29)[0]
    for pair in wild_pairs(sig, 10, seed=30) + [RootPair(f, f), RootPair(f, -f)]:
        got = split_array(samples, pair)
        want = gp_split_array(samples, pair)
        peak = max(float(np.max(np.abs(part))) for part in want)
        for g_part, w_part in zip(got, want):
            assert np.max(np.abs(g_part - w_part)) <= 1e-13 * peak
