"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Criteria 1, 3, 6, 7 and 8 run rows of the property table
(``clifford_mellin.properties.TABLE``, the one ``clifford-mellin verify``
prints) on cases built from their own seeds, grids and pairs, so each
identity of the paper is written once.  Every row a criterion names must run
on each of its cases, not skipped and not refused, and read within its gate.
Criteria 3, 6 and 7 also run their rows on defect cases, whose inputs break
each identity, and criteria 1 and 8 run theirs with one sign of the algebra
or the transform's channels broken, patched for the run and restored; each
needs every row above the gate there: a check that cannot fail fails its
criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
from imagegen import ring_blob_image, warp_similarity

from clifford_mellin import algebra, cfmt
from clifford_mellin.algebra import SIGNATURES, CL02, Multivector, gp
from clifford_mellin.imaging import ImageSignalSource, RasterImage, register, to_log_polar
from clifford_mellin.properties import Case, case_rows, run_inputs, symmetry_pair
from clifford_mellin.roots import (
    RootOfMinusOne, RootPair, default_pair, random_roots, validate_root)
from clifford_mellin.signal import GridGeometry, LogPolarSignal, default_geometry, random_signal
from clifford_mellin.split import split

ALGEBRA_ROWS = ("multiplication_rules", "associativity", "basis_duality", "modulus_identity")
SPLIT_ROWS = ("split_reconstruction", "split_eigen_action", "split_linear_combination",
              "split_exp_swap")
THEOREM_ROWS = ("left_linearity", "right_linearity", "scale_rotate_covariance",
                "reflection_radial", "reflection_angular", "modulation_shift",
                "split_transform_commutation")
BLADE_ROWS = ("magnitude_invariance", "spectral_modulus_pythagoras", "plancherel", "parseval")
DERIVATIVE_ROWS = tuple(f"derivative_{axis}_order_{n}" for n in (1, 2)
                        for axis in ("radial", "angular"))
POWER_ROWS = ("power_scaling_10", "power_scaling_01", "power_scaling_11")


def report(number, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status} ({elapsed:.2f}s): {detail}")
    assert ok, f"criterion {number}: {detail}"


def table_residuals(case, names):
    """The residual of each named table row on case, which must run and
    measure every one of them."""
    rows = case_rows(case, names)
    ran = sorted(row["property"] for row in rows)
    assert ran == sorted(names), f"{case.sig.name} {case.name}: ran {ran}"
    for row in rows:
        assert row["residual"] is not None, f"{row['property']} on {case.sig.name}: {row['status']}"
    return [row["residual"] for row in rows]


def rotated(mapping):
    """mapping with each key holding the next key's value."""
    values = list(mapping.values())
    return dict(zip(mapping, values[1:] + values[:1]))


def five_pairs(sig, seed):
    a, b, c, d = random_roots(sig, 4, seed=seed)
    return [default_pair(sig), RootPair(a, b), RootPair(c, d), RootPair(a, -a), RootPair(b, b)]


def broken_algebras():
    """(patch, rows) pairs: a patch that breaks the algebra, as a context
    manager, and the rows that must read the break."""
    product, signs = algebra._product, algebra.principal_reverse_signs

    def flipped_product(squares, a, b):  # the e1^2 a1 b1 term of the scalar part negated
        c0, *rest = product(squares, a, b)
        return (c0 - 2.0 * squares[0] * a[1] * b[1], *rest)

    def flipped_terms(terms):  # the e12 e12 term of the scalar part negated
        (first, rest), *others = terms
        op, i, j = rest[-1]
        return ((first, (*rest[:-1], (np.add if op is np.subtract else np.subtract, i, j))),
                *others)

    return [
        (mock.patch.object(algebra, "_product", flipped_product), ("multiplication_rules",)),
        (mock.patch.dict(algebra._TERMS, {key: flipped_terms(terms)
                                          for key, terms in algebra._TERMS.items()}),
         ("associativity",)),
        (mock.patch.object(algebra, "principal_reverse_signs",
                           lambda sig: signs(sig) * (1.0, -1.0, 1.0, 1.0)),
         ("basis_duality", "modulus_identity")),
    ]


def test_criterion_1_algebra_axioms():
    start = time.perf_counter()
    worst, caught = 0.0, np.inf
    for inputs in run_inputs({}).values():
        rng = np.random.default_rng(10)
        for _ in range(5):  # 2000 triples and 2000 moduli a case: 10^4 of each per algebra
            worst = max(worst, *table_residuals(Case(inputs, "-", None, rng), ALGEBRA_ROWS))
        # defects: one sign of the product, of gp's terms or of the principal reverse
        for patch, names in broken_algebras():
            with patch:
                caught = min(caught, *table_residuals(Case(inputs, "-", None, rng), names))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-12 < caught and elapsed < 1.0,
           f"algebra axioms, max residual {worst:.2e}, defects from {caught:.2e}", elapsed)


def test_criterion_2_root_manifolds():
    start = time.perf_counter()
    worst_square = 0.0
    worst_chart = 0.0
    constraints = {
        (-1, -1): lambda b1, b2, beta: b1**2 + b2**2 + beta**2 - 1.0,
        (1, 1): lambda b1, b2, beta: beta**2 - b1**2 - b2**2 - 1.0,
        (1, -1): lambda b1, b2, beta: beta**2 + b1**2 - b2**2 + 1.0,
    }
    for sig in SIGNATURES:
        roots = random_roots(sig, 10_000, seed=20)
        coeffs = np.stack([r.value.coeffs for r in roots])
        squares = gp(sig, coeffs, coeffs)
        squares[:, 0] += 1.0
        worst_square = max(worst_square, float(np.max(np.abs(squares))))
        quadric = constraints[sig.squares]
        residuals = quadric(coeffs[:, 1], coeffs[:, 2], coeffs[:, 3])
        scale = np.maximum(1.0, coeffs[:, 3] ** 2 + coeffs[:, 1] ** 2 + coeffs[:, 2] ** 2)
        worst_chart = max(worst_chart, float(np.max(np.abs(residuals) / scale)))
        # spot validation through the scalar path
        validate_root(roots[0].value)
    worst = max(worst_square, worst_chart)
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-12 and elapsed < 1.0,
           f"10^4 roots per algebra, squares {worst_square:.2e}, quadrics {worst_chart:.2e}",
           elapsed)


def test_criterion_3_split_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    worst, caught = 0.0, np.inf
    for sig, inputs in run_inputs({}).items():
        n = 334
        roots = random_roots(sig, 2 * n, seed=31)
        blade = default_pair(sig)
        for f, g in zip(roots[:n], roots[n:]):
            worst = max(worst, *table_residuals(Case(inputs, "random", RootPair(f, g), rng),
                                                SPLIT_ROWS),
                        *table_residuals(Case(inputs, "blade", blade, rng),
                                         ("split_orthogonality",)))
        # defects: the pair doubled, so f*f = g*g = -4, and the split parts of another x
        for name, pair, names in (("random", RootPair(roots[0], roots[n]), SPLIT_ROWS),
                                  ("blade", blade, ("split_orthogonality",))):
            defect = Case(inputs, name, RootPair(RootOfMinusOne(2.0 * pair.f.value),
                                                 RootOfMinusOne(2.0 * pair.g.value)), rng)
            defect.parts = split(Multivector(sig, rng.uniform(-1, 1, size=4)), pair)
            caught = min(caught, *table_residuals(defect, names))
    elapsed = time.perf_counter() - start
    report(3, worst <= 1e-10 < caught and elapsed < 1.0,
           f"split identities on 334 pairs per algebra, max residual {worst:.2e},"
           f" defects from {caught:.2e}", elapsed)


def test_criterion_4_transform_round_trip():
    start = time.perf_counter()
    geo = default_geometry(64)
    worst = 0.0
    for sig in SIGNATURES:
        for pair in five_pairs(sig, seed=40):
            for s in range(100):
                h = random_signal(geo, sig, seed=4000 + s)
                back = cfmt.cfmt_inverse(cfmt.cfmt_forward(h, pair))
                worst = max(worst, h.max_abs_diff(back))
    elapsed = time.perf_counter() - start
    report(4, worst <= 1e-10 and elapsed < 30.0,
           f"1500 round trips at 64x64, max error {worst:.2e}", elapsed)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    geo = default_geometry(32)
    worst = 0.0
    for sig in SIGNATURES:
        roots = random_roots(sig, 2, seed=50)
        for pair in (default_pair(sig), RootPair(roots[0], roots[1])):
            for s in range(2):
                h = random_signal(geo, sig, seed=5000 + s)
                oracle = cfmt.direct_spectrum(h, pair)
                fast = cfmt.cfmt_fast(h, pair)
                forward = cfmt.cfmt_forward(h, pair)
                worst = max(worst, float(np.max(np.abs(oracle.coeffs - fast.coeffs))))
                worst = max(worst, float(np.max(np.abs(oracle.coeffs - forward.coeffs))))
    elapsed = time.perf_counter() - start
    report(5, worst <= 1e-10 and elapsed < 60.0,
           f"fast and forward vs direct double sum at 32x32, max {worst:.2e}", elapsed)


def test_criterion_6_theorem_suite():
    start = time.perf_counter()
    geo = default_geometry(32)
    rng = np.random.default_rng(60)
    signals = {"h": random_signal(geo, CL02, seed=62), "h2": random_signal(geo, CL02, seed=63)}
    worst, caught = 0.0, np.inf
    for sig, inputs in run_inputs(signals).items():
        blade, wild = default_pair(sig), RootPair(*random_roots(sig, 2, seed=61))
        for name, pair, names in (("blade", blade, THEOREM_ROWS + BLADE_ROWS),
                                  ("random", wild, THEOREM_ROWS)):
            case = Case(inputs, name, pair, rng)
            worst = max(worst, *table_residuals(case, names))
            # defect: h2's spectrum stands for h's, and h's split spectra are swapped
            defect = Case(inputs, name, pair, rng)
            defect.spectrum, defect.split_spectra = case.spectrum2, case.split_spectra[::-1]
            caught = min(caught, *table_residuals(defect, names))
    elapsed = time.perf_counter() - start
    report(6, worst <= 1e-10 < caught and elapsed < 30.0,
           f"theorem suite, max residual {worst:.2e}, defects from {caught:.2e}", elapsed)


def test_criterion_7_derivative_and_power_scaling():
    start = time.perf_counter()
    geo = default_geometry(32)
    s_col, t_row = geo.s_values[:, None], geo.theta_values[None, :]
    bump = np.exp(-((s_col / 0.8) ** 2)) * np.exp(-(((t_row - np.pi) / 0.5) ** 2))
    signals = {"smooth": random_signal(geo, CL02, seed=71, band_limit=5),
               "bump": LogPolarSignal.from_channels(geo, CL02, m0=bump)}
    worst_derivative, worst_power, caught = 0.0, 0.0, np.inf
    for sig, inputs in run_inputs(signals).items():
        pair = RootPair(*random_roots(sig, 2, seed=70))
        case = Case(inputs, "random", pair, None)
        worst_derivative = max(worst_derivative, *table_residuals(case, DERIVATIVE_ROWS))
        worst_power = max(worst_power, *table_residuals(case, POWER_ROWS),
                          *(cfmt.check_power_scaling(inputs.bump, pair, m, n)
                            for m, n in ((2, 0), (0, 2))))  # orders with no table row
        # defect: each order judged on the next order's derivatives and grid sums
        mixed = SimpleNamespace(**vars(inputs) | {"derivatives": rotated(inputs.derivatives),
                                                  "power_sums": rotated(inputs.power_sums)})
        caught = min(caught, *table_residuals(Case(mixed, "random", pair, None),
                                              DERIVATIVE_ROWS + POWER_ROWS))
    elapsed = time.perf_counter() - start
    report(7, worst_derivative <= 1e-8 and worst_power <= 1e-5 < caught and elapsed < 30.0,
           f"derivatives {worst_derivative:.2e} (tol 1e-8), power scaling {worst_power:.2e}"
           f" (tol 1e-5), defects from {caught:.2e}", elapsed)


def test_criterion_8_symmetry_separation():
    start = time.perf_counter()
    geo = default_geometry(32)
    worst = 0.0
    pure_ok = True
    signals = {"real": random_signal(geo, CL02, seed=80, channels=(0,))}
    forward = cfmt.cfmt_forward

    def rolled_forward(h, pair):  # each channel's coefficients moved to the next channel
        spectrum = forward(h, pair)
        return cfmt.Spectrum(spectrum.geometry, pair, np.roll(spectrum.coeffs, 1, axis=-1))

    caught, all_leak = np.inf, True
    for sig, inputs in run_inputs(signals).items():
        pair = symmetry_pair(sig)
        worst = max(worst, *table_residuals(Case(inputs, "symmetry", pair, None),
                                            ("symmetry_separation",)))
        # defect: the transform's channels rolled, so every component leaks
        with mock.patch.object(cfmt, "cfmt_forward", rolled_forward):
            caught = min(caught, *table_residuals(Case(inputs, "symmetry", pair, None),
                                                  ("symmetry_separation",)))
            leaks = cfmt.symmetry_decompose(inputs.real, pair).off_span.values()
        all_leak = all_leak and min(leaks) > 1e-10

        # parity-pure input concentrates in exactly one component
        s = geo.s_values[:, None] * np.ones((1, geo.n_theta))
        theta = np.ones((geo.n_s, 1)) * geo.theta_values[None, :]
        pure = LogPolarSignal.from_channels(geo, sig, m0=np.sin(s) * np.cos(theta))
        decomposed = cfmt.symmetry_decompose(pure, pair)
        energies = {
            label: float(np.sum(getattr(decomposed, label).coeffs ** 2))
            for label in ("ee", "eo", "oe", "oo")
        }
        top = max(energies.values())
        others = sorted(energies.values())[:-1]
        pure_ok = pure_ok and energies["eo"] == top and all(e <= 1e-20 * top for e in others)
    elapsed = time.perf_counter() - start
    report(8, worst <= 1e-10 < caught and all_leak and pure_ok and elapsed < 10.0,
           f"four-channel separation, off-span {worst:.2e}, parity-pure inputs clean,"
           f" defects from {caught:.2e}", elapsed)


def test_criterion_9_registration():
    start = time.perf_counter()
    small = default_geometry(16)
    h = random_signal(small, CL02, seed=90)
    exact = True
    for p in range(small.n_s):
        for q in range(small.n_theta):
            moved = cfmt.apply_scale_rotate(h, p, q)
            result = register(h, moved)
            exact = exact and (result.steps[0] - p) % small.n_s == 0
            exact = exact and (result.steps[1] - q) % small.n_theta == 0

    geo = GridGeometry(64, 64, np.log(2.0), np.log(55.0))
    center = (63.5, 63.5)
    rng = np.random.default_rng(91)
    hits = 0
    trials = 20
    for i in range(trials):
        image = ring_blob_image(128, seed=900 + i)
        angle = float(rng.uniform(-np.pi, np.pi))
        scale = float(np.exp(rng.uniform(-0.2, 0.2)))
        warped = warp_similarity(image, angle, scale, center=center)
        base = to_log_polar(ImageSignalSource(RasterImage(image), CL02, (0,)), geo, center=center)
        moved = to_log_polar(ImageSignalSource(RasterImage(warped), CL02, (0,)), geo, center=center)
        result = register(base, moved)
        angle_err = abs((result.angle - angle + np.pi) % (2 * np.pi) - np.pi)
        scale_err = abs(np.log(result.scale) - np.log(scale))
        if result.matched and angle_err <= geo.dtheta and scale_err <= geo.ds:
            hits += 1
    elapsed = time.perf_counter() - start
    report(9, exact and hits == trials and elapsed < 60.0,
           f"integer shifts exact, {hits}/{trials} resampled similarities within one cell",
           elapsed)


def test_criterion_10_fast_path_speedup():
    start = time.perf_counter()
    geo = default_geometry(256)
    pair = default_pair(CL02)
    h = random_signal(geo, CL02, seed=100)

    # one untimed call each, so the minima compare warm calls: the first
    # direct_spectrum calls at 256^2 run about twice as long as later ones
    cfmt.cfmt_fast(h, pair)
    cfmt.direct_spectrum(h, pair)
    t_fast = min(_timed(lambda: cfmt.cfmt_fast(h, pair)) for _ in range(3))
    t_direct = min(_timed(lambda: cfmt.direct_spectrum(h, pair)) for _ in range(2))
    ratio = t_direct / t_fast
    elapsed = time.perf_counter() - start
    report(10, ratio >= 8.0,
           f"fast {t_fast*1e3:.1f} ms vs direct_spectrum {t_direct*1e3:.0f} ms at 256x256:"
           f" {ratio:.0f}x speedup (target 10x, gate 8x)", elapsed)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
