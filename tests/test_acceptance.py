"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import time

import numpy as np
from imagegen import ring_blob_image, warp_similarity

from clifford_mellin import algebra, cfmt
from clifford_mellin.algebra import SIGNATURES, CL02, Multivector, basis, gp
from clifford_mellin.imaging import ImageSignalSource, RasterImage, register, to_log_polar
from clifford_mellin.properties import symmetry_pair
from clifford_mellin.roots import RootPair, default_pair, random_roots, validate_root
from clifford_mellin.signal import (
    GridGeometry,
    LogPolarSignal,
    default_geometry,
    random_signal,
    split_signal,
)
from clifford_mellin.split import exp_swap_check, f_split, mixed_scalar, recombine, split


def report(number, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status} ({elapsed:.2f}s): {detail}")
    assert ok, f"criterion {number}: {detail}"


def five_pairs(sig, seed):
    roots = random_roots(sig, 4, seed=seed)
    return [
        default_pair(sig),
        RootPair(roots[0], roots[1]),
        RootPair(roots[2], roots[3]),
        RootPair(roots[0], -roots[0]),
        RootPair(roots[1], roots[1]),
    ]


def test_criterion_1_algebra_axioms():
    start = time.perf_counter()
    worst = 0.0
    for sig in SIGNATURES:
        one, e1, e2, e12 = basis(sig)
        eps = sig.squares
        # multiplication rules on every basis-vector pair
        for k, a in enumerate((e1, e2)):
            for l, b in enumerate((e1, e2)):
                anti = (a * b + b * a).coeffs
                want = np.array([2.0 * eps[k] if k == l else 0.0, 0, 0, 0])
                worst = max(worst, float(np.max(np.abs(anti - want))))
        # duality of the principal-reversed basis on all 16 pairs
        for i, ea in enumerate(basis(sig)):
            for j, eb in enumerate(basis(sig)):
                value = algebra.scalar_product(algebra.principal_reverse(ea), eb)
                worst = max(worst, abs(value - (1.0 if i == j else 0.0)))
        rng = np.random.default_rng(10)
        triples = rng.uniform(-1, 1, size=(3, 10_000, 4))
        left = gp(sig, gp(sig, triples[0], triples[1]), triples[2])
        right = gp(sig, triples[0], gp(sig, triples[1], triples[2]))
        worst = max(worst, float(np.max(np.abs(left - right))))
        samples = rng.uniform(-1, 1, size=(10_000, 4))
        sq_coeffs = np.sum(samples * samples, axis=-1)
        sq_product = algebra.scalar_product_array(
            sig, samples, samples * algebra.principal_reverse_signs(sig)
        )
        worst = max(worst, float(np.max(np.abs(sq_coeffs - sq_product))))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"algebra axioms, max residual {worst:.2e}", elapsed)


def test_criterion_2_root_manifolds():
    start = time.perf_counter()
    worst_square = 0.0
    worst_chart = 0.0
    constraints = {
        (-1, -1): lambda b1, b2, beta: b1**2 + b2**2 + beta**2 - 1.0,
        (1, 1): lambda b1, b2, beta: beta**2 - b1**2 - b2**2 - 1.0,
        (1, -1): lambda b1, b2, beta: beta**2 + b1**2 - b2**2 + 1.0,
    }
    one = {sig: Multivector.scalar(sig, 1.0) for sig in SIGNATURES}
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
    worst = 0.0

    def unit(values):
        out = np.zeros_like(values)
        out[..., 0] = 1.0
        return out

    def exp_arrays(root_coeffs, angles):
        return np.cos(angles)[:, None] * unit(root_coeffs) + np.sin(angles)[:, None] * root_coeffs

    for sig in SIGNATURES:
        n = 334
        roots = random_roots(sig, 2 * n, seed=31)
        f = np.stack([r.value.coeffs for r in roots[:n]])
        g = np.stack([r.value.coeffs for r in roots[n:]])
        x = rng.uniform(-1, 1, size=(n, 4))
        sandwich = gp(sig, f, gp(sig, x, g))
        plus, minus = 0.5 * (x + sandwich), 0.5 * (x - sandwich)
        worst = max(worst, float(np.max(np.abs(plus + minus - x))))
        worst = max(worst, float(np.max(np.abs(gp(sig, f, gp(sig, plus, g)) - plus))))
        worst = max(worst, float(np.max(np.abs(gp(sig, f, gp(sig, minus, g)) + minus))))

        # linear combination through the single-root split of f
        fg = gp(sig, f, g)
        xpf = 0.5 * (x - gp(sig, f, gp(sig, x, f)))
        xmf = 0.5 * (x + gp(sig, f, gp(sig, x, f)))
        combo = gp(sig, xpf, 0.5 * (unit(fg) + fg)) + gp(sig, xmf, 0.5 * (unit(fg) - fg))
        worst = max(worst, float(np.max(np.abs(combo - plus))))

        # exponential swap at random angles
        alpha = rng.uniform(-10, 10, size=n)
        beta = rng.uniform(-10, 10, size=n)
        exp_f = exp_arrays(f, alpha)
        exp_g = exp_arrays(g, beta)
        for sign, part in ((1.0, plus), (-1.0, minus)):
            lhs = gp(sig, exp_f, gp(sig, part, exp_g))
            right = gp(sig, part, exp_arrays(g, beta - sign * alpha))
            left = gp(sig, exp_arrays(f, alpha - sign * beta), part)
            worst = max(worst, float(np.max(np.abs(lhs - right))))
            worst = max(worst, float(np.max(np.abs(lhs - left))))

        # orthogonality of the mixed parts for a blade-like pair
        blade = default_pair(sig)
        fb = np.broadcast_to(blade.f.value.coeffs, (n, 4))
        gb = np.broadcast_to(blade.g.value.coeffs, (n, 4))
        y = rng.uniform(-1, 1, size=(n, 4))
        sw_x = gp(sig, fb, gp(sig, x, gb))
        sw_y = gp(sig, fb, gp(sig, y, gb))
        flip = algebra.principal_reverse_signs(sig)
        cross1 = algebra.scalar_product_array(sig, 0.5 * (x + sw_x), 0.5 * (y - sw_y) * flip)
        cross2 = algebra.scalar_product_array(sig, 0.5 * (x - sw_x), 0.5 * (y + sw_y) * flip)
        worst = max(worst, float(np.max(np.abs(cross1))), float(np.max(np.abs(cross2))))

        # spot checks through the scalar operation surface
        for i in range(10):
            pair = RootPair(roots[i], roots[n + i])
            xm = Multivector(sig, x[i])
            parts = split(xm, pair)
            worst = max(worst, float(np.max(np.abs(recombine(parts).coeffs - x[i]))))
            worst = max(worst, exp_swap_check(float(alpha[i]), float(beta[i]), xm, pair))
            a, b = mixed_scalar(xm, Multivector(sig, y[i]), blade)
            worst = max(worst, abs(a), abs(b))
            commuting, anti = f_split(xm, pair.f)
            worst = max(worst, float(np.max(np.abs((commuting + anti).coeffs - x[i]))))

    elapsed = time.perf_counter() - start
    report(3, worst <= 1e-10 and elapsed < 1.0,
           f"split identities over 10^3 trials, max residual {worst:.2e}", elapsed)


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
    worst = 0.0
    for sig in SIGNATURES:
        blade = default_pair(sig)
        roots = random_roots(sig, 2, seed=61)
        wild = RootPair(roots[0], roots[1])
        h = random_signal(geo, sig, seed=62)
        h2 = random_signal(geo, sig, seed=63)

        for pair in (blade, wild):
            spectrum = cfmt.cfmt_forward(h, pair)
            one = Multivector.scalar(sig, 1.0)
            alpha = 0.6 * one + 0.8 * pair.f.value
            beta_r = 1.2 * one - 0.4 * pair.g.value
            left_res, right_res = cfmt.check_linearity(h, h2, pair, alpha, one, one, beta_r)
            worst = max(worst, left_res, right_res)

            p, q = int(rng.integers(-10, 11)), int(rng.integers(-10, 11))
            shifted_spec = cfmt.cfmt_forward(cfmt.apply_scale_rotate(h, p, q), pair)
            worst = max(
                worst, shifted_spec.max_abs_diff(cfmt.predicted_shift_spectrum(spectrum, p, q))
            )

            rev_s = (-np.arange(geo.n_s)) % geo.n_s
            rev_t = (-np.arange(geo.n_theta)) % geo.n_theta
            reflected = cfmt.cfmt_forward(cfmt.reflect_circle(h), pair)
            worst = max(worst, float(np.max(np.abs(reflected.coeffs - spectrum.coeffs[rev_s, :, :]))))
            reversed_spec = cfmt.cfmt_forward(cfmt.reverse_rotation(h), pair)
            worst = max(worst, float(np.max(np.abs(reversed_spec.coeffs - spectrum.coeffs[:, rev_t, :]))))

            j0, k0 = int(rng.integers(-8, 9)), int(rng.integers(-8, 9))
            moved = cfmt.modulate(h, pair, j0 * geo.dv, k0)
            expected = np.roll(spectrum.coeffs, (j0, k0), axis=(0, 1))
            worst = max(worst, float(np.max(np.abs(cfmt.cfmt_forward(moved, pair).coeffs - expected))))

            plus_sig, minus_sig = split_signal(h, pair)
            plus_spec, minus_spec = spectrum.split()
            worst = max(worst, cfmt.cfmt_forward(plus_sig, pair).max_abs_diff(plus_spec))
            worst = max(worst, cfmt.cfmt_forward(minus_sig, pair).max_abs_diff(minus_spec))

        # blade-like pair identities: magnitude invariance, Pythagoras, Plancherel, Parseval
        spectrum = cfmt.cfmt_forward(h, blade)
        p, q = 7, -9
        mags = cfmt.cfmt_forward(cfmt.apply_scale_rotate(h, p, q), blade).magnitude()
        worst = max(worst, float(np.max(np.abs(mags - spectrum.magnitude()))))

        plus_spec, minus_spec = spectrum.split()
        total = spectrum.magnitude() ** 2
        pythag = np.abs(total - plus_spec.magnitude() ** 2 - minus_spec.magnitude() ** 2)
        worst = max(worst, float(np.max(pythag)) / max(1.0, float(np.max(total))))

        lhs, rhs = cfmt.plancherel_check(h, h2, blade)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        n_sig, n_spec, plus_sq, minus_sq = cfmt.parseval_check(h, blade)
        worst = max(worst, abs(n_sig - n_spec) / n_sig)
        worst = max(worst, abs(n_spec**2 - plus_sq - minus_sq) / n_spec**2)
    elapsed = time.perf_counter() - start
    report(6, worst <= 1e-10 and elapsed < 30.0,
           f"theorem suite, max residual {worst:.2e}", elapsed)


def test_criterion_7_derivative_and_power_scaling():
    start = time.perf_counter()
    geo = default_geometry(32)
    worst_derivative = 0.0
    worst_power = 0.0
    for sig in SIGNATURES:
        roots = random_roots(sig, 2, seed=70)
        pair = RootPair(roots[0], roots[1])
        smooth = random_signal(geo, sig, seed=71, band_limit=5)
        for order in (1, 2):
            result = cfmt.check_derivative_theorems(smooth, pair, order)
            assert result.band_limited
            worst_derivative = max(
                worst_derivative, result.radial_residual, result.angular_residual
            )
        s_col = geo.s_values[:, None]
        t_row = geo.theta_values[None, :]
        bump = np.exp(-((s_col / 0.8) ** 2)) * np.exp(-(((t_row - np.pi) / 0.5) ** 2))
        h = LogPolarSignal.from_channels(geo, sig, m0=bump)
        for m, n in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1)):
            worst_power = max(worst_power, cfmt.check_power_scaling(h, pair, m, n))
    elapsed = time.perf_counter() - start
    report(
        7,
        worst_derivative <= 1e-8 and worst_power <= 1e-5 and elapsed < 30.0,
        f"derivatives {worst_derivative:.2e} (tol 1e-8), power scaling {worst_power:.2e}"
        " (tol 1e-5)",
        elapsed,
    )


def test_criterion_8_symmetry_separation():
    start = time.perf_counter()
    geo = default_geometry(32)
    worst = 0.0
    pure_ok = True
    for sig in SIGNATURES:
        pair = symmetry_pair(sig)
        h = random_signal(geo, sig, seed=80, channels=(0,))
        components = cfmt.symmetry_decompose(h, pair)
        worst = max(worst, max(components.off_span.values()))

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
    report(8, worst <= 1e-10 and pure_ok and elapsed < 10.0,
           f"four-channel separation, off-span {worst:.2e}, parity-pure inputs clean",
           elapsed)


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

    t_fast = min(
        _timed(lambda: cfmt.cfmt_fast(h, pair)) for _ in range(3)
    )
    bins = geo.n_theta  # one full row of the direct sum, scaled to all bins
    t0 = time.perf_counter()
    v = float(geo.v_values[0])
    for k in geo.k_values:
        cfmt.cfmt_direct(h, pair, v, float(k))
    t_direct_est = (time.perf_counter() - t0) * (geo.n_s * geo.n_theta) / bins
    ratio = t_direct_est / t_fast
    elapsed = time.perf_counter() - start
    report(
        10,
        ratio >= 8.0,
        f"fast {t_fast*1e3:.1f} ms vs direct est {t_direct_est:.1f} s at 256x256"
        f" ({bins} bins measured): {ratio:.0f}x speedup (target 10x, gate 8x)",
        elapsed,
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
