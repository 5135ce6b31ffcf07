"""Shared corpus builders and independent reference implementations for the
test suite."""

import numpy as np

from clifford_mellin.algebra import CL11, Multivector, _product, gp
from clifford_mellin.cfmt import _kernel_values, _map, _radial_rotations, _reversal_index
from clifford_mellin.imaging import _corner_plan
from clifford_mellin.roots import RootPair, random_roots, sample_root
from clifford_mellin.signal import TWO_PI


def moderate_roots(sig, n, seed):
    """Roots with chart parameters of order one, so products stay well scaled."""
    rng = np.random.default_rng(seed)
    roots = []
    for _ in range(n):
        if sig.squares == (-1, -1):
            radius = np.sqrt(rng.uniform(0.0, 1.0))
            angle = rng.uniform(0.0, 2.0 * np.pi)
            b1, b2 = radius * np.cos(angle), radius * np.sin(angle)
        elif sig == CL11:
            b2 = rng.uniform(1.0, 2.0) * rng.choice((-1.0, 1.0))
            bound = np.sqrt(b2 * b2 - 1.0)
            b1 = rng.uniform(-bound, bound)
        else:
            b1, b2 = rng.uniform(-1.5, 1.5, size=2)
        branch = 1 if rng.uniform() < 0.5 else -1
        roots.append(sample_root(sig, float(b1), float(b2), branch))
    return roots


def moderate_pairs(sig, n, seed):
    roots = moderate_roots(sig, 2 * n, seed)
    return [RootPair(roots[2 * i], roots[2 * i + 1]) for i in range(n)]


def wild_pairs(sig, n, seed):
    """Pairs drawn from the full documented sampling windows."""
    roots = random_roots(sig, 2 * n, seed=seed)
    return [RootPair(roots[2 * i], roots[2 * i + 1]) for i in range(n)]


def blade_product(a_bits, b_bits, squares):
    """Product of two basis blades given as bitmasks (bit0 = e1, bit1 = e2):
    each generator of b moves left past the generators of a with a higher
    index (one sign flip per transposition), and a repeated generator
    contracts to its square.  Returns (result bitmask, sign)."""
    sign = 1
    for k in (0, 1):
        if b_bits & (1 << k):
            above = a_bits & ~((1 << (k + 1)) - 1)
            if bin(above).count("1") & 1:
                sign = -sign
            if a_bits & (1 << k):
                sign *= squares[k]
    return a_bits ^ b_bits, sign


def product_tensor(sig):
    """Dense (4, 4, 4) tensor C with (a b)_k = sum_ij a_i b_j C[i, j, k], built
    from blade_product alone: the multiplication-table oracle for gp.  Blade
    index i is bitmask i, so (1, e1, e2, e12) are 0b00, 0b01, 0b10, 0b11."""
    tensor = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            target, sign = blade_product(i, j, sig.squares)
            tensor[i, j, target] = sign
    return tensor


def stacked_product(sig, a, b):
    """The product formula on strided component views of (..., 4) arrays,
    stacked: the reference for the bits of gp's planes evaluation."""
    parts = _product(sig.squares, [a[..., i] for i in range(4)], [b[..., i] for i in range(4)])
    return np.stack(parts, axis=-1)


def wide_coefficients(rng, *shape):
    """Random signs, magnitudes from 1e-3 to 1e3, a tenth of the entries +-0.0."""
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    x[rng.random(shape) < 0.1] *= 0.0
    return x


def random_multivectors(sig, n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return [Multivector(sig, c) for c in rng.uniform(-scale, scale, size=(n, 4))]


def literal_direct_sum(h, pair, v, k):
    """The defining sum at (v, k) as two full-grid geometric products:
    exp(-f v s) h(s, theta) exp(-g k theta) at every sample, then summed."""
    geo = h.geometry
    sig = h.signature
    kernel_left = _kernel_values(pair.f, -v * geo.s_values)
    kernel_right = _kernel_values(pair.g, -k * geo.theta_values)
    terms = gp(sig, kernel_left[:, None, :], h.samples)
    terms = gp(sig, terms, kernel_right[None, :, :])
    return terms.reshape(-1, 4).sum(axis=0) * (geo.ds * geo.dtheta / (2.0 * np.pi))


def joint_pass_forward(h, pair):
    """cfmt_forward's coefficients with each FFT pass one call over both
    planes: the reference for the bits of the per-plane angular pass."""
    geo = h.geometry
    plan = pair.plan
    rows = plan.basis_f @ _radial_rotations(geo, False, geo.ds * geo.dtheta / TWO_PI, (-1.0, -1.0))
    z = _map(h.samples, plan.inv_g).view(complex)
    np.fft.fft(z, axis=1, out=z)
    z = _map(z, plan.g_to_f, swap=(False, True)).view(complex)
    np.fft.fft(z, axis=0, out=z)
    return _map(z, rows, swap=(True, False))


def joint_pass_inverse(spectrum):
    """cfmt_inverse's samples with each FFT pass one call over both planes."""
    geo = spectrum.geometry
    plan = spectrum.pair.plan
    rows = _radial_rotations(geo, True, 1.0 / geo.span, (1.0, 1.0)) @ plan.inv_f
    z = _map(spectrum.coeffs, rows, swap=(True, True)).view(complex)
    np.fft.ifft(z, axis=0, norm="forward", out=z)
    z = _map(z, plan.f_to_g).view(complex)
    np.fft.ifft(z, axis=1, norm="forward", out=z)
    return _map(z, plan.basis_g)


def joint_pass_fast(h, pair):
    """cfmt_fast's coefficients with its 2-D FFT one fft2 over both planes."""
    geo = h.geometry
    plan = pair.plan
    rows = plan.split @ _radial_rotations(geo, False, geo.ds * geo.dtheta / TWO_PI, (1.0, -1.0))
    z = _map(h.samples, plan.inv_split).view(complex)
    np.fft.fft2(z, axes=(0, 1), out=z)
    z[:, :, 0] = z[_reversal_index(geo.n_s), :, 0]
    return _map(z, rows, swap=(True, True))


def gp_split_array(samples, pair):
    """The split x_pm = (x +- f x g)/2 of a (..., 4) array by two broadcast
    geometric products, the reference for the matrix form."""
    sig = pair.signature
    f = np.broadcast_to(pair.f.value.coeffs, samples.shape)
    g = np.broadcast_to(pair.g.value.coeffs, samples.shape)
    sandwich = gp(sig, f, gp(sig, samples, g))
    return 0.5 * (samples + sandwich), 0.5 * (samples - sandwich)


def channelwise_correlation(h1, h2):
    """Channel-summed cyclic cross-correlation of the mean-removed signals,
    one complex fft2/ifft2 per channel: the reference for register."""
    a1 = h1.samples - h1.samples.mean(axis=(0, 1), keepdims=True)
    a2 = h2.samples - h2.samples.mean(axis=(0, 1), keepdims=True)
    corr = np.zeros(h1.samples.shape[:2])
    for c in range(4):
        corr += np.fft.ifft2(np.fft.fft2(a1[..., c]) * np.conj(np.fft.fft2(a2[..., c]))).real
    return corr


def four_channel_correlation(h1, h2):
    """register's correlation as one rfft2 over all four mean-removed
    channels of each signal, zero channels included: the reference for the
    bits of its correlation."""
    def spectrum(h):
        return np.fft.rfft2(h.samples - h.samples.mean(axis=(0, 1), keepdims=True), axes=(0, 1))

    geo = h1.geometry
    cross = spectrum(h1) * np.conj(spectrum(h2))
    return np.fft.irfft2(cross.sum(axis=-1), s=(geo.n_s, geo.n_theta))


def interleaved_centred_spectrum(h):
    """(n_s, n_theta // 2 + 1, 4) rfft2 of h's mean-removed samples, the
    means taken over all four interleaved channels at once and one rfft2
    per channel with a nonzero sample: the reference for the bits of
    register's cached channel planes."""
    means = h.samples.mean(axis=(0, 1))
    n_s, n_theta = h.samples.shape[:2]
    spectrum = np.zeros((n_s, n_theta // 2 + 1, 4), dtype=complex)
    for c in range(4):
        channel = h.samples[..., c]
        if channel.any():
            spectrum[..., c] = np.fft.rfft2(channel - means[c])
    return spectrum


def correlation_register(corr, geo, min_confidence=1.05):
    """(steps, matched, confidence) from a correlation surface, masking the
    main lobe one cell at a time: the reference for register's peak search."""
    pi, pt = np.unravel_index(int(np.argmax(corr)), corr.shape)
    excl_s = max(1, geo.n_s // 16)
    excl_t = max(1, geo.n_theta // 16)
    masked = corr.copy()
    for di in range(-excl_s, excl_s + 1):
        for dt in range(-excl_t, excl_t + 1):
            masked[(pi + di) % geo.n_s, (pt + dt) % geo.n_theta] = -np.inf
    second = float(np.max(masked))
    peak = float(corr[pi, pt])
    if second <= 0.0:
        confidence = np.inf if peak > 0.0 else 1.0
    else:
        confidence = peak / second
    steps = (
        int((pi + geo.n_s // 2) % geo.n_s - geo.n_s // 2),
        int((pt + geo.n_theta // 2) % geo.n_theta - geo.n_theta // 2),
    )
    return steps, bool(confidence >= min_confidence), float(confidence)


def multivector_field(source):
    """(h, w, 4) blade coefficients of an ImageSignalSource's image, each
    channel written into its mapped blade and the rest zero."""
    image = source.image
    field = np.zeros((image.height, image.width, 4))
    for channel, blade in enumerate(source.mapping):
        field[..., blade] = image.pixels[..., channel]
    return field


def row_gather_bilinear(field, xs, ys):
    """Bilinear reads of an (h, w, c) field at float (x, y) positions, each
    corner reading whole (c,) pixel rows of the flattened field: the
    reference for the bits of the plane-wise gather."""
    h, w, c = field.shape
    flat = field.reshape(h * w, c)
    out = np.zeros(xs.shape + (c,))
    for index, factor in zip(*_corner_plan(xs, ys, h, w)):
        out += flat[index] * factor[..., None]
    return out


def field_log_polar_samples(source, geometry, center):
    """Log-polar samples read from the zero-padded four-channel field of the
    image, corner by corner with np.where: the reference for to_log_polar."""
    field = multivector_field(source)
    h, w = field.shape[:2]
    cx, cy = center
    radii = np.exp(geometry.s_values)[:, None]
    angles = geometry.theta_values[None, :]
    xs = cx + radii * np.cos(angles)
    ys = cy + radii * np.sin(angles)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx = xs - x0
    fy = ys - y0
    out = np.zeros(xs.shape + (4,))
    for dy in (0, 1):
        for dx in (0, 1):
            xx = x0 + dx
            yy = y0 + dy
            weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            valid = (xx >= 0) & (xx < w) & (yy >= 0) & (yy < h)
            values = field[yy.clip(0, h - 1), xx.clip(0, w - 1)]
            out += np.where(valid[..., None], values * weight[..., None], 0.0)
    return out
