"""Shared corpus builders for the test suite."""

import numpy as np

from clifford_mellin.algebra import CL11, Multivector, gp
from clifford_mellin.cfmt import _kernel_values
from clifford_mellin.roots import RootPair, random_roots, sample_root


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
