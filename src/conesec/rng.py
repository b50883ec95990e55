"""Deterministic random generation utilities.

All randomness in the library flows through Philox counter-based generators
keyed by an explicit integer seed, so results are reproducible independent of
call ordering in parallel sweeps.
"""

from __future__ import annotations

import numpy as np


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed))


def sample_ball(n: int, num: int, seed: int) -> np.ndarray:
    """``num`` points uniform in the unit ball of R^n, shape (num, n).

    Rejection-free: Gaussian direction times radius^(1/n).
    """
    rng = generator(seed)
    g = rng.standard_normal((num, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # Gaussians are never exactly 0 in double precision for our sizes.
    dirs = g / norms
    radii = rng.random((num, 1)) ** (1.0 / n)
    return dirs * radii


def sample_sphere(n: int, num: int, seed: int) -> np.ndarray:
    """``num`` points uniform on the unit sphere S^(n-1), shape (num, n)."""
    rng = generator(seed)
    g = rng.standard_normal((num, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def sphere_grid(n: int, num: int, seed: int) -> np.ndarray:
    """Seeded direction grid: uniform sphere sample plus the +-basis vectors.

    Used wherever a body has to be probed on a reproducible set of directions
    that always includes the coordinate axes.
    """
    eye = np.eye(n)
    base = np.vstack([eye, -eye])
    if n == 1:
        return base
    return np.vstack([base, sample_sphere(n, num, seed)])
