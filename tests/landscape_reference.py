"""Independent landscape reference for the tests: the energy, gradient and
Hessian as each public function computed them on its own, validating its
input and building its per-row constants on every call.  The package
computes them in kernels built once per lattice size, ``model._kernels``,
over a pack of per-row constants, ``model._pack``; the tests check that the
kernels and the public functions on top of them return these functions'
bits."""

import numpy as np

from frustra.model import _check_alphas, _per_row, ring


def rescaled_energy(alphas, g, jbar):
    """Dimensionless mean-field energy of a coherence configuration.

    Acts on the last axis: a stack of configurations (rows, N) takes ``g``
    and ``jbar`` as scalars or one value per row and returns one energy per
    row; a single configuration returns a float.
    """
    a = _check_alphas(alphas)
    g, jbar = _per_row(g), _per_row(jbar)
    right = a[..., ring(a.shape[-1]).right]
    energy = np.sum(a * a - 0.5 * np.sqrt(1.0 + 4.0 * g * g * a * a)
                    + 2.0 * jbar * a * right, axis=-1)
    return float(energy) if a.ndim == 1 else energy


def energy_gradient(alphas, g, jbar) -> np.ndarray:
    """Gradient of :func:`rescaled_energy` with respect to each coherence,
    along the last axis (stacks as in :func:`rescaled_energy`).

    Component n is  2 jbar a_{n-1} + 2 a_n + 2 jbar a_{n+1}
    - 2 g^2 a_n / sqrt(1 + 4 g^2 a_n^2), cyclic in n.
    """
    a = _check_alphas(alphas)
    g, jbar = _per_row(g), _per_row(jbar)
    root = np.sqrt(1.0 + 4.0 * g * g * a * a)
    tables = ring(a.shape[-1])
    neighbours = a[..., tables.left] + a[..., tables.right]
    return 2.0 * a + 2.0 * jbar * neighbours - 2.0 * g * g * a / root


def energy_hessian(alphas, g, jbar) -> np.ndarray:
    """Hessian of :func:`rescaled_energy`: cyclic tridiagonal with corners,
    one N x N matrix per row of a stack (stacks as in
    :func:`rescaled_energy`).

    Diagonal entries are 2 - 2 g^2 / (1 + 4 g^2 a_n^2)^{3/2}; the cyclic
    first off-diagonals carry 2 jbar.
    """
    a = _check_alphas(alphas)
    g, jbar = _per_row(g), _per_row(jbar)
    n = a.shape[-1]
    site, right = np.arange(n), ring(n).right
    hess = np.zeros(a.shape + (n,))
    hess[..., site, site] = _hessian_diagonal(a, g)
    hess[..., site, right] = hess[..., right, site] = 2.0 * jbar
    return hess


def _hessian_diagonal(alphas, g):
    """The diagonal entries 2 - 2 g^2 / (1 + 4 g^2 a^2)^{3/2} of
    :func:`energy_hessian`, elementwise, with ``g`` broadcast against the
    coherences."""
    # at huge couplings the power overflows to inf and the term to its
    # exact limit 0; past g of about 9.5e153 2 g^2 overflows as well, and is
    # held at the largest finite double so that inf / inf does not turn
    # that limit into NaN
    with np.errstate(over="ignore"):
        curvature = np.minimum(2.0 * g * g, np.finfo(float).max)
        return 2.0 - curvature / (1.0 + 4.0 * g * g * alphas * alphas) ** 1.5

