"""Independent Williamson reference for the tests: the generic Cholesky +
real-Schur construction, which needs no position/momentum split and so
also diagonalizes forms that couple positions to momenta.  The package
itself only builds split forms and decomposes them with one Cholesky pair
and one SVD; the tests compare that route against this one.  The one-point
cavity moments read off a dense covariance matrix (``covariance`` of a
decomposition) are here too, as the reference for ``site_moments``."""

import numpy as np
from scipy.linalg import schur, solve_triangular

from frustra.errors import DomainError, InstabilityError
from frustra.fluctuations import (
    CRITICAL_REGIME_FACTOR,
    QuadraticForm,
    WilliamsonDecomposition,
    _offending_direction,
    symplectic_form,
)


def _williamson_generic(form: QuadraticForm) -> WilliamsonDecomposition:
    """Cholesky + real-Schur Williamson construction (no split structure)."""
    matrix, omega = form.matrix, form.symplectic_form
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise InstabilityError(
            f"quadratic form is not positive definite: {_offending_direction(matrix)}")
    anti = chol.T @ omega @ chol
    t_mat, z_mat = schur(anti, output="real")
    n_modes = matrix.shape[0] // 2
    eps = np.empty(n_modes)
    columns = []
    for k in range(n_modes):
        value = t_mat[2 * k, 2 * k + 1]
        first, second = z_mat[:, 2 * k], z_mat[:, 2 * k + 1]
        if value < 0:
            value, first, second = -value, second, first
        eps[k] = value
        columns.append((first, second))
    order = np.argsort(eps)
    eps = eps[order]
    orth = np.empty_like(z_mat)
    for new, old in enumerate(order):
        orth[:, 2 * new], orth[:, 2 * new + 1] = columns[old]
    scale = np.repeat(np.sqrt(eps), 2)
    s_matrix = scale[:, None] * solve_triangular(chol, orth, lower=True, trans="T").T
    return _finalize(form, eps, s_matrix)


def _finalize(form, eps, s_matrix) -> WilliamsonDecomposition:
    """Residuals of S Omega S^T = Omega and S H S^T = diag, and the
    critical-regime flag, measured as the package measures them."""
    omega = form.symplectic_form
    sym_res = float(np.max(np.abs(s_matrix @ omega @ s_matrix.T - omega)))
    diag = s_matrix @ form.matrix @ s_matrix.T
    diag_target = np.diag(np.repeat(eps, 2))
    diag_res = float(np.max(np.abs(diag - diag_target)))
    critical = bool(eps.min() < CRITICAL_REGIME_FACTOR * form.omega0)
    return WilliamsonDecomposition(np.asarray(eps), s_matrix, sym_res, diag_res, critical)


def _site_indices(cov: np.ndarray, site: int):
    n_sites = cov.shape[0] // 4
    if not 1 <= site <= n_sites:
        raise DomainError(f"site must be in 1..{n_sites}, got {site}")
    base = 4 * (site - 1)
    return base, base + 1  # q_site, p_site


def photon_number(cov: np.ndarray, site: int) -> float:
    """Fluctuation occupation of the cavity at ``site`` (1-based) above the
    coherent displacement: (<q^2> + <p^2> - 1)/2 in the displaced frame."""
    qi, pi = _site_indices(cov, site)
    return float((cov[qi, qi] + cov[pi, pi] - 1.0) / 2.0)


def squeezing_variance(cov: np.ndarray, site: int) -> float:
    """Position-quadrature variance (Delta q)^2 of the cavity at ``site``."""
    qi, _ = _site_indices(cov, site)
    return float(cov[qi, qi])


def physicality_defect(cov: np.ndarray) -> float:
    """Most negative eigenvalue of C + (i/2) Omega (>= 0 up to rounding for
    a physical Gaussian state)."""
    herm = cov + 0.5j * symplectic_form(cov.shape[0] // 2)
    return float(np.linalg.eigvalsh(herm).min())
