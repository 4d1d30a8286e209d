"""Quadratic fluctuation Hamiltonians, Williamson normal modes and
Gaussian-state observables.

The fluctuation Hamiltonian over cavity and atomic quadratures is the
real symmetric 4N x 4N form (ordering q_1, p_1, Q_1, P_1, ..., q_N, p_N,
Q_N, P_N)

    H = sum_n [ omega0/2 (q_n^2 + p_n^2) - Omega/(2 cos theta_n) (Q_n^2 + P_n^2)
                + g sqrt(omega0 Omega) cos theta_n cos phi_n  q_n Q_n
                + J (q_n q_{n+1} + p_n p_{n+1}) ]

evaluated at a mean-field minimum.  Position and momentum quadratures never
couple, so the form is assembled once as its position block H_x over
(q_n, Q_n) and momentum block H_p over (p_n, P_n), and every normal-mode
construction works on that split: with H_x = L_x L_x^T and H_p = L_p L_p^T
the Cholesky factors, one SVD L_x^T L_p = U diag(e) V^T gives the
symplectic eigenvalues e, the covariance blocks and a symplectic matrix
whose position rows act on positions only and momentum rows on momenta
only, so local field weights are well defined.  Forms that couple
positions to momenta are rejected.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError, InstabilityError, PhaseError, ValidationError
from .meanfield import GroundStateSolution, Phase, _fix_sign, _rowwise
from .model import ModelParams, atomic_cosines, ring

_EPS = float(np.finfo(float).eps)
#: numpy.linalg.svd (full matrices), a row at a time
_svd = _rowwise(_umath_linalg.svd_f, "d->ddd")

#: A split form is resolvable when e_min^2 > RESOLUTION_FACTOR * eps * e_max^2;
#: below that the squared eigenvalue drowns in rounding.
RESOLUTION_FACTOR = 1e3

#: Flag threshold: decompositions whose smallest eigenvalue is below
#: CRITICAL_REGIME_FACTOR * omega0 are labelled critical-regime.
CRITICAL_REGIME_FACTOR = 1e-8


def symplectic_form(n_modes: int) -> np.ndarray:
    """Canonical antisymmetric form, blocks [[0, 1], [-1, 0]] per mode."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def quadrature_labels(n_sites: int) -> list[str]:
    labels = []
    for n in range(1, n_sites + 1):
        labels += [f"q{n}", f"p{n}", f"Q{n}", f"P{n}"]
    return labels


@dataclass(frozen=True)
class QuadraticForm:
    """A positive quadratic form over the 4N quadratures; its symplectic
    form follows from the size, and ``omega0`` is kept as the frequency
    scale for critical-regime flagging."""

    matrix: np.ndarray
    omega0: float = 1.0

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("quadratic form must be a square matrix")
        if matrix.shape[0] % 4 != 0:
            raise ValidationError("matrix size must be 4N")
        if not np.isfinite(matrix).all():
            raise ValidationError("quadratic form must be finite")
        if np.max(np.abs(matrix - matrix.T)) > 1e-12:
            raise ValidationError("quadratic form must be symmetric to 1e-12")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def symplectic_form(self) -> np.ndarray:
        return symplectic_form(self.n_modes)


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Symplectic eigenvalues and diagonalizing symplectic matrix.

    ``symplectic_matrix`` S satisfies S H S^T = diag(e_1, e_1, ..., e_2N, e_2N)
    and S Omega S^T = Omega; the stored residuals are the max-norm defects of
    those two identities.  ``critical_regime`` marks a smallest eigenvalue
    under 1e-8 of the cavity frequency scale, or one the form does not
    resolve (:attr:`_SplitModes.resolvable`).  S is block diagonal over
    positions and momenta (rows e^(-1/2) V^T L_p^T and e^(-1/2) U^T L_x^T of
    the Cholesky-SVD construction); its momentum rows are the position rows
    of (S^{-1})^T read by :func:`mode_weights`.
    """

    symplectic_eigenvalues: np.ndarray
    symplectic_matrix: np.ndarray
    symplectic_residual: float
    diagonalization_residual: float
    critical_regime: bool

    @property
    def n_modes(self) -> int:
        return len(self.symplectic_eigenvalues)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Second moments C = S^T S / 2 of the Gaussian ground state."""

    matrix: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0] // 4

    def physicality_defect(self) -> float:
        """Most negative eigenvalue of C + (i/2) Omega (>= 0 up to rounding
        for a physical Gaussian state)."""
        omega = symplectic_form(self.matrix.shape[0] // 2)
        herm = self.matrix + 0.5j * omega
        return float(np.linalg.eigvalsh(herm).min())


@dataclass(frozen=True)
class ModeWeights:
    """Position-quadrature composition (v_1, w_1, ..., v_N, w_N) of a normal
    mode: v_n weighs the cavity field q_n, w_n the atomic field Q_n.  Unit
    Euclidean norm, first component above 1e-7 made positive."""

    weights: np.ndarray
    mode_index: int

    @property
    def cavity(self) -> np.ndarray:
        return self.weights[0::2]

    @property
    def atom(self) -> np.ndarray:
        return self.weights[1::2]


# ---------------------------------------------------------------------------
# building the quadratic Hamiltonian


def _per_point(solutions):
    """The solutions' coherences (points, N), then the omega0, Omega, g and
    jbar of their points, each a column (points, 1)."""
    return (np.array([solution.config.alphas for solution in solutions]),
            *(np.array([getattr(solution.params, name) for solution in solutions])[:, None]
              for name in ("omega0", "Omega", "g", "jbar")))


def _split_hamiltonian(alphas, omega0, Omega, g, jbar) -> np.ndarray:
    """Position and momentum blocks H_x, H_p of the fluctuation forms at
    minima of one lattice size (as :func:`_per_point` gives them), over
    (q_1, Q_1, ..., q_N, Q_N) and (p_1, P_1, ..., p_N, P_N), as one array
    of shape (points, 2, 2N, 2N): ``[:, 0]`` holds H_x and ``[:, 1]`` H_p."""
    n = alphas.shape[-1]
    cos_theta, cos_phi = atomic_cosines(alphas, g)
    cavity = np.arange(0, 2 * n, 2)
    right = 2 * ring(n).right  # the next site's cavity around the ring
    blocks = np.zeros((len(alphas), 2, 2 * n, 2 * n))
    hx, hp = blocks[:, 0], blocks[:, 1]
    hp[:, cavity, cavity] = omega0
    hp[:, cavity + 1, cavity + 1] = -Omega / cos_theta
    hp[:, cavity, right] = hp[:, right, cavity] = jbar * omega0
    hx[...] = hp
    hx[:, cavity, cavity + 1] = hx[:, cavity + 1, cavity] = (
        g * cos_theta * cos_phi * np.sqrt(omega0 * Omega))
    return blocks


def build_quadratic_hamiltonian(solution: GroundStateSolution,
                                params: ModelParams | None = None) -> QuadraticForm:
    """Assemble the fluctuation Hamiltonian at a minimum and its
    ``solution.params``; a given ``params`` must equal those."""
    # params goes once the benchmark stops passing it (ROADMAP item 1)
    if params is not None and params != solution.params:
        raise ValidationError(f"params {params} differ from the solution's {solution.params}")
    hx, hp = _split_hamiltonian(*_per_point([solution]))[0]
    matrix = np.zeros((2 * len(hx), 2 * len(hx)))
    matrix[0::2, 0::2] = hx
    matrix[1::2, 1::2] = hp
    return QuadraticForm(matrix, omega0=solution.params.omega0)


# ---------------------------------------------------------------------------
# normal-mode machinery


def _split_blocks(matrix: np.ndarray):
    """Position and momentum blocks of a form; a form that couples
    positions to momenta is rejected."""
    size = matrix.shape[0]
    pos = np.arange(0, size, 2)
    mom = pos + 1
    cross = np.max(np.abs(matrix[np.ix_(pos, mom)]))
    if cross > 1e-12 * max(1.0, np.max(np.abs(matrix))):
        raise ValidationError(
            "Williamson decomposition requires a form without position-momentum "
            f"coupling (largest coupling {cross:.3e})")
    return matrix[np.ix_(pos, pos)], matrix[np.ix_(mom, mom)]


class _SplitModes:
    """Normal modes of a stack of position/momentum-split forms from the
    Cholesky factors H_x = L_x L_x^T, H_p = L_p L_p^T and one SVD
    L_x^T L_p = U diag(eps) V^T per form, read in ascending order.
    ``blocks`` has shape (forms, 2, s, s), H_x then H_p; every attribute is
    stacked over the forms.  ``eps`` are the symplectic eigenvalues; the
    columns of ``x_modes`` = L_p V and ``p_modes`` = L_x U, scaled by
    eps^(-1/2), are the position and momentum rows of S.  The stack goes
    through one call of each gufunc that ``np.linalg.cholesky`` and ``svd``
    wrap, which mark a failed row NaN where ``numpy.linalg`` raises for the
    whole stack (a failed factor is the identity in the SVD): such a form
    has ``positive`` and ``resolvable`` False, NaN elsewhere, and leaves
    the others untouched."""

    def __init__(self, blocks: np.ndarray):
        with np.errstate(invalid="ignore"):  # the flag of a factor that fails
            factors = _umath_linalg.cholesky_lo(blocks, signature="d->d")
        failed = np.isnan(factors).any(axis=(1, 2, 3))
        if failed.any():
            factors[failed] = np.eye(blocks.shape[-1])
        lx, lp = factors[:, 0], factors[:, 1]
        u, eps, vt = _svd(np.swapaxes(lx, -1, -2) @ lp)
        self.eps = eps[:, ::-1]
        self.x_modes = lp @ np.swapaxes(vt[:, ::-1], -1, -2)
        self.p_modes = lx @ u[..., ::-1]
        if failed.any():
            self.eps[failed] = self.x_modes[failed] = self.p_modes[failed] = np.nan
        self.positive = self.eps[:, 0] > 0  # False on NaN
        self.resolvable = self.positive & (
            self.eps[:, 0] ** 2 > RESOLUTION_FACTOR * _EPS * self.eps[:, -1] ** 2)

    def covariance_blocks(self):
        """Position and momentum covariance blocks of the forms' ground
        states, garbage where a form is not positive."""
        return tuple(0.5 * (modes / self.eps[:, None, :]) @ np.swapaxes(modes, -1, -2)
                     for modes in (self.x_modes, self.p_modes))


def _offending_direction(matrix: np.ndarray) -> str:
    w, v = np.linalg.eigh(matrix)
    vec = v[:, 0]
    labels = quadrature_labels(matrix.shape[0] // 4)
    dominant = int(np.argmax(np.abs(vec)))
    return f"min eigenvalue {w[0]:.3e} along {labels[dominant]}"


def williamson_diagonalize(form: QuadraticForm) -> WilliamsonDecomposition:
    """Symplectic normal-mode decomposition of a positive-definite form
    without position-momentum coupling.

    One Cholesky pair and one SVD give everything: the position rows of S
    are eps^(-1/2) V^T L_p^T and the momentum rows eps^(-1/2) U^T L_x^T (see
    :class:`_SplitModes`).  A form that couples positions to momenta raises
    :class:`ValidationError`.
    """
    matrix, omega = form.matrix, form.symplectic_form
    modes = _SplitModes(np.array([_split_blocks(matrix)]))
    if not modes.positive[0]:
        raise InstabilityError(
            f"quadratic form is not positive definite: {_offending_direction(matrix)}")
    eps = modes.eps[0]
    root = np.sqrt(eps)[:, None]
    s_matrix = np.zeros_like(matrix)
    s_matrix[0::2, 0::2] = modes.x_modes[0].T / root
    s_matrix[1::2, 1::2] = modes.p_modes[0].T / root
    sym_res = float(np.max(np.abs(s_matrix @ omega @ s_matrix.T - omega)))
    diag = s_matrix @ matrix @ s_matrix.T
    diag_res = float(np.max(np.abs(diag - np.diag(np.repeat(eps, 2)))))
    critical = bool(eps.min() < CRITICAL_REGIME_FACTOR * form.omega0
                    or not modes.resolvable[0])
    return WilliamsonDecomposition(eps, s_matrix, sym_res, diag_res, critical)


def symplectic_spectrum_modulus(form: QuadraticForm) -> np.ndarray:
    """Independent route to the symplectic eigenvalues: moduli of the
    eigenvalues of i Omega H (each appears twice); ascending."""
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * form.symplectic_form @ form.matrix)))
    return moduli[0::2]


def covariance(decomp: WilliamsonDecomposition) -> CovarianceMatrix:
    """Ground-state covariance matrix C = S^T S / 2."""
    s_matrix = decomp.symplectic_matrix
    matrix = 0.5 * s_matrix.T @ s_matrix
    return CovarianceMatrix(0.5 * (matrix + matrix.T))


def _site_indices(n_sites: int, site: int):
    if not 1 <= site <= n_sites:
        raise DomainError(f"site must be in 1..{n_sites}, got {site}")
    base = 4 * (site - 1)
    return base, base + 1  # q_site, p_site


def photon_number(cov: CovarianceMatrix, site: int) -> float:
    """Fluctuation occupation of the cavity at ``site`` (1-based) above the
    coherent displacement: (<q^2> + <p^2> - 1)/2 in the displaced frame."""
    qi, pi = _site_indices(cov.n_sites, site)
    return float((cov.matrix[qi, qi] + cov.matrix[pi, pi] - 1.0) / 2.0)


def squeezing_variance(cov: CovarianceMatrix, site: int) -> float:
    """Position-quadrature variance (Delta q)^2 of the cavity at ``site``."""
    qi, _ = _site_indices(cov.n_sites, site)
    return float(cov.matrix[qi, qi])


def mode_weights(decomp: WilliamsonDecomposition, mode_index: int) -> ModeWeights:
    """Local-field weights of a normal mode (1-based, ascending energy).

    Reads the mode's momentum row of S, which is its position-quadrature
    row of (S^{-1})^T since S is block diagonal over positions and momenta.
    """
    if not 1 <= mode_index <= decomp.n_modes:
        raise DomainError(f"mode_index must be in 1..{decomp.n_modes}, got {mode_index}")
    return ModeWeights(_fix_sign(decomp.symplectic_matrix[1::2, 1::2][mode_index - 1]),
                       mode_index)


# ---------------------------------------------------------------------------
# closed-form spectra


def _two_mode_energies(freq_pos, freq_mom, coupling_sq):
    """Normal-mode energies of two coupled oscillators (stable evaluation),
    elementwise over arrays of such pairs.

    For H = wc/2 (q^2+p^2) + wa/2 (Q^2+P^2) + lam qQ the squared energies are
    the roots of e^4 - (wc^2+wa^2) e^2 + wc wa (wc wa - lam^2); the lower
    energy is NaN where the pair is unstable.
    """
    total = freq_pos * freq_pos + freq_mom * freq_mom
    det = freq_pos * freq_mom * (freq_pos * freq_mom - coupling_sq)
    # exactly at threshold up to rounding
    det = np.where((-32.0 * _EPS * total * total < det) & (det < 0.0), 0.0, det)
    root = np.sqrt(total * total - 4.0 * det)
    upper = np.sqrt((total + root) / 2.0)
    lower = np.sqrt(np.where(det < 0, np.nan, 2.0 * det / (total + root)))
    return lower, upper


def _momentum_blocks(n_sites: int, jbar: float, freq_atom: float,
                     coupling_sq: float, omega0: float):
    """Momenta, cavity frequencies omega0 (1 + 2 jbar cos k) and branch
    energies of the N cavity-atom blocks of a translation-invariant state."""
    freq_cav = omega0 * (1.0 + 2.0 * jbar * ring(n_sites).cosines)
    lower, upper = _two_mode_energies(freq_cav, freq_atom, coupling_sq)
    return ring(n_sites).momenta, freq_cav, lower, upper


def normal_phase_mode_energies(g: float, jbar: float, omegabar: float,
                               k: float, omega0: float = 1.0):
    """Lower/upper branch energies of momentum-k fluctuations about the
    normal phase."""
    freq_cav = omega0 * (1.0 + 2.0 * jbar * np.cos(k))
    freq_atom = omegabar * omega0
    coupling_sq = g * g * freq_atom * omega0
    lower, upper = _two_mode_energies(freq_cav, freq_atom, coupling_sq)
    if np.isnan(lower):
        raise DomainError(
            f"normal phase unstable at momentum k={k:.4f} for g={g}"
        )
    return float(lower), float(upper)


def _branch_spectrum(momenta, lower, upper, phase: str, g: float) -> np.ndarray:
    unstable = np.isnan(lower)
    if unstable.any():
        raise DomainError(
            f"{phase} unstable at momentum k={momenta[unstable][0]:.4f} for g={g}")
    return np.sort(np.concatenate([lower, upper]))


def analytic_np_spectrum(g: float, jbar: float, omegabar: float,
                         omega0: float = 1.0, n_sites: int = 3) -> np.ndarray:
    """The 2N normal-phase excitation energies of the N-site ring, ascending:
    both branches of every lattice momentum k = 2 pi m / N.  A point that
    :class:`ModelParams` rejects raises its :class:`ValidationError`."""
    freq_atom = ModelParams(omega0, omegabar * omega0, jbar, g, n_sites).Omega
    momenta, _, lower, upper = _momentum_blocks(
        n_sites, jbar, freq_atom, g * g * freq_atom * omega0, omega0)
    return _branch_spectrum(momenta, lower, upper, "normal phase", g)


def analytic_nfsp_spectrum(g: float, jbar: float, omegabar: float,
                           omega0: float = 1.0, n_sites: int = 3) -> np.ndarray:
    """The 2N excitation energies of the uniform superradiant phase of the
    N-site ring, ascending.

    The uniform condensate renormalizes the atomic frequency to
    Omega (g/g_c)^2 and the effective coupling to g_c^2/g, preserving
    translational symmetry.  A point in another phase raises
    :class:`DomainError`, one :class:`ModelParams` rejects its error.
    """
    if jbar > 0:
        raise DomainError("the uniform superradiant phase requires jbar <= 0")
    gc_sq = 1.0 + 2.0 * jbar
    if g * g < gc_sq:
        raise DomainError(f"below the superradiant threshold g_c={np.sqrt(gc_sq)}")
    ModelParams(omega0, omegabar * omega0, jbar, g, n_sites)
    eff = gc_sq / g
    momenta, _, lower, upper = _momentum_blocks(
        n_sites, jbar, omegabar * omega0 * g * g / gc_sq,
        eff * eff * omegabar * omega0 * omega0, omega0)
    return _branch_spectrum(momenta, lower, upper, "uniform superradiant phase", g)


def fsp_frustrated_mode_energy(g: float, jbar: float, omegabar: float,
                               alpha_pair: float, omega0: float = 1.0) -> float:
    """Lowest excitation of the three-site frustrated phase.

    Closed form of the mirror-odd (pair-difference) sector, which decouples
    from the unpaired site; it depends only on the ferromagnetic-pair
    coherence.  Vanishes at the critical point and grows linearly.
    """
    if jbar <= 0:
        raise DomainError("the frustrated phase requires jbar > 0")
    stretch = np.sqrt(1.0 + 4.0 * g * g * alpha_pair * alpha_pair)
    freq_cav = omega0 * (1.0 - jbar)
    freq_atom = omegabar * omega0 * stretch
    coupling_sq = g * g * omega0 * omegabar * omega0 / (stretch * stretch)
    lower, _ = _two_mode_energies(freq_cav, freq_atom, coupling_sq)
    if np.isnan(lower):
        raise InstabilityError(
            "negative radicand: the pair coherence is inconsistent with a "
            "stable frustrated minimum at this coupling"
        )
    return float(lower)


# ---------------------------------------------------------------------------
# per-site moments: momentum blocks for the uniform phases, mirror sectors
# for the frustrated one


@dataclass(frozen=True)
class SiteMoments:
    """Gaussian moments of a stack of ground states, one row per point: cavity
    q/p variances (points, N), the ascending spectrum ``eps`` (points, 2N)
    and a frustrated point's mirror-sector spectra ``eps_even`` (points,
    N+1) and ``eps_odd`` (points, N-1).  NaN marks an absent value, such as
    a uniform point's sectors or what an unresolvable mirror-odd sector
    leaves out.  ``errors`` holds per point None or the
    :class:`InstabilityError` of a point whose row is NaN throughout."""

    var_q: np.ndarray
    var_p: np.ndarray
    eps: np.ndarray
    eps_even: np.ndarray
    eps_odd: np.ndarray
    errors: tuple

    @property
    def photon_numbers(self) -> np.ndarray:
        """Fluctuation occupation (<q^2> + <p^2> - 1)/2 of every cavity."""
        return (self.var_q + self.var_p - 1.0) / 2.0


def _momentum_moments(alphas, omega0, Omega, g, jbar):
    """Spectra and cavity moments of normal or uniform superradiant states,
    stacked over the points, from their N lattice-momentum blocks, without
    the 4N x 4N form.

    Block k pairs the cavity mode omega0 (1 + 2 jbar cos k) with the atomic
    mode -Omega / cos theta through the position coupling
    g cos theta cos phi sqrt(omega0 Omega), read at site 1 of a state whose
    coherences :func:`_site_moments` has checked to be equal.  Every site's
    variances are the k-average of the blocks' ground-state covariances
    (1/2) H_p^{1/2} G^{-1/2} H_p^{1/2} and (1/2) H_p^{-1/2} G^{1/2} H_p^{-1/2},
    G = H_p^{1/2} H_x H_p^{1/2}.  With s = e_- e_+ and t = e_- + e_+ the 2 x 2
    roots are G^{1/2} = (G + s) / t and G^{-1/2} = (tr G + s - G) / (t s).
    """
    cos_theta, cos_phi = atomic_cosines(alphas[:, :1], g)
    freq_atom = -Omega / cos_theta
    coupling = g * cos_theta * cos_phi * np.sqrt(omega0 * Omega)
    momenta, freq_cav, lower, upper = _momentum_blocks(
        alphas.shape[-1], jbar, freq_atom, coupling * coupling, omega0)
    # a negative cavity frequency flips the sign of both factors of the
    # two-mode determinant, so lower > 0 alone would pass it
    stable = (freq_cav > 0) & (lower > 0)  # False on NaN
    unstable = ~stable.all(axis=-1)
    errors = [None] * len(stable)
    for row in np.flatnonzero(unstable).tolist():
        k = np.argmin(stable[row])
        errors[row] = InstabilityError(
            f"momentum block k={momenta[k]:.4f} is not positive definite "
            f"(lower energy {lower[row, k]:.3e})")
    s, t = lower * upper, lower + upper
    with np.errstate(divide="ignore", invalid="ignore"):  # unstable rows, dropped below
        var_q = np.mean(freq_cav * (freq_atom * freq_atom + s) / (t * s), -1, keepdims=True) / 2.0
        var_p = np.mean((freq_cav * freq_cav + s) / (freq_cav * t), -1, keepdims=True) / 2.0
    eps = np.sort(np.concatenate([lower, upper], axis=-1), axis=-1)
    var_q[unstable] = var_p[unstable] = eps[unstable] = np.nan
    return {"var_q": var_q, "var_p": var_p, "eps": eps}, errors


def _sector_blocks(*points):
    """The blocks of :func:`_split_hamiltonian` projected onto the
    mirror-even and mirror-odd sectors (:func:`_sector_lifts`)."""
    blocks = _split_hamiltonian(*points)
    return [lift @ blocks @ lift.T for lift in _sector_lifts(blocks.shape[-1] // 2)]


@functools.cache
def _sector_lifts(n_sites: int):
    """The ring table's mirror-even and mirror-odd bases lifted to the
    (cavity, atom) interleaving, read-only, built once per lattice size."""
    lifts = tuple(np.kron(basis, np.eye(2)) for basis in (ring(n_sites).even, ring(n_sites).odd))
    for lift in lifts:
        lift.flags.writeable = False
    return lifts


def _sector_moments(*points):
    """Spectra and cavity moments of frustrated states, stacked over the
    points, through the exact mirror-sector split: the unpaired site lives
    entirely in the mirror-even sector, which stays well conditioned
    arbitrarily close to the critical point; the paired sites need the
    mirror-odd (frustrated) sector too.  Every point's moments are worked
    out, and kept where its sectors are resolvable."""
    even, odd = (_SplitModes(sector) for sector in _sector_blocks(*points))
    stable, resolved = even.resolvable, even.resolvable & odd.resolvable
    n = points[0].shape[-1]
    pairs = (n - 1) // 2
    var_q, var_p = np.empty((2, *points[0].shape))
    with np.errstate(all="ignore"):  # the forms that are not positive, dropped below
        (cov_x_even, cov_p_even), (cov_x_odd, cov_p_odd) = (
            even.covariance_blocks(), odd.covariance_blocks())
    # q_{1+j} = (even_j + odd_j)/sqrt(2); even/odd cross-covariances vanish
    for var, cov_even, cov_odd in ((var_q, cov_x_even, cov_x_odd),
                                   (var_p, cov_p_even, cov_p_odd)):
        var[:, 0] = cov_even[:, 0, 0]
        value = 0.5 * (np.diagonal(cov_even, axis1=1, axis2=2)[:, 2::2]
                       + np.diagonal(cov_odd, axis1=1, axis2=2)[:, 0::2])
        var[:, 1:pairs + 1] = value
        var[:, n - 1:pairs:-1] = value
        var[~resolved, 1:] = var[~stable, 0] = np.nan
    eps = np.sort(np.concatenate([even.eps, odd.eps], axis=-1), axis=-1)
    eps[~resolved] = np.nan
    errors = [None if ok else InstabilityError("mirror-even sector is not resolvably positive")
              for ok in stable.tolist()]
    return {"var_q": var_q, "var_p": var_p, "eps": eps,
            "eps_even": np.where(stable[:, None], even.eps, np.nan),
            "eps_odd": np.where(resolved[:, None], odd.eps, np.nan)}, errors


def site_moments(solutions) -> SiteMoments:
    """Cavity moments of a non-empty stack of ground states of one lattice
    size, in any phase, at each solution's own ``params``, as one
    :class:`SiteMoments` stack over the points: :func:`_site_moments` of
    their stacked coherences and frequencies."""
    if not solutions:
        raise ValidationError("site moments need at least one point")
    return _site_moments(np.array([solution.phase is Phase.FSP for solution in solutions]),
                         *_per_point(solutions))


def _uniform_rows(alphas: np.ndarray) -> np.ndarray:
    """The rows of a stack of configurations (rows, N) whose coherences are
    all equal, 0.0 and -0.0 alike: a translation-invariant state, whose
    Hessian and fluctuation form are diagonal in lattice momentum."""
    return (alphas == alphas[:, :1]).all(axis=-1)


def _site_moments(frustrated: np.ndarray, *points) -> SiteMoments:
    """Cavity moments of ground states, ``points`` as :func:`_per_point`
    gives them, frustrated where the mask ``frustrated`` is set.

    Each point's route follows from its phase, and each route runs once,
    stacked over its points: normal and uniform points go through their
    momentum blocks, frustrated points through the mirror-sector split,
    whose mirror-odd sector can fall below double-precision resolution.
    A normal or uniform point whose coherences are not all equal has no
    momentum blocks and raises :class:`ValidationError`.
    """
    rows, n = points[0].shape
    stack = {name: np.full((rows, width), np.nan) for name, width in (
        ("var_q", n), ("var_p", n), ("eps", 2 * n), ("eps_even", n + 1), ("eps_odd", n - 1))}
    errors = np.full(rows, None)
    if (~frustrated & ~_uniform_rows(points[0])).any():
        raise ValidationError("a normal or uniform superradiant solution needs equal "
                              "coherences on every site")
    for route, mask in ((_momentum_moments, ~frustrated), (_sector_moments, frustrated)):
        picked = np.flatnonzero(mask)
        if len(picked):
            values, errors[picked] = route(*(column[picked] for column in points))
            for name, block in values.items():
                stack[name][picked] = block
    return SiteMoments(**stack, errors=tuple(errors))


def fsp_site_moments(solution: GroundStateSolution) -> SiteMoments:
    """Cavity moments of a frustrated ground state via the exact mirror-sector
    split: :func:`site_moments` on a stack of one point, raising its
    :class:`InstabilityError` instead of recording it."""
    if solution.phase is not Phase.FSP:
        raise PhaseError("mirror-sector moments require the frustrated phase")
    moments = site_moments([solution])
    if moments.errors[0] is not None:
        raise moments.errors[0]
    return moments


def fsp_sector_spectra(solution: GroundStateSolution):
    """(mirror-even, mirror-odd) symplectic spectra of a frustrated state,
    read from :func:`site_moments` on a stack of one point; either part is
    None when numerically unresolvable.  Another phase has no mirror
    sectors and raises :class:`PhaseError`, as :func:`fsp_site_moments` does."""
    if solution.phase is not Phase.FSP:
        raise PhaseError("mirror-sector spectra require the frustrated phase")
    moments = site_moments([solution])
    return tuple(None if np.isnan(eps[0, 0]) else eps[0]
                 for eps in (moments.eps_even, moments.eps_odd))
