"""Global mean-field ground states of the Dicke ring.

Finds the minimizers of the rescaled energy landscape for any coupling and
hopping, classifies the phase (normal, non-frustrated superradiant,
frustrated superradiant), enumerates the degenerate ground-state manifold
and exposes the closed-form and perturbative reference solutions.

Conventions: sites are numbered 1..N; the canonical frustrated
representative has its unpaired site at site 1 with alpha_1 < 0 <= alpha_2,
mirror pairs satisfying alpha_{1+j} = alpha_{N+1-j}.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError, PhaseError, ValidationError
from .model import (
    MeanFieldConfiguration,
    ModelParams,
    critical_point,
    energy_gradient,
    energy_hessian,
    rescaled_energy,
    validate_jbar,
)

log = logging.getLogger(__name__)

#: Hessian eigenvalues above this (negative) floor count as non-negative.
PSD_TOLERANCE = -1e-9
#: Gradient infinity-norm required of any returned solution.
SOLUTION_GRAD_TOL = 1e-10
#: Cap on the damped descent of each Newton run.
MAX_ITERATIONS = 500
#: Coherence distance within which two exhaustive minima are one member.
MATCH_TOL = 1e-8
#: Energy above the lowest within which an exhaustive minimum is global.
ENERGY_TOL = 1e-10


class Phase(Enum):
    NORMAL = "Normal"
    NFSP = "NonFrustratedSuperradiant"
    FSP = "FrustratedSuperradiant"


@dataclass(frozen=True)
class SolverOptions:
    """Solver settings.

    ``seed_mode`` selects how the degenerate manifold is enumerated:
    ``symmetry-orbit`` (default) constructs it from the canonical solution's
    symmetry orbit, ``exhaustive`` re-minimizes from all 2^N sign patterns.
    """

    seed_mode: str = "symmetry-orbit"

    def __post_init__(self):
        if self.seed_mode not in ("symmetry-orbit", "exhaustive"):
            raise ValidationError(f"unknown seed_mode {self.seed_mode!r}")


@dataclass(frozen=True)
class GroundStateSolution:
    """A verified global minimizer with its phase and manifold size.

    The solver only returns converged solutions (``converged`` is always
    True); the flag lets hand-built solutions mark themselves unusable for
    the quadratic expansion.
    """

    config: MeanFieldConfiguration
    phase: Phase
    degeneracy: int
    grad_norm: float
    converged: bool = True


# ---------------------------------------------------------------------------
# closed-form and perturbative reference solutions


def nfsp_closed_form(g: float, jbar: float) -> float:
    """Uniform superradiant coherence magnitude for non-positive hopping.

    Returns (1/2g) sqrt((g/g_c)^4 - 1) with g_c = sqrt(1 + 2 jbar); the
    ground state is the two-fold degenerate pair of +- this value on every
    site.  In the jbar -> 0 limit this is the single-site double-well
    minimum sqrt(g^2 - g^{-2})/2.
    """
    if jbar > 0:
        raise DomainError("nfsp_closed_form requires jbar <= 0")
    validate_jbar(jbar)
    gc = float(np.sqrt(1.0 + 2.0 * jbar))
    if g < gc:
        raise DomainError(f"no superradiant solution below g_c={gc}")
    return _uniform_magnitude(g, jbar) or 0.0


def _uniform_magnitude(g: float, jbar: float) -> float | None:
    """Magnitude (1/2g) sqrt((g/g_c)^4 - 1), g_c = sqrt(1 + 2 jbar), of the
    uniform stationary point; None at or below g_c, where it does not exist."""
    gc = float(np.sqrt(1.0 + 2.0 * jbar))
    if g <= gc:
        return None
    return float(np.sqrt((g / gc) ** 4 - 1.0) / (2.0 * g))


def fsp_approximation(g: float, jbar: float) -> tuple[float, float]:
    """Near-critical series for the N=3 frustrated minimizer.

    Returns (alpha1, alpha_pair), the unpaired-site and pair coherences
    through order |g - g_c|^{3/2}:

        alpha1 = -2 x^{1/2} / (sqrt(3) g_c^{3/2}) - x^{3/2} / (6 sqrt(3) g_c^{5/2})
        alpha_pair = x^{1/2} / (sqrt(3) g_c^{3/2})
                     + (8 - 7 jbar) x^{3/2} / (12 sqrt(3) jbar g_c^{5/2})

    with x = |g - g_c|.  Valid asymptotically for |g - g_c| << jbar.
    """
    if jbar <= 0:
        raise DomainError("fsp_approximation requires jbar > 0")
    gc = critical_point(jbar, 3, "positive")
    if g < gc:
        raise DomainError(f"fsp_approximation requires g >= g_c = {gc}")
    x = abs(g - gc)
    rt3 = np.sqrt(3.0)
    alpha1 = -2.0 * x ** 0.5 / (rt3 * gc ** 1.5) - x ** 1.5 / (6.0 * rt3 * gc ** 2.5)
    alpha_pair = (x ** 0.5 / (rt3 * gc ** 1.5)
                  + (8.0 - 7.0 * jbar) * x ** 1.5 / (12.0 * rt3 * jbar * gc ** 2.5))
    return float(alpha1), float(alpha_pair)


def saddle_configuration(g: float, jbar: float) -> MeanFieldConfiguration:
    """The (-a, a, 0) stationary point of the N=3 frustrated landscape.

    Its Hessian carries exactly one negative eigenvalue for g > g_c, so it
    is a saddle separating degenerate minima, never a ground state.
    """
    if jbar <= 0:
        raise DomainError("saddle_configuration requires jbar > 0")
    gc = critical_point(jbar, 3, "positive")
    if g <= gc:
        raise DomainError(f"saddle_configuration requires g > g_c = {gc}")
    a = float(np.sqrt((g / gc) ** 4 - 1.0) / (2.0 * g))
    return MeanFieldConfiguration.from_alphas(np.array([-a, a, 0.0]), g, jbar)


# ---------------------------------------------------------------------------
# mirror-symmetry machinery


def fsp_sign_pattern(n_sites: int) -> np.ndarray:
    """Canonical frustrated sign pattern: site 1 negative, neighbours
    anti-aligned except for the ferromagnetic pair opposite site 1."""
    d = np.minimum(np.arange(n_sites), n_sites - np.arange(n_sites))
    return -((-1.0) ** d)


def mirror_projectors(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal row bases of the mirror-even / mirror-odd site sectors.

    The mirror is the reflection about site 1; even combinations are site 1
    itself and (e_{1+j} + e_{N+1-j})/sqrt(2), odd ones
    (e_{1+j} - e_{N+1-j})/sqrt(2), j = 1..(N-1)/2.
    """
    npairs = (n_sites - 1) // 2
    even = np.zeros((npairs + 1, n_sites))
    odd = np.zeros((npairs, n_sites))
    even[0, 0] = 1.0
    inv = 1.0 / np.sqrt(2.0)
    for j in range(1, npairs + 1):
        even[j, j] = even[j, n_sites - j] = inv
        odd[j - 1, j] = inv
        odd[j - 1, n_sites - j] = -inv
    return even, odd


def _pair_groups(n_sites: int) -> list[list[int]]:
    return [[0]] + [[j, n_sites - j] for j in range(1, (n_sites - 1) // 2 + 1)]


def _pair_incidence(n_sites: int) -> np.ndarray:
    """The n x m 0/1 matrix P mapping mirror-group values onto sites:
    column 0 is the unpaired site, column j the pair (1+j, N+1-j)."""
    groups = _pair_groups(n_sites)
    incidence = np.zeros((n_sites, len(groups)))
    for column, group in enumerate(groups):
        incidence[group, column] = 1.0
    return incidence


def _mirror_symmetrize(alphas: np.ndarray) -> np.ndarray:
    out = alphas.copy()
    for group in _pair_groups(len(alphas))[1:]:
        out[group] = out[group].mean()
    return out


# ---------------------------------------------------------------------------
# Newton minimization


def _newton_minimize(fun, jac, hess_fn, x0):
    """Damped modified-Newton descent followed by a pure-Newton endgame.

    The descent phase insists on energy decrease; once the energy changes
    fall below floating-point resolution the endgame accepts steps on
    gradient decrease instead.  Returns (x, grad_inf_norm).
    """
    x = np.asarray(x0, dtype=float).copy()
    f = fun(x)
    grad = jac(x)
    for _ in range(MAX_ITERATIONS):
        if np.max(np.abs(grad)) < 1e-6:
            break
        w, vecs = np.linalg.eigh(hess_fn(x))
        shift = max(0.0, -w.min()) + 1e-9
        step = vecs @ ((vecs.T @ grad) / (w + shift))
        t, moved = 1.0, False
        while t > 1e-12:
            x_new = x - t * step
            f_new = fun(x_new)
            if f_new <= f + 1e-14 * abs(f):
                x, f, moved = x_new, f_new, True
                break
            t /= 4.0
        if not moved:
            break
        grad = jac(x)
    # The endgame squeezes the residual to the floating-point floor (well
    # below SOLUTION_GRAD_TOL): soft-direction curvatures amplify any
    # leftover gradient into parameter error, so stopping exactly at
    # SOLUTION_GRAD_TOL would contaminate near-critical Hessian eigenvalues.
    grad_norm = np.max(np.abs(grad))
    for _ in range(60):
        if grad_norm < 1e-15:
            break
        try:
            step = np.linalg.solve(hess_fn(x), grad)
        except np.linalg.LinAlgError:
            break
        x_new = x - step
        grad_new = jac(x_new)
        new_norm = np.max(np.abs(grad_new))
        if new_norm >= grad_norm:
            break
        x, grad, grad_norm = x_new, grad_new, new_norm
    return x, float(grad_norm)


def _minimize_full(alphas0, g, jbar):
    fun = lambda a: rescaled_energy(a, g, jbar)
    jac = lambda a: energy_gradient(a, g, jbar)
    hess_fn = lambda a: energy_hessian(a, g, jbar)
    return _newton_minimize(fun, jac, hess_fn, alphas0)


def _mirror_reduced(n_sites: int, g: float, jbar: float):
    """(expand, energy, gradient, Hessian) of y -> E(P y) over the
    mirror-group values y, with P the pair incidence: the gradient is g P
    and the Hessian P^T H P."""
    incidence = _pair_incidence(n_sites)

    def expand(y):
        return incidence @ y

    def fun(y):
        return rescaled_energy(expand(y), g, jbar)

    def jac(y):
        return energy_gradient(expand(y), g, jbar) @ incidence

    def hess_fn(y):
        return incidence.T @ energy_hessian(expand(y), g, jbar) @ incidence

    return expand, fun, jac, hess_fn


def _minimize_mirror_reduced(alphas0, g, jbar):
    """Minimize within the mirror-symmetric subspace about site 1 (pairs
    locked equal), seeded from sites 1..(N+1)/2 of ``alphas0``.

    Eliminates the numerically flat frustrated direction, so Newton stays
    well-conditioned arbitrarily close to the critical point.  The energy is
    mirror-invariant, so its gradient at a mirror-symmetric point is
    mirror-symmetric too: a stationary point of the reduced energy is one of
    the full energy.  Returns the expanded coherences and their full
    gradient infinity-norm.
    """
    n = len(alphas0)
    expand, fun, jac, hess_fn = _mirror_reduced(n, g, jbar)
    y0 = alphas0[: (n + 1) // 2]  # one value per group: sites 1..(N+1)/2
    y, _ = _newton_minimize(fun, jac, hess_fn, y0)
    alphas = expand(y)
    return alphas, float(np.max(np.abs(energy_gradient(alphas, g, jbar))))


# ---------------------------------------------------------------------------
# seeds, canonicalization, phase logic


def _seed_alphas(params: ModelParams) -> list[np.ndarray]:
    """One seed per symmetry orbit of the closed-form guesses.

    The energy is invariant under lattice rotations and the global sign
    flip, so Newton from a rotated or flipped seed repeats the same
    minimization: the origin, the positive uniform state and the canonical
    frustrated pattern at each of its two magnitudes cover every orbit.
    Every seed is mirror-symmetric about site 1.
    """
    n, g, jbar = params.n_sites, params.g, params.jbar
    seeds = [np.zeros(n)]
    uniform = _uniform_magnitude(g, jbar)
    if uniform is not None:
        seeds.append(np.full(n, uniform))
    if jbar > 0:
        gc = params.critical_coupling()
        if g > gc:
            x = abs(g - gc)
            mag_pair = np.sqrt(x) / (np.sqrt(3.0) * gc ** 1.5)
            mag_unpaired = 2.0 * mag_pair
            magnitudes = [(mag_unpaired, mag_pair)]
            if uniform is not None:
                magnitudes.append((uniform, uniform))
            pattern = fsp_sign_pattern(n)
            for mag1, mag2 in magnitudes:
                base = pattern * mag2
                base[0] = -mag1
                seeds.append(base)
    return seeds


def _unpaired_site(alphas: np.ndarray) -> int:
    """Index of the unpaired site of a frustrated configuration.

    All neighbouring coherences are anti-aligned except the one
    ferromagnetic pair diametrically opposite the unpaired site.
    """
    n = len(alphas)
    signs = np.sign(alphas)
    if np.any(signs == 0):
        raise PhaseError("configuration has a vanishing coherence; not frustrated")
    same = [i for i in range(n) if signs[i] == signs[(i + 1) % n]]
    if len(same) != 1:
        raise PhaseError(f"expected exactly one aligned neighbour pair, found {len(same)}")
    return (same[0] + (n + 1) // 2) % n


def _canonical_frame(alphas: np.ndarray) -> tuple[int, float]:
    """(shift, sign) taking a frustrated configuration to its canonical
    representative ``sign * np.roll(alphas, -shift)``; the inverse map is
    ``sign * np.roll(canonical, shift)``."""
    shift = _unpaired_site(alphas)
    return shift, (-1.0 if alphas[shift] > 0 else 1.0)


def _canonicalize_fsp(alphas: np.ndarray) -> np.ndarray:
    """Rotate and sign-flip onto the representative with the unpaired site
    first and alpha_1 < 0 <= alpha_2."""
    shift, sign = _canonical_frame(alphas)
    return sign * np.roll(alphas, -shift)


def _stationary_candidates(params: ModelParams, seeds: list[np.ndarray]):
    candidates, best_residual = [], np.inf
    for seed in seeds:
        alphas, grad_norm = _minimize_mirror_reduced(seed, params.g, params.jbar)
        best_residual = min(best_residual, grad_norm)
        if grad_norm > 1e-6:
            continue
        eigvals = np.linalg.eigvalsh(energy_hessian(alphas, params.g, params.jbar))
        if eigvals.min() < PSD_TOLERANCE:
            continue
        candidates.append((rescaled_energy(alphas, params.g, params.jbar), alphas, grad_norm))
    return candidates, best_residual


def _classify(alphas: np.ndarray, params: ModelParams) -> Phase:
    if np.max(np.abs(alphas)) < 1e-9:
        return Phase.NORMAL
    if params.jbar < 0:
        return Phase.NFSP
    if params.jbar > 0:
        return Phase.FSP
    raise ValidationError(
        "jbar = 0 with g > 1 sits on the first-order line of decoupled sites; "
        "the 2^N-fold degenerate manifold has no single-phase classification"
    )


def _degeneracy(phase: Phase, n_sites: int) -> int:
    return {Phase.NORMAL: 1, Phase.NFSP: 2, Phase.FSP: 2 * n_sites}[phase]


def solve_ground_state(params: ModelParams) -> GroundStateSolution:
    """Find the canonical global mean-field minimizer.

    Multi-start damped-Newton descent with one seed per symmetry orbit: the
    origin, the uniform closed form and the canonical frustrated pattern at
    its two magnitudes.  Every seed is mirror-symmetric about site 1, and
    so is every ground state up to a rotation, so each Newton run stays in
    the mirror-symmetric subspace ((N+1)/2 values); the full N x N Hessian
    then confirms each stationary point is a minimum, and the lowest-energy
    one wins.  Frustrated solutions are returned as the canonical
    representative (unpaired site first, alpha_1 < 0 <= alpha_2, mirror
    pairs exactly equal).  The seeds depend on ``params`` alone, so the
    result is a pure function of ``params``: a sweep point comes out the
    same whatever else the sweep solves, and in whichever order.
    """
    g, jbar = params.g, params.jbar
    if g <= params.critical_coupling():
        config = MeanFieldConfiguration.from_alphas(np.zeros(params.n_sites), g, jbar)
        return GroundStateSolution(config, Phase.NORMAL, 1, 0.0)

    candidates, best_residual = _stationary_candidates(params, _seed_alphas(params))
    if not candidates:
        raise ConvergenceError(
            f"no seed converged to a stable stationary point at g={g}, jbar={jbar}",
            best_residual=best_residual,
        )
    _, alphas, grad_norm = min(candidates, key=lambda c: c[0])

    phase = _classify(alphas, params)
    if phase is Phase.FSP:
        alphas = _canonicalize_fsp(alphas)
    if grad_norm > SOLUTION_GRAD_TOL:
        raise ConvergenceError(
            f"stationarity residual {grad_norm:.2e} above {SOLUTION_GRAD_TOL}",
            best_residual=grad_norm,
        )
    config = MeanFieldConfiguration.from_alphas(alphas, g, jbar)
    return GroundStateSolution(config, phase, _degeneracy(phase, params.n_sites),
                               grad_norm)


def enumerate_degenerate_ground_states(
        params: ModelParams,
        opts: SolverOptions | None = None) -> list[MeanFieldConfiguration]:
    """All distinct global minimizers at equal energy.

    In the default symmetry-orbit mode the manifold is generated from the
    canonical solution by lattice rotations and the global sign flip.  In
    exhaustive mode every one of the 2^N sign patterns is minimized
    independently and the global-energy tier is collected; this validates
    the orbit construction for small lattices.
    """
    opts = opts or SolverOptions()
    if opts.seed_mode == "exhaustive":
        return _enumerate_exhaustive(params)
    solution = solve_ground_state(params)
    alphas = solution.config.alphas
    g, jbar = params.g, params.jbar
    if solution.phase is Phase.NORMAL:
        return [solution.config]
    if solution.phase is Phase.NFSP:
        return [solution.config,
                MeanFieldConfiguration.from_alphas(-alphas, g, jbar)]
    members = []
    for flip in (1.0, -1.0):
        for shift in range(params.n_sites):
            members.append(MeanFieldConfiguration.from_alphas(
                flip * np.roll(alphas, shift), g, jbar))
    return members


def _enumerate_exhaustive(params: ModelParams):
    n, g, jbar = params.n_sites, params.g, params.jbar
    gc = params.critical_coupling()
    scale = np.sqrt(abs(g - gc)) / (np.sqrt(3.0) * gc ** 1.5) if g > gc else 0.1
    uniform = _uniform_magnitude(g, jbar)
    if uniform is not None:
        scale = max(scale, uniform)

    found: list[np.ndarray] = []
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        alphas, grad_norm = _minimize_full(np.array(signs) * scale, g, jbar)
        if grad_norm > SOLUTION_GRAD_TOL:
            continue
        eigvals = np.linalg.eigvalsh(energy_hessian(alphas, g, jbar))
        if eigvals.min() < PSD_TOLERANCE:
            continue
        found.append(alphas)
    if not found:
        raise ConvergenceError("exhaustive enumeration found no stable minima")

    energies = np.array([rescaled_energy(a, g, jbar) for a in found])
    global_tier = [a for a, e in zip(found, energies)
                   if e <= energies.min() + ENERGY_TOL]
    if _classify(global_tier[0], params) is Phase.FSP:
        # Near g_c the mirror-odd direction is flat, so each member stops
        # somewhere along it; lock its pairs, as solve_ground_state's mirror-
        # reduced Newton does, so that copies of one minimum coincide to
        # rounding.
        global_tier = [_polish_member(a, params) for a in global_tier]
    distinct: list[np.ndarray] = []
    for alphas in global_tier:
        if not any(np.max(np.abs(alphas - other)) < MATCH_TOL for other in distinct):
            distinct.append(alphas)
    return [MeanFieldConfiguration.from_alphas(a, g, jbar) for a in distinct]


def _polish_member(alphas: np.ndarray, params: ModelParams):
    """A frustrated minimum re-converged in the mirror-symmetric subspace of
    its own frame.

    The pair structure is verified rather than assumed: if locking the
    pairs raised the energy beyond rounding, the member is kept as found
    and the discrepancy logged.
    """
    g, jbar = params.g, params.jbar
    shift, sign = _canonical_frame(alphas)
    canonical = sign * np.roll(alphas, -shift)
    snapped, _ = _minimize_mirror_reduced(_mirror_symmetrize(canonical), g, jbar)
    e_free = rescaled_energy(canonical, g, jbar)
    e_snapped = rescaled_energy(snapped, g, jbar)
    if e_snapped > e_free + 1e-12 * max(1.0, abs(e_free)):
        log.warning(
            "symmetric polish raised the energy (%.3e -> %.3e); keeping the "
            "unconstrained minimizer", e_free, e_snapped,
        )
        return alphas
    return sign * np.roll(snapped, shift)


@dataclass(frozen=True)
class CriticalModes:
    """The two soft Hessian modes of the frustrated ground state."""

    lambda_mf: float
    lambda_f: float
    y_mf: np.ndarray
    y_f: np.ndarray


def hessian_critical_modes(params: ModelParams,
                           solution: GroundStateSolution | None = None) -> CriticalModes:
    """Identify the mean-field and frustrated soft modes of the Hessian.

    The frustrated mode lives in the mirror-odd sector, so it carries no
    weight on the unpaired site and is antisymmetric across every
    ferromagnetic pair; the mean-field mode is the softest mirror-even
    direction.  Identification by sector projection is exact and remains
    robust when lambda_f sits below floating-point resolution.
    """
    solution = solution or solve_ground_state(params)
    if solution.phase is not Phase.FSP:
        raise PhaseError(f"hessian critical modes require the frustrated phase, "
                         f"got {solution.phase.value}")
    hess = energy_hessian(solution.config.alphas, params.g, params.jbar)
    even, odd = mirror_projectors(params.n_sites)

    w_even, v_even = np.linalg.eigh(even @ hess @ even.T)
    w_odd, v_odd = np.linalg.eigh(odd @ hess @ odd.T)
    y_mf = even.T @ v_even[:, 0]
    y_f = odd.T @ v_odd[:, 0]
    return CriticalModes(float(w_even[0]), float(w_odd[0]),
                         _fix_sign(y_mf), _fix_sign(y_f))


def _fix_sign(vec: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    vec = vec / np.linalg.norm(vec)
    for component in vec:
        if abs(component) > tol:
            return vec if component > 0 else -vec
    return vec
