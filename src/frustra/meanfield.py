"""Global mean-field ground states of the Dicke ring.

Finds the minimizers of the rescaled energy landscape for any coupling and
hopping, enumerates the degenerate ground-state manifold and exposes the
closed-form and perturbative reference solutions.  A point's phase follows
from (g, jbar) alone: normal at g <= g_c, above it non-frustrated
superradiant for jbar < 0 and frustrated superradiant for jbar > 0; at
jbar = 0 above g_c = 1 there is none.  The solver and the exhaustive oracle
pick each point's route from it.

Conventions: sites are numbered 1..N; the canonical frustrated
representative has its unpaired site at site 1 with alpha_1 < 0 <= alpha_2,
mirror pairs satisfying alpha_{1+j} = alpha_{N+1-j}.
"""

from __future__ import annotations

import copy
import functools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from itertools import groupby

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    ConvergenceError,
    DomainError,
    FrustraError,
    PhaseError,
    ValidationError,
)
from .model import (
    MeanFieldConfiguration,
    ModelParams,
    _circulant_eigenvalues,
    _hessian_diagonal,
    _kernels,
    _pack,
    _spectral_lower_bound,
    critical_point,
    energy_hessian,
    group_images,
    orbit_patterns,
    origin_hessian_eigenvalues,
    ring,
)

log = logging.getLogger(__name__)

#: Hessian eigenvalues above this (negative) floor count as non-negative.
PSD_TOLERANCE = -1e-9
#: Gradient infinity-norm of any returned solution, or its :func:`_gradient_tolerance`.
SOLUTION_GRAD_TOL = 1e-10
#: Cap on the damped descent of each Newton run.
MAX_ITERATIONS = 500
#: Coherence distance within which two exhaustive minima are one member, in
#: units of max(1, the largest |alpha| of their tier).
MATCH_TOL = 1e-8
#: Energy above the lowest within which an exhaustive minimum is global, or
#: _BOUND_SLACK times the energy's rounding scale where that is larger.
ENERGY_TOL = 1e-10
#: Distance, in units of the energy's rounding scale (:func:`_energy_rounding`),
#: within which a candidate's energy meets the spectral lower bound: rounding
#: of the energy and of the bound, never physics.
_BOUND_SLACK = 8.0


class Phase(Enum):
    NORMAL = "Normal"
    NFSP = "NonFrustratedSuperradiant"
    FSP = "FrustratedSuperradiant"


@dataclass(frozen=True)
class SolverOptions:
    """Solver settings.

    ``seed_mode`` selects how the degenerate manifold is enumerated:
    ``symmetry-orbit`` (default) constructs it from the canonical solution's
    symmetry orbit, ``exhaustive`` re-minimizes, from one candidate that the
    spectral lower bound certifies where that bound is attainable, else
    from one sign pattern per rotation/flip orbit, and generates the
    members by that group.
    """

    seed_mode: str = "symmetry-orbit"

    def __post_init__(self):
        if self.seed_mode not in ("symmetry-orbit", "exhaustive"):
            raise ValidationError(f"unknown seed_mode {self.seed_mode!r}")


@dataclass(frozen=True)
class GroundStateSolution:
    """A checked minimum, which the Hessian and fluctuation routes read
    without checking again: a global minimizer with its phase, gradient
    residual and lattice point ``params`` (its size, g and jbar those of
    ``config``, else :class:`ValidationError`).  A residual above
    SOLUTION_GRAD_TOL and above the gradient's rounding floor at ``config``
    (:func:`_gradient_tolerance`), NaN included, raises the solver's
    :class:`ConvergenceError`.  The manifold size ``degeneracy`` follows
    from the phase and the lattice size."""

    config: MeanFieldConfiguration
    phase: Phase
    grad_norm: float
    params: ModelParams

    def __post_init__(self):
        point = (self.config.n_sites, self.config.g, self.config.jbar)
        if point != (self.params.n_sites, self.params.g, self.params.jbar):
            raise ValidationError(f"configuration (N, g, jbar) = {point} lies at another "
                                  "lattice point than params")
        if not self.converged:  # SOLUTION_GRAD_TOL reads 1e-10, a raised floor 3 digits
            raise ConvergenceError(f"stationarity residual {self.grad_norm:.2e} above "
                                   f"{self._tolerance:.3g}", best_residual=self.grad_norm)

    @property
    def degeneracy(self) -> int:
        return {Phase.NORMAL: 1, Phase.NFSP: 2, Phase.FSP: 2 * self.config.n_sites}[self.phase]

    @property
    def converged(self) -> bool:
        return bool(self.grad_norm <= SOLUTION_GRAD_TOL or self.grad_norm <= self._tolerance)

    @property
    def _tolerance(self) -> float:
        return _gradient_tolerance(self.config.alphas, self.config.g, self.config.jbar,
                                   SOLUTION_GRAD_TOL)


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
    gc = critical_point(jbar, 3)  # the same at every N
    if g < gc:
        raise DomainError(f"no superradiant solution below g_c={gc}")
    return _uniform_magnitude(g, jbar) or 0.0


def _uniform_magnitude(g: float, jbar: float) -> float | None:
    """Magnitude (1/2g) sqrt((g/g_c)^4 - 1), g_c = sqrt(1 + 2 jbar), of the
    uniform stationary point; None at or below g_c, where it does not exist.
    A coupling whose (g/g_c)^4 overflows double precision raises
    :class:`DomainError`: the landscape is not representable there."""
    gc = math.sqrt(1.0 + 2.0 * jbar)
    if g <= gc:
        return None
    try:
        quartic = (g / gc) ** 4
    except OverflowError:
        raise DomainError(
            f"coupling g={g} too large: (g/g_c)^4 overflows double precision") from None
    return math.sqrt(quartic - 1.0) / (2.0 * g)


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
    gc = critical_point(jbar, 3)
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
    gc = critical_point(jbar, 3)
    if g <= gc:
        raise DomainError(f"saddle_configuration requires g > g_c = {gc}")
    a = float(np.sqrt((g / gc) ** 4 - 1.0) / (2.0 * g))
    return MeanFieldConfiguration(np.array([-a, a, 0.0]), g, jbar)


# ---------------------------------------------------------------------------
# stacked Newton minimization


def _rowwise(gufunc, signature):
    """The ``numpy.linalg`` function of ``gufunc`` on float stacks, without
    its per-call dispatch and without raising: a row the gufunc fails comes
    back with numpy's own failure mark, NaN in every float output, where
    the public function raises ``LinAlgError`` for the whole stack; every
    other row keeps the public function's bits."""
    return np.errstate(all="ignore")(functools.partial(gufunc, signature=signature))


#: numpy.linalg.eigh, eigvalsh (lower triangle) and solve, a row at a time
_eigh = _rowwise(_umath_linalg.eigh_lo, "d->dd")
_eigvalsh = _rowwise(_umath_linalg.eigvalsh_lo, "d->d")
_solve = _rowwise(_umath_linalg.solve, "dd->d")


#: The error of a row whose eigensolve failed, as numpy.linalg raises it
_UNCONVERGED = np.linalg.LinAlgError("Eigenvalues did not converge")
#: The error of a row whose Newton trial point is not finite
_NOT_FINITE = DomainError("alphas must be finite")


def _drop(bad, rows, failures, error, *companions):
    """``(rows, *companions)``, the ids of a stack's rows and arrays aligned
    with them, without the rows of the mask ``bad``; each such row gets its
    own copy of the exception ``error`` in ``failures``."""
    for row in rows[bad].tolist():
        failures[row] = copy.copy(error)
    keep = ~bad
    return tuple(array[keep] for array in (rows, *companions))


def _newton_minimize(fun, jac, hess_fn, x0, consts):
    """Damped saddle-free Newton descent, then a pure-Newton endgame, on
    every row of the stack ``x0`` (rows, m) at once.

    A descent step divides the gradient's part along each Hessian
    eigenvector by |eigenvalue| + 1e-9: the plain damped-Newton step, bit
    for bit, where the Hessian is positive semidefinite (at nearly every
    solver seed), else a step at the curvature's length scale, where the
    least shift to positive would step up to 1e9 times the gradient.
    ``fun``, ``jac`` and ``hess_fn`` (:func:`~frustra.model._kernels`, or
    :func:`_mirror_reduced`'s) take a stack as given and its rows'
    constants, a row of ``consts`` per row of ``x0``: an iteration gathers
    its live rows' once, and its line search and the endgame take subsets.
    Seeds must be finite; a trial point that is not fails its row with
    :class:`DomainError`.  Each row runs exactly the iteration, and the
    arithmetic, it would run alone, and a failed row (a non-finite trial, a
    failed eigensolve) leaves the stack without touching the others.  The
    descent insists on energy decrease; the endgame, once energy changes
    fall below floating-point resolution, on gradient decrease.  Returns
    ``(x, grad_norm, steps, failures)``: the minimizers, their gradient
    infinity-norms (kept per row as it goes), each row's accepted (descent,
    endgame) step counts, and each failed row's exception by row id.
    """
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("alphas must be finite")
    failures: dict[int, Exception] = {}
    steps = np.zeros((len(x), 2), dtype=int)
    f, grad = fun(x, consts), jac(x, consts)
    norm = np.abs(grad).max(axis=-1)
    live = np.flatnonzero(~(norm < 1e-6))
    for _ in range(MAX_ITERATIONS):
        if not len(live):
            break
        pack, here = consts[live], x[live]
        w, vecs = _eigh(hess_fn(here, pack))
        if np.isnan(w[:, 0]).any():
            live, w, vecs, pack, here = _drop(np.isnan(w[:, 0]), live, failures, _UNCONVERGED,
                                              w, vecs, pack, here)
        coeffs = (np.swapaxes(vecs, -1, -2) @ grad[live][..., None])[..., 0]
        step = (vecs @ (coeffs / (np.abs(w) + 1e-9))[..., None])[..., 0]
        # the line search: the rows still searching, with their constants,
        # share the step length t, which shrinks by quarters from 1 to 1e-12
        t, search, held, trial = 1.0, live, pack, here - step
        moved = np.zeros(len(x), dtype=bool)
        while True:
            if not np.isfinite(trial).all():
                search, trial, step, held = _drop(~np.isfinite(trial).all(axis=-1), search,
                                                  failures, _NOT_FINITE, trial, step, held)
            f_new, f_old = fun(trial, held), f[search]
            accept = f_new <= f_old + 1e-14 * np.abs(f_old)
            if accept.all():
                x[search], f[search], moved[search] = trial, f_new, True
                break
            done, rest = search[accept], ~accept
            x[done], f[done], moved[done] = trial[accept], f_new[accept], True
            search, step, held, t = search[rest], step[rest], held[rest], t / 4.0
            if not t > 1e-12:
                break
            trial = x[search] - t * step
        steps[:, 0] += moved
        moved = moved[live]
        live, pack = live[moved], pack[moved]
        grad[live] = grad_new = jac(x[live], pack)
        norm[live] = new_norm = np.abs(grad_new).max(axis=-1)
        live = live[~(new_norm < 1e-6)]
    # The endgame squeezes the residual to the floating-point floor, far below
    # SOLUTION_GRAD_TOL: soft-direction curvatures amplify any leftover gradient
    # into parameter error, which would contaminate near-critical Hessian eigenvalues.
    live = (np.flatnonzero([row not in failures for row in range(len(x))]) if failures
            else np.arange(len(x)))
    for _ in range(60):
        live = live[~(norm[live] < 1e-15)]
        if not len(live):
            break
        pack = consts[live]
        step = _solve(hess_fn(x[live], pack), grad[live][..., None])[..., 0]
        # a singular Hessian, whose step numpy fills with NaN, ends that
        # row's endgame as a failed step does
        if np.isnan(step).all(axis=-1).any():
            live, step, pack = _drop(np.isnan(step).all(axis=-1), live, {}, None, step, pack)
        trial = x[live] - step
        if not np.isfinite(trial).all():
            live, trial, pack = _drop(~np.isfinite(trial).all(axis=-1), live, failures,
                                      _NOT_FINITE, trial, pack)
        grad_new = jac(trial, pack)
        new_norm = np.abs(grad_new).max(axis=-1)
        better = ~(new_norm >= norm[live])
        live = live[better]
        x[live], grad[live], norm[live] = trial[better], grad_new[better], new_norm[better]
        steps[live, 1] += 1
    return x, norm, steps, failures


@functools.cache
def _mirror_reduced(n_sites: int):
    """(expand, energy, gradient, Hessian) of y -> E(P y) over the
    mirror-group values y, with P the pair incidence, built once per
    lattice size: the gradient is g P and the Hessian P^T H P.  They act on
    a stack of y and its constants as the :func:`~frustra.model._kernels`
    they are built on do."""
    incidence = ring(n_sites).incidence
    energy, gradient, hessian = _kernels(n_sites)

    def expand(y):
        return y @ incidence.T

    def fun(y, pack):
        return energy(expand(y), pack)

    def jac(y, pack):
        return gradient(expand(y), pack) @ incidence

    def hess_fn(y, pack):
        return incidence.T @ hessian(expand(y), pack) @ incidence

    return expand, fun, jac, hess_fn


# ---------------------------------------------------------------------------
# seeds, canonicalization, phase logic

def _seed_alphas(g: np.ndarray, jbar: np.ndarray, gc: np.ndarray,
                 scale: np.ndarray) -> np.ndarray:
    """The seed magnitudes of points (g, jbar) above their ``gc``, where the
    origin is never a minimum, arrays a value per point like the ``scale``
    of :func:`_critical_couplings`.  For jbar <= 0 the hopping term is at
    least 2 jbar sum alpha_n^2, equal only for a uniform state, so the
    uniform closed form on every site is the solution.  For jbar > 0 a
    uniform state of magnitude a lies 4 jbar a^2 (N - 1) above the
    frustrated pattern of magnitude a, and every frustrated ground state is
    an image of the canonical one, so Newton starts there, the unpaired site
    doubled, at the near-critical magnitude (the bits of
    :func:`_near_critical_magnitude`, over the arrays).  A uniform point's
    magnitude, or its overflow as inf at either sign of jbar, is that of
    :func:`_uniform_magnitude`."""
    magnitudes = np.sqrt(g - gc) / scale
    # the closed form at jbar <= 0, above its g_c, the uniform one; at jbar > 0 the
    # uniform (g/g_c)^4 overflows only past g/g_c = 1.3e77, so past g = 1e77 (g_c >= 1)
    rows = ((jbar <= 0) | (g >= 1e77)).nonzero()[0]
    for row, g_i, jbar_i in zip(rows.tolist(), g[rows].tolist(), jbar[rows].tolist()):
        try:
            uniform = _uniform_magnitude(g_i, jbar_i)
        except DomainError:
            uniform = math.inf
        if jbar_i <= 0 or uniform == math.inf:
            magnitudes[row] = uniform
    return magnitudes


def _near_critical_magnitude(g: float, gc: float) -> float:
    """sqrt(g - g_c) / (sqrt(3) g_c^{3/2}), the near-critical coherence
    magnitude of the three-site frustrated ring above ``gc``; the solver's
    and the oracle's seeds take it at every N."""
    return math.sqrt(g - gc) / (math.sqrt(3.0) * gc ** 1.5)


def _canonical_frames(alphas: np.ndarray):
    """``(shifts, signs, errors)`` of a stack of frustrated configurations
    (rows, N): ``sign * row[(sites + shift) % N]`` is a row's canonical
    representative, and ``sign * canonical[(sites - shift) % N]`` maps it
    back.

    All neighbouring coherences are anti-aligned except the one
    ferromagnetic pair diametrically opposite the unpaired site.  A row
    with a vanishing coherence, or without exactly one such pair, is not
    frustrated: ``errors`` holds its :class:`PhaseError` by row.  The
    frames are float arithmetic over the stack: ``aligned`` is 1 at each
    aligned pair (i, i+1), so its index sum is a valid row's pair, and
    moved by half the ring it picks out the unpaired site's sign.
    """
    n = alphas.shape[-1]
    right, half, sites = ring(n).right, (n + 1) // 2, np.arange(n)
    signs = np.sign(alphas)
    aligned = np.fmax(signs * signs[:, right], 0.0)
    shifts = [int(shift) for shift in (((aligned * sites).sum(axis=1) + half) % n).tolist()]
    errors = {}
    for row in ((aligned.sum(axis=1) != 1) | (signs == 0).any(axis=1)).nonzero()[0].tolist():
        pairs = int((signs[row] == signs[row, right]).sum())
        errors[row] = PhaseError(
            "configuration has a vanishing coherence; not frustrated" if (signs[row] == 0).any()
            else f"expected exactly one aligned neighbour pair, found {pairs}")
    return shifts, -(signs * aligned[:, (sites - half) % n]).sum(axis=1), errors


#: The error of a point at jbar = 0 above g_c = 1, which has no phase
_UNCLASSIFIED = ValidationError(
    "jbar = 0 with g > 1 sits on the first-order line of decoupled sites; "
    "the 2^N-fold degenerate manifold has no single-phase classification")


@dataclass(frozen=True)
class GroundStates:
    """The solver's read-only record of points of one lattice size, a row
    per point: canonical coherences and ascending Hessian spectra (rows,
    N), phases (object array), gradient residuals, the soft modes (rows, 2)
    of :func:`hessian_critical_modes`, (lambda_mf, lambda_f) for a
    frustrated row and NaN for any other, and None or the error of a failed
    row, whose other fields are NaN (its phase None).  A row without an
    error passed the checks of :class:`GroundStateSolution`."""

    alphas: np.ndarray
    phases: np.ndarray
    grad_norm: np.ndarray
    hessian_eigenvalues: np.ndarray
    soft_modes: np.ndarray
    errors: tuple

    @property
    def solved(self) -> np.ndarray:
        """The mask of the rows without an error."""
        return np.array([error is None for error in self.errors], dtype=bool)


def _solve_stack(n_sites: int, g: np.ndarray, jbar: np.ndarray) -> GroundStates:
    """The canonical global mean-field minimizers of points of one lattice
    size, at couplings ``g`` and hoppings ``jbar`` (float arrays, each point
    one :class:`ModelParams` accepts), as one :class:`GroundStates` record.

    A point's phase, and so its route, follows from (g, jbar), over arrays
    (:func:`_critical_couplings`).  At g <= g_c it is the normal phase
    without a solve: sqrt(1 + x) <= 1 + x/2 gives
    E(alpha) >= E(0) + alpha^T H_0 alpha / 2, and the origin Hessian H_0 is
    positive semidefinite up to g_c; the stack's normal points share one
    :func:`origin_hessian_eigenvalues` call.  Above g_c (:func:`_seed_alphas`)
    a point at jbar < 0 is the uniform closed form on every site, with the
    circulant closed-form spectrum; one at jbar > 0 starts its row of one
    mirror-reduced Newton stack ((N+1)/2 values a row), and its Hessian is
    diagonalised once, in its mirror sectors (:func:`_mirror_eigh`): the
    spectrum is the sorted union of the two, and the lowest of each are its
    soft modes.  One at jbar = 0 has no phase (:data:`_UNCLASSIFIED`).  A
    row within 1e-6 or its :func:`_gradient_tolerance` whose spectrum passes
    PSD_TOLERANCE is a minimum and carries that spectrum.  A point's error
    is its row's Newton failure or failed eigensolve, else a
    :class:`ConvergenceError` if the row is not a stable stationary point,
    else that of the first check of :func:`_canonical` the row fails.
    Rows never mix, so a point's row is a pure function of its parameters,
    whatever else the stack holds.  At ``logging.DEBUG`` the
    ``frustra.meanfield`` logger gets one record per solved point.
    """
    debug = log.isEnabledFor(logging.DEBUG)
    gc, scale, errors = _critical_couplings(n_sites, jbar)
    # the normal points, and the superradiant points with their seed magnitudes; a
    # point's error is its hopping's, else its seed's overflow, else that of jbar = 0
    below = g <= gc
    normal, solving = below.nonzero()[0], (~below & ~np.isnan(gc)).nonzero()[0]
    if len(solving):
        magnitudes = _seed_alphas(g[solving], jbar[solving], gc[solving], scale[solving])
        unseeded = (magnitudes == np.inf) | (jbar[solving] == 0)
        for index in solving[unseeded].tolist():
            try:  # the overflow of the uniform magnitude comes first
                _uniform_magnitude(g[index].item(), jbar[index].item())
                errors[index] = copy.copy(_UNCLASSIFIED)
            except DomainError as exc:
                errors[index] = exc
        solving, magnitudes = solving[~unseeded], magnitudes[~unseeded]
    if debug:
        for index in normal.tolist():
            log.debug("solved g=%r jbar=%r N=%d: normal phase, no seeds",
                      g[index].item(), jbar[index].item(), n_sites)
    # every row starts as the normal phase's: the origin, at no residual
    alphas, spectra = np.zeros((2, len(g), n_sites))
    phases, grad_norm = np.full(len(g), Phase.NORMAL), np.zeros(len(g))
    soft = np.full((len(g), 2), np.nan)
    if len(normal):  # the origin wins, with the closed-form spectra of one call
        spectra[normal] = origin_hessian_eigenvalues(g[normal], jbar[normal], n_sites)
    if len(solving):
        g_s, jbar_s, (_, gradient, hessian) = g[solving], jbar[solving], _kernels(n_sites)
        consts, frustrated = _pack(g_s, jbar_s), (jbar_s > 0).nonzero()[0]
        phases[solving] = Phase.NFSP
        phases[solving[frustrated]] = Phase.FSP
        # a uniform row is its closed form; Newton moves the frustrated ones
        found = np.repeat(magnitudes[:, None], n_sites, axis=1)
        steps, failures = np.zeros((len(solving), 2), dtype=int), {}
        if len(frustrated):
            expand, fun, jac, hess_fn = _mirror_reduced(n_sites)
            y, _, steps[frustrated], newton_failures = _newton_minimize(
                fun, jac, hess_fn, magnitudes[frustrated, None] * ring(n_sites).seed,
                consts[frustrated])
            found[frustrated] = expand(y)
            failures = {int(frustrated[row]): error for row, error in newton_failures.items()}
        residual = np.abs(gradient(found, consts)).max(axis=-1)
        residual[list(failures)] = np.nan
        # SOLUTION_GRAD_TOL, or the floor of a row above it; the filter takes at least 1e-6
        tolerance, loose = np.full(len(solving), SOLUTION_GRAD_TOL), residual > SOLUTION_GRAD_TOL
        if loose.any():
            tolerance[loose] = _gradient_tolerance(found[loose], g_s[loose], jbar_s[loose],
                                                   SOLUTION_GRAD_TOL)
        stationary = residual <= np.fmax(tolerance, 1e-6)
        # a uniform row's spectrum is circulant, a stationary frustrated row's its mirror sectors'
        uniform, sectored = (jbar_s < 0).nonzero()[0], frustrated[stationary[frustrated]]
        if len(uniform):
            spectra[solving[uniform]] = _circulant_eigenvalues(_hessian_diagonal(
                magnitudes[uniform, None], g_s[uniform, None]), jbar_s[uniform], n_sites)
        if len(sectored):
            (even, _), (odd, _) = _mirror_eigh(hessian(found[sectored], consts[sectored]))
            spectra[solving[sectored]] = np.sort(np.hstack([even, odd]), axis=-1)
            soft[solving[sectored]] = np.column_stack([even[:, 0], odd[:, 0]])
        # the sort moves a failed sector's NaN out of rank 1, so every rank is read
        for row in (stationary & np.isnan(spectra[solving]).any(axis=-1)).nonzero()[0].tolist():
            failures[row] = copy.copy(_UNCONVERGED)
        alphas[solving], point_errors = _canonical(found, residual, tolerance, frustrated)
        grad_norm[solving] = residual
        # a failed row's error, then no minimum, then the checks
        for row in (~stationary | (spectra[solving, 0] < PSD_TOLERANCE)).nonzero()[0].tolist():
            point_errors[row] = ConvergenceError(
                f"no stable stationary point at g={g_s[row]}, jbar={jbar_s[row]}",
                best_residual=residual[row].item())
        point_errors.update(failures)
        for row, error in point_errors.items():
            errors[solving[row]] = error
        for row in range(len(solving)) if debug else ():
            if row not in point_errors:
                log.debug("solved g=%r jbar=%r N=%d: %d descent and %d endgame steps, "
                          "grad_norm %.3e", g_s[row].item(), jbar_s[row].item(),
                          n_sites, *steps[row], residual[row])
    failed = [index for index, error in enumerate(errors) if error is not None]
    if failed:
        alphas[failed] = spectra[failed] = soft[failed] = grad_norm[failed] = np.nan
        phases[failed] = None
    for array in (alphas, phases, grad_norm, spectra, soft):
        array.flags.writeable = False
    return GroundStates(alphas, phases, grad_norm, spectra, soft, tuple(errors))


def _critical_couplings(n_sites: int, jbar: np.ndarray):
    """``(gc, scale, errors)`` per point: the critical coupling of its
    hopping and sqrt(3) g_c^{3/2}, worked out once per distinct hopping (a
    NaN is a run of its own), or NaN and its own copy of the error that
    :func:`~frustra.model.critical_point` raises."""
    runs, table = [(value, len(list(run))) for value, run in groupby(jbar.tolist())], {}
    for value in dict.fromkeys(value for value, _ in runs):
        try:
            gc = critical_point(value, n_sites)
            table[value] = gc, math.sqrt(3.0) * gc ** 1.5, None
        except FrustraError as exc:
            table[value] = math.nan, math.nan, exc
    gc, scale = np.array([table[value][:2] for value, _ in runs]).reshape(-1, 2).repeat(
        [length for _, length in runs], axis=0).T
    return gc, scale, [error and copy.copy(error) for value, length in runs
                       for error in [table[value][2]] * length]


def _canonical(alphas: np.ndarray, grad_norm: np.ndarray, tolerance: np.ndarray,
               frustrated: np.ndarray):
    """Minimizers (rows, N), with their gradient residuals, the tolerances
    of :class:`GroundStateSolution` on them and the ids of the frustrated
    rows, put in their canonical frame as one stack: ``(alphas, errors)``,
    with by row the error of the first check it fails: the frame, and the
    residual check.  The Hessian depends on the coherences through their
    squares only, so the sign flip keeps a row's spectrum.

    Every seed is mirror-symmetric about site 1, so a frustrated minimizer
    is too and is canonical up to its global sign: the mirror maps the aligned
    pair (i, i+1) (0-based, cyclic) to (-i-1, -i), so a unique one has
    i = (N-1)/2, opposite site 1.  :func:`_canonical_frames` still checks
    the frustrated rows for exactly one aligned pair, and its shift is 0.
    """
    errors = {row: ConvergenceError(f"stationarity residual {grad_norm[row]:.2e} above "
                                    f"{tolerance[row]:.3g}", best_residual=grad_norm[row].item())
              for row in (~(grad_norm <= tolerance)).nonzero()[0].tolist()}
    if len(frustrated):
        signs = np.ones(len(alphas))
        _, signs[frustrated], frame_errors = _canonical_frames(alphas[frustrated])
        alphas = alphas * signs[:, None]
        errors.update((int(frustrated[row]), error) for row, error in frame_errors.items())
    return alphas, errors


def solve_ground_states(params_seq) -> list:
    """:func:`_solve_stack` of points of one lattice size: per point, in
    order, its :class:`GroundStateSolution` built from the record's row, or
    its error (a :class:`FrustraError`, or ``numpy.linalg.LinAlgError``)."""
    points = list(params_seq)
    if len({params.n_sites for params in points}) > 1:
        raise ValidationError("a stacked solve needs points of one lattice size")
    if not points:
        return []
    g, jbar = np.array([[params.g, params.jbar] for params in points], dtype=float).T
    states = _solve_stack(points[0].n_sites, g, jbar)
    return [error if error is not None else GroundStateSolution(
        MeanFieldConfiguration(alphas, params.g, params.jbar), phase, residual, params)
        for params, alphas, phase, residual, error in zip(
            points, states.alphas, states.phases, states.grad_norm.tolist(), states.errors)]


def solve_ground_state(params: ModelParams) -> GroundStateSolution:
    """Find the canonical global mean-field minimizer of one point.

    This is :func:`solve_ground_states` on a stack of one, so it runs the
    same Newton iteration and returns the same bits as any stacked solve
    containing the point; it raises the point's error instead of
    returning it.
    """
    (outcome,) = solve_ground_states([params])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def enumerate_degenerate_ground_states(
        point: ModelParams | GroundStateSolution,
        opts: SolverOptions | None = None) -> list[MeanFieldConfiguration]:
    """All distinct global minimizers at equal energy of a point, given by
    its :class:`ModelParams` or by its solved :class:`GroundStateSolution`.

    In the default symmetry-orbit mode the manifold is generated from the
    canonical solution by lattice rotations and the global sign flip; a
    given solution is used as it is, without a solve.  In exhaustive mode,
    where :func:`~frustra.model._spectral_lower_bound` is attainable (g <=
    g_c, or jbar < 0), one candidate row, the origin or the all -1 pattern,
    is minimized, and if its energy meets the bound its group images are
    the manifold (:func:`_certified_members`).  Elsewhere, and where the
    candidate misses the bound, one sign pattern per orbit of that group is
    minimized independently and the group generates the members from the
    global-energy tier; this validates the orbit construction for small
    lattices.  The oracle reads the phase from (g, jbar) as the solver
    does: it polishes its members in the frustrated phase only, g > g_c and
    jbar > 0, and refuses a point at jbar = 0 above g_c = 1 before any
    Newton run, with the solver's :class:`ValidationError`.  At
    ``logging.DEBUG`` the ``frustra.meanfield`` logger gets one record per
    exhaustive call: the certified candidate and its margin to the bound,
    or the orbit rows, the Newton steps, the stationary rows, the global
    tier and the members.
    """
    opts = opts or SolverOptions()
    solved = isinstance(point, GroundStateSolution)
    params = point.params if solved else point
    if opts.seed_mode == "exhaustive":
        return _enumerate_exhaustive(params)
    solution = point if solved else solve_ground_state(params)
    alphas = solution.config.alphas
    g, jbar = params.g, params.jbar
    if solution.phase is Phase.NORMAL:
        return [solution.config]
    if solution.phase is Phase.NFSP:
        return [solution.config, MeanFieldConfiguration(-alphas, g, jbar)]
    return [MeanFieldConfiguration(image, g, jbar) for image in group_images(alphas)]


def _enumerate_exhaustive(params: ModelParams):
    n, g, jbar = params.n_sites, params.g, params.jbar
    gc = params.critical_coupling()
    scale = _near_critical_magnitude(g, gc) if g > gc else 0.1
    uniform = _uniform_magnitude(g, jbar)
    if uniform is not None:
        scale = max(scale, uniform)
    if g > gc and jbar == 0:
        raise copy.copy(_UNCLASSIFIED)
    consts = _pack(g, jbar)
    if g <= gc or jbar < 0:  # the spectral lower bound is attainable
        # the origin, or orbit_patterns(n)[0], all -1, at the orbit rows' scale
        members = _certified_members(consts, params, np.full((1, n), -scale if g > gc else 0.0))
        if members is not None:
            return [MeanFieldConfiguration(a, g, jbar) for a in members]

    # one sign pattern per rotation/flip orbit, all rows of one full-space Newton stack
    patterns = np.array(orbit_patterns(n))
    found, steps, stationary = _stable_minima(consts, params, patterns * scale)
    if not len(found):
        raise ConvergenceError("exhaustive enumeration found no stable minima")

    energies = _kernels(n)[0](found, consts)
    tolerance = max(ENERGY_TOL, _BOUND_SLACK * _energy_rounding(found, g, jbar).max())
    global_tier = found[energies <= energies.min() + tolerance]
    if g > gc and jbar > 0:
        # Near g_c the mirror-odd direction is flat, so each member stops
        # somewhere along it; lock its pairs, as solve_ground_state's mirror-
        # reduced Newton does, so that copies of one minimum coincide to
        # rounding.
        global_tier = _polish_members(global_tier, params)
    members = _distinct_images(global_tier)
    if log.isEnabledFor(logging.DEBUG):
        (descent, endgame), (descent_total, endgame_total) = steps.max(axis=0), steps.sum(axis=0)
        log.debug("exhaustive g=%r jbar=%r N=%d: %d orbit rows, descent steps %d max and "
                  "%d total, endgame steps %d max and %d total, %d stationary rows, "
                  "global tier of %d, %d members", g, jbar, n, len(patterns), descent,
                  descent_total, endgame, endgame_total, stationary, len(global_tier),
                  len(members))
    return [MeanFieldConfiguration(a, g, jbar) for a in members]


def _stable_minima(consts, params: ModelParams, seeds: np.ndarray):
    """The oracle's full-space Newton from each row of ``seeds`` at the
    point ``params`` of constants ``consts``, checked: ``(minima, steps,
    stationary)``, the rows that are stationary to the solver's rule
    (SOLUTION_GRAD_TOL, or the row's :func:`_gradient_tolerance`) and whose
    Hessian passes PSD_TOLERANCE, every row's (descent, endgame) step counts
    and the number of stationary rows.  The first failed row's error
    (Newton's, or a failed eigensolve's ``LinAlgError``) is raised."""
    energy, gradient, hessian = _kernels(params.n_sites)
    alphas, grad_norm, steps, failures = _newton_minimize(
        energy, gradient, hessian, seeds, np.repeat(consts[None], len(seeds), axis=0))
    settled = np.flatnonzero([row not in failures for row in range(len(seeds))])
    # SOLUTION_GRAD_TOL, or the floor of a settled row above it, as in _solve_stack
    tolerance = np.full(len(settled), SOLUTION_GRAD_TOL)
    loose = grad_norm[settled] > SOLUTION_GRAD_TOL
    if loose.any():
        tolerance[loose] = _gradient_tolerance(alphas[settled[loose]], params.g, params.jbar,
                                               SOLUTION_GRAD_TOL)
    stationary = settled[~(grad_norm[settled] > tolerance)]
    lowest = _eigvalsh(hessian(alphas[stationary], consts)).min(axis=-1)
    for row in stationary[np.isnan(lowest)].tolist():
        failures[row] = copy.copy(_UNCONVERGED)
    if failures:
        raise failures[min(failures)]
    return alphas[stationary[~(lowest < PSD_TOLERANCE)]], steps, len(stationary)


def _certified_members(consts, params: ModelParams, candidate: np.ndarray):
    """The manifold from one ``candidate`` row, the origin or the all -1
    orbit pattern, at a point whose :func:`~frustra.model._spectral_lower_bound`
    is attainable (g <= g_c, or jbar < 0); None if the candidate's minimum
    misses the bound by more than _BOUND_SLACK times the energy's rounding
    scale (:func:`_energy_rounding`).

    Only constant modulus in the softest hopping eigenspace attains the
    bound: the origin below g_c and the two uniform states of jbar < 0.  So
    a stable candidate that meets it is a global minimizer, and its group
    images are the manifold.  Rows never mix in Newton, so the uniform
    candidate is the orbit stack's first row bit for bit, and its error is
    that stack's first; a miss falls back to the orbit search, so the slack decides the
    route, never the answer.
    """
    found, _, _ = _stable_minima(consts, params, candidate)
    if not len(found):
        return None
    (energy,) = _kernels(params.n_sites)[0](found, consts).tolist()
    bound = _spectral_lower_bound(params.g, params.jbar, params.n_sites)
    margin = abs(energy - bound) / _energy_rounding(found[0], params.g, params.jbar)
    if not margin <= _BOUND_SLACK:
        return None
    members = _distinct_images(found)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("exhaustive g=%r jbar=%r N=%d: the %s candidate meets the spectral lower "
                  "bound within %.2f eps of its terms, %d members", params.g, params.jbar,
                  params.n_sites, "uniform" if found.any() else "origin", margin, len(members))
    return members


def _energy_rounding(alphas: np.ndarray, g: float, jbar: float):
    """eps times the sum over sites of the magnitudes of the energy's terms,
    a_n^2 + sqrt(1 + 4 g^2 a_n^2)/2 + |2 jbar a_n a_{n+1}|, along the last
    axis: the scale of the rounding of :func:`~frustra.model.rescaled_energy`,
    which |E| underestimates where the terms cancel (jbar near -1/2)."""
    a, right = alphas, ring(alphas.shape[-1]).right
    terms = (a * a + 0.5 * np.sqrt(1.0 + 4.0 * g * g * a * a)
             + np.abs(2.0 * jbar * a * a[..., right]))
    return np.finfo(float).eps * terms.sum(axis=-1)


def _gradient_tolerance(alphas: np.ndarray, g, jbar, bound: float):
    """max(bound, 4 eps max_n(|2 a_n| + |2 jbar (a_{n-1} + a_{n+1})|
    + |2 g^2 a_n / sqrt(1 + 4 g^2 a_n^2)|)) along the last axis, ``g`` and
    ``jbar`` scalars or one per row: the rounding floor of the gradient's
    terms, which grows as |alpha| ~ g/2 and near g_c lies far below 1e-10."""
    a, tables = alphas, ring(alphas.shape[-1])
    g, jbar = np.asarray(g)[..., None], np.asarray(jbar)[..., None]
    terms = (np.abs(2.0 * a) + np.abs(2.0 * jbar * (a[..., tables.left] + a[..., tables.right]))
             + np.abs(2.0 * g * g * a / np.sqrt(1.0 + 4.0 * g * g * a * a)))
    return np.maximum(bound, 4.0 * np.finfo(float).eps * terms.max(axis=-1))


def _distinct_images(global_tier) -> np.ndarray:
    """The manifold generated from a global tier (members, N): a member
    within MATCH_TOL times max(1, max |alpha| of the tier) of a kept one
    lies in a kept orbit; else each of its 2N images joins unless it
    matches a kept member or an earlier joining image, found with one
    2N x 2N distance matrix and a pass in image order.  The scale keeps
    copies of one minimum together at strong coupling, where |alpha| ~ g/2
    rounds them further apart than MATCH_TOL."""
    members = np.empty((0, np.shape(global_tier)[-1]))
    match = MATCH_TOL * max(1.0, np.abs(global_tier).max())
    for alphas in global_tier:
        if (np.abs(members - alphas).max(axis=-1) < match).any():
            continue
        images = group_images(alphas)
        near = (np.abs(images[:, None] - images[None]).max(axis=-1) < match).tolist()
        new = ~(np.abs(images[:, None] - members[None]).max(axis=-1)
                < match).any(axis=1)
        joining = []  # in image order
        for i in new.nonzero()[0].tolist():
            if not any(near[i][j] for j in joining):
                joining.append(i)
        members = np.concatenate((members, images[joining]))
    return members


def _polish_members(members: np.ndarray, params: ModelParams) -> np.ndarray:
    """Frustrated minima re-converged, as one stack, each in the
    mirror-symmetric subspace of its own frame.

    The pair structure is verified rather than assumed: if locking the
    pairs raised a member's energy beyond rounding, it is kept as found
    and the discrepancy logged.
    """
    n, g, jbar = params.n_sites, params.g, params.jbar
    shifts, signs, errors = _canonical_frames(members)
    if errors:
        raise errors[min(errors)]
    # every member into its canonical frame, and back, by one gather each
    rows, sites, shifts = np.arange(len(members))[:, None], np.arange(n), np.array(shifts)[:, None]
    canonical = signs[:, None] * members[rows, (sites + shifts) % n]
    incidence, consts = ring(n).incidence, np.repeat(_pack(g, jbar)[None], len(members), axis=0)
    expand, fun, jac, hess_fn = _mirror_reduced(n)
    # seeded from the mean of each mirror pair
    y, _, _, failures = _newton_minimize(fun, jac, hess_fn,
                                         canonical @ incidence / incidence.sum(axis=0), consts)
    if failures:
        raise failures[min(failures)]
    snapped = expand(y)
    free, locked = _kernels(n)[0](canonical, consts), _kernels(n)[0](snapped, consts)
    raised = locked > free + 1e-12 * np.fmax(1.0, np.abs(free))
    for before, after in zip(free[raised].tolist(), locked[raised].tolist()):
        log.warning(
            "symmetric polish raised the energy (%.3e -> %.3e); keeping the "
            "unconstrained minimizer", before, after,
        )
    polished = signs[:, None] * snapped[rows, (sites - shifts) % n]
    return np.where(raised[:, None], members, polished)


@dataclass(frozen=True)
class CriticalModes:
    """The two soft Hessian modes of the frustrated ground state."""

    lambda_mf: float
    lambda_f: float
    y_mf: np.ndarray
    y_f: np.ndarray


def hessian_critical_modes(solution: GroundStateSolution) -> CriticalModes:
    """Identify the mean-field and frustrated soft modes of the Hessian.

    The frustrated mode lives in the mirror-odd sector, so it carries no
    weight on the unpaired site and is antisymmetric across every
    ferromagnetic pair; the mean-field mode is the softest mirror-even
    direction.  Identification by sector projection is exact and remains
    robust when lambda_f sits below floating-point resolution.  Another
    phase raises :class:`PhaseError`, a failed eigensolve ``LinAlgError``.
    """
    if solution.phase is not Phase.FSP:
        raise PhaseError(f"hessian critical modes require the frustrated phase, "
                         f"got {solution.phase.value}")
    hess = energy_hessian(solution.config.alphas, solution.config.g, solution.config.jbar)
    tables = ring(solution.config.n_sites)
    (w_even, v_even), (w_odd, v_odd) = _mirror_eigh(hess[None])
    if np.isnan(w_even[0, 0]) or np.isnan(w_odd[0, 0]):
        raise copy.copy(_UNCONVERGED)
    return CriticalModes(float(w_even[0, 0]), float(w_odd[0, 0]),
                         _fix_sign(tables.even.T @ v_even[0, :, 0]),
                         _fix_sign(tables.odd.T @ v_odd[0, :, 0]))


def _mirror_eigh(hess: np.ndarray):
    """:data:`_eigh` of the mirror-even and mirror-odd blocks of a stack of
    N x N Hessians (points, N, N): ((w_even, v_even), (w_odd, v_odd)),
    stacked over the points, in the bases of the ring table; a row whose
    eigensolve fails is NaN in its block."""
    tables = ring(hess.shape[-1])
    return tuple(_eigh(basis @ hess @ basis.T) for basis in (tables.even, tables.odd))


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    vec = vec / np.linalg.norm(vec)
    for component in vec:
        if abs(component) > 1e-7:
            return vec if component > 0 else -vec
    return vec
