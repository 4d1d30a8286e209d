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

import copy
import functools
import logging
import math
from dataclasses import dataclass
from enum import Enum

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
    _landscape,
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
    symmetry orbit, ``exhaustive`` re-minimizes from one sign pattern per
    rotation/flip orbit and generates the members by that group.
    """

    seed_mode: str = "symmetry-orbit"

    def __post_init__(self):
        if self.seed_mode not in ("symmetry-orbit", "exhaustive"):
            raise ValidationError(f"unknown seed_mode {self.seed_mode!r}")


@dataclass(frozen=True)
class GroundStateSolution:
    """A checked minimum, which the Hessian and fluctuation routes read
    without checking again: a global minimizer with its phase, gradient
    residual, lattice point ``params`` (its size, g and jbar those of
    ``config``, else :class:`ValidationError`) and read-only ascending
    ``hessian_eigenvalues``.  A residual that ``converged`` does not accept,
    NaN included, raises the solver's :class:`ConvergenceError`.  A given
    spectrum must hold one value per site (else :class:`ValidationError`)
    and is stored read-only, copied if it was writeable.  Without one,
    :func:`_hessian_eigenvalues` computes it, and a failed eigensolve
    raises ``LinAlgError``.  The manifold size
    ``degeneracy`` follows from the phase and the lattice size."""

    config: MeanFieldConfiguration
    phase: Phase
    grad_norm: float
    params: ModelParams
    hessian_eigenvalues: np.ndarray = None

    def __post_init__(self):
        point = (self.config.n_sites, self.config.g, self.config.jbar)
        if point != (self.params.n_sites, self.params.g, self.params.jbar):
            raise ValidationError(f"configuration (N, g, jbar) = {point} lies at another "
                                  "lattice point than params")
        if not self.converged:
            raise ConvergenceError(
                f"stationarity residual {self.grad_norm:.2e} above {SOLUTION_GRAD_TOL}",
                best_residual=self.grad_norm)
        if self.hessian_eigenvalues is None:
            (spectrum,) = _hessian_eigenvalues(self.config.alphas[None],
                                               *np.array([[self.config.g], [self.config.jbar]]))
            if np.isnan(spectrum[0]):
                raise copy.copy(_UNCONVERGED)
        else:
            spectrum, n = np.asarray(self.hessian_eigenvalues, dtype=float), self.config.n_sites
            if spectrum.shape != (n,):
                raise ValidationError(f"Hessian spectrum of shape {spectrum.shape} at N={n}")
            if spectrum.flags.writeable:  # a copy: the caller's array stays its own
                spectrum = spectrum.copy()
        spectrum.flags.writeable = False
        object.__setattr__(self, "hessian_eigenvalues", spectrum)

    @property
    def degeneracy(self) -> int:
        return {Phase.NORMAL: 1, Phase.NFSP: 2, Phase.FSP: 2 * self.config.n_sites}[self.phase]

    @property
    def converged(self) -> bool:
        return bool(self.grad_norm <= SOLUTION_GRAD_TOL)


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
    if not bad.any():
        return (rows, *companions)
    for row in rows[bad].tolist():
        failures[row] = copy.copy(error)
    keep = ~bad
    return tuple(array[keep] for array in (rows, *companions))


def _newton_minimize(fun, jac, hess_fn, x0):
    """Damped saddle-free Newton descent followed by a pure-Newton endgame,
    on every row of the stack ``x0`` (rows, m) at once.

    A descent step divides the gradient's part along each Hessian
    eigenvector by the eigenvalue's absolute value plus 1e-9.  Where the
    Hessian is positive semidefinite, as it is for nearly every solver
    seed, that is the plain damped-Newton step, bit for bit.  Where it is
    indefinite the step keeps the curvature's length scale; the smallest
    shift that makes the Hessian positive would leave one eigenvalue at
    1e-9, and a step up to 1e9 times the gradient for the line search to
    shrink.

    ``fun``, ``jac`` and ``hess_fn`` take a stack and the ids of its rows,
    so rows may carry their own couplings; they take their points as given
    (the functions of :func:`~frustra.model._landscape`).  The seeds must be
    finite, and a line-search or endgame trial point that is not fails its
    row with :class:`DomainError`; every point the derivatives see is a
    seed or an accepted trial.  Each row runs exactly the iteration, and
    the arithmetic, it would run alone: row masks replace the per-row
    control flow, and a row that fails (a non-finite trial point, a failed
    eigensolve) leaves the stack without touching the others.  A line
    search that every row passes at the full step, the common case, needs
    no masks.  The descent phase insists on energy decrease; once the
    energy changes fall below floating-point resolution the endgame
    accepts steps on gradient decrease instead.  Returns ``(x, grad_norm,
    steps, failures)``: the minimizers, their gradient infinity-norms,
    each row's accepted (descent, endgame) step counts, and each failed
    row's exception by row id.
    """
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("alphas must be finite")
    failures: dict[int, Exception] = {}
    steps = np.zeros((len(x), 2), dtype=int)
    live = np.arange(len(x))
    f, grad = fun(x, live), jac(x, live)
    for _ in range(MAX_ITERATIONS):
        live = live[~(np.abs(grad[live]).max(axis=-1) < 1e-6)]
        if not len(live):
            break
        w, vecs = _eigh(hess_fn(x[live], live))
        live, w, vecs = _drop(np.isnan(w[:, 0]), live, failures, _UNCONVERGED, w, vecs)
        coeffs = (np.swapaxes(vecs, -1, -2) @ grad[live][..., None])[..., 0]
        step = (vecs @ (coeffs / (np.abs(w) + 1e-9))[..., None])[..., 0]
        # the line search: the rows still searching share the step length
        # t, which shrinks by quarters from 1 down to 1e-12
        t, search, trial = 1.0, live, x[live] - step
        moved = np.zeros(len(x), dtype=bool)
        while True:
            search, trial, step = _drop(~np.isfinite(trial).all(axis=-1), search, failures,
                                        _NOT_FINITE, trial, step)
            f_new, f_old = fun(trial, search), f[search]
            accept = f_new <= f_old + 1e-14 * np.abs(f_old)
            if accept.all():
                x[search], f[search], moved[search] = trial, f_new, True
                break
            done = search[accept]
            x[done], f[done], moved[done] = trial[accept], f_new[accept], True
            search, step, t = search[~accept], step[~accept], t / 4.0
            if not t > 1e-12:
                break
            trial = x[search] - t * step
        live = np.flatnonzero(moved)
        steps[live, 0] += 1
        grad[live] = jac(x[live], live)
    # The endgame squeezes the residual to the floating-point floor (well
    # below SOLUTION_GRAD_TOL): soft-direction curvatures amplify any
    # leftover gradient into parameter error, so stopping exactly at
    # SOLUTION_GRAD_TOL would contaminate near-critical Hessian eigenvalues.
    live = np.flatnonzero([row not in failures for row in range(len(x))])
    norm = np.abs(grad).max(axis=-1)
    for _ in range(60):
        live = live[~(norm[live] < 1e-15)]
        if not len(live):
            break
        step = _solve(hess_fn(x[live], live), grad[live][..., None])[..., 0]
        # a singular Hessian, whose step numpy fills with NaN, ends that
        # row's endgame as a failed step does
        live, step = _drop(np.isnan(step).all(axis=-1), live, {}, None, step)
        trial = x[live] - step
        live, trial = _drop(~np.isfinite(trial).all(axis=-1), live, failures, _NOT_FINITE, trial)
        grad_new = jac(trial, live)
        new_norm = np.abs(grad_new).max(axis=-1)
        better = ~(new_norm >= norm[live])
        live = live[better]
        x[live], grad[live], norm[live] = trial[better], grad_new[better], new_norm[better]
        steps[live, 1] += 1
    return x, norm, steps, failures


def _mirror_reduced(n_sites: int, landscape):
    """(expand, energy, gradient, Hessian) of y -> E(P y) over the
    mirror-group values y, with P the pair incidence: the gradient is g P
    and the Hessian P^T H P.

    They act on the last axis of a stack of y, and the derivative
    functions take the ids of the rows they are given (all rows by
    default).  They are built on ``landscape``, the full-space functions
    of one :func:`~frustra.model._landscape`, and take their points as
    given.
    """
    incidence = ring(n_sites).incidence
    energy, gradient, hessian = landscape

    def expand(y):
        return y @ incidence.T

    def fun(y, rows=...):
        return energy(expand(y), rows)

    def jac(y, rows=...):
        return gradient(expand(y), rows) @ incidence

    def hess_fn(y, rows=...):
        return incidence.T @ hessian(expand(y), rows) @ incidence

    return expand, fun, jac, hess_fn


# ---------------------------------------------------------------------------
# seeds, canonicalization, phase logic

#: The rows of :func:`_seed_templates`.
UNIFORM, NEAR_CRITICAL, FRUSTRATED = range(3)


@functools.cache
def _seed_templates(n_sites: int) -> np.ndarray:
    """The read-only seed templates of one lattice size over the
    mirror-group values: UNIFORM all ones, FRUSTRATED the canonical
    frustrated pattern of the :func:`~frustra.model.ring` table,
    NEAR_CRITICAL that pattern with the unpaired site doubled."""
    pattern = ring(n_sites).pattern[: (n_sites + 1) // 2]
    near_critical = pattern.copy()
    near_critical[0] *= 2.0
    templates = np.array([np.ones_like(pattern), near_critical, pattern])
    templates.flags.writeable = False
    return templates


def _seed_alphas(params: ModelParams, gc: float) -> list[tuple[int, float]]:
    """One seed per symmetry orbit (rotations and the global sign flip)
    that can hold the global minimum of a point above its critical coupling
    ``gc``, as (template, magnitude) pairs: the seed is the magnitude times
    that row of the :func:`_seed_templates`.

    - the origin is stationary there but never a minimum, so never seeded;
    - for jbar <= 0 the hopping term is at least 2 jbar sum alpha_n^2, equal
      only for a uniform state, so the uniform closed form is global and
      the one seed;
    - for jbar > 0 a uniform state of magnitude a lies exactly
      4 jbar a^2 (N - 1) above the frustrated pattern of magnitude a, so
      only the canonical frustrated pattern is seeded: at its near-critical
      magnitude and, above sqrt(1 + 2 jbar), at the uniform one.

    Every seed is mirror-symmetric about site 1.
    """
    g, jbar = params.g, params.jbar
    uniform = _uniform_magnitude(g, jbar)
    if jbar <= 0:
        return [(UNIFORM, uniform)]
    near_critical = [(NEAR_CRITICAL, math.sqrt(g - gc) / (math.sqrt(3.0) * gc ** 1.5))]
    return near_critical if uniform is None else near_critical + [(FRUSTRATED, uniform)]


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


def _classify(peak: float, jbar: float) -> Phase:
    """The phase of a minimizer whose largest coherence magnitude is ``peak``."""
    if peak < 1e-9:
        return Phase.NORMAL
    if jbar < 0:
        return Phase.NFSP
    if jbar > 0:
        return Phase.FSP
    raise ValidationError(
        "jbar = 0 with g > 1 sits on the first-order line of decoupled sites; "
        "the 2^N-fold degenerate manifold has no single-phase classification"
    )


def solve_ground_states(params_seq) -> list:
    """Canonical global mean-field minimizers of points of one lattice
    size, solved as one stack.

    A point at g <= g_c is the normal phase without a solve: sqrt(1 + x)
    <= 1 + x/2 gives E(alpha) >= E(0) + alpha^T H_0 alpha / 2, and the
    origin Hessian H_0 is positive semidefinite up to g_c; the stack's
    normal points share one :func:`origin_hessian_eigenvalues` call.  Each
    superradiant point gets one seed per symmetry orbit that can hold the
    global minimum (:func:`_seed_alphas`).  Every seed is mirror-symmetric
    about site 1, and so is every ground state up to a rotation, so the
    seeds of all points run as one mirror-reduced Newton stack ((N+1)/2
    values a row).  The lowest eigenvalue of the full N x N Hessian
    (:func:`_hessian_eigenvalues`, on Hessians of the stack's own kernel)
    then confirms each stationary point is a minimum, and the lowest-energy
    one wins (the first in seed order on a tie) and carries that spectrum;
    a point whose seed failed takes its first failing seed's error.
    Frustrated solutions are returned as the canonical representative
    (unpaired site first, alpha_1 < 0 <= alpha_2, mirror pairs exactly
    equal).  Returns, per point and in order, its
    :class:`GroundStateSolution` or the exception its solve raised (a
    :class:`FrustraError`, or ``numpy.linalg.LinAlgError``).  Rows never
    mix, so a point's result is a pure function of its parameters,
    whatever else the stack holds; seeds, winners and frames are array
    operations over it.  At ``logging.DEBUG`` the ``frustra.meanfield``
    logger gets one record per solved point.
    """
    points = list(params_seq)
    if len({params.n_sites for params in points}) > 1:
        raise ValidationError("a stacked solve needs points of one lattice size")
    debug = log.isEnabledFor(logging.DEBUG)
    outcomes: list = [None] * len(points)
    hopping = gc = None  # g_c is computed again only where the hopping changes
    # the normal points; per seeded point its index and first seed row; per
    # seed row its seeded point and (template, magnitude)
    normal, solving, starts, group, seeds = [], [], [], [], []
    for index, params in enumerate(points):
        try:
            if params.jbar != hopping:
                gc, hopping = params.critical_coupling(), params.jbar
            if params.g <= gc:
                normal.append(index)
                if debug:
                    log.debug("solved g=%r jbar=%r N=%d: normal phase, no seeds",
                              params.g, params.jbar, params.n_sites)
                continue
            point_seeds = _seed_alphas(params, gc)
        except FrustraError as exc:
            outcomes[index] = exc
            continue
        group += [len(solving)] * len(point_seeds)
        solving.append(index)
        starts.append(len(seeds))
        seeds += point_seeds
    if normal:  # the origin wins, with the closed-form spectra of one call
        g, jbar = np.array([[points[index].g, points[index].jbar] for index in normal]).T
        spectra = origin_hessian_eigenvalues(g, jbar, points[0].n_sites)
        spectra.flags.writeable = False
        for index, spectrum in zip(normal, spectra):
            params = points[index]
            config = MeanFieldConfiguration(np.zeros(len(spectrum)), params.g, params.jbar)
            outcomes[index] = GroundStateSolution(config, Phase.NORMAL, 0.0, params, spectrum)
    if not seeds:
        return outcomes

    n = points[0].n_sites
    templates, magnitudes = zip(*seeds)
    owners = [points[solving[k]] for k in group]
    g, jbar = np.array([p.g for p in owners]), np.array([p.jbar for p in owners])
    landscape = _landscape(n, g, jbar)  # read again by row ids once Newton is done
    expand, fun, jac, hess_fn = _mirror_reduced(n, landscape)
    y, _, steps, failures = _newton_minimize(
        fun, jac, hess_fn, _seed_templates(n)[list(templates)] * np.array(magnitudes)[:, None])
    alphas = expand(y)
    settled = np.flatnonzero([row not in failures for row in range(len(y))])
    grad_norm = np.full(len(y), np.nan)
    grad_norm[settled] = np.abs(landscape[1](alphas[settled], settled)).max(axis=-1)
    stationary = settled[~(grad_norm[settled] > 1e-6)]
    candidates = alphas[stationary]
    checked = _hessian_eigenvalues(candidates, g[stationary], jbar[stationary],
                                   lambda dense: landscape[2](candidates[dense], stationary[dense]))
    stationary, checked = _drop(np.isnan(checked[:, 0]), stationary, failures, _UNCONVERGED,
                                checked)
    spectra = np.full(alphas.shape, np.nan)  # per checked row its spectrum, for its solution
    spectra[stationary] = checked
    minima = stationary[~(checked[:, 0] < PSD_TOLERANCE)]
    energy = np.full(len(y), np.inf)  # of the minima
    energy[minima] = landscape[0](alphas[minima], minima)
    # per seeded point, over its consecutive seed rows: the lowest energy of
    # a minimum and the first row at it (without a minimum, the first row)
    lowest = np.minimum.reduceat(energy, starts)
    winners = np.minimum.reduceat(
        np.where(energy == lowest[np.array(group)], np.arange(len(y)), len(y)), starts)
    failing = {}  # per seeded point with a failed row, its first
    for row in sorted(failures):
        failing.setdefault(group[row], row)
    solved = _canonical_solutions(alphas[winners], grad_norm[winners], spectra[winners],
                                  [points[index] for index in solving])
    for k, (index, low, start, stop, row, outcome) in enumerate(zip(
            solving, lowest.tolist(), starts, [*starts[1:], len(y)], winners.tolist(), solved)):
        params = points[index]
        if k in failing:
            outcome = failures[failing[k]]
        elif low == math.inf:
            outcome = ConvergenceError(
                f"no seed converged to a stable stationary point at g={params.g}, "
                f"jbar={params.jbar}", best_residual=min(math.inf, *grad_norm[start:stop].tolist()))
        elif debug and not isinstance(outcome, Exception):
            log.debug("solved g=%r jbar=%r N=%d: %d seeds tried, %d passed the gradient "
                      "and PSD filters, seed %d won after %d descent and %d endgame "
                      "steps, grad_norm %.3e", params.g, params.jbar, params.n_sites,
                      stop - start, np.count_nonzero(energy[start:stop] < math.inf),
                      row - start + 1, *steps[row], grad_norm[row])
        outcomes[index] = outcome
    return outcomes


def _canonical_solutions(alphas: np.ndarray, grad_norm: np.ndarray, spectra: np.ndarray,
                         points) -> list:
    """Winning minimizers (rows, N) classified and put in their canonical
    frame, as one stack: per row its :class:`GroundStateSolution`, carrying
    its row of the Hessian ``spectra`` read-only, or the error of the first
    check it fails (the classification, the frame, the solution's own
    residual check).  The Hessian depends on the coherences through their
    squares only, so the canonical sign flip keeps the spectrum's bits.

    Every seed is mirror-symmetric about site 1, so the winner of the
    mirror-reduced stack is too, and a frustrated winner is canonical up to
    its global sign.  The mirror maps the aligned neighbour pair (i, i+1)
    (0-based, cyclic) to (-i-1, -i); a unique aligned pair is its own image,
    so i = -i-1 (mod N), i = (N-1)/2, and the unpaired site opposite it is
    site 1.  :func:`_canonical_frames` still checks that there is exactly
    one aligned pair, and its shift is 0.  Only frustrated rows are checked.
    """
    peaks = np.abs(alphas).max(axis=-1)
    frustrated = ~(peaks < 1e-9) & (np.array([params.jbar for params in points]) > 0)
    errors = {}
    if frustrated.any():
        rows = frustrated.nonzero()[0]
        signs = np.ones(len(alphas))
        _, frame_signs, frame_errors = _canonical_frames(alphas[rows])
        signs[rows] = frame_signs
        alphas = alphas * signs[:, None]
        errors = {int(rows[row]): error for row, error in frame_errors.items()}
    outcomes = []
    spectra.flags.writeable = False
    for row, (params, peak, residual, config, spectrum) in enumerate(zip(
            points, peaks.tolist(), grad_norm.tolist(), alphas, spectra)):
        try:
            phase = _classify(peak, params.jbar)
            if row in errors:
                raise errors[row]
            outcomes.append(GroundStateSolution(
                MeanFieldConfiguration(config, params.g, params.jbar), phase, residual, params,
                spectrum))
        except FrustraError as exc:
            outcomes.append(exc)
    return outcomes


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
    given solution is used as it is, without a solve.  In exhaustive mode
    one sign pattern per orbit of that group is minimized independently
    and the group generates the members from the global-energy tier; this
    validates the orbit construction for small lattices.  At
    ``logging.DEBUG`` the ``frustra.meanfield`` logger gets one record per
    exhaustive call: the orbit rows, the Newton steps, the stationary rows,
    the global tier and the members.
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
    scale = np.sqrt(abs(g - gc)) / (np.sqrt(3.0) * gc ** 1.5) if g > gc else 0.1
    uniform = _uniform_magnitude(g, jbar)
    if uniform is not None:
        scale = max(scale, uniform)

    # one sign pattern per rotation/flip orbit, all rows of one full-space Newton stack
    seeds = np.array(orbit_patterns(n)) * scale
    energy, gradient, hessian = _landscape(n, g, jbar)
    alphas, grad_norm, steps, failures = _newton_minimize(energy, gradient, hessian, seeds)
    settled = np.flatnonzero([row not in failures for row in range(len(seeds))])
    stationary = settled[~(grad_norm[settled] > SOLUTION_GRAD_TOL)]
    lowest = _eigvalsh(hessian(alphas[stationary])).min(axis=-1)
    _drop(np.isnan(lowest), stationary, failures, _UNCONVERGED)
    if failures:
        raise failures[min(failures)]
    found = alphas[stationary[~(lowest < PSD_TOLERANCE)]]
    if not len(found):
        raise ConvergenceError("exhaustive enumeration found no stable minima")

    energies = energy(found)
    global_tier = found[energies <= energies.min() + ENERGY_TOL]
    if _classify(np.abs(global_tier[0]).max(), jbar) is Phase.FSP:
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
                  "global tier of %d, %d members", g, jbar, n, len(seeds), descent,
                  descent_total, endgame, endgame_total, len(stationary), len(global_tier),
                  len(members))
    return [MeanFieldConfiguration(a, g, jbar) for a in members]


def _distinct_images(global_tier) -> np.ndarray:
    """The manifold generated from a global tier (members, N): a member
    within MATCH_TOL of a kept one lies in a kept orbit; else each of its
    2N images joins unless it matches a kept member or an earlier joining
    image, found with one 2N x 2N distance matrix and a pass in image
    order."""
    members = np.empty((0, np.shape(global_tier)[-1]))
    for alphas in global_tier:
        if (np.abs(members - alphas).max(axis=-1) < MATCH_TOL).any():
            continue
        images = group_images(alphas)
        near = np.abs(images[:, None] - images[None]).max(axis=-1) < MATCH_TOL
        new = ~(np.abs(images[:, None] - members[None]).max(axis=-1)
                < MATCH_TOL).any(axis=1)
        joining = np.zeros(len(images), dtype=bool)
        for i in new.nonzero()[0].tolist():
            joining[i] = not (near[i] & joining).any()
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
    incidence = ring(n).incidence
    landscape = _landscape(n, g, jbar)
    expand, fun, jac, hess_fn = _mirror_reduced(n, landscape)
    # seeded from the mean of each mirror pair
    y, _, _, failures = _newton_minimize(fun, jac, hess_fn,
                                         canonical @ incidence / incidence.sum(axis=0))
    if failures:
        raise failures[min(failures)]
    snapped = expand(y)
    free, locked = landscape[0](canonical), landscape[0](snapped)
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
    phase raises :class:`PhaseError`.
    """
    if solution.phase is not Phase.FSP:
        raise PhaseError(f"hessian critical modes require the frustrated phase, "
                         f"got {solution.phase.value}")
    hess = energy_hessian(solution.config.alphas, solution.config.g, solution.config.jbar)
    tables = ring(solution.config.n_sites)
    (w_even, v_even), (w_odd, v_odd) = _mirror_eigh(hess[None])
    return CriticalModes(float(w_even[0, 0]), float(w_odd[0, 0]),
                         _fix_sign(tables.even.T @ v_even[0, :, 0]),
                         _fix_sign(tables.odd.T @ v_odd[0, :, 0]))


def hessian_spectra(solutions):
    """Hessian spectra of a non-empty stack of ground states of one lattice
    size: ``(eigenvalues, soft)``, the ascending eigenvalues of each
    point's Hessian, shape (points, N), and the (lambda_mf, lambda_f) soft
    modes of :func:`hessian_critical_modes`, shape (points, 2), NaN for a
    point that is not frustrated.  The eigenvalues are the ones each
    solution carries; only the frustrated points' Hessians are built, for
    their mirror sectors, and a frustrated solution with equal coherences
    has none (:class:`ValidationError`)."""
    alphas, g, jbar = (np.array([getattr(solution.config, name) for solution in solutions])
                       for name in ("alphas", "g", "jbar"))
    frustrated = np.array([solution.phase is Phase.FSP for solution in solutions])
    if (frustrated & _uniform_rows(alphas)).any():
        raise ValidationError("a frustrated solution with equal coherences on every site")
    eigenvalues = np.array([solution.hessian_eigenvalues for solution in solutions])
    soft = np.full((len(solutions), 2), np.nan)
    if frustrated.any():
        (w_even, _), (w_odd, _) = _mirror_eigh(energy_hessian(
            alphas[frustrated], g[frustrated], jbar[frustrated]))
        soft[frustrated] = np.column_stack([w_even[:, 0], w_odd[:, 0]])
    return eigenvalues, soft


def _uniform_rows(alphas: np.ndarray) -> np.ndarray:
    """The rows of a stack of configurations (rows, N) whose coherences are
    all equal, 0.0 and -0.0 alike: a translation-invariant state, whose
    Hessian and fluctuation form are diagonal in lattice momentum."""
    return (alphas == alphas[:, :1]).all(axis=-1)


def _hessian_eigenvalues(alphas: np.ndarray, g: np.ndarray, jbar: np.ndarray,
                         hessian=None) -> np.ndarray:
    """Ascending Hessian eigenvalues of a stack of configurations (rows,
    N), with ``g`` and ``jbar`` one value per row.

    A row of equal coherences a has the circulant Hessian of diagonal d,
    computed as :func:`~frustra.model.energy_hessian` computes it, and
    hopping 2 jbar, so its eigenvalues are the closed form d + 4 jbar cos k
    of :func:`~frustra.model.origin_hessian_eigenvalues`, given that d.
    Every other row takes ``numpy.linalg.eigvalsh`` of its Hessian, which
    ``hessian(mask)`` gives for the rows of a mask (by default,
    :func:`energy_hessian` of those rows; the solver reads its Newton
    stack's kernel), through :data:`_eigvalsh`: a row whose eigensolve
    fails is NaN throughout.
    """
    if hessian is None:
        def hessian(rows):
            return energy_hessian(alphas[rows], g[rows], jbar[rows])
    uniform = _uniform_rows(alphas)
    if not uniform.any():  # a frustrated stack, solved without masks
        return _eigvalsh(hessian(~uniform))
    eigenvalues = np.empty(alphas.shape)
    eigenvalues[uniform] = _circulant_eigenvalues(
        _hessian_diagonal(alphas[uniform, :1], g[uniform, None]), jbar[uniform], alphas.shape[-1])
    if not uniform.all():
        eigenvalues[~uniform] = _eigvalsh(hessian(~uniform))
    return eigenvalues


def _mirror_eigh(hess: np.ndarray):
    """``numpy.linalg.eigh`` of the mirror-even and mirror-odd blocks of a
    stack of N x N Hessians (points, N, N): ((w_even, v_even), (w_odd,
    v_odd)), stacked over the points, in the bases of the ring table."""
    tables = ring(hess.shape[-1])
    return tuple(np.linalg.eigh(basis @ hess @ basis.T) for basis in (tables.even, tables.odd))


def _fix_sign(vec: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    vec = vec / np.linalg.norm(vec)
    for component in vec:
        if abs(component) > tol:
            return vec if component > 0 else -vec
    return vec
