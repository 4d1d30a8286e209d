"""Coupling sweeps, power-law fits and critical-exponent extraction.

A sweep tabulates observables on a log-spaced grid of reduced couplings
|g - g_c| / g_c around the critical point.  Exponents are extracted by
linear least squares on log-log data restricted to the lowest decade of
usable points: each series is first cleaned of entries below its numerical
resolution floor and of the noise plateau that appears once the true value
drops below double precision (detected as loss of monotonicity towards the
critical point).  Fitting the lowest clean decade keeps the window inside
the asymptotic scaling regime, where crossover curvature from farther out
and additive non-critical backgrounds are negligible.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property
from warnings import warn

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DomainError,
    FitQualityError,
    ValidationError,
)
from .fluctuations import CRITICAL_REGIME_FACTOR, _site_moments
from .meanfield import _UNCLASSIFIED, Phase, _rowwise, _solve_stack
from .model import ModelParams, critical_point, rescaled_energy, stability_window

OBSERVABLES = ("gaps", "photon_numbers", "squeezing", "hessian_eigenvalues", "energy")

#: Mean-field Hessian eigenvalues below this are double-precision noise.
HESSIAN_FLOOR = 1e-12
#: A power-law fit needs FIT_MIN_POINTS points and an r^2 of FIT_R2_THRESHOLD;
#: its lowest-decade window spans FIT_DECADE in reduced coupling.
FIT_R2_THRESHOLD = 0.995
FIT_MIN_POINTS = 6
FIT_DECADE = 10.0
#: The reduced-coupling window of an exponent extraction.
EXPONENT_WINDOW = (1e-7, 1e-2)


def default_grid(g_critical: float, reduced_min: float = 1e-4,
                 reduced_max: float = 1e-2, points_per_decade: int = 25,
                 sides: str = "both") -> np.ndarray:
    """Log-spaced coupling grid in reduced distance from g_c, excluding g_c."""
    if not 0 < reduced_min < reduced_max:
        raise ValidationError("need 0 < reduced_min < reduced_max")
    if points_per_decade < 1:
        raise ValidationError(f"points_per_decade must be at least 1, got {points_per_decade}")
    if sides in ("below", "both") and reduced_max > 1:
        # reduced_max = 1 is the decoupled point g = 0, which is kept
        raise ValidationError(
            f"reduced window [{reduced_min!r}, {reduced_max!r}] puts g = g_c (1 - reduced) "
            "below 0 on the below side; need reduced_max <= 1")
    decades = np.log10(reduced_max / reduced_min)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    reduced = np.logspace(np.log10(reduced_min), np.log10(reduced_max), count)
    above = g_critical * (1.0 + reduced)
    below = g_critical * (1.0 - reduced)
    if sides == "above":
        grid = above
    elif sides == "below":
        grid = below
    elif sides == "both":
        grid = np.concatenate([below[::-1], above])
    else:
        raise ValidationError(f"sides must be above/below/both, got {sides}")
    return np.sort(grid)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: base parameters, coupling grid and observables."""

    jbar: float
    n_sites: int
    omega0: float = 1.0
    Omega: float = 1.0
    grid: tuple[float, ...] | None = None
    observables: tuple[str, ...] = OBSERVABLES
    reduced_min: float = 1e-4
    reduced_max: float = 1e-2
    points_per_decade: int = 25
    sides: str = "both"

    def __post_init__(self):
        unknown = set(self.observables) - set(OBSERVABLES)
        if unknown:
            raise ValidationError(f"unknown observables: {sorted(unknown)}")
        gc = self.g_critical  # validates jbar and n_sites
        if self.grid is None:
            grid = default_grid(gc, self.reduced_min, self.reduced_max,
                                self.points_per_decade, self.sides)
        else:
            grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1:  # a column passed the increasing check along its rows
            raise ValidationError(f"grid must be one-dimensional, got shape {grid.shape}")
        if not np.isfinite(grid).all():
            raise ValidationError("grid must be finite")
        # a default grid too: reduced couplings below resolution collapse onto g_c
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("grid must be strictly increasing")
        if np.any(np.abs(grid - gc) <= 1e-15):
            raise ValidationError("grid must exclude the critical point itself")
        object.__setattr__(self, "grid", tuple(grid.tolist()))
        # every point one ModelParams accepts: the frequencies, and g >= 0 at the smallest
        ModelParams(self.omega0, self.Omega, self.jbar, min(self.grid, default=0.0), self.n_sites)

    @cached_property
    def g_critical(self) -> float:
        """The critical coupling of the spec's ring and hopping, worked out once."""
        return critical_point(self.jbar, self.n_sites)


@dataclass(frozen=True)
class SweepRow:
    g: float
    reduced_coupling: float
    observable: str
    index: str
    value: float


@dataclass(frozen=True)
class SweepMissing:
    g: float
    observable: str
    reason: str


@dataclass
class SweepResult:
    """A sweep as a table over its grid points ``g`` and their ``reduced``
    couplings: per observable, in name order, its index labels sorted as
    strings, a (points, labels) array of values and a mask of the values
    present.  ``missing`` and ``warnings`` are in grid order.

    ``_flags`` holds what ``missing`` is built from: per failed point, by
    its grid index, its (observable, reason), and per unresolved label
    ("gaps" or an observable with a ``{}`` for the site), a (points,
    columns) mask of the values lost."""

    spec: SweepSpec
    g: np.ndarray
    reduced: np.ndarray
    table: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    warnings: list[str] = field(default_factory=list)
    _flags: tuple[dict, dict] = field(default_factory=lambda: ({}, {}), repr=False)

    @property
    def missing(self) -> list[SweepMissing]:
        """The missing rows, built on each read: a failed point's one row,
        then an unresolved point's rows label by label, site by site."""
        failures, lost = self._flags
        flagged = np.zeros(len(self.g), dtype=bool)
        flagged[list(failures)] = True
        for mask in lost.values():
            flagged |= mask.any(axis=1)
        unresolved = "frustrated sector below double-precision resolution"
        g, missing = self.g.tolist(), []
        for i in np.flatnonzero(flagged).tolist():
            if i in failures:
                missing.append(SweepMissing(g[i], *failures[i]))
            else:
                missing += [SweepMissing(g[i], label.format(site), unresolved)
                            for label, mask in lost.items()
                            for site in np.flatnonzero(mask[i]) + 1]
        return missing

    @property
    def rows(self) -> list[SweepRow]:
        """The table's rows in row order, absent values left out, built on
        each read."""
        return [SweepRow(**row) for row in _present_rows(
            self.g, self.reduced, [(name, *column) for name, column in self.table.items()])]

    def series(self, observable: str, index: str, side: str = "above"):
        """(reduced_coupling, value) arrays for one observable/index, one side
        of the critical point, ordered by reduced coupling."""
        columns, sides = self._lookup
        column = columns.get(observable, {}).get(index)
        if column is None:
            return np.array([]), np.array([])
        _, values, present = self.table[observable]
        keep = present[:, column] & sides[side == "above"]
        reduced, values = self.reduced[keep], values[:, column][keep]
        order = np.lexsort((values, reduced))
        return reduced[order], values[order]

    @cached_property
    def _lookup(self):
        """Per observable the column of each of its (distinct) labels, and
        the masks of the points at or below and above g_c."""
        above = self.g > self.spec.g_critical
        return {name: {label: column for column, label in enumerate(labels.tolist())}
                for name, (labels, _, _) in self.table.items()}, (~above, above)


def _present_rows(g, reduced, columns):
    """A table's present values in row order, as dicts of the
    :class:`SweepRow` fields: ``g`` and ``reduced`` are arrays over the
    points, and each column is (observable, labels, values, mask), values
    and mask (points, labels)."""
    names, values, mask = _flat_table(len(g), columns)
    return ({"g": g_i, "reduced_coupling": reduced_i, "observable": observable,
             "index": label, "value": value}
            for g_i, reduced_i, row, present in zip(g.tolist(), reduced.tolist(),
                                                    values.tolist(), mask.tolist())
            for (observable, label), value, kept in zip(names, row, present) if kept)


def _flat_table(points: int, columns):
    """A table's columns side by side, each label a column: the
    (observable, label) of each, and the (points, labels) values and mask."""
    none = np.empty((points, 0))  # a table may have no columns
    return ([(observable, label) for observable, labels, _, _ in columns
             for label in labels.tolist()],
            np.concatenate([none, *(values for _, _, values, _ in columns)], axis=1),
            np.concatenate([none.astype(bool), *(mask for _, _, _, mask in columns)], axis=1))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Tabulate the requested observables over the coupling grid.

    The grid stays arrays from the solve to the table: it is solved as one
    stack (:func:`~frustra.meanfield._solve_stack`), whose record carries
    the Hessian spectra and soft modes and goes to the stacked cavity
    moments (:func:`~frustra.fluctuations._site_moments`).  Every point is
    solved cold, from its own parameters alone, and stack rows never mix,
    so a point's rows do not depend on the rest of the grid or its order.
    Each observable's array fills the :class:`SweepResult` table at once;
    per-point failures are recorded as missing rows with a reason.
    """
    g = np.array(spec.grid)
    return _observe_grid(spec, _solve_stack(spec.n_sites, g, np.full(len(g), float(spec.jbar))))


def _observe_grid(spec: SweepSpec, states) -> SweepResult:
    """The table of the grid's values, from the solver's record ``states``
    of the grid: the solved points are observed as one stack, and each
    observable's block over them fills the table in one assignment, a value
    present where it is not NaN.  Each failed point's reason and the masks
    of the unresolved values are kept for :attr:`SweepResult.missing` to
    build its rows from; the critical-regime warnings are written at once.
    Labels are ranks, then a frustrated point's soft modes, in row order."""
    g, gc, n = np.array(spec.grid), spec.g_critical, spec.n_sites
    want = set(spec.observables)
    gaussian = want & {"gaps", "photon_numbers", "squeezing"}
    solved = states.solved
    # the solver's error of a failed point (programming errors propagate)
    failures = {i: ("all", f"solver: {states.errors[i]}") for i in np.flatnonzero(~solved).tolist()}
    lost, warnings = {}, []  # per missing-row label ("gaps" one column), its mask
    blocks = {}  # per observable, its values over the solved points, in rank order
    if solved.any():
        alphas, frustrated = states.alphas[solved], states.phases[solved] == Phase.FSP
        g_solved, jbar = g[solved], np.full(np.count_nonzero(solved), float(spec.jbar))
        if "energy" in want:
            blocks["energy"] = rescaled_energy(alphas, g_solved, spec.jbar)[:, None]
        if "hessian_eigenvalues" in want:
            blocks["hessian_eigenvalues"] = np.hstack([states.hessian_eigenvalues[solved],
                                                       states.soft_modes[solved]])
        if gaussian:
            moments = _site_moments(frustrated, alphas, *(
                np.full((len(alphas), 1), float(value)) for value in (spec.omega0, spec.Omega)),
                g_solved[:, None], jbar[:, None])
            # a frustrated point's mean-field and frustrated gaps follow its ranks
            blocks["gaps"] = np.hstack([moments.eps, moments.eps_even[:, :1],
                                        moments.eps_odd[:, :1]])
            blocks["photon_numbers"], blocks["squeezing"] = moments.photon_numbers, moments.var_q
            stack_index = np.flatnonzero(solved)  # a solved point's grid index
            failed = np.array([error is not None for error in moments.errors])
            failures.update((stack_index[row].item(), (",".join(sorted(gaussian)), str(error)))
                            for row, error in enumerate(moments.errors) if error is not None)
            columns = {"gaps": moments.eps[:, :1], "photon_numbers[{}]": moments.photon_numbers,
                       "squeezing[{}]": moments.var_q}
            for label, values in columns.items():
                if label.split("[")[0] in want:
                    lost[label] = np.zeros((len(g), values.shape[1]), dtype=bool)
                    lost[label][solved] = np.isnan(values) & ~failed[:, None]
            critical = np.fmin(moments.eps[:, 0], moments.eps_even[:, 0]) < (
                CRITICAL_REGIME_FACTOR * spec.omega0)
            warnings = [f"critical-regime point at g={spec.grid[i]!r}"
                        for i in stack_index[critical & ~failed].tolist()]
    result = SweepResult(spec, g, np.abs(g - gc) / gc, {}, warnings, (failures, lost))
    for name in sorted(spec.observables):
        ranks = range(1, {"energy": 0, "gaps": 2 * n}.get(name, n) + 1)
        soft = {"energy": [""], "gaps": ["mf", "f"], "hessian_eigenvalues": ["mf", "f"]}
        labels = np.array([*map(str, ranks), *soft.get(name, [])])
        order = np.argsort(labels)  # row order: "10" before "2", "f" and "mf" after the digits
        values = np.full((len(g), len(labels)), np.nan)
        if solved.any():
            values[solved] = blocks[name][:, order]
        result.table[name] = (labels[order], values, ~np.isnan(values))
    return result


# ---------------------------------------------------------------------------
# power-law fitting


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares power law y = prefactor * x^exponent on log-log data."""

    exponent: float
    prefactor: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


def fit_power_law(points) -> PowerLawFit:
    """Fit a power law to (reduced_coupling, value) pairs.

    Requires at least FIT_MIN_POINTS strictly positive values; raises
    :class:`FitQualityError` when the log-log line explains less than
    FIT_R2_THRESHOLD of the variance.
    """
    pts = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[0] < FIT_MIN_POINTS:
        raise DomainError(f"need at least {FIT_MIN_POINTS} points, got {len(pts)}")
    return _power_law(pts[:, 0], pts[:, 1])


def _power_law(x: np.ndarray, y: np.ndarray) -> PowerLawFit:
    """:func:`fit_power_law` of the points (x, y), float vectors of at
    least FIT_MIN_POINTS values.  A NaN is the least and the largest value
    of its vector, so the bounds of x and y check every value."""
    lo, hi = x.min(), x.max()
    if not (0 < lo and hi < np.inf and 0 < y.min() and y.max() < np.inf):
        raise DomainError("power-law fitting needs positive finite data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = _line_fit(lx, ly)
    residual = ly - (slope * lx + intercept)
    total = ((ly - ly.sum() / len(ly)) ** 2).sum()  # ly.mean() is this sum over the count
    r_squared = 1.0 - float((residual ** 2).sum() / total) if total > 0 else 1.0
    if r_squared < FIT_R2_THRESHOLD:
        raise FitQualityError(
            f"power-law fit quality r^2={r_squared:.6f} below {FIT_R2_THRESHOLD}",
            r_squared=r_squared)
    return PowerLawFit(float(slope), float(np.exp(intercept)), r_squared,
                       (float(lo), float(hi)), len(x))


#: numpy.linalg.lstsq, a row at a time
_lstsq = _rowwise(_umath_linalg.lstsq, "ddd->ddid")
_EPS = float(np.finfo(float).eps)


def _line_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(slope, intercept) of ``np.polyfit(x, y, 1)`` on float vectors, bit
    for bit, without its wrappers: the Vandermonde columns (x, 1) scaled
    to unit norm, :data:`_lstsq` at polyfit's rcond, the scale divided
    out, and polyfit's ``RankWarning`` below rank 2.  A failed SVD, which
    numpy marks with NaN coefficients, raises the ``LinAlgError`` that
    ``numpy.linalg.lstsq`` raises."""
    lhs = np.empty((len(x), 2))
    lhs[:, 0], lhs[:, 1] = x, 1.0
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    coefficients, _, rank, _ = _lstsq(lhs, y[:, None], len(x) * _EPS)
    if math.isnan(coefficients[0, 0]):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    if rank != 2:
        warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    return coefficients[:, 0] / scale


def asymptotic_mask(reduced: np.ndarray, values: np.ndarray,
                    floor: float = 0.0, diverging: bool = False) -> np.ndarray:
    """Select points inside the asymptotic scaling regime.

    Keeps finite positive values above ``floor`` and trims the
    noise plateau: walking from the largest reduced coupling towards the
    critical point, past the leading unusable values, a vanishing
    (diverging) observable must keep strictly decreasing (increasing); the
    walk stops at the first violation or unusable value, and then drops the
    innermost kept point too, as it borders the detected plateau.
    """
    reduced = np.asarray(reduced, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = np.zeros(len(values), dtype=bool)
    order = np.argsort(reduced)[::-1]
    walk, usable = values[order], (np.isfinite(values) & (values > floor))[order]
    if not usable.any():
        return keep
    start = int(usable.argmax())
    inner, outer = walk[start + 1:], walk[start:-1]
    stops = (~(usable[start + 1:] & (inner > outer if diverging else inner < outer))).nonzero()[0]
    # a stop at step j keeps start .. start + j - 1: the innermost point goes
    keep[order[start:start + stops[0] if len(stops) else len(walk)]] = True
    return keep


def lowest_decade_fit(reduced, values, floor: float = 0.0,
                      diverging: bool = False) -> PowerLawFit:
    """Power-law fit over the lowest usable decade (FIT_DECADE) of reduced
    couplings, widened by quarter decades until it holds FIT_MIN_POINTS."""
    reduced = np.asarray(reduced, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = asymptotic_mask(reduced, values, floor, diverging)
    usable = np.count_nonzero(mask)
    if usable < FIT_MIN_POINTS:
        raise DomainError(f"only {usable} usable points after noise trimming")
    x, y = reduced[mask], values[mask]
    top = x.min() * FIT_DECADE
    window = x <= top * (1 + 1e-9)
    while np.count_nonzero(window) < FIT_MIN_POINTS:
        top *= FIT_DECADE ** 0.25
        window = x <= top * (1 + 1e-9)
    return _power_law(x[window], np.abs(y[window]))


# ---------------------------------------------------------------------------
# exponent reports


@dataclass(frozen=True)
class ExponentReport:
    phase: Phase
    n_sites: int
    jbar: float
    window: tuple[float, float]
    gamma_mf: PowerLawFit | None
    gamma_f: PowerLawFit | None
    photon_exponents: dict[int, PowerLawFit]
    squeezing_exponents: dict[int, PowerLawFit]
    hessian_exponents: dict[str, PowerLawFit]
    site_labels: dict[int, str]
    checks: dict[str, bool]
    warnings: tuple[str, ...]


def extract_exponents(params: ModelParams,
                      window: tuple[float, float] = EXPONENT_WINDOW,
                      points_per_decade: int = 25) -> ExponentReport:
    """Sweep the superradiant side of the transition and fit every critical
    exponent.

    ``params.g`` is ignored; the sweep surrounds the critical point of
    ``params.jbar``, whose sign decides the phase.  Sites are labelled
    unpaired/paired in the frustrated phase and the structural expectations
    (unpaired-site photon exponent matching the mean-field gap exponent,
    paired sites matching the frustrated one, Hessian exponents twice the
    gap exponents) are reported as boolean checks; each failed check also
    adds a ``check <name> failed`` warning.  At jbar = 0 every superradiant
    point lies on the first-order line of decoupled sites, which has no
    phase, so the sweep is refused with the solver's :class:`ValidationError`.
    """
    if params.jbar == 0:
        raise copy.copy(_UNCLASSIFIED)
    spec = SweepSpec(jbar=params.jbar, n_sites=params.n_sites,
                     omega0=params.omega0, Omega=params.Omega,
                     reduced_min=window[0], reduced_max=window[1],
                     points_per_decade=points_per_decade, sides="above",
                     observables=("gaps", "photon_numbers", "squeezing",
                                  "hessian_eigenvalues"))
    result = run_sweep(spec)
    warnings = list(result.warnings)
    frustrated = params.jbar > 0
    if frustrated and params.n_sites > 7:
        warnings.append(
            "frustration exponents for more than 7 sites extrapolate the "
            "(N-1)/2 law beyond its validated range")
    eps_floor = CRITICAL_REGIME_FACTOR * params.omega0
    fits = {}  # per distinct series and fit options, its fit or its error message

    def fit(observable, index, floor=0.0, diverging=False):
        reduced, values = result.series(observable, str(index))
        if len(reduced) < FIT_MIN_POINTS:
            return None
        key = (reduced.tobytes(), values.tobytes(), floor, diverging)
        if key not in fits:
            try:
                fits[key] = lowest_decade_fit(reduced, values, floor, diverging)
            except (DomainError, FitQualityError) as exc:
                fits[key] = str(exc)
        if isinstance(fits[key], str):
            warnings.append(f"{observable}[{index}]: {fits[key]}")
            return None
        return fits[key]

    photon, squeeze = {}, {}
    for site in range(1, params.n_sites + 1):
        photon[site] = fit("photon_numbers", site, diverging=True)
        squeeze[site] = fit("squeezing", site, diverging=True)

    if frustrated:
        gamma_mf = fit("gaps", "mf", floor=eps_floor)
        gamma_f = fit("gaps", "f", floor=eps_floor)
        hessian = {"mf": fit("hessian_eigenvalues", "mf", floor=HESSIAN_FLOOR),
                   "f": fit("hessian_eigenvalues", "f", floor=HESSIAN_FLOOR)}
        labels = {site: ("unpaired" if site == 1 else "paired")
                  for site in range(1, params.n_sites + 1)}
    else:
        gamma_mf = fit("gaps", 1, floor=eps_floor)
        gamma_f = None
        hessian = {"mf": fit("hessian_eigenvalues", 1, floor=HESSIAN_FLOOR)}
        labels = {site: "uniform" for site in range(1, params.n_sites + 1)}

    checks = _structural_checks(params.n_sites, frustrated, gamma_mf, gamma_f,
                                photon, squeeze, hessian)
    warnings += [f"check {name} failed" for name, passed in sorted(checks.items())
                 if not passed]
    return ExponentReport(
        phase=Phase.FSP if frustrated else Phase.NFSP,
        n_sites=params.n_sites, jbar=params.jbar, window=window,
        gamma_mf=gamma_mf, gamma_f=gamma_f,
        photon_exponents=photon, squeezing_exponents=squeeze,
        hessian_exponents=hessian, site_labels=labels,
        checks=checks, warnings=tuple(warnings))


def _exponent_tolerance(n_sites: int) -> float:
    # +-0.05 at three sites, widening with the frustration exponent
    return 0.05 * (n_sites - 1) / 2.0


def _structural_checks(n_sites, frustrated, gamma_mf, gamma_f, photon,
                       squeeze, hessian) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    tol_mf, tol_f = 0.05, _exponent_tolerance(n_sites)

    def close(fit, target, tol):
        return fit is not None and abs(abs(fit.exponent) - target) <= tol

    if frustrated:
        gamma_f_target = (n_sites - 1) / 2.0
        # the representative ferromagnetic pair flanks the unpaired site;
        # interior pairs share the asymptotic exponent but approach it more
        # slowly than double precision can resolve for the larger rings
        pair_sites = (2, n_sites)
        checks["gap_mf_is_half"] = close(gamma_mf, 0.5, tol_mf)
        checks["gap_f_is_lattice_law"] = close(gamma_f, gamma_f_target, tol_f)
        checks["unpaired_photon_matches_mf"] = close(photon.get(1), 0.5, tol_mf)
        checks["paired_photon_matches_f"] = all(
            close(photon.get(site), gamma_f_target, tol_f) for site in pair_sites)
        checks["squeezing_split_matches"] = (
            close(squeeze.get(1), 0.5, tol_mf)
            and all(close(squeeze.get(site), gamma_f_target, tol_f)
                    for site in pair_sites))
        checks["hessian_mf_is_one"] = close(hessian.get("mf"), 1.0, tol_mf)
        checks["hessian_f_is_n_minus_one"] = close(
            hessian.get("f"), float(n_sites - 1), 2 * tol_f)
    else:
        checks["gap_is_half"] = close(gamma_mf, 0.5, tol_mf)
        checks["photon_all_half"] = all(
            close(photon.get(site), 0.5, tol_mf) for site in range(1, n_sites + 1))
    return checks


# ---------------------------------------------------------------------------
# transition-order diagnostics


@dataclass(frozen=True)
class DerivativeDiagnostics:
    """Finite-difference derivatives of the ground-state energy along one
    axis, with the detected discontinuity."""

    axis: str
    center: float
    table: tuple[tuple[float, float, float, float], ...]  # (x, E, dE, d2E)
    d1_left: float
    d1_right: float
    d2_left: float
    d2_right: float
    discontinuity_order: int
    detected_location: float = np.nan

    @property
    def d1_jump(self) -> float:
        return self.d1_right - self.d1_left


def _one_sided(energies, spacing: float, sign: int):
    """(dE, d2E) at the center from one side, from the energies of the four
    points sign * k * spacing off it, k = 1..4, never the center itself (the
    energy may be undefined exactly at the transition): the two-point slope
    estimates dE at an offset and the four-point difference d2E to O(spacing),
    errors that one Richardson pass cancels."""
    f1, f2, f3, f4 = energies
    return sign * (f2 - f1) / spacing, (2.0 * f1 - 5.0 * f2 + 4.0 * f3 - f4) / spacing ** 2


def energy_derivative_diagnostics(params: ModelParams, axis: str,
                                  half_width: float = 4e-3,
                                  step: float = 1e-4) -> DerivativeDiagnostics:
    """Scan the ground-state energy along ``axis`` ('g' or 'jbar') across its
    transition and report first/second derivative limits and the jump.

    Every point the scan reads is x = center + m h/2 for an integer node m,
    with h = ``step``: the grid of the table is the even m != 0 with |m| <=
    2 round(half_width / h), where central differences of spacing h are
    taken; the one-sided limits at the transition, which exclude the center
    itself, are Richardson-extrapolated from the nodes +-1..4 (spacing h/2)
    and +-2..8 (spacing h).  For axis 'g' the transition is the critical
    coupling of ``params``; for axis 'jbar' it is the decoupling point
    jbar = 0 at fixed g.  Every distinct node is solved in one stacked call,
    as arrays; if any fails, or is not a point :class:`ModelParams` accepts,
    the error of the first in scan order (grid, then Richardson points) is
    raised.  A ``step`` that is not finite and positive, or that a finite
    ``half_width`` does not hold, raises :class:`ValidationError`.
    """
    if axis == "g":
        center = params.critical_coupling()
    elif axis == "jbar":
        center = 0.0
    else:
        raise ValidationError("axis must be 'g' or 'jbar'")
    # half_width / step > 0.5 is round(half_width / step) >= 1
    if not (0 < half_width < np.inf and 0 < step < np.inf and 0.5 < half_width / step < np.inf):
        raise ValidationError(f"need a finite positive step {step!r} that the finite "
                              f"half_width {half_width!r} holds at least once")
    steps = int(round(half_width / step))
    grid = [m for m in range(-2 * steps, 2 * steps + 1, 2) if m]
    # (2j) (h/2) is j h and (sign 2k) (h/2) is sign k h, bit for bit; the
    # Richardson nodes follow in the order a point-by-point scan reads them
    richardson = [sign * k * half for k in range(1, 5) for sign in (-1, 1) for half in (2, 1)]
    nodes = list(dict.fromkeys([*grid, *richardson]))
    scanned = center + np.array(nodes) * (step / 2.0)
    fixed = np.full(len(scanned), float(params.jbar if axis == "g" else params.g))
    g, jbar = (scanned, fixed) if axis == "g" else (fixed, scanned)
    lo, hi = stability_window(params.n_sites)
    valid = (0 <= g) & (g < np.inf) & (lo < jbar) & (jbar < hi)  # as ModelParams checks
    states = _solve_stack(params.n_sites, g[valid], jbar[valid])
    failed = ~valid
    failed[valid] = ~states.solved
    if failed.any():  # the first in scan order
        first = int(np.argmax(failed))
        if not valid[first]:  # ModelParams raises the point's ValidationError
            ModelParams(params.omega0, params.Omega, jbar[first].item(), g[first].item(),
                        params.n_sites)
        raise states.errors[np.count_nonzero(valid[:first])]
    energies = rescaled_energy(states.alphas, g, jbar)
    energy = dict(zip(nodes, energies))

    # central differences where both neighbours are one step away
    xs, e = scanned[:len(grid)], energies[:len(grid)]
    even, (d1, d2) = np.diff(grid, 2) == 0, np.full((2, len(grid)), np.nan)
    d1[1:-1] = np.where(even, (e[2:] - e[:-2]) / (2 * step), np.nan)
    d2[1:-1] = np.where(even, (e[2:] - 2 * e[1:-1] + e[:-2]) / step ** 2, np.nan)

    # per side, one Richardson pass from spacing h to h/2: 2 fine - coarse
    (d1_left, d2_left), (d1_right, d2_right) = ((
        2.0 * np.array(_one_sided([energy[sign * k] for k in range(1, 5)], step / 2.0, sign))
        - np.array(_one_sided([energy[sign * 2 * k] for k in range(1, 5)], step, sign))
    ).tolist() for sign in (-1, 1))

    scale = max(1.0, abs(d1_left), abs(d1_right))
    # the order of the first derivative that jumps, located at the midpoint
    # of the first pair of consecutive valid entries with its largest change
    order = 1 if abs(d1_right - d1_left) > 1e-3 * scale else 2
    column = (d1, d2)[order - 1]
    kept, changes = xs[~np.isnan(column)], np.abs(np.diff(column[~np.isnan(column)]))
    k = int(np.argmax(changes)) if np.any(changes > 0) else -1
    location = 0.5 * (kept[k] + kept[k + 1]) if k >= 0 else np.nan
    table = tuple(zip(xs.tolist(), e.tolist(), d1.tolist(), d2.tolist()))
    return DerivativeDiagnostics(axis, float(center), table, d1_left, d1_right, d2_left,
                                 d2_right, order, float(location))
