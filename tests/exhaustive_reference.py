"""All-sign-pattern reference for the exhaustive ground-state oracle: every
one of the 2^N sign patterns is a row of one full-space Newton stack, and
the distinct members of the global-energy tier are collected pairwise.  The
package runs one pattern per rotation/flip orbit and generates the members
by the group; the tests compare the two.  It also keeps the image-by-image
dedupe of a tier's group images, the reference for the package's
distance-matrix dedupe."""

import itertools

import numpy as np

from frustra.errors import ConvergenceError, ValidationError
from frustra.meanfield import (
    ENERGY_TOL,
    MATCH_TOL,
    PSD_TOLERANCE,
    SOLUTION_GRAD_TOL,
    _gradient_tolerance,
    _newton_minimize,
    _polish_members,
    _uniform_magnitude,
)
from frustra.model import (
    MeanFieldConfiguration,
    _pack,
    energy_gradient,
    energy_hessian,
    rescaled_energy,
)


def enumerate_all_sign_patterns(params):
    """The global minimizers found from all 2^N sign patterns, stationary
    by the solver's rule (SOLUTION_GRAD_TOL, or the gradient's rounding
    floor), each distinct member (at MATCH_TOL times max(1, max |alpha|))
    once, in sign-pattern order."""
    n, g, jbar = params.n_sites, params.g, params.jbar
    gc = params.critical_coupling()
    scale = np.sqrt(abs(g - gc)) / (np.sqrt(3.0) * gc ** 1.5) if g > gc else 0.1
    uniform = _uniform_magnitude(g, jbar)
    if uniform is not None:
        scale = max(scale, uniform)

    seeds = np.array(list(itertools.product((-1.0, 1.0), repeat=n))) * scale
    # the public functions on every row; the stack's constants go unread
    alphas, grad_norm, _, failures = _newton_minimize(
        lambda a, pack: rescaled_energy(a, g, jbar),
        lambda a, pack: energy_gradient(a, g, jbar),
        lambda a, pack: energy_hessian(a, g, jbar), seeds,
        np.broadcast_to(_pack(g, jbar), (len(seeds), 3)))
    settled = np.flatnonzero([row not in failures for row in range(len(seeds))])
    tolerance = _gradient_tolerance(alphas[settled], g, jbar, SOLUTION_GRAD_TOL)
    stationary = settled[~(grad_norm[settled] > tolerance)]
    lowest = np.full(len(stationary), np.nan)
    for k, row in enumerate(stationary.tolist()):
        try:
            lowest[k] = np.linalg.eigvalsh(energy_hessian(alphas[row], g, jbar)).min()
        except np.linalg.LinAlgError as exc:
            failures[row] = exc
    if failures:
        raise failures[min(failures)]
    found = alphas[stationary[~(lowest < PSD_TOLERANCE)]]
    if not len(found):
        raise ConvergenceError("exhaustive enumeration found no stable minima")

    energies = rescaled_energy(found, g, jbar)
    global_tier = found[energies <= energies.min() + ENERGY_TOL]
    # the phase of the tier: normal at the origin, else frustrated for a
    # positive hopping; at jbar = 0 the decoupled sites have none
    if np.abs(global_tier[0]).max() >= 1e-9:
        if jbar == 0:
            raise ValidationError("jbar = 0 above the origin has no single-phase classification")
        if jbar > 0:
            global_tier = _polish_members(global_tier, params)
    distinct, match = [], MATCH_TOL * max(1.0, np.abs(global_tier).max())
    for alphas in global_tier:
        if not any(np.max(np.abs(alphas - other)) < match for other in distinct):
            distinct.append(alphas)
    return [MeanFieldConfiguration(a, g, jbar) for a in distinct]


def images_one_at_a_time(global_tier):
    """The manifold generated from a global tier by comparing every image
    with the members kept so far, one image at a time; the package compares
    each tier member's 2N images in one distance matrix.  Both match at
    MATCH_TOL times max(1, the tier's largest |alpha|)."""
    members = np.empty((0, np.shape(global_tier)[-1]))
    match = MATCH_TOL * max(1.0, np.abs(global_tier).max())
    for alphas in global_tier:
        if not np.any(np.max(np.abs(members - alphas), axis=-1) < match):
            n = len(alphas)
            for flip in (1.0, -1.0):
                for shift in range(n):
                    image = flip * np.roll(alphas, shift)
                    if not np.any(np.max(np.abs(members - image), axis=-1) < match):
                        members = np.vstack((members, image))
    return members
