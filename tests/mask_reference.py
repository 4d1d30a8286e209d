"""Reference noise trim that walks the points one at a time.  The tests
require ``frustra.scaling.asymptotic_mask``, which computes the walk on
arrays, to give the same mask."""

import numpy as np


def asymptotic_mask_walk(reduced, values, floor=0.0, diverging=False):
    """The asymptotic-regime mask, point by point from the largest reduced
    coupling: leading unusable points are skipped, the walk keeps usable
    points while they are strictly monotone, and a walk that stops early
    drops its innermost kept point."""
    reduced = np.asarray(reduced, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = np.zeros(len(values), dtype=bool)
    usable = np.isfinite(values) & (values > floor)
    previous = last_kept = None
    stopped_early = False
    for i in np.argsort(reduced)[::-1]:
        if not usable[i]:
            if previous is not None:
                stopped_early = True
                break
            continue
        if previous is not None:
            monotone = values[i] > previous if diverging else values[i] < previous
            if not monotone:
                stopped_early = True
                break
        keep[i] = True
        previous = values[i]
        last_kept = i
    if stopped_early and last_kept is not None:
        keep[last_kept] = False
    return keep
