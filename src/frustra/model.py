"""Model parameters and the rescaled mean-field energy landscape.

The lattice is a ring of N Dicke sites (cavity frequency ``omega0``, atomic
frequency ``Omega``, dimensionless coupling ``g``) with dimensionless photon
hopping ``jbar`` between neighbouring cavities.  In the thermodynamic limit
the ground-state sector reduces to a classical energy landscape over the
rescaled real cavity coherences ``alpha[n]``,

    E(alpha) = sum_n [ alpha_n**2 - sqrt(1 + 4 g^2 alpha_n^2)/2
                       + 2 jbar alpha_n alpha_{n+1} ],

with cyclic indexing.  Energies are dimensionless (per lattice, in units of
the atomic energy scale); sites are numbered 1..N in the public interface.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InstabilityError, ValidationError


def validate_jbar(jbar: float, n_sites: int) -> None:
    """Reject hoppings outside the open :func:`stability_window` of a valid
    lattice size."""
    lo, hi = stability_window(n_sites)
    if not (lo < jbar < hi):
        raise ValidationError(f"jbar={jbar} outside the stability window ({lo}, {hi})")


def validate_n_sites(n_sites: int) -> None:
    """Reject lattice sizes that are not integers, even or below 3."""
    if not isinstance(n_sites, (int, np.integer)) or n_sites < 3 or n_sites % 2 == 0:
        raise ValidationError(f"n_sites must be odd and >= 3, got {n_sites}")


def _is_finite(value) -> bool:
    """``np.isfinite`` of a scalar, through ``math.isfinite`` for a Python
    float, where the two agree and the latter is ten times faster."""
    return math.isfinite(value) if type(value) is float else np.isfinite(value)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the Dicke ring.

    ``omegabar`` is the derived frequency ratio Omega/omega0.  The lattice
    size must be odd and at least 3; the hopping must lie in the open
    :func:`stability_window` of that size.
    """

    omega0: float
    Omega: float
    jbar: float
    g: float
    n_sites: int

    def __post_init__(self):
        if not (_is_finite(self.omega0) and self.omega0 > 0):
            raise ValidationError(f"omega0 must be positive, got {self.omega0}")
        if not (_is_finite(self.Omega) and self.Omega > 0):
            raise ValidationError(f"Omega must be positive, got {self.Omega}")
        if not (_is_finite(self.g) and self.g >= 0):
            raise ValidationError(f"g must be non-negative, got {self.g}")
        validate_n_sites(self.n_sites)
        validate_jbar(self.jbar, self.n_sites)

    @property
    def omegabar(self) -> float:
        return self.Omega / self.omega0

    def critical_coupling(self) -> float:
        """Critical coupling of this parameter set's ring and hopping."""
        return critical_point(self.jbar, self.n_sites)

    def replace_g(self, g: float) -> "ModelParams":
        return ModelParams(self.omega0, self.Omega, self.jbar, g, self.n_sites)


@dataclass(frozen=True)
class MeanFieldConfiguration:
    """A mean-field configuration: the rescaled real cavity coherences
    ``alphas`` at coupling ``g`` and hopping ``jbar``.

    The atomic Bloch angles ``thetas`` and ``phis`` (phi is 0 by convention
    where alpha vanishes) and the rescaled dimensionless ``energy`` follow
    from these and are computed when read.
    """

    alphas: np.ndarray
    g: float
    jbar: float

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=float)
        alphas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)

    @property
    def thetas(self) -> np.ndarray:
        return atomic_angles(self.alphas, self.g)[0]

    @property
    def phis(self) -> np.ndarray:
        return atomic_angles(self.alphas, self.g)[1]

    @property
    def energy(self) -> float:
        return rescaled_energy(self.alphas, self.g, self.jbar)

    @property
    def n_sites(self) -> int:
        return len(self.alphas)

    def jx_expectation(self) -> np.ndarray:
        """Normalized atomic coherence <J^x_n>/j = sin(theta_n) cos(phi_n)."""
        thetas, phis = atomic_angles(self.alphas, self.g)
        return np.sin(thetas) * np.cos(phis)


def _check_alphas(alphas) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim < 1 or alphas.shape[-1] < 3:
        raise DomainError("alphas must have length >= 3 along the last axis")
    if not np.isfinite(alphas).all():
        raise DomainError("alphas must be finite")
    return alphas


def _per_row(value) -> np.ndarray:
    """A scalar, or one value per row of a stack, shaped to broadcast
    against the stack's last axis."""
    return np.asarray(value, dtype=float)[..., None]


def rescaled_energy(alphas, g, jbar):
    """Dimensionless mean-field energy of a coherence configuration.

    Acts on the last axis: a stack of configurations (rows, N) takes ``g``
    and ``jbar`` as scalars or one value per row and returns one energy per
    row; a single configuration returns a float.
    """
    a = _check_alphas(alphas)
    energy = _landscape(a.shape[-1], g, jbar)[0](a)
    return float(energy) if a.ndim == 1 else energy


def energy_gradient(alphas, g, jbar) -> np.ndarray:
    """Gradient of :func:`rescaled_energy` with respect to each coherence,
    along the last axis (stacks as in :func:`rescaled_energy`).

    Component n is  2 jbar a_{n-1} + 2 a_n + 2 jbar a_{n+1}
    - 2 g^2 a_n / sqrt(1 + 4 g^2 a_n^2), cyclic in n.
    """
    a = _check_alphas(alphas)
    return _landscape(a.shape[-1], g, jbar)[1](a)


def energy_hessian(alphas, g, jbar) -> np.ndarray:
    """Hessian of :func:`rescaled_energy`: cyclic tridiagonal with corners,
    one N x N matrix per row of a stack (stacks as in
    :func:`rescaled_energy`).

    Diagonal entries are 2 - 2 g^2 / (1 + 4 g^2 a_n^2)^{3/2}; the cyclic
    first off-diagonals carry 2 jbar.
    """
    a = _check_alphas(alphas)
    return _landscape(a.shape[-1], g, jbar)[2](a)


def _landscape(n_sites: int, g, jbar):
    """``(energy, gradient, hessian)`` of :func:`rescaled_energy` as
    functions of a stack of configurations (rows, n_sites) and the ids of
    its rows, with the per-row constants 4 g^2, 2 g^2 and 2 jbar computed
    and the ring's neighbours looked up once.

    ``g`` and ``jbar`` are scalars or hold one value per row; the ids
    (all rows by default) pick a stack's values, and scalars need none.
    The functions take the coherences as given, without a conversion or a
    finiteness check: the public functions validate, and the Newton solver
    checks the points it makes.  The arithmetic is the public functions'
    own, operation for operation: 4.0 * g * g * a * a is evaluated left to
    right, so it is (4.0 * g * g) * a * a, bit for bit.
    """
    g, jbar = _per_row(g), _per_row(jbar)
    shared = g.ndim == jbar.ndim == 1  # two scalars: every row alike
    if g.shape != jbar.shape and not shared:
        g, jbar = np.broadcast_arrays(g, jbar)
    with np.errstate(over="ignore"):  # see _diagonal
        quad, curve, hop = 4.0 * g * g, 2.0 * g * g, 2.0 * jbar
    tables = ring(n_sites)
    left, right, site = tables.left, tables.right, np.arange(n_sites)

    def at(rows):
        if shared or rows is ...:
            return quad, curve, hop
        return quad[rows], curve[rows], hop[rows]

    def energy(a, rows=...):
        quad, _, hop = at(rows)
        return np.add.reduce(a * a - 0.5 * np.sqrt(1.0 + quad * a * a)
                             + hop * a * a[..., right], axis=-1)

    def gradient(a, rows=...):
        quad, curve, hop = at(rows)
        root = np.sqrt(1.0 + quad * a * a)
        return 2.0 * a + hop * (a[..., left] + a[..., right]) - curve * a / root

    def hessian(a, rows=...):
        quad, curve, hop = at(rows)
        hess = np.zeros(a.shape + (n_sites,))
        with np.errstate(over="ignore"):  # see _diagonal
            hess[..., site, site] = _diagonal(quad, curve, a)
        hess[..., site, right] = hess[..., right, site] = hop
        return hess

    return energy, gradient, hessian


def _diagonal(quad, curve, a):
    """The Hessian diagonal 2 - 2 g^2 / (1 + 4 g^2 a^2)^{3/2} from the
    constants ``quad`` = 4 g^2 and ``curve`` = 2 g^2, elementwise.  At huge
    couplings 4 g^2 or the power overflows to inf, and the term they divide
    to its exact limit 0, so callers ignore overflow."""
    return 2.0 - curve / (1.0 + quad * a * a) ** 1.5


@np.errstate(over="ignore")
def _hessian_diagonal(alphas, g):
    """The diagonal entries 2 - 2 g^2 / (1 + 4 g^2 a^2)^{3/2} of
    :func:`energy_hessian`, elementwise, with ``g`` broadcast against the
    coherences."""
    return _diagonal(4.0 * g * g, 2.0 * g * g, alphas)


def atomic_cosines(alphas, g):
    """(cos theta, cos phi) of the atomic angles fixed by the coherences,
    elementwise, with ``g`` broadcast against them: -1/sqrt(1 + 4 g^2
    alpha^2) keeps its relative precision as it nears 0 at large couplings,
    which the cosine of the stored theta does not."""
    a = np.asarray(alphas, dtype=float)
    # cos(phi) = -sign(alpha); phi = 0 by convention at alpha = 0
    return -1.0 / np.sqrt(1.0 + 4.0 * g * g * a * a), np.where(a > 0, -1.0, 1.0)


def atomic_angles(alphas, g: float):
    """Atomic Bloch angles (theta, phi) fixed by the coherences, elementwise.

    theta = arccos(-1/sqrt(1 + 4 g^2 alpha^2)) lies in [pi/2, pi]; phi is
    pi for alpha > 0, otherwise 0 (the value at alpha = 0 is a convention
    and does not affect the energy).  A negative coupling raises
    :class:`DomainError`.
    """
    if g < 0:
        raise DomainError(f"g must be non-negative, got {g}")
    a = np.asarray(alphas, dtype=float)
    return np.arccos(atomic_cosines(a, g)[0]), np.where(a > 0, np.pi, 0.0)


#: The read-only tables of one ring size; see :func:`ring`.
Ring = namedtuple("Ring", "momenta cosines ascending left right pattern incidence even odd")


@functools.cache
def ring(n_sites: int) -> Ring:
    """The read-only :class:`Ring` tables of an odd lattice size, built once
    (sites 0-based): the ``momenta`` k = 2 pi t / N and their ``cosines``,
    which give the hopping eigenvalues 1 + 2 jbar cos k, each computed as
    cos(2 pi min(t, N - t) / N) so that the cosines of k and -k are bitwise
    equal, and the t in the ``ascending`` order of their cosines (ties by
    t); each site's
    ``left`` and ``right`` neighbour; the canonical frustrated sign
    ``pattern`` (site 1 negative, neighbours anti-aligned except for the
    ferromagnetic pair opposite site 1); and the mirror about site 1, as
    the 0/1 ``incidence`` of sites (rows) on mirror groups (column 0 the
    unpaired site, column j the pair (1+j, N+1-j)) and the orthonormal row
    bases ``even`` of the mirror-even sector (the incidence columns,
    normalised) and ``odd`` of the mirror-odd one,
    (e_{1+j} - e_{N+1-j})/sqrt(2), j = 1..(N-1)/2."""
    validate_n_sites(n_sites)
    sites = np.arange(n_sites)
    momenta = 2.0 * np.pi * sites / n_sites
    group = np.minimum(sites, n_sites - sites)  # each site's mirror group
    cosines = np.cos(2.0 * np.pi * group / n_sites)
    incidence = np.zeros((n_sites, (n_sites + 1) // 2))
    incidence[sites, group] = 1.0
    # 1 on the unpaired site, 1/sqrt(2) on each site of a pair
    weight = 1.0 / np.sqrt(incidence.sum(axis=0))[group]
    even, pairs = np.zeros(incidence.T.shape), np.arange(1, (n_sites + 1) // 2)
    even[group, sites] = weight  # row-major, unlike the view incidence.T
    odd = np.zeros((len(pairs), n_sites))
    odd[pairs - 1, pairs], odd[pairs - 1, n_sites - pairs] = weight[pairs], -weight[pairs]
    ascending = np.array(sorted(range(n_sites), key=cosines.tolist().__getitem__))
    tables = Ring(momenta, cosines, ascending, (sites - 1) % n_sites, (sites + 1) % n_sites,
                  -((-1.0) ** group), incidence, even, odd)
    for table in tables:
        table.flags.writeable = False
    return tables


def group_images(alphas: np.ndarray) -> np.ndarray:
    """The 2N images ``flip * np.roll(alphas, shift)`` under the ring's
    rotations and global sign flip, flip +1 then -1."""
    n = len(alphas)
    rolled = alphas[(np.arange(n) - np.arange(n)[:, None]) % n]
    return np.concatenate((rolled, -rolled))


@functools.cache
def orbit_patterns(n_sites: int) -> tuple:
    """The lexicographically first sign pattern of each rotation/flip orbit, sorted."""
    return tuple(sorted({min(map(tuple, group_images(np.array(signs))))
                         for signs in itertools.product((-1.0, 1.0), repeat=n_sites)}))


def origin_hessian_eigenvalues(g: float, jbar: float, n_sites: int) -> np.ndarray:
    """Ascending eigenvalues of the circulant Hessian at the origin,
    2 - 2 g^2 + 4 jbar cos(2 pi t / N) for t = 0..N-1, along the last axis
    (``g`` and ``jbar`` scalars or one value per row); -inf throughout once
    2 g^2 overflows, at g of about 1.3e154."""
    g = _per_row(g)
    with np.errstate(over="ignore"):
        return _circulant_eigenvalues(2.0 - 2.0 * g * g, jbar, n_sites)


def _circulant_eigenvalues(diagonal, jbar, n_sites: int) -> np.ndarray:
    """Ascending eigenvalues d + 4 jbar cos k over the ring's momenta of
    circulant Hessians of diagonal d, which broadcasts against the (...,
    n_sites) result, and hopping 2 jbar, a scalar or one value per row.
    Rounding is monotone, so the sum follows cos k: the ascending cosines,
    reversed for jbar < 0, give the sorted spectrum."""
    hopping, tables = _per_row(jbar), ring(n_sites)
    cosines = tables.cosines[tables.ascending]
    return diagonal + 4.0 * hopping * np.where(hopping < 0, cosines[::-1], cosines)


@functools.cache
def stability_window(n_sites: int) -> tuple[float, float]:
    """Hopping range where every bare normal-mode frequency stays positive.

    The frequencies are omega0 (1 + 2 jbar cos(2 pi t / N)); the most
    fragile modes are k = 0 (negative hopping) and k = +-(N-1) pi / N
    (positive hopping), giving (-1/2, 1/(2 cos(pi/N))).  Larger rings lose
    stability earlier on the positive side.  :class:`ModelParams` and
    :func:`critical_point` reject a hopping outside the open window of
    their own size; at three sites its upper end rounds to
    0.9999999999999998, one ulp below 1.  The spectral edge -1 / (2 min_k
    cos k) differs by an ulp at some sizes and admits jbar = 1 at N = 3,
    where the exact soft-mode frequency is 0.
    """
    return -0.5, 1.0 / (2.0 * np.cos(np.pi / n_sites))


def critical_point(jbar: float, n_sites: int, hopping_sign: str | None = None) -> float:
    """Critical coupling of the superradiant transition: the origin turns
    unstable where the softest bare cavity mode does,

        g_c = sqrt(min_k (1 + 2 jbar cos k))

    over the ring's momenta: k = 0 for negative hopping, which gives the
    lattice-size-independent sqrt(1 + 2 jbar), and the k = +-(N-1) pi / N
    pair for positive hopping.  That pair holds no vector of constant
    modulus, so the positive-hopping ring is frustrated.

    A ``hopping_sign``, "positive" or "negative", changes nothing but must
    agree with the sign of jbar (jbar = 0 takes either).
    """
    validate_n_sites(n_sites)
    validate_jbar(jbar, n_sites)
    # the benchmark harness still passes a sign; drop it with ROADMAP item 1
    agrees = {"positive": jbar >= 0, "negative": jbar <= 0}
    if hopping_sign is not None and not agrees.get(hopping_sign, False):
        raise ValidationError(f"hopping sign {hopping_sign!r} does not match jbar={jbar}")
    radicand = float(np.min(1.0 + 2.0 * jbar * ring(n_sites).cosines))
    if radicand <= 0:
        raise InstabilityError(
            f"no stable critical point: 1 + 2 jbar cos(k) = {radicand} <= 0"
        )
    return math.sqrt(radicand)
