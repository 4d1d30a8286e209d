"""Property tests for the invariants the solvers rely on: symmetry of the
energy, the energy bounds that decide which orbits the solver seeds, exact
derivatives, the mirror-reduced problem, agreement of the orbit-seeded
solver with the exhaustive oracle near g_c and at strong coupling, the
orbit oracle with the test-side all-2^N-pattern reference, the Williamson
identities, the package's split-form Cholesky-SVD route against the
test-side generic Cholesky/real-Schur reference, the momentum-block path
of the uniform phases against the Williamson reference, the oracle's image
dedupe against the image-by-image reference, the CSV wire format and
writer against the one-``repr``-per-value reference, the array noise
trim against the point-by-point walk, the landscape kernel and the
public energy functions against the per-call reference, and the lean
line fit against ``np.polyfit`` and the power-law fit against its
``np.polyfit``/``np.mean`` reference."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from frustra.fluctuations import (
    analytic_nfsp_spectrum,
    analytic_np_spectrum,
    build_quadratic_hamiltonian,
    covariance,
    site_moments,
    symplectic_spectrum_modulus,
    williamson_diagonalize,
)
from frustra.cli import _CSV_BLOCK, _csv_chunks
from frustra.errors import FitQualityError, FrustraError
from frustra.meanfield import (
    MATCH_TOL,
    Phase,
    SolverOptions,
    _distinct_images,
    _mirror_reduced,
    enumerate_degenerate_ground_states,
    nfsp_closed_form,
    solve_ground_state,
)
from frustra.model import (
    ModelParams,
    _hessian_diagonal,
    _kernels,
    _pack,
    critical_point,
    energy_gradient,
    energy_hessian,
    rescaled_energy,
    ring,
)
from frustra.scaling import SweepSpec, _line_fit, asymptotic_mask, fit_power_law, run_sweep
from csv_reference import (
    csv_to_rows,
    package_csv,
    rows_to_csv,
    sweep_table,
    table_csv,
    table_points,
)
from exhaustive_reference import enumerate_all_sign_patterns, images_one_at_a_time
import landscape_reference
from mask_reference import asymptotic_mask_walk
from williamson_reference import (
    _williamson_generic,
    photon_number,
    physicality_defect,
    squeezing_variance,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

sizes = st.sampled_from([3, 5, 7, 9])
couplings = st.floats(0.0, 2.0)
hoppings = st.floats(-0.45, 0.5)


@st.composite
def landscapes(draw):
    """(alphas, g, jbar) with alphas of odd length anywhere in [-1, 1]^N."""
    n = draw(sizes)
    alphas = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return alphas, draw(couplings), draw(hoppings)


def _central_jacobian(fn, x, step):
    columns = []
    for i in range(len(x)):
        shift = np.zeros(len(x))
        shift[i] = step
        columns.append((np.asarray(fn(x + shift)) - np.asarray(fn(x - shift))) / (2 * step))
    return np.array(columns).T


@PROPERTY
@given(landscapes(), st.integers(0, 8))
def test_energy_symmetric_under_rotation_flip_and_mirror(case, shift):
    alphas, g, jbar = case
    energy = rescaled_energy(alphas, g, jbar)
    mirrored = alphas[(-np.arange(len(alphas))) % len(alphas)]  # about site 1
    tol = 1e-12 * max(1.0, abs(energy))
    for image in (np.roll(alphas, shift), -alphas, mirrored):
        assert abs(rescaled_energy(image, g, jbar) - energy) <= tol


@st.composite
def seeding_cases(draw, hopping):
    """(alphas, jbar, g_c) with alphas of odd length and any scale
    10^U(-6, 1), jbar drawn from ``hopping``, and g_c for jbar's sign."""
    n = draw(sizes)
    scale = 10.0 ** draw(st.floats(-6.0, 1.0))
    alphas = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    jbar = draw(hopping)
    return alphas, jbar, critical_point(jbar, n)


@PROPERTY
@given(seeding_cases(hoppings), st.floats(0.0, 1.0))
def test_origin_is_the_minimum_up_to_the_critical_point(case, fraction):
    # sqrt(1 + x) <= 1 + x/2 bounds E(alpha) - E(0) below by the origin
    # Hessian's form, which is positive semidefinite for g <= g_c
    alphas, jbar, gc = case
    g = fraction * gc
    origin = rescaled_energy(np.zeros(len(alphas)), g, jbar)
    assert rescaled_energy(alphas, g, jbar) >= origin - 1e-13 * abs(origin)


@PROPERTY
@given(seeding_cases(st.floats(-0.45, 0.0)), st.floats(-9.0, 1.0))
def test_uniform_closed_form_is_global_for_nonpositive_hopping(case, log_reduced):
    # the hopping term is at least 2 jbar sum alpha_n^2, equal only for a
    # uniform state, so no state lies below the uniform minimum
    alphas, jbar, gc = case
    g = gc * (1.0 + 10.0 ** log_reduced)
    uniform = rescaled_energy(np.full(len(alphas), nfsp_closed_form(g, jbar)), g, jbar)
    assert rescaled_energy(alphas, g, jbar) >= uniform - 1e-13 * max(1.0, abs(uniform))


@PROPERTY
@given(sizes, st.floats(1e-4, 0.5), st.floats(-6.0, 1.0), st.floats(0.0, 10.0))
def test_uniform_state_lies_above_the_frustrated_pattern(n, jbar, log_a, g):
    # |alpha_n| is the same in both, so only the hopping term differs: 2 jbar
    # a^2 N for the uniform state and -2 jbar a^2 (N - 2) for the pattern
    a = 10.0 ** log_a
    uniform = rescaled_energy(np.full(n, a), g, jbar)
    frustrated = rescaled_energy(a * ring(n).pattern, g, jbar)
    summands = n * (a * a + 0.5 * np.sqrt(1.0 + 4.0 * g * g * a * a) + 2.0 * jbar * a * a)
    assert abs(uniform - frustrated - 4.0 * jbar * a * a * (n - 1)) <= 1e-14 * summands


@PROPERTY
@given(landscapes())
def test_sliced_neighbours_equal_rolled_reference(case):
    # reference forms with np.roll and a per-site loop: same arithmetic in
    # the same order, so the results must be identical
    alphas, g, jbar = case
    a, n = alphas, len(alphas)
    energy = float(np.sum(a * a - 0.5 * np.sqrt(1.0 + 4.0 * g * g * a * a)
                          + 2.0 * jbar * a * np.roll(a, -1)))
    grad = (2.0 * a + 2.0 * jbar * (np.roll(a, 1) + np.roll(a, -1))
            - 2.0 * g * g * a / np.sqrt(1.0 + 4.0 * g * g * a * a))
    hess = np.diag(2.0 - 2.0 * g * g / (1.0 + 4.0 * g * g * a * a) ** 1.5)
    for i in range(n):
        hess[i, (i + 1) % n] += 2.0 * jbar
        hess[(i + 1) % n, i] += 2.0 * jbar
    assert rescaled_energy(a, g, jbar) == energy
    assert np.array_equal(energy_gradient(a, g, jbar), grad)
    assert np.array_equal(energy_hessian(a, g, jbar), hess)


@PROPERTY
@given(landscapes())
def test_gradient_and_hessian_match_central_differences(case):
    alphas, g, jbar = case
    step = 1e-5
    grad = energy_gradient(alphas, g, jbar)
    numeric_grad = _central_jacobian(lambda a: rescaled_energy(a, g, jbar), alphas, step)
    assert np.max(np.abs(grad - numeric_grad)) < 1e-7
    hess = energy_hessian(alphas, g, jbar)
    numeric_hess = _central_jacobian(lambda a: energy_gradient(a, g, jbar), alphas, step)
    assert np.max(np.abs(hess - numeric_hess)) < 1e-7
    assert np.array_equal(hess, hess.T)


@PROPERTY
@given(landscapes())
def test_reduced_derivatives_are_projections_of_the_full_ones(case):
    alphas, g, jbar = case
    n = len(alphas)
    groups = [[0]] + [[j, n - j] for j in range(1, (n - 1) // 2 + 1)]
    incidence = ring(n).incidence
    expand, fun, jac, hess_fn = _mirror_reduced(n)
    pack = _pack(g, jbar)
    y = alphas[: len(groups)]
    full = expand(y)
    for column, group in enumerate(groups):
        assert np.all(full[group] == y[column])
    assert fun(y, pack) == rescaled_energy(full, g, jbar)
    grad = energy_gradient(full, g, jbar)
    hess = energy_hessian(full, g, jbar)
    assert np.allclose(jac(y, pack), grad @ incidence, rtol=0, atol=1e-14)
    assert np.allclose(jac(y, pack), [grad[group].sum() for group in groups], rtol=0, atol=1e-14)
    block_sums = [[hess[np.ix_(ga, gb)].sum() for gb in groups] for ga in groups]
    assert np.allclose(hess_fn(y, pack), incidence.T @ hess @ incidence, rtol=0, atol=1e-14)
    assert np.allclose(hess_fn(y, pack), block_sums, rtol=0, atol=1e-14)


@st.composite
def transition_points(draw):
    """Points on either side of g_c with jbar = +-10^U(-3, -0.7) and reduced
    distance 10^U(-5, -1), the range of the benchmark's cold solves."""
    n = draw(st.sampled_from([3, 5, 7]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    jbar = sign * 10.0 ** draw(st.floats(-3.0, -0.7))
    side = draw(st.sampled_from([-1.0, 1.0, 1.0]))  # mostly superradiant
    reduced = 10.0 ** draw(st.floats(-5.0, -1.0))
    gc = critical_point(jbar, n)
    return ModelParams(1.0, 1.0, jbar, gc * (1.0 + side * reduced), n)


@st.composite
def strong_coupling_points(draw):
    """Superradiant points with jbar = +-10^U(-3, -0.7) and reduced distance
    10^U(-1, 2), where the uniform state exists and, for positive hopping,
    is a local minimum that the solver does not seed."""
    n = draw(st.sampled_from([3, 5, 7]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    jbar = sign * 10.0 ** draw(st.floats(-3.0, -0.7))
    reduced = 10.0 ** draw(st.floats(-1.0, 2.0))
    gc = critical_point(jbar, n)
    return ModelParams(1.0, 1.0, jbar, gc * (1.0 + reduced), n)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.one_of(transition_points(), strong_coupling_points()))
def test_orbit_seeded_solver_matches_exhaustive_oracle(params):
    solution = solve_ground_state(params)
    members = enumerate_degenerate_ground_states(
        params, SolverOptions(seed_mode="exhaustive"))
    assert solution.config.energy <= min(m.energy for m in members) + 1e-10
    assert len(members) == solution.degeneracy


def _members_or_error(enumerate_fn, params):
    try:
        return np.array([member.alphas for member in enumerate_fn(params)])
    except FrustraError as exc:
        return type(exc)


@PROPERTY
@given(transition_points())
def test_orbit_oracle_matches_all_sign_patterns(params):
    orbit = _members_or_error(lambda p: enumerate_degenerate_ground_states(
        p, SolverOptions(seed_mode="exhaustive")), params)
    reference = _members_or_error(enumerate_all_sign_patterns, params)
    if not isinstance(reference, np.ndarray):
        assert orbit is reference
        return
    assert orbit.shape == reference.shape
    # as sets: every member of either list has a partner in the other
    distance = np.max(np.abs(orbit[:, None] - reference[None]), axis=-1)
    assert np.all(distance.min(axis=0) < MATCH_TOL)
    assert np.all(distance.min(axis=1) < MATCH_TOL)


@st.composite
def global_tiers(draw):
    """Tiers of minimizers with coinciding images: members drawn from a few
    configurations, some with a rotational period, each copy rotated,
    flipped and moved by far less or slightly more than MATCH_TOL."""
    n = draw(sizes)
    bases = [np.tile(draw(st.lists(st.sampled_from([-0.5, -0.2, 0.2, 0.5]), min_size=1,
                                   max_size=1)), n),
             np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))]
    tier = []
    for _ in range(draw(st.integers(1, 5))):
        base = bases[draw(st.integers(0, 1))]
        noise = draw(st.sampled_from([0.0, 1e-12, 0.4 * MATCH_TOL, 3 * MATCH_TOL]))
        flip = draw(st.sampled_from([-1.0, 1.0]))
        tier.append(flip * np.roll(base, draw(st.integers(0, n - 1))) + noise)
    return np.array(tier)


@PROPERTY
@given(global_tiers())
def test_image_dedupe_matches_one_image_at_a_time(tier):
    members = _distinct_images(tier)
    assert np.array_equal(members, images_one_at_a_time(tier))


@st.composite
def uniform_points(draw):
    """Translation-invariant points: the normal side for jbar of either sign
    and the uniform superradiant side for jbar < 0, at reduced distance
    10^U(-5, -1) and atomic frequency Omega in [0.5, 2]."""
    n = draw(st.sampled_from([3, 5, 7, 9, 21]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    jbar = sign * 10.0 ** draw(st.floats(-3.0, -0.7))
    side = draw(st.sampled_from([-1.0, 1.0])) if sign < 0 else -1.0
    reduced = 10.0 ** draw(st.floats(-5.0, -1.0))
    gc = critical_point(jbar, n)
    Omega = draw(st.floats(0.5, 2.0))
    return ModelParams(1.0, Omega, jbar, gc * (1.0 + side * reduced), n)


@PROPERTY
@given(uniform_points())
def test_momentum_blocks_match_williamson(params):
    solution = solve_ground_state(params)
    assert solution.phase in (Phase.NORMAL, Phase.NFSP)
    moments = site_moments([solution])
    form = build_quadratic_hamiltonian(solution)
    decomp = williamson_diagonalize(form)
    reference = decomp.symplectic_eigenvalues
    assert_allclose(moments.eps[0], reference, rtol=1e-10, atol=0)
    assert_allclose(moments.eps[0], symplectic_spectrum_modulus(form), rtol=1e-10, atol=0)
    cov = covariance(decomp)
    for site in range(1, params.n_sites + 1):
        assert_allclose(moments.photon_numbers[0, site - 1], photon_number(cov, site),
                        rtol=1e-9, atol=0)
        assert_allclose(moments.var_q[0, site - 1], squeezing_variance(cov, site),
                        rtol=1e-9, atol=0)
    analytic = analytic_np_spectrum if solution.phase is Phase.NORMAL \
        else analytic_nfsp_spectrum
    assert_allclose(analytic(params.g, params.jbar, params.omegabar, params.omega0,
                             n_sites=params.n_sites),
                    reference, rtol=1e-10, atol=0)


@st.composite
def solved_forms(draw):
    """Fluctuation forms about solved ground states of every phase, at
    reduced distance 10^U(-3, 0) from g_c on either side."""
    n = draw(st.sampled_from([3, 5, 7]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    jbar = sign * 10.0 ** draw(st.floats(-2.0, -0.7))
    side = draw(st.sampled_from([-1.0, 1.0]))
    reduced = 10.0 ** draw(st.floats(-3.0, -0.5))
    gc = critical_point(jbar, n)
    params = ModelParams(1.0, 1.0, jbar, gc * (1.0 + side * reduced), n)
    return build_quadratic_hamiltonian(solve_ground_state(params))


@PROPERTY
@given(solved_forms())
def test_williamson_identities_and_physical_state(form):
    decomp = williamson_diagonalize(form)
    scale = np.linalg.norm(form.matrix, 2)
    assert decomp.symplectic_residual < 1e-9 * scale
    assert decomp.diagonalization_residual < 1e-9 * scale
    assert physicality_defect(covariance(decomp)) >= -1e-10


@PROPERTY
@given(solved_forms())
def test_split_route_matches_generic_schur_route(form):
    # at reduced distance >= 1e-3 every sector of N <= 7 is resolvable
    split = williamson_diagonalize(form)
    generic = _williamson_generic(form)
    assert_allclose(split.symplectic_eigenvalues, generic.symplectic_eigenvalues,
                    rtol=1e-10, atol=0)
    assert_allclose(split.symplectic_eigenvalues, symplectic_spectrum_modulus(form),
                    rtol=0, atol=1e-10)
    scale = np.linalg.norm(form.matrix, 2)
    for decomp in (split, generic):
        assert decomp.symplectic_residual < 1e-9 * scale
        assert decomp.diagonalization_residual < 1e-9 * scale


finite = st.floats(allow_nan=False, allow_infinity=False)
sweep_rows = st.lists(st.fixed_dictionaries({
    "g": finite, "reduced_coupling": finite,
    "observable": st.sampled_from(["gaps", "photon_numbers", "squeezing",
                                   "hessian_eigenvalues", "energy", "g_c"]),
    "index": st.sampled_from(["", "1", "2", "21", "mf", "f"]),
    "value": finite,
}), max_size=20)


@PROPERTY
@given(sweep_rows)
def test_csv_round_trip_reproduces_bytes(rows):
    text = rows_to_csv(rows)
    parsed = csv_to_rows(text)
    assert parsed == rows
    assert rows_to_csv(parsed) == text


@st.composite
def sweep_tables(draw):
    """Tables in the writer's form whose values repeat within a point and
    across points: each point draws its values from a small pool that
    holds 0.0 and -0.0, and NaN marks an absent value, so a column can be
    absent at a point and a point can hold no value."""
    points = draw(st.integers(0, 4))
    g = np.array(draw(st.lists(finite, min_size=points, max_size=points)))
    shared = draw(st.lists(finite, min_size=1, max_size=3))
    columns = []
    for name, width in (("energy", 1), ("gaps", 3), ("photon_numbers", 5)):
        rows = []
        for _ in range(points):
            pool = [0.0, -0.0, np.nan, *shared, *draw(st.lists(finite, max_size=2))]
            rows.append(draw(st.lists(st.sampled_from(pool), min_size=width, max_size=width)))
        values = np.array(rows, dtype=float).reshape(points, width)
        columns.append((name, np.array([str(i) for i in range(width)]), values,
                        ~np.isnan(values)))
    return g, np.abs(g), columns


@PROPERTY
@given(sweep_tables())
def test_csv_writer_matches_one_repr_per_value(table):
    text = package_csv(table)
    assert text == table_csv(table_points(table))
    assert "nan" not in text


def block_table(counts):
    """A table in the writer's form whose point i holds counts[i] present
    values, at seeded places among the 16 labels of its two columns, drawn
    from a small pool so that they repeat; the present values on either side
    of each multiple of the writer's block are 0.0 and -0.0."""
    rng = np.random.default_rng(len(counts))
    mask = np.array([rng.permutation(16) < count for count in counts]).reshape(-1, 16)
    values = np.where(mask, rng.integers(-4, 5, mask.shape) / 8.0, np.nan)
    point_of, column_of = np.nonzero(mask)
    for k, boundary in enumerate(range(_CSV_BLOCK, len(point_of), _CSV_BLOCK)):
        zeros = [(0.0, -0.0), (-0.0, 0.0)][k % 2]
        values[point_of[boundary - 1:boundary + 1], column_of[boundary - 1:boundary + 1]] = zeros
    g = 1.0 + np.arange(len(counts)) / 64.0
    return g, g - 1.0, [(name, np.array([str(label) for label in range(1, width + 1)]),
                         values[:, part], mask[:, part])
                        for name, width, part in (("a", 6, slice(0, 6)),
                                                  ("b", 10, slice(6, 16)))]


def test_csv_writer_matches_one_repr_per_value_on_fixed_tables():
    # both zeros in one column and within one point, a repeated value, a
    # column absent at a point and a point with no value present; then
    # repr's edge values, tables with no point or no column, and the table
    # of `frustra sweep --jbar -0.01 --sites 21`: 102 points of N = 21
    # whose values mostly repeat within their point
    nan = np.nan
    a = np.array([[0.0, -0.0, 0.25], [nan, nan, nan], [-0.0, 0.25, 0.0]])
    b = np.array([[-0.0, 0.25], [nan, nan], [nan, nan]])
    table = (np.array([1.5, 2.5, -0.0]), np.array([0.5, 1.5, 0.0]),
             [("a", np.array(["1", "2", "3"]), a, ~np.isnan(a)),
              ("b", np.array(["1", "2"]), b, ~np.isnan(b))])
    text = package_csv(table)
    assert text == table_csv(table_points(table))
    assert text.splitlines()[1:] == [
        "1.5,0.5,a,1,0.0", "1.5,0.5,a,2,-0.0", "1.5,0.5,a,3,0.25",
        "1.5,0.5,b,1,-0.0", "1.5,0.5,b,2,0.25",
        "-0.0,0.0,a,1,-0.0", "-0.0,0.0,a,2,0.25", "-0.0,0.0,a,3,0.0"]
    # the values at which repr switches notation or precision, the infinities
    # and a present NaN under two bit patterns, each printed as its repr
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)
    c = np.array([[np.inf, -np.inf, 5e-324, 1e16, 9999999999999998.0, 1e-5, 1e-4, *nans],
                  [1e-4, nans[1], 1e-5, -5e-324, 1e16, 0.0001, nans[0], -np.inf, np.inf]])
    assert len(set(c.view(np.int64)[np.isnan(c)].tolist())) == 2
    table = (np.array([1e16, 9999999999999998.0]), np.array([1e-5, 1e-4]),
             [("c", np.array([str(k) for k in range(9)]), c, np.ones(c.shape, dtype=bool))])
    text = package_csv(table)
    assert text == table_csv(table_points(table))
    assert text.splitlines()[1:8] == [
        "1e+16,1e-05,c,0,inf", "1e+16,1e-05,c,1,-inf", "1e+16,1e-05,c,2,5e-324",
        "1e+16,1e-05,c,3,1e+16", "1e+16,1e-05,c,4,9999999999999998.0",
        "1e+16,1e-05,c,5,1e-05", "1e+16,1e-05,c,6,0.0001"]
    assert text.count(",nan\n") == 4
    # a table with no point, and tables whose points have no column
    header = "g,reduced_coupling,observable,index,value\n"
    empty = np.empty((0, 2))
    for table in [(np.array([]), np.array([]), [("a", np.array(["1", "2"]), empty,
                                                 empty.astype(bool))]),
                  (np.array([]), np.array([]), []), (np.array([1.5, 2.5]), np.ones(2), [])]:
        assert package_csv(table) == table_csv(table_points(table)) == header
    table = sweep_table(run_sweep(SweepSpec(jbar=-0.01, n_sites=21)))
    text = package_csv(table)
    assert text == table_csv(table_points(table))
    assert "nan" not in text
    # one block of lines less one, one block, one more, and two blocks and
    # one: the first block ends with a point's last value and is followed by
    # a point with no value, and the third block starts inside a point;
    # no piece holds more than one block of lines
    full, rest = divmod(_CSV_BLOCK, 16)
    assert rest == 0
    for counts in ([16] * (full - 1) + [0, 15], [16] * full + [0], [16] * full + [0, 1],
                   [16] * full + [0] + [13] * (_CSV_BLOCK // 13)
                   + [_CSV_BLOCK + 1 - 13 * (_CSV_BLOCK // 13)]):
        table, total = block_table(counts), sum(counts)
        chunks = list(_csv_chunks(table))
        assert "".join(chunks) == table_csv(table_points(table))
        lines = [chunk.count("\n") for chunk in chunks[1:]]
        assert sum(lines) == total and max(lines) <= _CSV_BLOCK
        assert len(lines) == -(-total // _CSV_BLOCK)
        rows = "".join(chunks[1:]).splitlines()
        for k, boundary in enumerate(range(_CSV_BLOCK, total, _CSV_BLOCK)):
            assert [row.rsplit(",", 1)[1] for row in rows[boundary - 1:boundary + 1]] == [
                ["0.0", "-0.0"], ["-0.0", "0.0"]][k % 2]
        if total > _CSV_BLOCK:  # the point at the boundary writes no line
            g = table[0].tolist()
            assert [rows[_CSV_BLOCK - 1].split(",")[0], rows[_CSV_BLOCK].split(",")[0]] == [
                repr(g[full - 1]), repr(g[full + 1])]


@st.composite
def trim_cases(draw):
    """(reduced, values, floor, diverging) for the noise trim: reduced
    couplings from a small pool, so that they tie, and values that are
    monotone along the walk from the largest coupling, then overwritten
    in a few places by NaN, +-inf, values at or below the floor and
    repeats of their neighbours."""
    n = draw(st.integers(0, 40))
    floor = draw(st.sampled_from([0.0, 1e-12, 1.0]))
    diverging = draw(st.booleans())
    reduced = 10.0 ** -np.array(draw(st.lists(st.integers(0, 15), min_size=n, max_size=n)),
                                dtype=float)
    walk = np.sort(draw(st.lists(st.floats(1.5, 1e6), min_size=n, max_size=n)))
    if draw(st.sampled_from([False, False, True])):
        walk = walk[::-1]  # monotone the wrong way
    values = np.empty(n)
    values[np.argsort(reduced)[::-1]] = walk if diverging else walk[::-1]
    specials = [np.nan, np.inf, -np.inf, floor, 0.5 * floor, 0.0, -1.0]
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=6 if n else 0)):
        values[i] = draw(st.sampled_from([*specials, values[max(i - 1, 0)]]))
    return reduced, values, floor, diverging


@PROPERTY
@given(trim_cases())
def test_noise_trim_matches_the_point_by_point_walk(case):
    mask = asymptotic_mask(*case)
    assert mask.dtype == bool and np.array_equal(mask, asymptotic_mask_walk(*case))


@pytest.mark.parametrize("diverging", [False, True])
@pytest.mark.parametrize("reduced, values, kept", [
    ([], [], []),
    ([1e-3, 1e-2], [np.nan, -np.inf], [False, False]),
    # leading unusable points are skipped, a later one stops the walk
    ([1e-4, 1e-3, 1e-2, 1e-1, 1.0], [2.0, np.inf, 1.0, 0.5, 0.0],
     [False, False, False, True, False]),
    ([1e-4, 1e-3, 1e-2, 1e-1], [np.nan, 2.0, 1.5, 1.0], [False, False, True, True]),
    # a tie in value stops the walk; the innermost kept point goes with it
    ([1e-4, 1e-3, 1e-2, 1e-1], [3.0, 3.0, 2.0, 1.0], [False, False, True, True]),
])
def test_noise_trim_on_fixed_cases(reduced, values, kept, diverging):
    values = np.array(values, dtype=float)
    if not diverging:  # the same walk, mirrored in value
        values = np.divide(1.0, values, out=values.copy(),
                           where=np.isfinite(values) & (values > 0))
    case = (np.array(reduced, dtype=float), values, 0.0, diverging)
    assert np.array_equal(asymptotic_mask(*case), asymptotic_mask_walk(*case))
    assert asymptotic_mask(*case).tolist() == kept


signed_zeros = st.sampled_from([0.0, -0.0])
#: couplings up to 1e154, where 4 g^2 and the Hessian's power overflow
kernel_couplings = st.one_of(signed_zeros, st.floats(0.0, 10.0), st.floats(0.0, 1e154))
kernel_hoppings = st.one_of(signed_zeros, st.floats(-0.5, 1.0))
coherences = st.one_of(signed_zeros, st.floats(-10.0, 10.0), st.floats(-1e-30, 1e-30))


@st.composite
def landscape_stacks(draw):
    """(alphas, g, jbar): one configuration, or a stack of them whose g and
    jbar are each a scalar or one value per row, at any odd N from 3 to 15."""
    n = draw(st.sampled_from(range(3, 16, 2)))
    rows = draw(st.sampled_from([None, 1, 2, 5]))
    shape = (n,) if rows is None else (rows, n)
    size = n if rows is None else rows * n
    alphas = np.array(draw(st.lists(coherences, min_size=size, max_size=size))).reshape(shape)

    def value(values):
        if rows is None or draw(st.booleans()):
            return draw(values)
        return np.array(draw(st.lists(values, min_size=rows, max_size=rows)))
    return alphas, value(kernel_couplings), value(kernel_hoppings)


def _bits(value):
    return np.asarray(value).shape, np.asarray(value).tobytes()


@PROPERTY
@given(landscape_stacks())
def test_landscape_kernel_returns_the_reference_bits(case):
    alphas, g, jbar = case
    public = (rescaled_energy, energy_gradient, energy_hessian)
    reference = (landscape_reference.rescaled_energy, landscape_reference.energy_gradient,
                 landscape_reference.energy_hessian)
    with np.errstate(all="ignore"):  # the overflows and inf/inf of huge couplings
        kernels, pack = _kernels(alphas.shape[-1]), _pack(g, jbar)
        assert kernels is _kernels(alphas.shape[-1])  # built once per size
        # two scalars give one row of constants for every row, else a row per value
        assert pack.shape == np.broadcast_shapes(np.shape(g), np.shape(jbar)) + (3,)
        for public_fn, reference_fn, kernel_fn in zip(public, reference, kernels):
            expected = reference_fn(alphas, g, jbar)
            got = public_fn(alphas, g, jbar)
            assert type(got) is type(expected) and _bits(got) == _bits(expected)
            # a scalar pack keeps a single configuration's shape
            assert _bits(kernel_fn(alphas, pack)) == _bits(expected)
            if alphas.ndim == 2:  # a pack per row, and a subset of the rows with theirs
                rows = np.broadcast_to(pack, (len(alphas), 3))
                assert _bits(kernel_fn(alphas, rows)) == _bits(expected)
                ids = np.arange(len(alphas))[::2]
                picked = [value[ids] if np.ndim(value) else value for value in (g, jbar)]
                assert _bits(kernel_fn(alphas[ids], rows[ids])) == _bits(
                    reference_fn(alphas[ids], *picked))
        per_site = g[:, None] if np.ndim(g) else g
        assert _bits(_hessian_diagonal(alphas, per_site)) == _bits(
            landscape_reference._hessian_diagonal(alphas, per_site))


@st.composite
def line_data(draw):
    """(x, y) of 2 to 40 points: log-coupling-like x in [-40, 5], a few
    repeated or all equal, and y of any scale and sign."""
    m = draw(st.integers(2, 40))
    x = np.array(draw(st.lists(st.floats(-40.0, 5.0), min_size=m, max_size=m)))
    if draw(st.booleans()):
        x = x[np.array(draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))]
    if draw(st.integers(0, 4)) == 0:
        x[:] = x[0]  # rank 1: polyfit warns
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    y = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    return x, y


def _fit_and_warnings(fit, x, y):
    """The bits of ``fit(x, y)``, or the message of its LinAlgError (x all
    0 scales a column by 0/0), and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = fit(x, y).tobytes()
        except np.linalg.LinAlgError as exc:
            outcome = str(exc)
    return outcome, [(w.category, str(w.message)) for w in caught]


@PROPERTY
@given(line_data())
def test_line_fit_returns_the_bits_and_warnings_of_polyfit(case):
    x, y = case
    got = _fit_and_warnings(_line_fit, x, y)
    assert got == _fit_and_warnings(lambda x, y: np.polyfit(x, y, 1), x, y)
    if (x == x[0]).all() and x[0] != 0:
        assert got[1] == [(np.exceptions.RankWarning, "Polyfit may be poorly conditioned")]


def fit_power_law_reference(pts):
    """(slope, intercept, r_squared) of the power-law fit through
    ``np.polyfit``, ``np.mean`` and ``np.sum``."""
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    total = np.sum((ly - ly.mean()) ** 2)
    return slope, intercept, 1.0 - float(np.sum(residual ** 2) / total) if total > 0 else 1.0


@PROPERTY
@given(st.integers(6, 40), st.floats(-9.0, -1.0), st.floats(-3.0, 3.0), st.floats(0.0, 0.3),
       st.integers(0, 2 ** 32 - 1))
def test_power_law_fit_returns_the_reference_bits(m, low, exponent, noise, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(10.0 ** rng.uniform(low, low + 3.0, m))
    pts = np.column_stack([x, x ** exponent * np.exp(noise * rng.normal(size=m))])
    slope, intercept, r_squared = fit_power_law_reference(pts)
    try:
        fit = fit_power_law(pts)
    except FitQualityError as exc:
        assert exc.r_squared == r_squared
        return
    assert (fit.exponent, fit.r_squared) == (slope, r_squared)
    assert fit.prefactor == float(np.exp(intercept))
