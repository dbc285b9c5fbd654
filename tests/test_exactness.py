"""The runners, oracles, reference solve, OGM-G schedule, ledger assembly and
compare, lifts and feasibility checks reproduce their plain forms bit for
bit: equal values and equal signs of every zero.

The faster forms reorder nothing in the arithmetic, so any difference here is
a changed rounding or a flipped signed zero, which would move the golden
reports.  Both obvious one-call rewrites of the prox expressions flip one:
np.clip(-0.0, 0, 1) is -0.0 where np.minimum(np.maximum(-0.0, 0), 1) is +0.0,
and np.sign(-0.0) * 0.0 is +0.0 where np.copysign(0.0, -0.0) is -0.0.

The ledger applies the stepsize matrix through its factors, so for the
catalog families it makes no matrix product, except up to _DENSE_STEPS
steps for a stepsize matrix off its diagonal (ogm, ogmg), which multiplies
by its entries; for a diagonal stepsize matrix (silver, gsw) each entry of
its step term is one product.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coco_oracle import MODES, placed, stepsizes
from peplift import certificates, ledger, lift, problems, schedules
from peplift.catalog import FAMILIES
from peplift.certificates import _report, func_identity_ledgers, ogm_func_certificate
from peplift.ledger import GramLedger, coco_block, ix_g, ix_s
from peplift.lift import verify_cell
from peplift.methods import ProxProblem, run_composite, run_fista, run_pogm, run_pogmg
from peplift.problems import ProblemSpec, initial_point, make_problem
from peplift.schedules import ScheduleSpec, from_diagonal, ogm_stepsize_matrix, ogmg_stepsize_matrix
from reference_forms import (
    add_block_plain,
    add_square_plain,
    check_func_feasibility_plain,
    check_grad_feasibility_plain,
    coco_block_plain,
    fista_reference_plain,
    fused_oracles,
    gershgorin_rows_plain,
    laplacian_violations_plain,
    library_rows,
    lift_func_plain,
    lift_grad_plain,
    ogm_stepsize_matrix_plain,
    ogmg_stepsize_matrix_plain,
    plain_oracles,
    reference_optimum_plain,
    run_composite_plain,
    run_fista_plain,
    run_pogm_plain,
    run_pogmg_plain,
)

SPECS = {
    "lasso-envelope": ProblemSpec(kind="lasso", dim=10, rows=20, seed=2000, tau=0.1),
    "lasso-sweep": ProblemSpec(kind="lasso", dim=8, rows=16, seed=101, tau=0.05),
    "boxqp-envelope": ProblemSpec(kind="boxqp", dim=8, rows=14, seed=3000, lo=-0.7, hi=0.8),
    "boxqp-nonneg": ProblemSpec(kind="boxqp", dim=6, rows=12, seed=5, lo=0.0, hi=0.5),
}
TRACE_FIELDS = ("xs", "grads", "subgrads", "f_values", "h_values", "obj_values")


def assert_bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def plain_problem(spec: ProblemSpec, library: ProxProblem) -> ProxProblem:
    """The library's instance with the plain oracle expressions swapped in,
    and the fused oracles formed from them."""
    f_value, f_grad, h_value, prox = plain_oracles(spec, *problems._design(spec))
    return ProxProblem(dim=spec.dim, f_value=f_value, f_grad=f_grad, h_value=h_value, prox=prox,
                       smoothness=library.smoothness, x_star=library.x_star, opt_value=library.opt_value,
                       **fused_oracles(f_value, f_grad, h_value))


@pytest.fixture(scope="module", params=sorted(SPECS))
def instance(request):
    spec = SPECS[request.param]
    problem = make_problem(spec)
    return spec, problem, plain_problem(spec, problem), initial_point(spec)


def assert_same_trace(actual, expected):
    for field in TRACE_FIELDS:
        assert_bitwise_equal(getattr(actual, field), getattr(expected, field))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 32])
def test_three_sequence_runners(instance, n):
    spec, problem, plain, x0 = instance
    assert_same_trace(run_pogm(n, problem, x0), run_pogm_plain(n, plain, x0))
    assert_same_trace(run_pogmg(n, problem, x0), run_pogmg_plain(n, plain, x0))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_composite_runner(instance, k):
    spec, problem, plain, x0 = instance
    for schedule in (ScheduleSpec("silver", k), ScheduleSpec("gsw", k), ScheduleSpec("ogm", 2 * k + 1)):
        H = schedule.build()
        assert_same_trace(run_composite(H, problem, x0), run_composite_plain(H, plain, x0))


def test_fista_runner(instance):
    spec, problem, plain, x0 = instance
    for n in (1, 5, 20):
        assert_same_trace(run_fista(n, problem, x0), run_fista_plain(n, plain, x0))


def test_reference_optimum(instance, monkeypatch):
    spec, problem, plain, x0 = instance
    a, b = problems._design(spec)
    # the full plain run, whatever polish it is handed: the library's early
    # exit must land on the point the full run and its polish reach
    monkeypatch.setattr(problems, "_fista_reference", lambda p, x0, polish=None: fista_reference_plain(
        p.f_grad, p.prox, p.smoothness, x0, lambda x: p.f_value(x) + p.h_value(x)))
    x_star, opt_value = problems._reference_optimum(spec, a, b, plain)
    assert_bitwise_equal(problem.x_star, x_star)
    assert_bitwise_equal(problem.opt_value, opt_value)


def full_rank_specs(count: int, seed: int) -> list[ProblemSpec]:
    """Seeded lasso and box-QP specs of dims 2-40 whose design has full column
    rank: the identity, or two to three times as many rows as columns (a
    near-square design takes the plain full run seconds).  Every fourth box
    is a single point."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        dim = int(rng.integers(2, 41))
        rows = 0 if i % 5 == 0 else 2 * dim + int(rng.integers(0, dim + 1))
        if i % 2 == 0:
            tau = float(10 ** rng.uniform(-3, -0.3))
            specs.append(ProblemSpec(kind="lasso", dim=dim, rows=rows, seed=seed + i, tau=tau))
        else:
            lo = float(rng.uniform(-1.0, 0.5))
            hi = lo if i % 4 == 3 else lo + float(rng.uniform(1e-3, 1.5))
            specs.append(ProblemSpec(kind="boxqp", dim=dim, rows=rows, seed=seed + i, lo=lo, hi=hi))
    return specs


def test_reference_optimum_matches_the_full_run():
    # the early exit stops at a polished point; on a full-rank design the
    # minimizer is unique, so it is the one the full run's polish reaches
    for spec in full_rank_specs(60, 7000):
        problem = make_problem(spec)
        x_star, opt_value = reference_optimum_plain(spec, *problems._design(spec), problem.smoothness)
        assert_bitwise_equal(problem.x_star, x_star)
        assert_bitwise_equal(problem.opt_value, opt_value)


@pytest.mark.parametrize("max_iters", [1, 2, 7, 60, 100_000])
def test_reference_loop(instance, max_iters):
    # short caps stop mid-run, where the best point and the restarts differ
    spec, problem, plain, x0 = instance
    full = lambda x: plain.f_value(x) + plain.h_value(x)
    start = x0 if spec.kind == "lasso" else np.clip(np.zeros(spec.dim), spec.lo, spec.hi)
    x_new, val_new = problems._fista_reference(problem, start, max_iters=max_iters)
    x_old, val_old = fista_reference_plain(plain.f_grad, plain.prox, plain.smoothness, start, full,
                                           max_iters=max_iters)
    assert_bitwise_equal(x_new, x_old)
    assert_bitwise_equal(val_new, val_old)


def special_points(dim: int, edge: float) -> list[np.ndarray]:
    """Points holding +-0.0, +-edge, values strictly inside (-edge, edge),
    values beyond it, +-inf and nan, cycled to the problem's dimension."""
    values = [0.0, -0.0, edge, -edge, 0.5 * edge, -0.5 * edge, np.nextafter(edge, 0.0),
              -np.nextafter(edge, 0.0), 3.0 * edge, -3.0 * edge, math.inf, -math.inf, math.nan]
    points = [np.resize(np.roll(values, shift), dim) for shift in range(len(values))]
    finite = [v for v in values if math.isfinite(v)]
    points += [np.resize(np.roll(finite, shift), dim) for shift in range(len(finite))]
    return points


@pytest.mark.parametrize("name", sorted(SPECS))
def test_oracles_on_signed_zeros_and_non_finite_points(name):
    spec = SPECS[name]
    library = make_problem(spec)
    plain = plain_oracles(spec, *problems._design(spec))
    steps = (1.0, 0.5, 2.0 / library.smoothness)
    if spec.kind == "lasso":
        edges = [t * spec.tau for t in steps]
    else:
        edges = [spec.lo, spec.hi, spec.lo - 1e-12, spec.hi + 1e-12]
    for edge in edges + [1.0]:
        for x in special_points(spec.dim, edge):
            with np.errstate(invalid="ignore", over="ignore"):
                assert_bitwise_equal(library.f_value(x), plain[0](x))
                assert_bitwise_equal(library.f_grad(x), plain[1](x))
                assert_bitwise_equal(library.h_value(x), plain[2](x))
                for t in steps:
                    assert_bitwise_equal(library.prox(t, x), plain[3](t, x))


@pytest.mark.parametrize("kind", problems.KINDS)
def test_fused_smooth_oracle_is_the_pair(kind):
    # random points at three scales, signed zeros, +-inf and nan, and x_star
    spec = ProblemSpec(kind=kind, dim=7, rows=13, seed=17, lo=-0.5, hi=0.5)
    problem = make_problem(spec)
    rng = np.random.default_rng(23)
    points = [scale * rng.standard_normal(spec.dim) for scale in (1e-3, 1.0, 1e3) for _ in range(5)]
    points += special_points(spec.dim, 1.0) + [problem.x_star]
    for x in points:
        with np.errstate(invalid="ignore", over="ignore"):
            value, grad = problem.f_value_grad(x)
            assert type(value) is float
            assert_bitwise_equal(value, problem.f_value(x))
            assert_bitwise_equal(grad, problem.f_grad(x))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 32, 64, 512, 1024, 2048])
def test_ogm_schedule(n):
    assert_bitwise_equal(ogm_stepsize_matrix(n).entries, ogm_stepsize_matrix_plain(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 1024])
def test_ogmg_schedule(n):
    assert_bitwise_equal(ogmg_stepsize_matrix(n).entries, ogmg_stepsize_matrix_plain(n))


def special_arrays(rows: int) -> dict[str, np.ndarray]:
    """Square arrays holding random values, signed zeros only, and nan or
    +-inf in the first row, on either side of the first row block's edge and
    in the last row."""
    rng = np.random.default_rng(rows)
    base = rng.standard_normal((rows, rows))
    out = {
        "random": base,
        "-0.0": np.full((rows, rows), -0.0),
        "+0.0": np.zeros((rows, rows)),
        "+-0.0": np.where(rng.random((rows, rows)) < 0.5, 0.0, -0.0),
    }
    for name, value in (("nan", math.nan), ("+inf", math.inf), ("-inf", -math.inf)):
        for row in sorted({0, min(255, rows - 1), min(256, rows - 1), rows - 1}):
            a = base.copy()
            a[row, rows // 3] = value
            out[f"{name}@{row}"] = a
    a = base.copy()
    a[0, 0], a[-1, -1] = math.inf, -math.inf
    out["+inf,-inf"] = a
    return out


def ledger_of(a: np.ndarray) -> GramLedger:
    led = GramLedger(1)
    led.quad, led.lin_f, led.lin_h = a, a[-1].copy(), a[0].copy()
    return led


@pytest.mark.parametrize("rows", [255, 256, 257])  # around the 256-row block
def test_ledger_compare(rows):
    arrays = special_arrays(rows)
    plain = lambda x: float(np.max(np.abs(x)))
    with np.errstate(invalid="ignore"):  # inf - inf
        for a in arrays.values():
            led = ledger_of(a)
            assert_bitwise_equal(led.max_abs(), max(plain(led.quad), plain(led.lin_f), plain(led.lin_h)))
            for b in arrays.values():
                other = ledger_of(b)
                expected = [plain(x - y) for x, y in ((led.quad, other.quad), (led.lin_f, other.lin_f),
                                                      (led.lin_h, other.lin_h))]
                assert_bitwise_equal(led.residual_vs(other), expected)


@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("group", ["quad", "lin_f", "lin_h"])
def test_nan_coefficient_fails_the_report(side, group):
    lhs, rhs = func_identity_ledgers(ogm_stepsize_matrix(4), ogm_func_certificate(4))
    assert _report(lhs, rhs).passed
    getattr(lhs if side == "lhs" else rhs, group)[-1] = math.nan
    report = _report(lhs, rhs)
    assert math.isnan(report.max_residual)
    assert not report.passed


def cumulative_product(H: schedules.StepsizeMatrix) -> np.ndarray:
    n = H.n
    return H.entries @ np.triu(np.ones((n, n)))


def ledger_cumulative(H: schedules.StepsizeMatrix) -> np.ndarray:
    """The coefficients of x_0 - x_p on g_l as a ledger sums them from H's
    rows, in row l and column p-1: coco(STAR, p) for every p puts
    <s_p, x_p - x_0> in quad, with no step terms beside it."""
    n = H.n
    led = GramLedger(n)
    coco_block(led, np.ones((1, n)), H, "composite_h", origin=(n + 1, 1))
    return -2.0 * led.quad[ix_s(n, 1) : ix_s(n, n) + 1, ix_g(n, 0) : ix_g(n, n)].T


# A diagonal H has one nonzero term in each prefix sum, so the ledger's past
# directions are the product's values exactly (its zeros may carry either sign).
@pytest.mark.parametrize("algo", ["silver", "gsw"])
@pytest.mark.parametrize("k", range(1, 12))
def test_gradient_descent_cumulative_is_the_product(algo, k):
    H = FAMILIES[algo].schedule(k)
    np.testing.assert_array_equal(ledger_cumulative(H), cumulative_product(H))


EXTREME_STEPS = [
    [2.5], [-1.5], [1e-300], [1e300], [-1e-300],
    [1.5, -2.0, 1e-300, 3.0, -1e300, 1e300, 0.5],
    np.geomspace(1e-300, 1e300, 300),
    -np.geomspace(1e300, 1e-300, 257),
]


@pytest.mark.parametrize("steps", EXTREME_STEPS)
def test_diagonal_cumulative_is_the_product(steps):
    H = from_diagonal(steps)
    np.testing.assert_array_equal(ledger_cumulative(H), cumulative_product(H))


@pytest.mark.parametrize("steps", [[math.inf], [1.0, -math.inf, 2.0], [1.0, math.nan]])
def test_non_finite_diagonal_is_rejected(steps):
    """from_diagonal and StepsizeMatrix reject the same inputs, so a diagonal
    H reaching the ledger's step term has finite steps."""
    for build in (from_diagonal, lambda s: schedules.StepsizeMatrix(np.diag(s))):
        with pytest.raises(ValueError, match="entries must be finite"):
            build(steps)


class CountingNumpy:
    """numpy as the ledger module sees it, with its matrix products counted."""

    def __init__(self):
        self.products = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.products += 1
        return np.matmul(*args, **kwargs)

    def dot(self, *args, **kwargs):
        self.products += 1
        return np.dot(*args, **kwargs)


@pytest.fixture
def counted_products(monkeypatch):
    """Count the ledger's np.matmul and np.dot calls."""
    counts = CountingNumpy()
    monkeypatch.setattr(ledger, "np", counts)
    return counts


@pytest.mark.parametrize("lift_", [False, True])
@pytest.mark.parametrize("algo, size, certify_products, lift_products", [
    ("silver", 3, 0, 0), ("gsw", 3, 0, 0), ("silver", 7, 0, 0), ("ogm", 64, 0, 0), ("ogmg", 64, 0, 0),
    ("ogm", 6, 1, 4), ("ogmg", 63, 1, 4),
])
def test_ledger_products_of_catalog_cells(algo, size, certify_products, lift_products, lift_, counted_products):
    """The ledger applies H through its factors, none of them dense for a
    catalog family, so no step of its assembly is a matrix product: for a
    diagonal H at any size, and for ogm and ogmg above _DENSE_STEPS steps.
    Up to that size, ogm and ogmg make the entries' product in every block
    and, in the composite blocks only, a second for STAR's weighted offsets.
    A certify cell assembles one unconstrained block (one product); a lift
    cell two composite blocks, the smooth and the nonsmooth inequalities
    (two products each), and its unconstrained identity reads the leading
    block of the smooth one."""
    family = FAMILIES[algo]
    H, cert = family.schedule(size), family.certificate(size)
    assert not H.dense
    assert verify_cell(H, cert, family.xi(size), lift=lift_).passed
    assert counted_products.products == (lift_products if lift_ else certify_products)


@pytest.mark.parametrize("algo, size", [("silver", 5), ("gsw", 5), ("ogm", 300), ("ogmg", 300)])
def test_factor_passes_of_catalog_lift_cells(algo, size, monkeypatch):
    """A pass through H's factors costs n row steps per factor however few
    columns it carries, so every column that needs H rides in one block: a
    lift cell passes four times, the step terms of its smooth and nonsmooth
    blocks (STAR's column beside the points') and the lift's solve and
    apply (the rank-one weights beside the solve's block), and no pass
    carries a lone column."""
    passes = []
    for name in ("apply", "solve"):
        def counted(H, x, _method=getattr(schedules.StepsizeMatrix, name), _name=name):
            passes.append((_name, x.shape[1]))
            return _method(H, x)
        monkeypatch.setattr(schedules.StepsizeMatrix, name, counted)
    family = FAMILIES[algo]
    assert family.cell(size).passed
    n = family.schedule(size).n
    assert all(width > 1 for _, width in passes), passes
    assert sorted(passes) == sorted([("apply", n + 2), ("apply", n + 2), ("apply", n),
                                     ("solve", n + 1 if family.metric == "func" else n)])


@pytest.mark.parametrize("algo, size", [("ogm", 64), ("ogmg", 64), ("ogm", 300), ("ogmg", 300)])
def test_step_term_through_the_factors_matches_the_entries_product(algo, size, monkeypatch):
    """The plain forms take the step term above _DENSE_STEPS from H.apply,
    as the ledger does, so here it is checked against the product with H's
    entries, which the ledger makes up to that size: both identities'
    ledgers of a cell agree to 1e-14 of their largest coefficient (measured
    at most 1.3e-15 here, and 2.6e-15 at n=1024)."""
    family = FAMILIES[algo]
    H, cert = family.schedule(size), family.certificate(size)
    func = family.metric == "func"
    lifted = (lift.lift_func if func else lift.lift_grad)(H, cert, family.xi(size))
    identity = certificates.func_identity_ledgers if func else certificates.grad_identity_ledgers
    composite = lift.composite_func_ledgers if func else lift.composite_grad_ledgers
    calls = [(identity, (H, cert)), (composite, (H, cert, lifted))]
    factored = [fn(*args) for fn, args in calls]
    monkeypatch.setattr(ledger, "_DENSE_STEPS", size)
    for (fn, args), sides in zip(calls, factored):
        for led, ref in zip(sides, fn(*args)):
            assert max(led.residual_vs(ref)) <= 1e-14 * ref.max_abs()


# ---------------------------------------------------------------------------
# Ledger assembly, lifts and feasibility checks against their plain forms
# ---------------------------------------------------------------------------

CELLS = [(algo, size) for algo in ("silver", "gsw") for size in range(1, 8)]
CELLS += [(algo, size) for algo in ("ogm", "ogmg") for size in (1, 2, 3, 5, 64, 300)]


def assert_same_fields(actual, expected):
    """Every field of two dataclass instances, bit for bit; the metric and
    PSD-route strings by equality."""
    for field in dataclasses.fields(actual):
        if field.name in ("metric", "psd_route"):
            assert getattr(actual, field.name) == getattr(expected, field.name)
        else:
            assert_bitwise_equal(getattr(actual, field.name), getattr(expected, field.name))


def assert_same_ledger(actual: GramLedger, expected: GramLedger):
    for name in ("quad", "lin_f", "lin_h"):
        assert_bitwise_equal(getattr(actual, name), getattr(expected, name))


LEADING_BLOCK_CELLS = [(algo, size) for algo in ("silver", "gsw") for size in range(1, 9)]
LEADING_BLOCK_CELLS += [(algo, size) for algo in ("ogm", "ogmg") for size in (1, 2, 5, 63, 64, 300)]


@pytest.mark.parametrize("algo, size", LEADING_BLOCK_CELLS)
def test_unconstrained_smooth_ledger_is_the_leading_block_of_the_composite_one(algo, size):
    """The smooth inequalities along the composite extension hold, in their
    leading n+2 symbols and their linear forms, the unconstrained ledger bit
    for bit, signed zeros included, on both sides of _DENSE_STEPS: a lift
    cell's unconstrained identity reads them there instead of assembling
    them again."""
    family = FAMILIES[algo]
    H, cert = family.schedule(size), family.certificate(size)
    composite = certificates._smooth_ledger(H, cert, composite=True)
    plain = certificates._smooth_ledger(H, cert, composite=False)
    d = cert.n + 2
    assert_bitwise_equal(composite.quad[:d, :d], plain.quad)
    for name in ("lin_f", "lin_h"):
        assert_bitwise_equal(getattr(composite, name), getattr(plain, name))
    assert_same_ledger(composite.leading_block(), plain)


def plain_ledger_assembly(monkeypatch):
    """Swap the plain coco_block, add_square and add_block into the library."""
    monkeypatch.setattr(certificates, "coco_block", placed(coco_block_plain))
    monkeypatch.setattr(lift, "coco_block", placed(coco_block_plain))
    monkeypatch.setattr(GramLedger, "add_square", add_square_plain)
    monkeypatch.setattr(GramLedger, "add_block", add_block_plain)


@pytest.mark.parametrize("algo, size", CELLS)
def test_cell_matches_plain_forms(algo, size, monkeypatch):
    family = FAMILIES[algo]
    H, cert = family.schedule(size), family.certificate(size)
    func = family.metric == "func"
    lift_fn, lift_plain = (lift.lift_func, lift_func_plain) if func else (lift.lift_grad, lift_grad_plain)
    check, check_plain = ((lift.check_func_feasibility, check_func_feasibility_plain) if func
                          else (lift.check_grad_feasibility, check_grad_feasibility_plain))
    lifts = []
    for xi in (family.xi(size), "pseudo") if func else (family.xi(size), None):
        lifted = lift_fn(H, cert, xi)
        assert_same_fields(lifted, lift_plain(H, cert, xi, library_rows(H, cert)))
        assert_same_fields(check(lifted), check_plain(lifted))
        lifts.append(lifted)

    identity = certificates.func_identity_ledgers if func else certificates.grad_identity_ledgers
    composite = lift.composite_func_ledgers if func else lift.composite_grad_ledgers
    calls = [(identity, (H, cert))] + [(composite, (H, cert, lifted)) for lifted in lifts]
    fast = [fn(*args) for fn, args in calls]
    plain_ledger_assembly(monkeypatch)
    for (fn, args), sides in zip(calls, fast):
        for led, ref in zip(sides, fn(*args)):
            assert_same_ledger(led, ref)


@pytest.mark.parametrize("algo, size", [("silver", 5), ("ogm", 70), ("ogmg", 70)])
def test_rank_one_weights_keep_the_bits_of_a_pass_of_their_own(algo, size):
    """The objective lift's rank-one weights ride as the last column of the
    rows kernel's solve block, so the shifted rows equal the kernel's tilde
    term plus the outer product of a one-column solve, bit for bit."""
    rng = np.random.default_rng(size)
    H = FAMILIES[algo].schedule(size)
    n = H.n
    tilde, left, right = rng.standard_normal((n, n)), rng.standard_normal(n), rng.standard_normal(n)
    weights = H.solve(left[:, None].copy())[:, 0]
    weights[:-1] -= weights[1:]
    expected = np.negative(np.negative(lift._shifted_rows(H, tilde.copy())) + np.outer(weights, right))
    assert_bitwise_equal(lift._shifted_rows(H, tilde.copy(), left, right), expected)


def signed_values(size: int) -> st.SearchStrategy:
    return arrays(float, size, elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-8.0, 8.0, width=16)))


def assert_coco_matches_plain(W, h, mode):
    """Both forms add the same bits to a fresh ledger and to one holding -0.0
    everywhere, where a -0.0 added stays -0.0.  h are the stepsize entries;
    a zero on their diagonal takes the stand-in for a StepsizeMatrix."""
    smooth, composite, coupled_star = MODES[mode]
    H = stepsizes(h)
    n = H.n
    if not smooth:
        W[:, 0] = 0.0
    given_W = W.copy()
    for start in (0.0, -0.0):
        led, ref = GramLedger(n), GramLedger(n)
        for name in ("quad", "lin_f", "lin_h"):
            getattr(led, name)[...] = getattr(ref, name)[...] = start
        coco_block(led, W, H, mode)
        coco_block_plain(ref, W, H, smooth, composite, coupled_star)
        assert_same_ledger(led, ref)
        assert_bitwise_equal(W, given_W)  # the caller's weights stay as they were


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), mode=st.sampled_from(sorted(MODES)))
def test_coco_block_matches_plain_form(data, n, mode):
    W = data.draw(signed_values((n + 2, n + 2)), label="W")
    h = np.triu(data.draw(signed_values((n, n)), label="h"))
    assert_coco_matches_plain(W, h, mode)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), mode=st.sampled_from(sorted(MODES)))
def test_placed_block_matches_the_embedded_weight_matrix(data, n, mode):
    """A block at an origin adds the bits the full weight matrix holding it
    adds, read-only weights included, on a fresh ledger and a -0.0 one."""
    smooth, composite, coupled_star = MODES[mode]
    first = 0 if smooth else 1  # nonsmooth inequalities have no subgradient at point 0
    rows = data.draw(st.integers(1, n + 2), label="rows")
    cols = data.draw(st.integers(1, n + 2 - first), label="cols")
    top = data.draw(st.integers(0, n + 2 - rows), label="top")
    left = data.draw(st.integers(first, n + 2 - cols), label="left")
    weights = data.draw(signed_values((rows, cols)), label="weights")
    weights.setflags(write=False)
    H = stepsizes(np.triu(data.draw(signed_values((n, n)), label="h")))
    W = np.zeros((n + 2, n + 2))
    W[top : top + rows, left : left + cols] = weights
    for start in (0.0, -0.0):
        led, ref = GramLedger(n), GramLedger(n)
        for name in ("quad", "lin_f", "lin_h"):
            getattr(led, name)[...] = getattr(ref, name)[...] = start
        coco_block(led, weights, H, mode, origin=(top, left))
        coco_block_plain(ref, W, H, smooth, composite, coupled_star)
        assert_same_ledger(led, ref)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), mode=st.sampled_from(sorted(MODES)))
def test_coco_block_matches_plain_form_on_a_diagonal_schedule(data, n, mode):
    W = data.draw(signed_values((n + 2, n + 2)), label="W")
    h = np.diag(data.draw(signed_values(n), label="steps"))
    assert_coco_matches_plain(W, h, mode)


def signed_normals(n: int) -> np.ndarray:
    """n seeded standard normal steps, about a tenth of them -0.0."""
    rng = np.random.default_rng(n)
    return np.where(rng.random(n) < 0.1, -0.0, rng.standard_normal(n))


def assert_diagonal_coco_matches_plain(steps, mode):
    steps = np.asarray(steps, dtype=float)
    n = steps.shape[0]
    rng = np.random.default_rng(n)
    W = np.where(rng.random((n + 2, n + 2)) < 0.3, -0.0, rng.standard_normal((n + 2, n + 2)))
    with np.errstate(over="ignore", invalid="ignore"):  # products of 1e300 steps overflow, then inf - inf
        assert_coco_matches_plain(W, np.diag(steps), mode)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("n", [254, 255, 256, 257])  # n and n+1 rows around the 256-row block
def test_coco_block_matches_plain_form_on_a_diagonal_schedule_at_the_block_edge(n, mode):
    assert_diagonal_coco_matches_plain(signed_normals(n), mode)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("steps", EXTREME_STEPS)
def test_coco_block_matches_plain_form_on_extreme_diagonal_steps(steps, mode):
    assert_diagonal_coco_matches_plain(steps, mode)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("algo", ["silver", "ogm"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e308])
def test_non_finite_step_weights_fail_the_identity(value, algo, mode):
    """Step weights holding an inf or a nan, or overflowing from huge finite
    weights, leave a non-finite quadratic form, and the identity fails."""
    H = FAMILIES[algo].schedule(3 if algo == "silver" else 7)
    n = H.n
    rng = np.random.default_rng(n)
    W = np.where(rng.random((n + 2, n + 2)) < 0.3, -0.0, rng.random((n + 2, n + 2)))
    W[4:6, 2] = value  # two weights whose sum holds or makes the inf or nan
    if not MODES[mode][0]:
        W[:, 0] = 0.0
    led = GramLedger(n)
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 + 1e308, inf - inf and inf * 0
        coco_block(led, W, H, mode)
        report = _report(led, GramLedger(n))
    assert not np.isfinite(led.quad).all()
    assert report.passed is False


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("n", [254, 255, 256, 257])  # n and n+1 rows around the 256-row block
def test_coco_block_matches_plain_form_at_the_block_edge(n, mode):
    rng = np.random.default_rng(n)
    W = np.where(rng.random((n + 2, n + 2)) < 0.3, -0.0, rng.standard_normal((n + 2, n + 2)))
    h = np.triu(np.where(rng.random((n, n)) < 0.3, -0.0, rng.standard_normal((n, n))))
    assert_coco_matches_plain(W, h, mode)


def special_coefficients(size: int) -> dict[str, np.ndarray]:
    """Coefficient vectors holding signed zeros only, and nan or +-inf on
    either side of the 256-row block edge and in the last entry."""
    rng = np.random.default_rng(size)
    base = np.where(rng.random(size) < 0.5, 0.0, -0.0)
    base[::7] = rng.standard_normal(base[::7].shape)
    out = {"+-0.0": np.where(rng.random(size) < 0.5, 0.0, -0.0), "sparse": base}
    for name, value in (("nan", math.nan), ("+inf", math.inf), ("-inf", -math.inf)):
        for at in sorted({0, min(255, size - 1), min(256, size - 1), size - 1}):
            c = base.copy()
            c[at] = value
            out[f"{name}@{at}"] = c
    return out


@pytest.mark.parametrize("size", [255, 256, 257])
def test_add_square_matches_plain_form(size):
    rng = np.random.default_rng(size)
    start = np.where(rng.random((size, size)) < 0.5, -0.0, rng.standard_normal((size, size)))
    with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf
        for coeffs in special_coefficients(size).values():
            for weight in (0.5, -1.0 / 3.0, -0.0):
                led, ref = GramLedger(1), GramLedger(1)
                led.quad, ref.quad = start.copy(), start.copy()
                led.add_square(coeffs, weight)
                add_square_plain(ref, coeffs, weight)
                assert_bitwise_equal(led.quad, ref.quad)


@pytest.mark.parametrize("indices", [
    [0, 5, 6, 7, 8, 12],  # the objective lift's layout: x0 - x*, then one run
    [4, 5, 6, 7, 8],  # the gradient lift's: a single run
    [9, 2, 3, 0, 11, 10],  # unsorted, descending neighbours are separate runs
    [7],
])
def test_add_block_matches_plain_form(indices):
    rng = np.random.default_rng(len(indices))
    block = np.where(rng.random((len(indices),) * 2) < 0.3, -0.0, rng.standard_normal((len(indices),) * 2))
    led, ref = GramLedger(5), GramLedger(5)
    led.quad = np.where(rng.random((13, 13)) < 0.5, -0.0, rng.standard_normal((13, 13)))
    ref.quad = led.quad.copy()
    led.add_block(np.array(indices), block, -0.5)
    add_block_plain(ref, np.array(indices), block, -0.5)
    assert_bitwise_equal(led.quad, ref.quad)


@pytest.mark.parametrize("rows", [255, 256, 257])
def test_feasibility_helpers_match_plain_forms(rows):
    arrays_ = special_arrays(rows)
    rng = np.random.default_rng(rows)
    laplacian = -np.abs(rng.standard_normal((rows, rows)))
    laplacian[np.diag_indices(rows)] = 0.0
    laplacian[np.diag_indices(rows)] = -laplacian.sum(axis=1)
    arrays_["laplacian"] = laplacian
    for value in (math.nan, math.inf, -0.0):
        a = laplacian.copy()
        a[rows // 2, rows // 2] = value
        arrays_[f"diagonal {value}"] = a
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
        for m in arrays_.values():
            assert_bitwise_equal(lift._laplacian_violations(m.copy()), laplacian_violations_plain(m))
            assert_bitwise_equal(lift._gershgorin_rows(m), gershgorin_rows_plain(m))
            assert_bitwise_equal(lift._row_sums(m, np.square), np.sum(m * m, axis=1))


def test_frozen_copies_only_what_a_caller_can_write():
    writable = np.arange(4.0)
    assert schedules._frozen(writable) is not writable
    own = np.arange(4.0)
    own.setflags(write=False)
    assert schedules._frozen(own) is own  # nothing can write to it
    view = writable[1:]
    view.setflags(write=False)
    frozen = schedules._frozen(view)  # read-only, but writable through its base
    writable[1] = 7.0
    assert frozen[0] == 1.0
    assert schedules._frozen([1, 2]).dtype == float


def test_lift_fields_share_the_slack_and_copy_caller_arrays():
    family = FAMILIES["ogm"]
    lifted = lift.lift_func(family.schedule(5), family.certificate(5), "pseudo")
    mu = np.array(lifted.mu)
    replaced = dataclasses.replace(lifted, mu=mu)
    mu[0, 1] = 1e3
    assert replaced.mu[0, 1] == lifted.mu[0, 1]
    assert replaced.slack is lifted.slack
