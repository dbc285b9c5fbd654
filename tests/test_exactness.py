"""The runners, oracles and reference solve reproduce their plain forms in
`reference_forms` bit for bit: equal values and equal signs of every zero.

The faster forms reorder nothing in the arithmetic, so any difference here is
a changed rounding or a flipped signed zero, which would move the golden
reports.  Both obvious one-call rewrites of the prox expressions flip one:
np.clip(-0.0, 0, 1) is -0.0 where np.minimum(np.maximum(-0.0, 0), 1) is +0.0,
and np.sign(-0.0) * 0.0 is +0.0 where np.copysign(0.0, -0.0) is -0.0.
"""

import math

import numpy as np
import pytest

from peplift import problems
from peplift.methods import ProxProblem, run_composite, run_fista, run_pogm, run_pogmg, run_unconstrained
from peplift.problems import ProblemSpec, initial_point, make_problem
from peplift.schedules import ScheduleSpec
from reference_forms import (
    fista_reference_plain,
    plain_oracles,
    run_composite_plain,
    run_fista_plain,
    run_pogm_plain,
    run_pogmg_plain,
    run_unconstrained_plain,
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
    """The library's instance with the plain oracle expressions swapped in."""
    f_value, f_grad, h_value, prox = plain_oracles(spec, *problems._design(spec))
    return ProxProblem(dim=spec.dim, f_value=f_value, f_grad=f_grad, h_value=h_value, prox=prox,
                       smoothness=library.smoothness, x_star=library.x_star, opt_value=library.opt_value)


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
    for schedule in (ScheduleSpec.silver(k), ScheduleSpec.gsw(k), ScheduleSpec.ogm(2 * k + 1)):
        H = schedule.build()
        assert_same_trace(run_composite(H, problem, x0), run_composite_plain(H, plain, x0))


def test_fista_runner(instance):
    spec, problem, plain, x0 = instance
    for n in (1, 5, 20):
        assert_same_trace(run_fista(n, problem, x0), run_fista_plain(n, plain, x0))


def test_unconstrained_runner():
    spec = ProblemSpec(kind="smooth_quadratic", dim=6, rows=12, seed=3)
    problem = make_problem(spec)
    for n in (1, 4, 9):
        H = ScheduleSpec.ogm(n).build()
        x0 = initial_point(spec)
        assert_same_trace(run_unconstrained(H, problem, x0), run_unconstrained_plain(H, problem, x0))


def test_reference_optimum(instance, monkeypatch):
    spec, problem, plain, x0 = instance
    a, b = problems._design(spec)
    monkeypatch.setattr(problems, "_fista_reference", fista_reference_plain)
    x_star, opt_value = problems._reference_optimum(spec, a, b, plain.f_value, plain.f_grad, plain.h_value,
                                                    plain.prox, plain.smoothness, None)
    assert_bitwise_equal(problem.x_star, x_star)
    assert_bitwise_equal(problem.opt_value, opt_value)


@pytest.mark.parametrize("max_iters", [1, 2, 7, 60, 100_000])
def test_reference_loop(instance, max_iters):
    # short caps stop mid-run, where the best point and the restarts differ
    spec, problem, plain, x0 = instance
    full = lambda x: plain.f_value(x) + plain.h_value(x)
    start = x0 if spec.kind == "lasso" else np.clip(np.zeros(spec.dim), spec.lo, spec.hi)
    x_new, val_new = problems._fista_reference(problem.f_grad, problem.prox, problem.smoothness, start,
                                               full, max_iters=max_iters)
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
