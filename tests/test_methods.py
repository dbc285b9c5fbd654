import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from peplift import problems
from peplift.catalog import FAMILIES
from peplift.methods import (
    ProxProblem,
    run_composite,
    run_fista,
    run_pogm,
    run_pogmg,
    trace_summary,
    write_trace_csv,
)
from peplift.problems import ProblemSpec, initial_point, make_problem, soft_threshold
from peplift.schedules import (
    SILVER_RATIO,
    StepsizeMatrix,
    from_diagonal,
    gsw_schedule,
    ogm_stepsize_matrix,
    ogmg_stepsize_matrix,
    silver_schedule,
    theta_sequence,
)

from reference_forms import fused_oracles, run_unconstrained_plain

RHO = SILVER_RATIO


def quadratic_problem(q: np.ndarray, center: np.ndarray) -> ProxProblem:
    """f(x) = (x - c)^T Q (x - c) / 2 with unit smoothness when lam_max(Q) = 1."""
    smoothness = float(np.linalg.eigvalsh(q)[-1])
    f_value = lambda x: 0.5 * float((x - center) @ q @ (x - center))
    f_grad = lambda x: q @ (x - center)
    h_value = lambda x: 0.0
    return ProxProblem(
        dim=q.shape[0],
        f_value=f_value,
        f_grad=f_grad,
        h_value=h_value,
        prox=lambda t, x: x,
        smoothness=smoothness,
        x_star=center,
        opt_value=0.0,
        **fused_oracles(f_value, f_grad, h_value),
    )


def rel_iterate_gap(a, b) -> float:
    return max(
        float(np.max(np.abs(xa - xb))) / max(1.0, float(np.max(np.abs(xb))))
        for xa, xb in zip(a.xs, b.xs)
    )


@pytest.fixture(scope="module")
def lasso():
    spec = ProblemSpec(kind="lasso", dim=10, rows=20, seed=7, tau=0.1)
    return spec, make_problem(spec)


@pytest.fixture(scope="module")
def boxqp():
    spec = ProblemSpec(kind="boxqp", dim=8, rows=14, seed=5, lo=-0.6, hi=0.9)
    return spec, make_problem(spec)


class TestUnconstrained:
    """The plain method's closed forms, on the composite runner at h = 0."""

    def test_single_unit_step_kills_quadratic(self):
        problem = quadratic_problem(np.eye(1), np.zeros(1))
        trace = run_composite(from_diagonal(np.full(1, 1.0)), problem, np.array([1.0]))
        assert abs(trace.xs[-1][0]) < 1e-15

    def test_ogm_rate_on_random_quadratic(self, rng):
        # final gap against raw distance at the certified unconstrained rate
        a = rng.standard_normal((8, 5))
        q = a.T @ a
        q /= np.linalg.eigvalsh(q)[-1]
        problem = quadratic_problem(q, rng.standard_normal(5))
        x0 = rng.standard_normal(5)
        trace = run_composite(ogm_stepsize_matrix(2), problem, x0)
        t2 = theta_sequence(2)[-1]
        bound = float(np.dot(x0 - problem.x_star, x0 - problem.x_star)) / (2 * t2**2)
        assert trace.f_values[-1] - 0.0 <= bound + 1e-12

    def test_silver_scalar_product_formula(self):
        problem = quadratic_problem(np.eye(1), np.zeros(1))
        steps = silver_schedule(2)
        trace = run_composite(from_diagonal(steps), problem, np.array([1.0]))
        expected = np.prod(1.0 - steps)
        assert abs(trace.xs[-1][0] - expected) < 1e-14


class TestCompositeRunner:
    def test_reduces_to_unconstrained_when_smooth(self, rng):
        a = rng.standard_normal((9, 6))
        q = a.T @ a / np.linalg.eigvalsh(a.T @ a)[-1]
        problem = quadratic_problem(q, rng.standard_normal(6))
        x0 = rng.standard_normal(6)
        upper = np.triu(rng.standard_normal((4, 4)) * 0.3)
        upper[np.diag_indices(4)] = 1.0
        for H in (
            ogm_stepsize_matrix(5),
            from_diagonal(silver_schedule(2)),
            from_diagonal(np.full(4, 0.8)),
            StepsizeMatrix(upper),
        ):
            plain = run_unconstrained_plain(H, problem, x0)
            comp = run_composite(H, problem, x0)
            assert rel_iterate_gap(comp, plain) < 1e-12
            assert np.max(np.abs(comp.subgrads)) < 1e-12

    def test_diagonal_schedule_is_proximal_gd(self, lasso):
        spec, problem = lasso
        x0 = initial_point(spec)
        steps = np.array([0.9, 1.4, 0.7])
        trace = run_composite(from_diagonal(steps), problem, x0)
        L = problem.smoothness
        x = x0.copy()
        for alpha in steps:
            x = problem.prox(alpha / L, x - (alpha / L) * problem.f_grad(x))
        np.testing.assert_allclose(trace.xs[-1], x, atol=1e-14)

    def test_silver_bound_on_seeded_lasso(self, lasso):
        spec, problem = lasso
        x0 = initial_point(spec)
        trace = run_composite(from_diagonal(silver_schedule(2)), problem, x0)
        gap = trace.obj_values[-1] - problem.opt_value
        rate = RHO / (math.sqrt(2.0) * (4 * RHO**2 - 2))
        bound = rate * problem.smoothness * float(np.dot(x0 - problem.x_star, x0 - problem.x_star))
        assert gap <= bound + 1e-9

    def test_update_equations_hold(self, lasso):
        # x_k = x_{k-1} - sum_j (alpha_{k,j}/L)(g_j + s_{j+1}) on the trace
        spec, problem = lasso
        H = ogm_stepsize_matrix(5)
        x0 = initial_point(spec)
        trace = run_composite(H, problem, x0)
        L = problem.smoothness
        combined = (trace.grads[:-1] + trace.subgrads) / L
        for k in range(1, 6):
            step = trace.xs[k - 1] - np.tensordot(H.entries[:k, k - 1], combined[:k], axes=1)
            assert np.max(np.abs(trace.xs[k] - step)) < 1e-9 * (1 + np.linalg.norm(x0))

    def test_subgradients_satisfy_convexity_inequality(self, lasso, boxqp, rng):
        for spec, problem in (lasso, boxqp):
            trace = run_composite(from_diagonal(silver_schedule(3)), problem, initial_point(spec))
            for i in range(1, trace.n + 1):
                x_i = trace.xs[i]
                h_i = problem.h_value(x_i)
                for _ in range(20):
                    z = problem.prox(1.0, 2.0 * rng.standard_normal(problem.dim))  # always feasible
                    h_z = problem.h_value(z)
                    assert h_z >= h_i + float(trace.subgrads[i - 1] @ (z - x_i)) - 1e-8

    def test_nonfinite_prox_is_reported(self):
        f_value, f_grad, h_value = lambda x: 0.5 * float(x @ x), lambda x: x, lambda x: 0.0
        problem = ProxProblem(
            dim=1,
            f_value=f_value,
            f_grad=f_grad,
            h_value=h_value,
            prox=lambda t, x: x * np.nan,
            smoothness=1.0,
            **fused_oracles(f_value, f_grad, h_value),
        )
        with pytest.raises(ValueError, match="non-finite"):
            run_composite(from_diagonal([1.0]), problem, np.zeros(1))


class TestEfficientForms:
    @pytest.mark.parametrize("n", list(range(1, 21)))
    def test_pogm_matches_composite_extension(self, n, lasso):
        spec, problem = lasso
        x0 = initial_point(spec)
        direct = run_pogm(n, problem, x0)
        reference = run_composite(ogm_stepsize_matrix(n), problem, x0)
        assert rel_iterate_gap(direct, reference) < 1e-8

    @pytest.mark.parametrize("n", list(range(1, 21)))
    def test_pogmg_matches_composite_extension(self, n, boxqp):
        spec, problem = boxqp
        x0 = initial_point(spec)
        direct = run_pogmg(n, problem, x0)
        reference = run_composite(ogmg_stepsize_matrix(n), problem, x0)
        assert rel_iterate_gap(direct, reference) < 1e-8

    def test_pogm_smooth_case_equals_plain_method(self, rng):
        a = rng.standard_normal((7, 4))
        q = a.T @ a / np.linalg.eigvalsh(a.T @ a)[-1]
        problem = quadratic_problem(q, rng.standard_normal(4))
        x0 = rng.standard_normal(4)
        pogm = run_pogm(6, problem, x0)
        plain = run_unconstrained_plain(ogm_stepsize_matrix(6), problem, x0)
        assert rel_iterate_gap(pogm, plain) < 1e-10
        pogmg = run_pogmg(6, problem, x0)
        plaing = run_unconstrained_plain(ogmg_stepsize_matrix(6), problem, x0)
        assert rel_iterate_gap(pogmg, plaing) < 1e-10

    def test_stationarity_persistence(self):
        # exact minimizer available in closed form: iterates never move
        spec = ProblemSpec(kind="lasso", dim=6, rows=0, seed=3, tau=0.4)
        problem = make_problem(spec)
        trace = run_pogm(8, problem, problem.x_star)
        for x in trace.xs:
            assert np.max(np.abs(x - problem.x_star)) < 1e-12

    def test_pogmg_rate_on_seeded_lasso(self, lasso):
        spec, problem = lasso
        x0 = initial_point(spec)
        n = 7
        trace = run_pogmg(n, problem, x0)
        tn2 = theta_sequence(n)[-1] ** 2
        lhs = trace.final_composite_grad_norm**2
        rhs = 2 * (math.sqrt(5) - 1) / tn2 * problem.smoothness * (trace.obj_values[0] - trace.obj_values[-1])
        assert lhs <= rhs + 1e-9

    def test_rejects_nonpositive_n(self, lasso):
        _, problem = lasso
        with pytest.raises(ValueError):
            run_pogm(0, problem, np.zeros(problem.dim))
        with pytest.raises(ValueError):
            run_pogmg(0, problem, np.zeros(problem.dim))


class TestRateEnvelopes:
    def test_certified_bounds_hold_on_samples(self, lasso, boxqp):
        # every certified constant upper-bounds the observed gap
        for spec, problem in (lasso, boxqp):
            x0 = initial_point(spec)
            L = problem.smoothness
            dist_sq = float(np.dot(x0 - problem.x_star, x0 - problem.x_star))
            for k in (1, 2, 3):
                trace = run_composite(from_diagonal(silver_schedule(k)), problem, x0)
                bound = FAMILIES["silver"].rate(k) * L * dist_sq
                assert trace.obj_values[-1] - problem.opt_value <= bound + 1e-9
            for n in (1, 2, 5, 11):
                trace = run_pogm(n, problem, x0)
                bound = FAMILIES["ogm"].rate(n) * L * dist_sq
                assert trace.obj_values[-1] - problem.opt_value <= bound + 1e-9
            for k in (1, 2, 3):
                trace = run_composite(from_diagonal(gsw_schedule(k)), problem, x0)
                bound = FAMILIES["gsw"].rate(k) * L * (trace.obj_values[0] - trace.obj_values[-1])
                assert trace.final_composite_grad_norm**2 <= bound + 1e-9
            for n in (1, 2, 5, 11):
                trace = run_pogmg(n, problem, x0)
                bound = FAMILIES["ogmg"].rate(n) * L * (trace.obj_values[0] - trace.obj_values[-1])
                assert trace.final_composite_grad_norm**2 <= bound + 1e-9


class TestFista:
    def test_converges_on_lasso(self, lasso):
        spec, problem = lasso
        trace = run_fista(300, problem, initial_point(spec))
        assert trace.obj_values[-1] - problem.opt_value < 1e-8

    def test_recovered_subgradients_are_valid(self, lasso, rng):
        spec, problem = lasso
        trace = run_fista(5, problem, initial_point(spec))
        for i in range(1, 6):
            x_i = trace.xs[i]
            for _ in range(10):
                z = rng.standard_normal(problem.dim)
                assert problem.h_value(z) >= problem.h_value(x_i) + float(
                    trace.subgrads[i - 1] @ (z - x_i)
                ) - 1e-8


class TestOracleProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        arrays(np.float64, (6,), elements=st.floats(-5, 5)),
        arrays(np.float64, (6,), elements=st.floats(-5, 5)),
        st.floats(0.05, 3.0),
    )
    def test_prox_nonexpansive(self, x, y, t):
        for prox in (
            lambda t, v: soft_threshold(v, 0.3 * t),
            lambda t, v: np.clip(v, -1.0, 1.0),
        ):
            lhs = np.linalg.norm(prox(t, x) - prox(t, y))
            assert lhs <= np.linalg.norm(x - y) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(np.float64, (5,), elements=st.floats(-3, 3)),
        arrays(np.float64, (5,), elements=st.floats(-3, 3)),
    )
    def test_normalized_gradient_lipschitz(self, x, y):
        spec = ProblemSpec(kind="lasso", dim=5, rows=9, seed=42, tau=0.1)
        problem = make_problem(spec)
        L = problem.smoothness
        lhs = np.linalg.norm(problem.f_grad(x) - problem.f_grad(y)) / L
        assert lhs <= np.linalg.norm(x - y) * (1 + 1e-10)


class TestTraceExport:
    def test_summary_and_csv(self, tmp_path, lasso):
        spec, problem = lasso
        trace = run_pogm(4, problem, initial_point(spec))
        doc = trace_summary(trace, problem)
        assert len(doc["obj"]) == 5
        assert doc["grad_plus_subgrad_sq"][0] is None
        assert all(v is not None for v in doc["obj_gap"])
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, problem)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,obj,grad_plus_subgrad_sq,obj_gap,dist_to_opt"
        assert len(lines) == 6

    @pytest.mark.parametrize("missing", ["x_star", "opt_value"])
    def test_export_without_an_optimum_is_refused(self, tmp_path, lasso, missing):
        spec, problem = lasso
        trace = run_pogm(4, problem, initial_point(spec))
        bare = dataclasses.replace(problem, **{missing: None})
        with pytest.raises(ValueError, match="reference optimum, x_star and opt_value"):
            trace_summary(trace, bare)
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="reference optimum"):
            write_trace_csv(trace, path, bare)
        assert not path.exists()

    def test_infinite_start_serializes_as_null(self, boxqp):
        spec, problem = boxqp
        x0 = np.full(problem.dim, 100.0)  # far outside the box
        trace = run_composite(from_diagonal(silver_schedule(1)), problem, x0)
        doc = trace_summary(trace, problem)
        assert doc["obj"][0] is None
        json.dumps(doc)  # must be serializable

    def test_overflowed_row_is_empty_in_every_field(self, tmp_path):
        # a step of 1e30/L overflows the last iterate: obj, its gap, the
        # stationarity norm and the distance all leave float range together
        spec = ProblemSpec(kind="lasso", dim=3, rows=5, seed=1, tau=0.1)
        problem = make_problem(spec)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run_composite(from_diagonal(np.full(6, 1e30)), problem, initial_point(spec))
            path = tmp_path / "trace.csv"
            write_trace_csv(trace, path, problem)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,obj,grad_plus_subgrad_sq,obj_gap,dist_to_opt"
        assert lines[-1] == "6,,,,"
        assert all("inf" not in line and "nan" not in line for line in lines)


def counted(problem: ProxProblem):
    """Copy of problem whose oracles record their points (the rows, for h_rows)."""
    calls = {name: [] for name in ("f_value", "f_grad", "f_value_grad", "h_value", "h_rows", "prox")}

    def recorder(name):
        fn = getattr(problem, name)

        def call(*args):
            calls[name].append(args[-1])  # the point; no iterate is written in place after a call
            return fn(*args)

        return call

    return dataclasses.replace(problem, **{name: recorder(name) for name in calls}), calls


# the runners, each called as runner(n, problem, x0); the silver schedule has 7 steps
RUNNERS = {
    "composite-silver": lambda n, p, x0: run_composite(from_diagonal(silver_schedule(3)), p, x0),
    "composite-ogm": lambda n, p, x0: run_composite(ogm_stepsize_matrix(n), p, x0),
    "pogm": run_pogm,
    "pogmg": run_pogmg,
    "fista": run_fista,
}


class TestSmoothOracleCalls:
    """One fused smooth call per visited point, f_value never, and h from
    one h_rows call per run."""

    @pytest.mark.parametrize("runner", RUNNERS.values(), ids=RUNNERS.keys())
    def test_runners(self, lasso, runner):
        spec, problem = lasso
        problem, calls = counted(problem)
        trace = runner(5, problem, initial_point(spec))
        assert len(calls["f_value_grad"]) == trace.n + 1
        assert np.array_equal(np.array(calls["f_value_grad"]), trace.xs)
        assert calls["f_value"] == []
        # FISTA's gradient at its extrapolated points y_1..y_{n-1} is the only
        # other one; at y_0 = x_0 the fused call's gradient serves
        assert len(calls["f_grad"]) == (trace.n - 1 if runner is run_fista else 0)
        assert not any(np.array_equal(y, trace.xs[0]) for y in calls["f_grad"])

    def test_reference_solve(self, lasso):
        spec, problem = lasso
        problem, calls = counted(problem)
        problems._fista_reference(problem, np.zeros(spec.dim))
        iterations = len(calls["prox"]) // 2  # a step and the residual's prox per iteration
        assert len(calls["f_value_grad"]) == iterations + 1
        assert calls["f_value"] == []
        fused = {id(x) for x in calls["f_value_grad"]}
        assert not any(id(y) in fused for y in calls["f_grad"])
        # the start and every restart step from a fused point: its gradient serves
        assert len(calls["f_grad"]) < iterations - 1

    @pytest.mark.parametrize("fused", ["f_value_grad", "h_rows"])
    def test_a_problem_needs_both_fused_oracles(self, fused):
        f_value, f_grad, h_value = lambda x: 0.5 * float(x @ x), lambda x: x, lambda x: 0.0
        oracles = fused_oracles(f_value, f_grad, h_value)
        del oracles[fused]
        with pytest.raises(TypeError, match=fused):
            ProxProblem(dim=2, f_value=f_value, f_grad=f_grad, h_value=h_value, prox=lambda t, x: x, **oracles)

    @pytest.mark.parametrize("runner", RUNNERS.values(), ids=RUNNERS.keys())
    def test_h_values_come_from_one_h_rows_call(self, lasso, runner):
        spec, problem = lasso
        problem, calls = counted(problem)
        trace = runner(5, problem, initial_point(spec))
        assert len(calls["h_rows"]) == 1 and calls["h_rows"][0] is trace.xs
        assert calls["h_value"] == []


@pytest.fixture(scope="module", params=problems.KINDS)
def any_kind(request):
    spec = ProblemSpec(kind=request.param, dim=6, rows=11, seed=3, lo=-0.6, hi=0.9)
    return spec, make_problem(spec)


@pytest.mark.parametrize("runner", RUNNERS.values(), ids=RUNNERS.keys())
def test_trace_with_fused_oracles_from_the_plain_ones_keeps_its_bits(any_kind, runner):
    """A copy whose f_value_grad and h_rows call the plain oracles, one
    smooth pair per point and one h_value per row, runs to a trace with
    every array's bits; the tripled start leaves the box, so box-QP's h
    reads +inf there."""
    spec, problem = any_kind
    plain = dataclasses.replace(problem, **fused_oracles(problem.f_value, problem.f_grad, problem.h_value))
    for x0 in (initial_point(spec), 3.0 * initial_point(spec)):
        fast, slow = runner(5, problem, x0), runner(5, plain, x0)
        for name in ("xs", "grads", "subgrads", "f_values", "h_values", "obj_values"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestNonFiniteProx:
    """Every runner stops at the first non-finite prox point, naming its
    step, before any smooth call there."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "+inf"])
    @pytest.mark.parametrize("runner", RUNNERS.values(), ids=RUNNERS.keys())
    def test_raises_at_step_2(self, lasso, runner, bad):
        spec, problem = lasso
        prox = problem.prox
        steps = []

        def prox_breaking_at_step_2(t, x):
            steps.append(t)
            out = prox(t, x)
            if len(steps) == 2:
                out = out.copy()
                out[1] = bad
            return out

        broken, calls = counted(dataclasses.replace(problem, prox=prox_breaking_at_step_2))
        with pytest.raises(ValueError, match=r"non-finite point at step 2$"):
            runner(5, broken, initial_point(spec))
        assert len(steps) == 2
        assert len(calls["f_value_grad"]) == 2  # at x_0 and x_1 only
        assert all(np.isfinite(x).all() for x in calls["f_value_grad"])
