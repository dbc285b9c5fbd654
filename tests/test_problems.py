import json

import numpy as np
import pytest

from peplift.methods import run_composite, run_fista
from peplift.problems import (
    KINDS,
    ProblemSpec,
    initial_point,
    make_problem,
    soft_threshold,
    spec_from_json,
)
from peplift.schedules import from_diagonal


def assert_h_is_zero(problem):
    """h reads 0 and prox is the identity, at any step, on a smooth kind."""
    rng = np.random.default_rng(0)
    for x in (np.zeros(problem.dim), rng.standard_normal(problem.dim), problem.x_star):
        assert problem.h_value(x) == 0.0
        for t in (0.5, 3.0):
            assert np.array_equal(problem.prox(t, x), x)


class TestClosedForms:
    def test_lasso_identity_design(self):
        spec = ProblemSpec(kind="lasso", dim=5, rows=0, seed=2, tau=0.3)
        problem = make_problem(spec)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(5)
        np.testing.assert_allclose(problem.x_star, soft_threshold(b, 0.3), atol=1e-14)
        assert problem.smoothness == pytest.approx(1.0)

    def test_boxqp_identity_design(self):
        spec = ProblemSpec(kind="boxqp", dim=5, rows=0, seed=2, lo=-0.4, hi=0.2)
        problem = make_problem(spec)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(5)
        np.testing.assert_allclose(problem.x_star, np.clip(b, -0.4, 0.2), atol=1e-14)

    def test_smooth_quadratic_least_squares(self):
        spec = ProblemSpec(kind="smooth_quadratic", dim=4, rows=9, seed=6)
        problem = make_problem(spec)
        assert_h_is_zero(problem)
        assert np.linalg.norm(problem.f_grad(problem.x_star)) < 1e-10


class TestReferenceSolve:
    def test_seeded_lasso_reproducible(self):
        spec = ProblemSpec(kind="lasso", dim=10, rows=20, seed=123, tau=0.15)
        a = make_problem(spec)
        b = make_problem(spec)
        assert a.opt_value == b.opt_value
        np.testing.assert_array_equal(a.x_star, b.x_star)

    def test_reference_beats_long_fista(self):
        spec = ProblemSpec(kind="lasso", dim=8, rows=16, seed=9, tau=0.2)
        problem = make_problem(spec)
        trace = run_fista(3000, problem, initial_point(spec))
        assert problem.opt_value <= trace.obj_values[-1] + 1e-12
        assert trace.obj_values[-1] - problem.opt_value < 1e-9

    def test_boxqp_reference_stationarity(self):
        spec = ProblemSpec(kind="boxqp", dim=7, rows=12, seed=31, lo=-0.5, hi=0.5)
        problem = make_problem(spec)
        x = problem.x_star
        # projected-gradient fixed point at the reference solution
        step = problem.prox(1.0, x - problem.f_grad(x) / problem.smoothness)
        assert np.max(np.abs(step - x)) < 1e-10

    def test_l1_logistic_reference_stationarity(self):
        spec = ProblemSpec(kind="l1_logistic", dim=5, rows=30, seed=4, tau=0.05)
        problem = make_problem(spec)
        x = problem.x_star
        step = problem.prox(1.0 / problem.smoothness, x - problem.f_grad(x) / problem.smoothness)
        assert np.max(np.abs(step - x)) < 1e-8

    def test_huber_problem_is_smooth(self):
        spec = ProblemSpec(kind="smooth_huber", dim=5, rows=9, seed=8, delta=0.7)
        problem = make_problem(spec)
        assert_h_is_zero(problem)
        assert np.linalg.norm(problem.f_grad(problem.x_star)) < 1e-7


class TestSmoothnessConstant:
    @pytest.mark.parametrize("kind", ["lasso", "boxqp", "smooth_quadratic"])
    def test_matches_gram_eigenvalue(self, kind):
        spec = ProblemSpec(kind=kind, dim=6, rows=11, seed=3)
        problem = make_problem(spec)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((11, 6)) / np.sqrt(11)
        assert problem.smoothness == pytest.approx(np.linalg.eigvalsh(a.T @ a)[-1], abs=1e-8)

    def test_scaling_invariance_of_bound_comparison(self):
        # multiplying f and h by the same constant rescales the smoothness
        # and the gap identically, so bound ratios are unchanged
        base = ProblemSpec(kind="lasso", dim=6, rows=10, seed=12, tau=0.2)
        p1 = make_problem(base)
        c = 4.0
        rng = np.random.default_rng(12)
        a = rng.standard_normal((10, 6)) / np.sqrt(10)
        b = rng.standard_normal(10)
        scaled = ProblemSpec(kind="lasso", dim=6, rows=10, seed=12, tau=c * 0.2,
                             a=np.sqrt(c) * a, b=np.sqrt(c) * b)
        p2 = make_problem(scaled)
        assert p2.smoothness == pytest.approx(c * p1.smoothness, rel=1e-10)
        x0 = initial_point(base)
        h = from_diagonal(np.array([1.2, 0.8]))
        t1 = run_composite(h, p1, x0)
        t2 = run_composite(h, p2, x0)
        np.testing.assert_allclose(t1.xs, t2.xs, atol=1e-12)
        gap1 = t1.obj_values[-1] - p1.opt_value
        gap2 = t2.obj_values[-1] - p2.opt_value
        assert gap2 == pytest.approx(c * gap1, rel=1e-8)


class TestCompositeGap:
    def test_zero_at_optimum(self):
        spec = ProblemSpec(kind="lasso", dim=5, rows=0, seed=2, tau=0.3)
        problem = make_problem(spec)
        trace = run_composite(from_diagonal([1.0]), problem, problem.x_star)
        gaps = trace.obj_values - problem.opt_value
        assert abs(gaps[-1]) < 1e-12

    def test_one_step_hand_value(self):
        # proximal GD, identity design: x1 = soft(b, tau) lands on the optimum
        spec = ProblemSpec(kind="lasso", dim=4, rows=0, seed=5, tau=0.25)
        problem = make_problem(spec)
        x0 = np.zeros(4)
        trace = run_composite(from_diagonal([1.0]), problem, x0)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(4)
        np.testing.assert_allclose(trace.xs[1], soft_threshold(b, 0.25), atol=1e-14)
        gaps = trace.obj_values - problem.opt_value
        expected0 = (problem.f_value(x0) + problem.h_value(x0)) - problem.opt_value
        assert gaps[0] == pytest.approx(expected0)
        assert abs(gaps[1]) < 1e-14

    def test_gaps_nonnegative_but_not_monotone(self):
        spec = ProblemSpec(kind="lasso", dim=10, rows=18, seed=61, tau=0.1)
        problem = make_problem(spec)
        from peplift.schedules import silver_schedule

        trace = run_composite(from_diagonal(silver_schedule(3)), problem, initial_point(spec))
        gaps = trace.obj_values - problem.opt_value
        assert np.min(gaps) >= -1e-10
        # long steps overshoot: at least one uptick is expected on this seed
        assert np.any(np.diff(gaps) > 0)


class TestHRows:
    """h_rows is h_value on each row, bit for bit, for every kind."""

    @staticmethod
    def rows(spec: ProblemSpec) -> np.ndarray:
        rng = np.random.default_rng(spec.dim)
        lo_edge, hi_edge = spec.lo - 1e-12, spec.hi + 1e-12  # box-QP's tolerance edges
        rows = [scale * rng.standard_normal(spec.dim) for scale in (1e-3, 1.0, 1e3) for _ in range(3)]
        rows += [np.full(spec.dim, value) for value in (
            lo_edge, hi_edge, np.nextafter(lo_edge, -np.inf), np.nextafter(hi_edge, np.inf),
            spec.lo - 1.0, spec.hi + 1.0, 0.0, -0.0, np.nan,
        )]
        mixed = rng.uniform(spec.lo, spec.hi, size=(4, spec.dim))
        mixed[0, -1] = spec.hi + 1.0  # one entry outside the box
        mixed[1, 0] = lo_edge
        mixed[2, spec.dim // 2] = np.nan
        mixed[3] = np.where(rng.random(spec.dim) < 0.5, 0.0, -0.0)
        return np.concatenate([np.array(rows), mixed])

    @pytest.mark.parametrize("dim", [1, 9, 33])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_h_value_per_row(self, kind, dim):
        spec = ProblemSpec(kind=kind, dim=dim, rows=dim + 4, seed=11, lo=-0.5, hi=0.5)
        problem = make_problem(spec)
        xs = self.rows(spec)
        rows = problem.h_rows(xs)
        per_row = np.array([problem.h_value(x) for x in xs])
        assert rows.dtype == per_row.dtype and rows.shape == per_row.shape == (len(xs),)
        assert np.array_equal(rows, per_row, equal_nan=True)
        assert np.array_equal(np.signbit(rows), np.signbit(per_row))
        if kind == "boxqp":  # both sides of each tolerance edge are covered
            assert rows[9:13].tolist() == [0.0, 0.0, np.inf, np.inf]
        if kind in ("lasso", "l1_logistic"):
            assert np.isnan(rows).sum() == 2


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            ProblemSpec(kind="ridge", dim=3)

    def test_bad_box(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            ProblemSpec(kind="boxqp", dim=3, lo=1.0, hi=-1.0)

    def test_bad_tau(self):
        for tau in (0.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                ProblemSpec(kind="lasso", dim=3, tau=tau)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    def test_bad_huber_knee(self, delta):
        with pytest.raises(ValueError, match="Huber knee must be positive"):
            ProblemSpec(kind="smooth_huber", dim=3, rows=5, delta=delta)
        ProblemSpec(kind="lasso", dim=3, delta=delta)  # the other kinds ignore the knee

    def test_singular_design_flagged(self):
        spec = ProblemSpec(kind="lasso", dim=2, tau=0.1, a=np.zeros((3, 2)), b=np.ones(3))
        with pytest.raises(ValueError, match="singular design"):
            make_problem(spec)

    def test_json_spec_with_inline_matrices(self, tmp_path):
        a = np.array([[1.0, 0.5], [0.0, 2.0], [0.3, 0.3]])
        b = np.array([0.2, -0.4, 1.0])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "lasso", "dim": 2, "tau": 0.1, "a": a.tolist(), "b": b.tolist()}))
        spec = spec_from_json(path)
        problem = make_problem(spec)
        assert problem.smoothness == pytest.approx(np.linalg.eigvalsh(a.T @ a)[-1])

    def test_json_spec_with_one_column_inline_matrices(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "lasso", "dim": 1, "tau": 0.1,
                                    "a": [[1.0], [2.0], [0.5]], "b": [0.3, -0.1, 2.0]}))
        spec = spec_from_json(path)
        assert spec.a.shape == (3, 1) and spec.b.shape == (3,)

    def test_non_finite_reference_optimum_rejected(self):
        # finite data whose least-squares value overflows: the optimum leaves float range
        spec = ProblemSpec(kind="lasso", dim=2, tau=0.1, a=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                           b=np.array([1e200, -1e200, 1e200]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="reference optimum"):
                make_problem(spec)

    def test_json_spec_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "lasso", "dim": 3, "tau": 0.1, "bogus": 1}))
        with pytest.raises(ValueError, match="unknown problem spec fields"):
            spec_from_json(path)

    def test_prox_optimality_by_sampling(self):
        # (x - prox(t, x))/t is a subgradient at the prox point: check the
        # subgradient inequality against 100 sampled comparison points
        rng = np.random.default_rng(55)
        for spec in (
            ProblemSpec(kind="lasso", dim=6, rows=11, seed=21, tau=0.2),
            ProblemSpec(kind="boxqp", dim=6, rows=11, seed=22, lo=-0.8, hi=0.4),
        ):
            problem = make_problem(spec)
            for _ in range(5):
                t = float(rng.uniform(0.1, 2.0))
                x = rng.standard_normal(6) * 2.0
                p = problem.prox(t, x)
                sub = (x - p) / t
                h_p = problem.h_value(p)
                for _ in range(100):
                    z = problem.prox(1.0, 3.0 * rng.standard_normal(6))
                    assert problem.h_value(z) - h_p - float(sub @ (z - p)) >= -1e-9

    def test_initial_point_inside_box(self):
        spec = ProblemSpec(kind="boxqp", dim=20, rows=5, seed=9, lo=-0.3, hi=0.7)
        x0 = initial_point(spec)
        assert np.all(x0 >= -0.3) and np.all(x0 <= 0.7)

    def test_digest_stable_and_distinct(self):
        s1 = ProblemSpec(kind="lasso", dim=3, rows=6, seed=1, tau=0.1)
        s2 = ProblemSpec(kind="lasso", dim=3, rows=6, seed=2, tau=0.1)
        assert s1.digest() == ProblemSpec(kind="lasso", dim=3, rows=6, seed=1, tau=0.1).digest()
        assert s1.digest() != s2.digest()
