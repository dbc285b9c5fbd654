import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coco_oracle import (
    MODES,
    coco_block_reference,
    distance,
    evaluate,
    exact_coco_block,
    placed,
    single_inequality,
    stepsizes,
)
from conftest import basis_realization
from peplift import certificates, lift
from peplift.catalog import FAMILIES
from peplift.ledger import (
    STAR,
    GramLedger,
    coco_block,
    ix_dist,
    ix_g,
    ix_s,
    ix_s_star,
    ix_val,
)
from peplift.methods import run_composite
from peplift.problems import ProblemSpec, initial_point, make_problem
from peplift.schedules import StepsizeMatrix, ogm_stepsize_matrix, theta_sequence


@pytest.fixture(scope="module")
def H3():
    return ogm_stepsize_matrix(3)


class TestSingleInequalities:
    def test_unconstrained_final_vs_optimum(self, H3):
        # f_n - f_star - ||g_n||^2 / 2 once the optimal gradient is zeroed out
        n = 3
        led = single_inequality(H3, n, STAR, "unconstrained")
        expected_f = np.zeros(n + 2)
        expected_f[ix_val(n, n)] = 1.0
        expected_f[ix_val(n, STAR)] = -1.0
        np.testing.assert_array_equal(led.lin_f, expected_f)
        np.testing.assert_array_equal(led.lin_h, 0.0)
        quad = np.zeros_like(led.quad)
        quad[ix_g(n, n), ix_g(n, n)] = -0.5
        np.testing.assert_array_equal(led.quad, quad)

    def test_composite_metric_identity(self, H3):
        # smooth + nonsmooth inequality at (n, star) collapses to
        # F_n - F_star - ||g_n + s_star||^2 / 2
        n = 3
        led = GramLedger(n)
        for mode in ("composite_f", "composite_h"):
            coco_block(led, [[1.0]], H3, mode, origin=(ix_val(n, n), ix_val(n, STAR)))
        assert led.lin_f[ix_val(n, n)] == 1.0 and led.lin_f[ix_val(n, STAR)] == -1.0
        assert led.lin_h[ix_val(n, n)] == 1.0 and led.lin_h[ix_val(n, STAR)] == -1.0
        quad = np.zeros_like(led.quad)
        gn, ss = ix_g(n, n), ix_s_star(n)
        quad[gn, gn] = -0.5
        quad[ss, ss] = -0.5
        quad[gn, ss] = -0.5
        quad[ss, gn] = -0.5
        np.testing.assert_allclose(led.quad, quad, atol=1e-14)

    def test_past_directions_of_ogm_n2_by_hand(self):
        # h_i - h_star - <s_star, x_i - x_star> puts minus half of x_i - x_0's
        # coefficients against s_star; x_0 - x_i sums the first i steps
        n = 2
        t = theta_sequence(n)
        a10 = 1 + (2 * t[0] - 1) / t[1]
        a21 = 1 + (2 * t[1] - 1) / t[2]
        a20 = (t[1] - 1) / t[2] * (a10 - 1)
        expected = np.array([[a10, a10 + a20], [0.0, a21]])  # column i-1: x_0 - x_i over g_0, g_1
        H = ogm_stepsize_matrix(n)
        for i in (1, 2):
            led = single_inequality(H, i, STAR, "composite_h")
            for l in range(n):
                for col in (ix_g(n, l), ix_s(n, l + 1)):
                    np.testing.assert_allclose(2.0 * led.quad[ix_s_star(n), col], expected[l, i - 1], rtol=1e-15)


def _relative_gap(led: GramLedger, ref: GramLedger) -> float:
    return max(led.residual_vs(ref)) / max(ref.max_abs(), 1.0)


class TestCocoBlock:
    """The matrix-form assembly against the per-inequality oracle."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), mode=st.sampled_from(sorted(MODES)))
    def test_matches_per_inequality_sum(self, data, n, mode):
        smooth, composite, coupled_star = MODES[mode]
        W = data.draw(arrays(float, (n + 2, n + 2), elements=st.floats(0.0, 10.0)), label="W")
        H = stepsizes(np.triu(data.draw(arrays(float, (n, n), elements=st.floats(-3.0, 3.0)), label="h")))
        if not smooth:
            W[:, 0] = 0.0
        led, ref = GramLedger(n), GramLedger(n)
        coco_block(led, W, H, mode)
        coco_block_reference(ref, W, H, smooth, composite, coupled_star)
        assert _relative_gap(led, ref) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), weight=st.floats(1e-3, 10.0))
    def test_nonsmooth_rejects_column_zero(self, data, n, weight):
        W = np.zeros((n + 2, n + 2))
        W[data.draw(st.integers(1, n + 1), label="row"), 0] = weight
        with pytest.raises(ValueError):
            coco_block(GramLedger(n), W, StepsizeMatrix(np.triu(np.ones((n, n)))), "composite_h")

    @pytest.mark.parametrize("origin, shape", [
        ((0, 0), (6, 5)), ((0, 0), (5, 6)), ((2, 1), (4, 3)), ((1, 5), (1, 1)), ((5, 0), (1, 1)),
        ((-1, 0), (1, 1)), ((0, -1), (1, 1)),
    ])
    def test_block_outside_the_weight_matrix_raises(self, origin, shape):
        n = 3  # the weight matrix is 5 x 5
        with pytest.raises(ValueError, match="weight block"):
            coco_block(GramLedger(n), np.ones(shape), StepsizeMatrix(np.triu(np.ones((n, n)))), "unconstrained",
                       origin=origin)

    @pytest.mark.parametrize("mode", ["bogus", "composite smooth", "composite_F"])
    def test_unknown_mode_raises(self, mode):
        n = 2
        with pytest.raises(ValueError, match="unknown mode"):
            coco_block(GramLedger(n), np.ones((n + 2, n + 2)), StepsizeMatrix(np.triu(np.ones((n, n)))), mode)

    def test_weights_are_read_and_their_diagonal_ignored(self):
        n = 4
        rng = np.random.default_rng(4)
        H = StepsizeMatrix(np.triu(rng.standard_normal((n, n))))
        weights = rng.random((n + 1, n))
        weights.setflags(write=False)
        given_weights = weights.copy()
        led = GramLedger(n)
        coco_block(led, weights, H, "composite_f", origin=(1, 1))
        np.testing.assert_array_equal(weights, given_weights)
        off_diagonal = np.zeros((n + 2, n + 2))
        off_diagonal[1:, 1 : n + 1] = weights
        np.fill_diagonal(off_diagonal, 0.0)
        ref = GramLedger(n)
        coco_block(ref, off_diagonal, H, "composite_f")
        for name in ("quad", "lin_f", "lin_h"):
            np.testing.assert_array_equal(getattr(led, name), getattr(ref, name))

    @pytest.mark.parametrize("algo,size", [("silver", 3), ("ogm", 9), ("gsw", 3), ("ogmg", 9)])
    def test_identity_ledgers_match_oracle(self, monkeypatch, algo, size):
        H = FAMILIES[algo].schedule(size)
        cert = FAMILIES[algo].certificate(size)
        if FAMILIES[algo].metric == "func":
            lifted = lift.lift_func(H, cert, xi=FAMILIES[algo].xi(size))
            calls = [(certificates.func_identity_ledgers, (H, cert)), (lift.composite_func_ledgers, (H, cert, lifted))]
        else:
            lifted = lift.lift_grad(H, cert, xi=FAMILIES[algo].xi(size))
            calls = [(certificates.grad_identity_ledgers, (H, cert)), (lift.composite_grad_ledgers, (H, cert, lifted))]
        fast = [fn(*args) for fn, args in calls]
        monkeypatch.setattr(certificates, "coco_block", placed(coco_block_reference))
        monkeypatch.setattr(lift, "coco_block", placed(coco_block_reference))
        for (fn, args), sides in zip(calls, fast):
            for led, ref in zip(sides, fn(*args)):
                assert _relative_gap(led, ref) <= 1e-12


    @pytest.mark.parametrize("algo, size", [(algo, n) for algo in ("ogm", "ogmg") for n in (2, 3, 5, 8, 16)])
    def test_catalog_blocks_are_within_an_ulp_of_the_exact_sum(self, algo, size):
        """Each block of a cell's identities (the certificate's smooth
        inequalities along the plain method and its composite extension, and
        the lift's nonsmooth ones) lies within one ulp of its largest
        coefficient from the exact sum of the same float inputs.  At these
        sizes the step term is the product with H's entries, which reads at
        most 0.96 ulps here (1.35 over ogm/ogmg n <= 32).  Through H's
        factors, whose exact product is up to 3.4 ulps from the float
        entries, it read up to 1.36 here, which is why small matrices off
        their diagonal keep the product."""
        family = FAMILIES[algo]
        H, cert = family.schedule(size), family.certificate(size)
        func = family.metric == "func"
        mu = (lift.lift_func if func else lift.lift_grad)(H, cert, family.xi(size)).mu
        n = cert.n
        for mode, weights, (top, left) in (("unconstrained", cert.lam, (0, 0)), ("composite_f", cert.lam, (0, 0)),
                                           ("composite_h", mu, (1, 1) if func else (0, 1))):
            W = np.zeros((n + 2, n + 2))
            W[top : top + weights.shape[0], left : left + weights.shape[1]] = weights
            led = GramLedger(n, composite=MODES[mode][1])
            coco_block(led, W, H, mode)
            assert distance(led, exact_coco_block(W, H, mode)) <= np.spacing(led.max_abs()), mode


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestUnconstrainedBasis:
    """An unconstrained identity lives on the leading n+2 symbols."""

    @pytest.mark.parametrize("algo,size", [("silver", 3), ("ogm", 9), ("gsw", 3), ("ogmg", 9), ("ogm", 70)])
    def test_identity_ledgers_are_the_leading_block_of_the_full_basis(self, monkeypatch, algo, size):
        family = FAMILIES[algo]
        H, cert = family.schedule(size), family.certificate(size)
        n = cert.n
        identity = certificates.func_identity_ledgers if family.metric == "func" else certificates.grad_identity_ledgers
        sides = identity(H, cert)
        for led in sides:
            assert led.quad.shape == (n + 2, n + 2)
        monkeypatch.setattr(certificates, "GramLedger", lambda n, composite=True: GramLedger(n))
        for led, full in zip(sides, identity(H, cert)):
            assert full.quad.shape == (2 * n + 3, 2 * n + 3)
            assert _bits(full.quad[: n + 2, : n + 2]) == _bits(led.quad)
            outside = full.quad.copy()
            outside[: n + 2, : n + 2] = 0.0
            assert _bits(outside) == _bits(np.zeros_like(outside))  # +0.0, never written
            assert _bits(full.lin_f) == _bits(led.lin_f) and _bits(full.lin_h) == _bits(led.lin_h)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9))
    def test_unconstrained_block_is_the_leading_block(self, data, n):
        W = data.draw(arrays(float, (n + 2, n + 2), elements=st.floats(-4.0, 4.0)), label="W")
        H = stepsizes(np.triu(data.draw(arrays(float, (n, n), elements=st.floats(-3.0, 3.0)), label="h")))
        led, full = GramLedger(n, composite=False), GramLedger(n)
        coco_block(led, W, H, "unconstrained")
        coco_block(full, W, H, "unconstrained")
        assert _bits(full.quad[: n + 2, : n + 2]) == _bits(led.quad)
        assert not full.quad[n + 2 :].any() and not full.quad[:, n + 2 :].any()
        assert _bits(full.lin_f) == _bits(led.lin_f)

    @pytest.mark.parametrize("mode", ["composite_f", "composite_h"])
    def test_composite_mode_on_an_unconstrained_ledger_raises(self, mode):
        n = 3
        led = GramLedger(n, composite=False)
        with pytest.raises(ValueError, match="composite basis"):
            coco_block(led, np.ones((1, 1)), StepsizeMatrix(np.triu(np.ones((n, n)))), mode, origin=(1, 2))
        assert not led.quad.any() and not led.lin_f.any() and not led.lin_h.any()

    @pytest.mark.parametrize("other", [GramLedger(3), GramLedger(4, composite=False), GramLedger(2)])
    def test_residual_vs_a_ledger_of_another_shape_raises(self, other):
        led = GramLedger(3, composite=False)
        with pytest.raises(ValueError, match="shapes"):
            led.residual_vs(other)
        with pytest.raises(ValueError, match="shapes"):
            other.residual_vs(led)


class TestNonnegativitySampling:
    def test_composite_cocoercivities_nonnegative(self):
        # 100 seeded l1-regularized least-squares instances
        n = 3
        h = ogm_stepsize_matrix(n)
        pairs = [(i, j) for i in list(range(n + 1)) + [STAR] for j in range(n + 1) if i != j]
        pairs += [(i, j) for i in list(range(1, n + 1)) + [STAR] for j in range(1, n + 1) if i != j]
        worst = 0.0
        for seed in range(100):
            spec = ProblemSpec(kind="lasso", dim=6, rows=9, seed=seed, tau=0.2)
            problem = make_problem(spec)
            trace = run_composite(h, problem, initial_point(spec))
            vectors, f_vals, h_vals = basis_realization(trace, problem)
            for idx, (i, j) in enumerate(pairs):
                mode = "composite_f" if idx < (n + 2) * (n + 1) - (n + 1) else "composite_h"
                led = single_inequality(h, i, j, mode)
                worst = min(worst, evaluate(led, vectors, f_vals, h_vals))
        assert worst >= -1e-9

    def test_smooth_and_nonsmooth_split(self):
        # same data, explicit mode split: Qf and Qh each nonnegative
        n = 2
        h = ogm_stepsize_matrix(n)
        spec = ProblemSpec(kind="lasso", dim=5, rows=8, seed=11, tau=0.3)
        problem = make_problem(spec)
        trace = run_composite(h, problem, initial_point(spec))
        vectors, f_vals, h_vals = basis_realization(trace, problem)
        for i in list(range(n + 1)) + [STAR]:
            for j in range(n + 1):
                if i == j:
                    continue
                val = evaluate(single_inequality(h, i, j, "composite_f"), vectors, f_vals, h_vals)
                assert val >= -1e-9
        for i in list(range(1, n + 1)) + [STAR]:
            for j in range(1, n + 1):
                if i == j:
                    continue
                val = evaluate(single_inequality(h, i, j, "composite_h"), vectors, f_vals, h_vals)
                assert val >= -1e-9


class TestLedgerArithmetic:
    def test_square_accumulator(self):
        led = GramLedger(1)
        c = np.zeros(5)
        c[ix_dist(1)] = 1.0
        c[ix_g(1, 0)] = -2.0
        led.add_square(c, 0.5)
        np.testing.assert_allclose(led.quad, 0.5 * np.outer(c, c))

    def test_block_accumulator_symmetrizes(self):
        led = GramLedger(1)
        idx = np.array([ix_s(1, 1), ix_s_star(1)])
        block = np.array([[1.0, 2.0], [0.0, 3.0]])
        led.add_block(idx, block, 1.0)
        assert led.quad[idx[0], idx[1]] == led.quad[idx[1], idx[0]] == 1.0

    @pytest.mark.parametrize("indices", [[1, 1], [2, 0, 3, 2]])
    def test_block_accumulator_rejects_repeated_indices(self, indices):
        # a repeated position would add its contributions once, not summed
        led = GramLedger(1)
        with pytest.raises(ValueError, match="distinct"):
            led.add_block(np.array(indices), np.ones((len(indices), len(indices))), 1.0)
        assert not led.quad.any()

    @pytest.mark.parametrize("index", [-1, 5])
    def test_block_accumulator_rejects_positions_outside_the_basis(self, index):
        with pytest.raises(IndexError):
            GramLedger(1).add_block(np.array([0, index]), np.ones((2, 2)), 1.0)

    def test_residual_and_scale(self, H3):
        a = single_inequality(H3, 0, 1, "unconstrained")
        b = single_inequality(H3, 0, 1, "unconstrained")
        b.lin_f[0] += 1e-3
        quad, lin_f, lin_h = a.residual_vs(b)
        assert quad == 0.0 and lin_h == 0.0
        assert abs(lin_f - 1e-3) < 1e-15
        assert a.max_abs() >= 1.0
