import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peplift.schedules import (
    SILVER_RATIO,
    ScheduleSpec,
    StepsizeMatrix,
    from_diagonal,
    gsw_schedule,
    gsw_taus,
    load_schedule_json,
    ogm_stepsize_matrix,
    ogmg_stepsize_matrix,
    phi_sequence,
    silver_schedule,
    theta_sequence,
)
from reference_forms import (
    ogm_factored,
    ogmg_factored,
    silver_schedule_recursive,
    theta_sequence_plain,
    u_matrix,
)

RHO = SILVER_RATIO


class TestSilver:
    def test_first_order(self):
        np.testing.assert_allclose(silver_schedule(1), [math.sqrt(2.0)], rtol=0, atol=0)

    def test_second_order(self):
        np.testing.assert_allclose(silver_schedule(2), [math.sqrt(2.0), 2.0, math.sqrt(2.0)], atol=1e-15)

    def test_third_order_both_constructions(self):
        # closed form and doubling recursion evaluated independently
        expected = [math.sqrt(2), 2, math.sqrt(2), 1 + RHO, math.sqrt(2), 2, math.sqrt(2)]
        np.testing.assert_allclose(silver_schedule(3), expected, atol=1e-15)
        np.testing.assert_allclose(silver_schedule_recursive(3), expected, atol=1e-15)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_closed_form_matches_recursion(self, k):
        a, b = silver_schedule(k), silver_schedule_recursive(k)
        assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(a)))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            silver_schedule(0)
        with pytest.raises(ValueError):
            silver_schedule_recursive(-1)


class TestGsw:
    def test_first_order(self):
        sched = gsw_schedule(1)
        np.testing.assert_allclose(sched.steps, [1.5])
        assert sched.tau == 4.0
        assert sched.etas.size == 0

    def test_second_order_direct_recursion(self):
        tau2 = 0.5 * (4 + 4 * RHO + math.sqrt(16 + 32 * RHO))
        eta1 = 1 + (math.sqrt(16 + 32 * RHO) - 4) / 4
        sched = gsw_schedule(2)
        assert sched.steps.shape == (3,)
        np.testing.assert_allclose(sched.steps, [1.5, eta1, math.sqrt(2)], rtol=1e-15)
        np.testing.assert_allclose(sched.tau, tau2, rtol=1e-15)

    def test_eta_identity(self):
        # eta_k = 1 + rho^k (1 - 2 rho^k / tau_{k+1})
        taus = gsw_taus(9)
        etas = gsw_schedule(9).etas
        for k in range(1, 9):
            lhs = etas[k - 1]
            rhs = 1 + RHO**k * (1 - 2 * RHO**k / taus[k])
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gsw_schedule(0)


class TestTheta:
    def test_n1(self):
        np.testing.assert_allclose(theta_sequence(1), [1.0, 2.0])

    def test_n2_direct(self):
        phi = (1 + math.sqrt(5)) / 2
        expected = [1.0, phi, (1 + math.sqrt(1 + 8 * phi**2)) / 2]
        np.testing.assert_allclose(theta_sequence(2), expected, rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64, 127])
    def test_recurrence_residuals(self, n):
        # relative residuals of the interior recurrence and of the boosted last step
        t = theta_sequence(n)
        interior = (t[1:n] ** 2 - t[1:n] - t[: n - 1] ** 2) / np.maximum(1.0, t[1:n] ** 2)
        last = (t[n] ** 2 - t[n] - 2.0 * t[n - 1] ** 2) / max(1.0, t[n] ** 2)
        assert np.max(np.abs(np.append(interior, last))) < 1e-12

    def test_quadratic_growth(self):
        t = theta_sequence(200)
        assert 0.9 <= t[-1] ** 2 / (200**2 / 2) <= 1.1

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            theta_sequence(0)

    @pytest.mark.parametrize("n", [*range(1, 65), 127, 128, 255, 256, 511, 512, 1023, 1024, 2047, 2048, 4096])
    def test_matches_numpy_scalar_recursion(self, n):
        assert np.array_equal(theta_sequence(n), theta_sequence_plain(n))

    def test_read_only(self):
        t = theta_sequence(3)
        with pytest.raises(ValueError):
            t[0] = 2.0


def _ogm_matrix_oracle(n):
    """Straight transcription of the three-case column recursion."""
    t = theta_sequence(n)
    alpha = {}
    for i in range(n):  # builds step i+1
        alpha[(i + 1, i)] = 1 + (2 * t[i] - 1) / t[i + 1]
        for j in range(i):
            if j == i - 1:
                alpha[(i + 1, j)] = (t[i] - 1) / t[i + 1] * (alpha[(i, i - 1)] - 1)
            else:
                alpha[(i + 1, j)] = (t[i] - 1) / t[i + 1] * alpha[(i, j)]
    out = np.zeros((n, n))
    for (k, j), val in alpha.items():
        out[j, k - 1] = val
    return out


def _ogmg_matrix_oracle(n):
    t = theta_sequence(n)
    alpha = {}
    for i in range(n):
        alpha[(i + 1, i)] = 1 + (2 * t[n - i - 1] - 1) / t[n - i]
        for j in range(i - 1, -1, -1):
            if j == i - 1:
                alpha[(i + 1, j)] = (t[n - j - 1] - 1) / t[n - j] * (alpha[(i + 1, i)] - 1)
            else:
                alpha[(i + 1, j)] = (t[n - j - 1] - 1) / t[n - j] * alpha[(i + 1, j + 1)]
    out = np.zeros((n, n))
    for (k, j), val in alpha.items():
        out[j, k - 1] = val
    return out


class TestOgmMatrices:
    def test_ogm_n1(self):
        np.testing.assert_allclose(ogm_stepsize_matrix(1).entries, [[1.5]])

    def test_ogmg_n1(self):
        np.testing.assert_allclose(ogmg_stepsize_matrix(1).entries, [[1.5]])

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_ogm_against_independent_recursion(self, n):
        np.testing.assert_allclose(ogm_stepsize_matrix(n).entries, _ogm_matrix_oracle(n), rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_ogmg_against_independent_recursion(self, n):
        np.testing.assert_allclose(ogmg_stepsize_matrix(n).entries, _ogmg_matrix_oracle(n), rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 21, 64, 512])
    def test_factorizations(self, n):
        h = ogm_stepsize_matrix(n).entries
        assert np.max(np.abs(h - ogm_factored(n))) <= 1e-10 * max(1.0, np.max(np.abs(h)))
        hg = ogmg_stepsize_matrix(n).entries
        assert np.max(np.abs(hg - ogmg_factored(n))) <= 1e-10 * max(1.0, np.max(np.abs(hg)))
        # the factors the library carries multiply to the entries and keep their zeros
        for H in (ogm_stepsize_matrix(n), ogmg_stepsize_matrix(n)):
            product = H.apply(np.eye(n))
            assert np.max(np.abs(product - H.entries)) <= 1e-14 * np.max(np.abs(H.entries))
            assert np.all(product[H.entries == 0.0] == 0.0)

    def test_phi_last_entry(self):
        t = theta_sequence(5)
        phi = phi_sequence(t)
        assert phi[-1] == 1 + t[4] / t[5]
        np.testing.assert_allclose(phi[:-1], 1 + t[:4] / (2 * t[1:5]))


class TestUMatrix:
    def test_all_ones(self):
        np.testing.assert_array_equal(u_matrix([1, 1, 1]), np.triu(np.ones((3, 3))))

    def test_shape_and_pattern(self):
        m = u_matrix([2.0, -3.0])
        np.testing.assert_array_equal(m, [[2.0, 1.0], [0.0, -3.0]])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.1, max_value=10).map(lambda v: v * (-1) ** int(v * 10)), min_size=1, max_size=8))
    @example(diag=[-0.1015625, -0.125, -0.125, -0.125, -0.1015625])  # cond 2e5: float m @ inv(m) misses I by 1.3e-12
    def test_inverse_identity(self, diag):
        # exact rationals, so the check does not depend on the conditioning
        m = [[Fraction(v) for v in row] for row in u_matrix(diag).tolist()]
        n = len(m)
        inv = [[Fraction(0)] * n for _ in range(n)]
        for col in range(n):  # back substitution for m x = e_col
            for i in range(n - 1, -1, -1):
                rest = sum(m[i][k] * inv[k][col] for k in range(i + 1, n))
                inv[i][col] = (int(i == col) - rest) / m[i][i]
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == eye
        assert [[sum(inv[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == eye


class TestStepsizeMatrixInvariants:
    def test_rejects_lower_triangle(self):
        with pytest.raises(ValueError, match="upper triangular"):
            StepsizeMatrix(np.array([[1.0, 0.0], [0.5, 1.0]]))

    def test_rejects_zero_diagonal(self):
        with pytest.raises(ValueError, match="nonzero"):
            StepsizeMatrix(np.array([[1.0, 2.0], [0.0, 0.0]]))

    def test_entries_read_only(self):
        h = from_diagonal([1.0, 2.0])
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0

    def test_default_factors(self):
        assert [f.kind for f in from_diagonal([1.0, 2.0]).factors] == ["diag"]
        assert [f.kind for f in StepsizeMatrix(ogm_stepsize_matrix(3).entries).factors] == ["dense"]
        assert [f.kind for f in ogm_stepsize_matrix(3).factors] == ["diag", "upper", "upper_inv"]
        assert [f.kind for f in ogmg_stepsize_matrix(3).factors] == ["upper_inv", "upper", "diag"]

    @pytest.mark.parametrize("factors", [
        (("lower", np.ones(2)),),
        (("diag", np.ones(3)),),
        (("dense", np.eye(2)[:1]),),
    ])
    def test_rejects_malformed_factors(self, factors):
        with pytest.raises(ValueError, match="factor"):
            StepsizeMatrix(np.eye(2), factors)

    @pytest.mark.parametrize("H", [
        from_diagonal([1.5, -2.0, 0.25]),
        ogm_stepsize_matrix(9),
        ogmg_stepsize_matrix(9),
        StepsizeMatrix(ogm_stepsize_matrix(9).entries),
    ], ids=["diag", "ogm", "ogmg", "dense"])
    @pytest.mark.parametrize("columns", [1, 4])
    def test_apply_and_solve_are_inverse(self, H, columns):
        x = np.random.default_rng(columns).standard_normal((H.n, columns))
        np.testing.assert_allclose(H.apply(x.copy()), H.entries @ x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(H.solve(H.entries @ x), x, rtol=0, atol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_upper_triangular_invertible(self, n, seed):
        rng = np.random.default_rng(seed)
        m = np.triu(rng.standard_normal((n, n)))
        m[np.diag_indices(n)] = np.where(np.abs(np.diag(m)) < 0.1, 1.0, np.diag(m))
        h = StepsizeMatrix(m)
        assert np.linalg.matrix_rank(h.entries) == n


class TestScheduleSpec:
    @pytest.mark.parametrize(
        "spec",
        [ScheduleSpec.silver(k) for k in range(1, 8)]
        + [ScheduleSpec.gsw(k) for k in range(1, 8)]
        + [ScheduleSpec.ogm(n) for n in (1, 2, 17, 127)]
        + [ScheduleSpec.ogmg(n) for n in (1, 2, 17, 127)]
        + [ScheduleSpec.constant_gd(0.3, 11)],
    )
    def test_diagonal_nonzero_and_invertible(self, spec):
        assert spec.n <= 127
        h = spec.build()
        assert np.all(np.diag(h.entries) != 0.0)
        assert np.isfinite(np.linalg.cond(h.entries))

    def test_silver_requires_power_of_two_length(self):
        with pytest.raises(ValueError, match="2\\*\\*k - 1"):
            ScheduleSpec(kind="silver", n=5, k=2)

    def test_constant_requires_positive_step(self):
        with pytest.raises(ValueError):
            ScheduleSpec.constant_gd(0.0, 3)

    def test_custom_json_diagonal(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"kind": "custom", "n": 3, "diagonal": [1.0, 2.0, 0.5]}))
        spec = load_schedule_json(path)
        np.testing.assert_array_equal(spec.build().entries, np.diag([1.0, 2.0, 0.5]))

    def test_custom_json_matrix(self, tmp_path):
        path = tmp_path / "sched.json"
        mat = [[1.5, 0.25], [0.0, 1.1]]
        path.write_text(json.dumps({"kind": "custom", "n": 2, "matrix": mat}))
        np.testing.assert_array_equal(load_schedule_json(path).build().entries, mat)

    def test_custom_json_rejects_mismatched_n(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"kind": "custom", "n": 2, "diagonal": [1.0]}))
        with pytest.raises(ValueError, match="does not match"):
            load_schedule_json(path)

    @pytest.mark.parametrize("text", [
        '{"kind": "custom", "n": 2, "diagonal": [1.0, NaN]}',
        '{"kind": "custom", "n": 1, "diagonal": [Infinity]}',
        '{"kind": "custom", "n": 2, "matrix": [[1.0, -Infinity], [0.0, 1.0]]}',
    ])
    def test_custom_json_rejects_non_finite_literals(self, tmp_path, text):
        path = tmp_path / "sched.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="must be finite"):
            load_schedule_json(path)

    def test_custom_json_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"kind": "silver", "n": 1, "diagonal": [1.0]}))
        with pytest.raises(ValueError, match="custom"):
            load_schedule_json(path)
