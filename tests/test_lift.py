import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peplift import catalog, config
from peplift import certificates as certificates_module
from peplift import lift as lift_module
from peplift.catalog import FAMILIES
from peplift.certificates import (
    FuncCertificate,
    GradCertificate,
    aggregates,
    func_identity_ledgers,
    gsw_grad_certificate,
    ogm_func_certificate,
    ogmg_grad_certificate,
    silver_func_certificate,
)
from peplift.cli import main
from peplift.ledger import ix_dist, ix_g
from peplift.lift import (
    CompositeLift,
    _sigma,
    certified_rate,
    check_func_feasibility,
    check_grad_feasibility,
    composite_func_ledgers,
    lift_func,
    lift_grad,
    pseudoinverse_xi,
    verify_cell,
    verify_composite_func_identity,
    verify_composite_grad_identity,
)
from peplift.schedules import (
    SILVER_RATIO,
    Factor,
    StepsizeMatrix,
    from_diagonal,
    gsw_schedule,
    gsw_taus,
    ogm_stepsize_matrix,
    ogmg_stepsize_matrix,
    silver_schedule,
    theta_sequence,
)
from reference_forms import (
    diag_dominance_margin_plain,
    laplacian_violations_plain,
    partial_sum_kernel,
    perturbed_func_lift,
)
from structural_checks import grad_base_block

RHO = SILVER_RATIO
SQ2 = math.sqrt(2.0)
SQ5 = math.sqrt(5.0)


def silver_lift(k, xi=None):
    H = from_diagonal(silver_schedule(k))
    cert = silver_func_certificate(k)
    return H, cert, lift_func(H, cert, xi=FAMILIES["silver"].xi(k) if xi is None else xi)


def ogm_lift(n, xi=None):
    H = ogm_stepsize_matrix(n)
    cert = ogm_func_certificate(n)
    return H, cert, lift_func(H, cert, xi=FAMILIES["ogm"].xi(n) if xi is None else xi)


def gsw_lift(k, xi="generic"):
    H = from_diagonal(gsw_schedule(k))
    cert = gsw_grad_certificate(k)
    if xi == "generic":
        return H, cert, lift_grad(H, cert)
    return H, cert, lift_grad(H, cert, xi=FAMILIES["gsw"].xi(k) if xi is None else xi)


def ogmg_lift(n):
    H = ogmg_stepsize_matrix(n)
    cert = ogmg_grad_certificate(n)
    return H, cert, lift_grad(H, cert)


class TestFuncLiftStructure:
    def test_silver_k1_sigma(self):
        _, cert, _ = silver_lift(1)
        np.testing.assert_allclose(_sigma(cert), [SQ2, 1.0], rtol=1e-15)
        assert abs(_sigma(cert).sum() - cert.gamma[-1]) < 1e-14  # = rho

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 33])
    def test_ogm_sigma_closed_form(self, n):
        _, cert, _ = ogm_lift(n)
        t = theta_sequence(n)
        expected = np.concatenate([np.zeros(n - 1), [t[n] - 1.0, 1.0]])
        np.testing.assert_allclose(_sigma(cert), expected, atol=1e-12)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_silver_v_is_signed_pair(self, k):
        _, _, lifted = silver_lift(k)
        n = 2**k - 1
        expected = np.zeros(n + 1)
        expected[0] = -1.0
        expected[n] = 1.0
        np.testing.assert_allclose(lifted.slack[1:, 0], expected, atol=1e-10)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_sigma_sums_to_gamma_tail(self, k):
        _, cert, _ = silver_lift(k)
        assert abs(_sigma(cert).sum() - cert.gamma[-1]) < 1e-10

    @pytest.mark.parametrize("algo,size", [("silver", 3), ("silver", 5), ("ogm", 2), ("ogm", 17)])
    def test_row_sum_identities(self, algo, size):
        if algo == "silver":
            _, cert, lifted = silver_lift(size)
        else:
            _, cert, lifted = ogm_lift(size)
        n = cert.n
        target = np.zeros(n)
        target[-1] = -cert.r
        # mu's columns sum to minus the diagonal its rows drop, so this is the solve's row sums
        row_sums = lifted.mu[:n].sum(axis=1) - lifted.mu.sum(axis=0)
        np.testing.assert_allclose(row_sums, target, atol=1e-9 * max(1.0, cert.r))
        # total optimum-row mass and zero total for v
        assert abs(lifted.mu[n].sum() - cert.r) < 1e-9 * max(1.0, cert.r)
        assert abs(lifted.slack[1:, 0].sum()) < 1e-10 * max(1.0, cert.r)

    @pytest.mark.parametrize("algo,size", [("silver", 4), ("ogm", 8)])
    def test_laplacian_structure(self, algo, size):
        _, _, lifted = silver_lift(size) if algo == "silver" else ogm_lift(size)
        laplacian = lifted.slack[1:, 1:]
        off, row = laplacian_violations_plain(laplacian)
        scale = max(1.0, float(np.max(np.abs(laplacian))))
        assert off <= config.LAPLACIAN_TOL * scale and row <= config.LAPLACIAN_TOL * scale

    def test_degenerate_gamma_rejected(self):
        cert = silver_func_certificate(1)
        broken = silver_func_certificate(1)
        gamma = np.array(broken.gamma)
        gamma[-1] = 0.0
        bad = FuncCertificate(lam=cert.lam, gamma=gamma, r=cert.r)
        with pytest.raises(ValueError, match="degenerate"):
            lift_func(from_diagonal(silver_schedule(1)), bad, xi=0.5)


def corrupted_silver_certificate() -> FuncCertificate:
    """The silver k=2 certificate with lam[0, 2] raised by 0.05."""
    cert = silver_func_certificate(2)
    lam = np.array(cert.lam)
    lam[0, 2] += 0.05
    return FuncCertificate(lam=lam, gamma=cert.gamma, r=cert.r)


class TestVerifiersJudge:
    """The lift computes a lift from any certificate; only the verifiers say
    whether the certificate holds."""

    def test_corrupted_certificate_lifts_and_fails_the_composite_identity(self):
        H, bad = from_diagonal(silver_schedule(2)), corrupted_silver_certificate()
        lifted = lift_func(H, bad, xi=0.5)
        assert not verify_composite_func_identity(H, bad, lifted).passed

    @pytest.mark.parametrize("algo,size", [("silver", 2), ("ogm", 5)])
    def test_every_off_diagonal_bump_fails_the_cell(self, algo, size):
        family = FAMILIES[algo]
        H, cert = family.schedule(size), family.certificate(size)
        n = cert.n
        for i in range(n + 2):
            for j in range(n + 1):
                if i == j:
                    continue  # the constructor rejects a nonzero lam[i, i]
                lam = np.array(cert.lam)
                lam[i, j] += 1e-3
                bad = FuncCertificate(lam=lam, gamma=cert.gamma, r=cert.r)
                assert not verify_cell(H, bad, family.xi(size)).passed, (i, j)

    @pytest.mark.parametrize("command", ["certify", "lift"])
    def test_corrupted_certificate_exits_one(self, monkeypatch, command):
        monkeypatch.setattr(catalog, "silver_func_certificate", lambda k: corrupted_silver_certificate())
        assert main([command, "--algo", "silver", "--metric", "func", "--k", "2"]) == 1


class TestSizesMatch:
    """A stepsize matrix and a certificate of different step counts make
    no proof; each consumer of the pair rejects it, naming both counts."""

    @pytest.mark.parametrize("steps, cert_n", [(4, 5), (6, 5)])
    @pytest.mark.parametrize("consumer", [
        lambda H, n: lift_func(H, ogm_func_certificate(n), 0.3),
        lambda H, n: lift_grad(H, ogmg_grad_certificate(n), None),
        lambda H, n: certificates_module._smooth_ledger(H, ogm_func_certificate(n), composite=False),
        lambda H, n: certificates_module._smooth_ledger(H, ogmg_grad_certificate(n), composite=True),
    ], ids=["lift_func", "lift_grad", "smooth_ledger-func", "smooth_ledger-grad"])
    def test_mismatched_step_counts_are_rejected(self, consumer, steps, cert_n):
        with pytest.raises(ValueError, match=f"^stepsize matrix is {steps}-step but certificate has n={cert_n}$"):
            consumer(ogm_stepsize_matrix(steps), cert_n)


def ogmg3_with_corner(pair: float) -> GradCertificate:
    """The ogmg n=3 certificate with lam[2, 3] and lam[3, 2] set to pair each."""
    cert = ogmg_grad_certificate(3)
    lam = np.array(cert.lam)
    lam[2, 3] = lam[3, 2] = pair
    return GradCertificate(lam=lam, r=cert.r)


class TestXiContract:
    """Every xi a lift uses, given or default, is checked before it is used."""

    @pytest.mark.parametrize("share, xi", [(0.0, r"1\.0"), (1.0, r"-1\.0")], ids=["zero", "above-r"])
    def test_default_grad_xi_out_of_range_raises(self, share, xi):
        bad = ogmg3_with_corner(share * ogmg_grad_certificate(3).r)  # corner sum 0 or 2r
        with pytest.raises(ValueError, match=r"lam\[2, 3\] \+ lam\[3, 2\]\) / r = " + xi):
            verify_cell(ogmg_stepsize_matrix(3), bad)

    def test_default_grad_xi_out_of_range_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(catalog, "ogmg_grad_certificate", lambda n: ogmg3_with_corner(0.0))
        assert main(["lift", "--algo", "ogmg", "--metric", "grad", "--n", "3"]) == 2
        assert "lam[2, 3] + lam[3, 2]" in capsys.readouterr().err

    def test_func_xi_none_raises_value_error(self):
        H, cert = from_diagonal(silver_schedule(2)), silver_func_certificate(2)
        with pytest.raises(ValueError, match="xi must be 'pseudo' or positive"):
            verify_cell(H, cert)
        # a family row lifts at its own xi when none is given
        assert FAMILIES["silver"].cell(2).lifted.xi == FAMILIES["silver"].xi(2)

    @pytest.mark.parametrize("xi", [[0.5], b"pseudo", complex(0.5, 0.0)], ids=["list", "bytes", "complex"])
    def test_non_number_xi_raises_value_error(self, xi):
        H, cert = from_diagonal(silver_schedule(2)), silver_func_certificate(2)
        with pytest.raises(ValueError, match="xi must be"):
            lift_func(H, cert, xi)
        H, cert = ogmg_stepsize_matrix(3), ogmg_grad_certificate(3)
        with pytest.raises(ValueError, match="xi must lie in"):
            lift_grad(H, cert, xi)


class TestFuncFeasibility:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_silver_feasible_at_paper_xi(self, k):
        _, _, lifted = silver_lift(k)
        report = check_func_feasibility(lifted)
        assert report.passed and report.structural_ok
        assert abs(report.xi - 1 / SQ2) < 1e-15

    @pytest.mark.parametrize("k", range(2, 7))
    def test_silver_schur_corner_is_tight(self, k):
        _, _, lifted = silver_lift(k)
        n = lifted.n
        v = lifted.slack[1:, 0]
        schur = lifted.slack[1:, 1:] - np.outer(v, v) / lifted.xi
        assert abs(schur[0, n]) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 9, 33, 64])
    def test_ogm_feasible_and_v1_window(self, n):
        _, _, lifted = ogm_lift(n)
        report = check_func_feasibility(lifted)
        assert report.passed and report.structural_ok
        assert -(SQ5 - 1) / 2 - 1e-12 <= lifted.slack[1, 0] < -0.5

    def test_ogm_n1_footnote_values(self):
        _, _, lifted = ogm_lift(1)
        np.testing.assert_allclose(lifted.slack[1:, 1:], [[3.0, -3.0], [-3.0, 3.0]], atol=1e-12)
        assert abs(lifted.slack[1, 0] + 1.0) < 1e-12
        assert lifted.xi == pytest.approx(1.0 / 3.0)
        report = check_func_feasibility(lifted)
        assert report.passed and report.structural_ok

    def test_structural_route_judges_the_slack_it_is_given(self):
        # v and L are read from the slack, so a replaced slack is judged as it is
        _, _, lifted = ogm_lift(3)
        slack = np.array(lifted.slack)
        slack[0, 1] += 5.0
        slack[1, 0] += 5.0
        report = check_func_feasibility(dataclasses.replace(lifted, slack=slack))
        assert report.min_eig < -3.0 and not report.eig_ok and report.psd_route == "eigvalsh"
        assert not report.structural_ok

    def test_tiny_xi_fails_schur_check(self):
        _, _, lifted = silver_lift(3, xi=1e-6)
        report = check_func_feasibility(lifted)
        assert not report.structural_ok
        assert not report.eig_ok and not report.passed  # S genuinely loses PSD
        assert report.psd_route == "eigvalsh"  # the Gershgorin floor missed, so eigvalsh judged it

    def test_nonpositive_xi_rejected_in_schur_route(self):
        _, _, lifted = silver_lift(2)
        with pytest.raises(ValueError, match="xi > 0"):
            check_func_feasibility(dataclasses.replace(lifted, xi=-0.25))

    @pytest.mark.parametrize("algo,size", [("silver", 2), ("silver", 5), ("ogm", 4), ("ogm", 16)])
    def test_pseudoinverse_xi_lower_bounds_paper(self, algo, size):
        _, _, lifted = silver_lift(size, xi="pseudo") if algo == "silver" else ogm_lift(size, xi="pseudo")
        paper = FAMILIES[algo].xi(size)
        assert 0.0 < lifted.xi <= paper + 1e-12
        # eigenvalue route accepts the minimal xi even when the Laplacian one may not
        report = check_func_feasibility(lifted)
        assert report.eig_ok and report.mu_ok
        assert report.psd_route == "eigvalsh"  # a singular S with a non-Laplacian Schur complement

    def test_pseudoinverse_matches_direct_eig_computation(self):
        _, _, lifted = silver_lift(3)
        v, laplacian = lifted.slack[1:, 0], lifted.slack[1:, 1:]
        w, q = np.linalg.eigh(laplacian)
        pinv = q @ np.diag([0.0 if x < 1e-10 * w[-1] else 1.0 / x for x in w]) @ q.T
        assert abs(pseudoinverse_xi(v, laplacian) - v @ pinv @ v) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 8, 32])
    def test_ogm_slack_constant_ordering(self, n):
        # eigenvalue-minimal xi <= smallest Laplacian-route xi <= default;
        # the Laplacian-route floor is the corner condition -v_1/2, which has
        # a closed form for n >= 3
        _, _, lifted = ogm_lift(n, xi="pseudo")
        schur_floor = -lifted.slack[1, 0] / 2.0
        closed = (15 * SQ5 - 17 - math.sqrt(1942 - 862 * SQ5)) / 44
        assert lifted.xi <= schur_floor <= FAMILIES["ogm"].xi(n) + 1e-12
        assert schur_floor == pytest.approx(closed, rel=1e-12)
        _, _, at_floor = ogm_lift(n, xi=schur_floor)
        assert check_func_feasibility(at_floor).structural_ok


def route_floor(lifted) -> float:
    """The Gershgorin floor the feasibility check of lifted computes, whether
    or not it clears the bar."""
    floors = []
    judge = lift_module._feasibility
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lift_module, "_feasibility",
                      lambda lift, ok, floor: floors.append(floor) or judge(lift, ok, floor))
        (check_func_feasibility if lifted.metric == "func" else check_grad_feasibility)(lifted)
    return floors[0]


def min_eig_50_digits(slack: np.ndarray):
    """The least eigenvalue of the float matrix slack, at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return min(mpmath.eigsy(mpmath.matrix(slack.tolist()), eigvals_only=True))


def floor_is_below_lambda_min_at_50_digits(slack: np.ndarray, floor: float) -> bool:
    """Whether floor <= lambda_min(slack), at 50 digits: a Cholesky
    factorization of slack - floor I proves it, and when a pivot misses
    (floor at or above lambda_min, or too close to it for a pivot to
    clear mpmath's tolerance), the eigenvalues decide."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        shifted = mpmath.matrix(slack.tolist()) - floor * mpmath.eye(slack.shape[0])
        try:
            mpmath.cholesky(shifted)
            return True
        except ValueError:  # not positive-definite at mpmath's tolerance
            return floor <= min_eig_50_digits(slack)


def sub_ulp_coupled(diagonal: np.ndarray, seed: int) -> np.ndarray:
    """diag(diagonal) coupled by symmetric off-diagonal entries below half an
    ulp of every diagonal entry: each computed Gershgorin row reads its
    diagonal entry exactly, while lambda_min lies below the least of them, so
    a floor that dropped its rounding bound would read above lambda_min."""
    coupling = np.random.default_rng(seed).random((diagonal.size,) * 2) * 2.0**-60
    m = coupling + coupling.T
    np.fill_diagonal(m, diagonal)
    return m


SOUNDNESS_CELLS = [(algo, size) for algo in ("silver", "gsw") for size in range(1, 7)]
SOUNDNESS_CELLS += [(algo, size) for algo in ("ogm", "ogmg") for size in (1, 2, 3, 5, 8, 64)]


class TestPsdRoute:
    """S passes on a proven Gershgorin floor on lambda_min(S), and eigvalsh
    runs only when that floor misses the bar."""

    @pytest.mark.parametrize("algo, size", SOUNDNESS_CELLS)
    def test_floor_is_below_lambda_min_at_50_digits(self, algo, size):
        family = FAMILIES[algo]
        lifted = family.cell(size).lifted
        cases = [lifted.slack]
        if lifted.n <= 8:  # seeded symmetric perturbations, from rounding-sized to large
            rng = np.random.default_rng(lifted.n)
            for scale in (1e-15, 1e-9, 1e-3):
                noise = rng.standard_normal(lifted.slack.shape) * scale * np.max(np.abs(lifted.slack))
                cases.append(lifted.slack + noise + noise.T)
        for slack in cases:
            floor = route_floor(dataclasses.replace(lifted, slack=slack))
            assert floor_is_below_lambda_min_at_50_digits(slack, floor), (algo, size, floor)

    @pytest.mark.parametrize("algo, size", [("silver", 2), ("gsw", 3), ("ogm", 8), ("ogmg", 5)])
    def test_a_floor_above_lambda_min_fails_the_50_digit_check(self, algo, size):
        slack = FAMILIES[algo].cell(size).lifted.slack
        lam = float(min_eig_50_digits(slack))
        gap = 1e-9 * float(np.max(np.abs(slack)))
        assert floor_is_below_lambda_min_at_50_digits(slack, lam - gap)
        assert not floor_is_below_lambda_min_at_50_digits(slack, lam + gap)

    @pytest.mark.parametrize("size", [2, 5, 33])
    def test_floor_covers_the_rounding_of_its_row_sums(self, size):
        diagonal = np.random.default_rng(size).uniform(1.0, 2.0, size)
        slack = np.zeros((size + 1, size + 1))  # S = [[xi, 0], [0, L]], L with negative eigenvalues
        slack[0, 0] = 0.5
        slack[1:, 1:] = sub_ulp_coupled(-diagonal, size)
        mu = np.zeros((size, size - 1))
        for lifted in (CompositeLift("grad", size - 1, mu, 0.0, sub_ulp_coupled(diagonal, size), 1.0),
                       CompositeLift("func", size - 1, mu, 0.5, slack, 1.0)):
            assert floor_is_below_lambda_min_at_50_digits(lifted.slack, route_floor(lifted)), lifted.metric

    def test_paper_xi_never_runs_an_eigen_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigen-decomposition called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for algo, family in FAMILIES.items():
            # the sweep grid's sizes and the lift-large benchmark's
            sizes = [*range(1, 6), 9] if family.size_flag == "k" else [*range(1, 33), 512]
            for size in sizes:
                cell = family.cell(size)
                assert cell.passed and cell.feasibility.psd_route == "gershgorin", (algo, size)

    def test_pseudo_xi_and_tiny_xi_take_eigvalsh(self, tmp_path):
        out = tmp_path / "lift.json"
        report = ["--json", str(out)]
        assert main(["lift", "--algo", "ogm", "--metric", "func", "--n", "6", "--xi", "pseudo", *report]) == 0
        assert json.loads(out.read_text())["psd_route"] == "eigvalsh"
        assert main(["lift", "--algo", "silver", "--metric", "func", "--k", "3", "--xi", "1e-6", *report]) == 1
        doc = json.loads(out.read_text())
        assert doc["psd_route"] == "eigvalsh" and doc["pass"] is False


class TestCompositeFuncIdentity:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_silver(self, k):
        H, cert, lifted = silver_lift(k)
        assert verify_composite_func_identity(H, cert, lifted).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
    def test_ogm(self, n):
        H, cert, lifted = ogm_lift(n)
        assert verify_composite_func_identity(H, cert, lifted).passed

    def test_identity_independent_of_xi(self):
        H, cert, _ = silver_lift(2)
        for xi in (1e-3, 0.3, 2.5):
            assert verify_composite_func_identity(H, cert, lift_func(H, cert, xi)).passed

    def test_smooth_collapse_matches_unconstrained_blocks(self):
        # dropping every subgradient coordinate leaves exactly the plain
        # identity residual on the distance/gradient block
        H, cert, lifted = silver_lift(3)
        n = cert.n
        lhs_c, rhs_c = composite_func_ledgers(H, cert, lifted)
        lhs_u, rhs_u = func_identity_ledgers(H, cert)
        keep = [ix_dist(n)] + [ix_g(n, i) for i in range(n + 1)]
        diff_c = (lhs_c.quad - rhs_c.quad)[np.ix_(keep, keep)]
        diff_u = (lhs_u.quad - rhs_u.quad)[np.ix_(keep, keep)]
        # the only g-block difference between the two identities is xi/2 on
        # the squared-distance coefficient, which sits on both sides
        assert np.max(np.abs(diff_c - diff_u)) < 1e-10
        np.testing.assert_allclose(lhs_c.lin_f - rhs_c.lin_f, lhs_u.lin_f - rhs_u.lin_f, atol=1e-10)

    def test_mu_perturbation_detected(self):
        H, cert, lifted = silver_lift(2)
        n = lifted.n
        bumped = perturbed_func_lift(lifted, mu_entry=(1, 0))
        report = verify_composite_func_identity(H, cert, bumped)
        assert not report.passed and report.max_residual > 1e-4

    def test_slack_perturbation_detected(self):
        H, cert, lifted = ogm_lift(3)
        bumped = perturbed_func_lift(lifted, slack_entry=(2, 4))
        report = verify_composite_func_identity(H, cert, bumped)
        assert not report.passed and report.max_residual > 1e-4


class TestGradLift:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_gsw_feasible(self, k):
        _, _, lifted = gsw_lift(k, xi=None)
        report = check_grad_feasibility(lifted)
        assert report.passed and report.structural_ok

    @pytest.mark.parametrize("k", range(1, 7))
    def test_gsw_first_row_is_unit_vector(self, k):
        _, _, lifted = gsw_lift(k, xi=None)
        n = lifted.n
        expected = np.zeros(n)
        expected[0] = 1.0
        np.testing.assert_allclose(lifted.mu[0], expected, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
    def test_ogmg_feasible(self, n):
        _, _, lifted = ogmg_lift(n)
        report = check_grad_feasibility(lifted)
        assert report.passed and report.structural_ok

    @pytest.mark.parametrize("algo,size", [("gsw", 3), ("ogmg", 5)])
    def test_mu_row_sum(self, algo, size):
        _, cert, lifted = gsw_lift(size, xi=None) if algo == "gsw" else ogmg_lift(size)
        n = cert.n
        target = np.zeros(n)
        target[-1] = -1.0
        row_sums = lifted.mu[1:].sum(axis=1) - lifted.mu.sum(axis=0)
        np.testing.assert_allclose(row_sums, target, atol=1e-9)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_gsw_base_block_diagonally_dominant(self, k):
        _, _, lifted = gsw_lift(k, xi=None)
        margin = diag_dominance_margin_plain(grad_base_block(lifted))
        assert margin >= -1e-10 * max(1.0, lifted.r)

    def test_ogmg_xi_closed_form(self):
        for n in (2, 5, 16):
            _, cert, lifted = ogmg_lift(n)
            tn2 = theta_sequence(n)[-1] ** 2
            expected = (SQ5 + 1) * tn2 / (4 * (tn2 - 1))
            assert abs((1 - lifted.xi) - expected) < 1e-12 * expected

    def test_ogmg_n1_rate(self):
        _, _, lifted = ogmg_lift(1)
        assert abs(lifted.xi) < 1e-15  # closing pair sums to r exactly
        assert certified_rate(lifted) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_gsw_k1_generic_vs_paper_xi(self):
        # the generic corner-zeroing choice gives 2/3; the catalog choice
        # reproduces the closed form 2*sqrt(2)/tau_1 = sqrt(2)/2
        _, _, generic = gsw_lift(1, xi="generic")
        assert generic.xi == pytest.approx(0.0, abs=1e-15)
        assert certified_rate(generic) == pytest.approx(2.0 / 3.0, rel=1e-15)
        _, _, paper = gsw_lift(1, xi=None)
        assert certified_rate(paper) == pytest.approx(SQ2 / 2.0, rel=1e-14)
        assert check_grad_feasibility(paper).passed
        assert certified_rate(generic) <= certified_rate(paper)

    def test_negative_control_sign_flip_fails(self):
        from dataclasses import replace

        _, _, lifted = ogmg_lift(4)
        mu = np.array(lifted.mu)
        row, col = np.unravel_index(np.argmax(mu), mu.shape)
        mu[row, col] = -mu[row, col]
        flipped = replace(lifted, mu=mu)
        assert not check_grad_feasibility(flipped).mu_ok


class TestCompositeGradIdentity:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_gsw(self, k):
        H, cert, lifted = gsw_lift(k, xi=None)
        assert verify_composite_grad_identity(H, cert, lifted).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
    def test_ogmg(self, n):
        H, cert, lifted = ogmg_lift(n)
        assert verify_composite_grad_identity(H, cert, lifted).passed

    def test_mu_perturbation_detected(self):
        from dataclasses import replace

        H, cert, lifted = ogmg_lift(3)
        mu = np.array(lifted.mu)
        mu[0, 1] += 1e-3
        report = verify_composite_grad_identity(H, cert, replace(lifted, mu=mu))
        assert not report.passed and report.max_residual > 1e-4

    def test_smooth_collapse_matches_unconstrained_blocks(self):
        from peplift.certificates import grad_identity_ledgers
        from peplift.lift import composite_grad_ledgers

        H, cert, lifted = ogmg_lift(4)
        n = cert.n
        lhs_c, rhs_c = composite_grad_ledgers(H, cert, lifted)
        lhs_u, rhs_u = grad_identity_ledgers(H, cert)
        keep = [ix_g(n, i) for i in range(n + 1)]
        diff_c = (lhs_c.quad - rhs_c.quad)[np.ix_(keep, keep)]
        diff_u = (lhs_u.quad - rhs_u.quad)[np.ix_(keep, keep)]
        # the slack matrix only adds xi' * r / 2 on ||g_n||^2, carried by the
        # rank-one corner term on the other side: the g-block nets to zero
        assert np.max(np.abs(diff_c - diff_u)) < 1e-10
        np.testing.assert_allclose(lhs_c.lin_f - rhs_c.lin_f, lhs_u.lin_f - rhs_u.lin_f, atol=1e-10)


class TestOneAssemblyPerInequalitySet:
    """A lift cell assembles its smooth inequalities once, on the composite
    basis, and both identities read that ledger; its reports are those of
    the identities checked one by one."""

    @pytest.fixture
    def modes(self, monkeypatch):
        """The modes of the coco_block calls made through certificates and lift."""
        called = []
        for module in (certificates_module, lift_module):
            def counted(led, weights, H, mode, origin=(0, 0), _block=module.coco_block):
                called.append(mode)
                return _block(led, weights, H, mode, origin)
            monkeypatch.setattr(module, "coco_block", counted)
        return called

    @pytest.mark.parametrize("algo, size", [
        ("silver", 3), ("gsw", 3), ("ogm", 5), ("ogmg", 5), ("ogm", 64), ("ogmg", 64),
    ])
    def test_cells_assemble_each_set_once_and_report_as_the_standalone_checks(self, modes, algo, size):
        family = FAMILIES[algo]
        H, cert = family.schedule(size), family.certificate(size)
        func = family.metric == "func"
        certify = verify_cell(H, cert, family.xi(size), lift=False)
        assert modes == ["unconstrained"]
        modes.clear()
        cell = verify_cell(H, cert, family.xi(size))
        assert cell.passed and certify.passed
        assert modes == ["composite_f", "composite_h"]

        identity = certificates_module.verify_func_identity if func else certificates_module.verify_grad_identity
        composite = verify_composite_func_identity if func else verify_composite_grad_identity
        assert cell.identity.to_dict() == certify.identity.to_dict() == identity(H, cert).to_dict()
        assert cell.composite.to_dict() == composite(H, cert, cell.lifted).to_dict()

    def test_leading_block_needs_a_composite_ledger(self):
        H, cert = ogm_stepsize_matrix(3), ogm_func_certificate(3)
        with pytest.raises(ValueError, match="composite ledger"):
            func_identity_ledgers(H, cert, smooth=certificates_module._smooth_ledger(H, cert, composite=False))


class TestCertifiedRates:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_silver_closed_form(self, k):
        _, _, lifted = silver_lift(k)
        expected = RHO / (SQ2 * (4 * RHO**k - 2))
        assert certified_rate(lifted) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    def test_pogm_closed_form(self, n):
        _, _, lifted = ogm_lift(n)
        tn2 = theta_sequence(n)[-1] ** 2
        assert certified_rate(lifted) == pytest.approx((3 + SQ5) / (8 * tn2), rel=1e-12)

    def test_pogm_n1(self):
        _, _, lifted = ogm_lift(1)
        assert certified_rate(lifted) == pytest.approx(1.0 / 6.0, rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_gsw_closed_form(self, k):
        _, _, lifted = gsw_lift(k, xi=None)
        assert certified_rate(lifted) == pytest.approx(2 * SQ2 / gsw_taus(k)[-1], rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    def test_pogmg_closed_form(self, n):
        _, _, lifted = ogmg_lift(n)
        tn2 = theta_sequence(n)[-1] ** 2
        assert certified_rate(lifted) == pytest.approx(2 * (SQ5 - 1) / tn2, rel=1e-12)

    @pytest.mark.parametrize("algo", sorted(FAMILIES))
    @pytest.mark.parametrize("size", range(1, 5))
    def test_family_cell_certifies_its_closed_form(self, algo, size):
        # without an xi, a row lifts at its own xi(size), whose constant is rate(size)
        family = FAMILIES[algo]
        assert family.cell(size).rate == pytest.approx(family.rate(size), rel=1e-12)


class TestPartialSumKernel:
    def test_zero_matrix(self):
        out = partial_sum_kernel([1.0, 2.0, 3.0], np.zeros((3, 3)))
        np.testing.assert_array_equal(out, 0.0)

    def test_single_entry_hand_computed(self):
        # identity steps, lone entry at (0, 1): tails are column indicators
        a = np.zeros((3, 3))
        a[0, 1] = 5.0
        out = partial_sum_kernel(np.ones(3), a)
        # row 0 compares tails at columns 1 and 0: +5 everywhere the tail at
        # column 1 counts, i.e. only for rows l <= 0 -> entry (0, 0) ... (0, 0)
        expected = np.zeros((3, 3))
        expected[0, 0] = 5.0  # tail_{l>=0} a[l,1] - tail a[l,0] = 5 - 0
        expected[1, 0] = -5.0  # tail_{l>=1} picks up nothing at col 2, minus 5 at col 1
        np.testing.assert_allclose(out, expected)

    def test_silver_k2_tilde_formula_vs_matrix_path(self):
        cert = silver_func_certificate(2)
        _, tilde = aggregates(cert)
        steps = silver_schedule(2)
        # the kernel cross-checks the closed form against direct solves internally
        out = partial_sum_kernel(steps, tilde)
        assert out.shape == (3, 3)

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError):
            partial_sum_kernel([1.0, 0.0], np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            partial_sum_kernel([1.0, 2.0], np.eye(3))


class TestRowsThroughFactors:
    """The lift applies H and H^{-1} through the stepsize matrix's factors."""

    # n = 80 is above ledger._DENSE_STEPS: the ledger's step term and the
    # STAR column go through the dense factor, not the entries
    @pytest.mark.parametrize("algo, n", [("ogm", 6), ("ogmg", 6), ("ogm", 40), ("ogmg", 40),
                                         ("ogm", 80), ("ogmg", 80)])
    def test_entries_alone_take_the_dense_factor_with_the_same_verdict(self, algo, n):
        family = FAMILIES[algo]
        H = StepsizeMatrix(family.schedule(n).entries)
        assert [factor.kind for factor in H.factors] == ["dense"]
        cell, catalog_cell = verify_cell(H, family.certificate(n), family.xi(n)), family.cell(n)
        assert cell.passed and catalog_cell.passed
        assert cell.rate == catalog_cell.rate
        np.testing.assert_allclose(cell.lifted.mu, catalog_cell.lifted.mu, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(catalog_cell.lifted.mu))))

    @pytest.mark.parametrize("algo", ["ogm", "ogmg"])
    @pytest.mark.parametrize("n, certified", [(5, True), (64, False)])
    def test_factors_that_miss_the_entries_fail_the_cell(self, algo, n, certified):
        """One entry of U(phi) off by a relative 1e-6, the entries kept: the
        lift, which applies H through the factors, fails its checks at any
        size; the certificate's identity, whose offsets read the entries,
        fails where its step term goes through the factors too (above
        _DENSE_STEPS steps) and holds where it multiplies by the entries."""
        family = FAMILIES[algo]
        H, cert = family.schedule(n), family.certificate(n)
        factors = [Factor(kind, data.copy()) for kind, data in H.factors]
        for kind, data in factors:
            if kind == "upper":
                data[n // 2] *= 1.0 + 1e-6
        faulty = StepsizeMatrix(H.entries, tuple(factors))
        assert verify_cell(faulty, cert, family.xi(n), lift=False).passed is certified
        assert verify_cell(faulty, cert, family.xi(n)).passed is False

    @pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
    def test_cell_bits_do_not_depend_on_the_entries_memory_order(self, factored):
        # a Fortran-ordered H is stored in C order, so BLAS sums its
        # products in the order it sums those of the same H given in C order
        n = 100
        H, cert = ogm_stepsize_matrix(n), ogm_func_certificate(n)

        def cell_bits(entries):
            cell = verify_cell(StepsizeMatrix(entries, H.factors if factored else ()), cert, 0.3)
            return (cell.lifted.mu.tobytes(), cell.lifted.slack.tobytes(),
                    cell.identity.to_dict(), cell.composite.to_dict(), cell.feasibility.to_dict())

        fortran = np.asfortranarray(H.entries)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        assert StepsizeMatrix(fortran).entries.flags.c_contiguous
        assert cell_bits(fortran) == cell_bits(np.array(H.entries))

    def test_catalog_cells_never_solve_densely(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        for algo, family in FAMILIES.items():
            sizes = range(1, 7) if family.size_flag == "k" else (1, 2, 3, 5, 8, 64, 300)
            for size in sizes:
                assert family.cell(size).passed, (algo, size)

    def test_lift_digits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # mu, the slack, both identities' ledgers and the whole `lift --json`
        # report come from elementwise passes, numpy's own sums and the
        # factors of H, so the same bits on any thread count; up to 63 steps
        # the ledgers multiply ogm's and ogmg's entries, a product small
        # enough for OpenBLAS to keep on one thread
        script = (
            "import contextlib, hashlib, io, sys\n"
            "from peplift import certificates, lift\n"
            "from peplift.catalog import FAMILIES\n"
            "from peplift.cli import main\n"
            "for algo, size in (('silver', 9), ('gsw', 9), ('ogm', 300), ('ogmg', 300), ('ogm', 63), ('ogmg', 63)):\n"
            "    family = FAMILIES[algo]\n"
            "    H, cert = family.schedule(size), family.certificate(size)\n"
            "    metric = family.metric\n"
            "    lifted = getattr(lift, f'lift_{metric}')(H, cert, family.xi(size))\n"
            "    ledgers = (getattr(certificates, f'{metric}_identity_ledgers')(H, cert)\n"
            "               + getattr(lift, f'composite_{metric}_ledgers')(H, cert, lifted))\n"
            "    digest = hashlib.sha256(lifted.mu.tobytes() + lifted.slack.tobytes())\n"
            "    for led in ledgers:\n"
            "        for part in (led.quad, led.lin_f, led.lin_h):\n"
            "            digest.update(part.tobytes())\n"
            "    report = f'{sys.argv[1]}/{algo}_{size}.json'\n"
            "    args = ['lift', '--algo', algo, '--metric', metric, f'--{family.size_flag}', str(size)]\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main([*args, '--json', report])\n"
            "    with open(report, 'rb') as fh:\n"
            "        digest.update(fh.read())\n"
            "    print(algo, code, digest.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        procs = []
        for threads in ("1", "2"):  # both run at once
            (tmp_path / threads).mkdir()
            procs.append(subprocess.Popen([sys.executable, "-c", script, str(tmp_path / threads)],
                                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                          env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)))
        digests = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            digests.append(out)
        assert [line.split()[1] for line in digests[0].splitlines()] == ["0"] * 6  # every cell passes
        assert digests[0] == digests[1]
