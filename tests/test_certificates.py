import json
import math

import numpy as np
import pytest

from peplift import catalog, certificates, config
from peplift.certificates import (
    FuncCertificate,
    GradCertificate,
    aggregates,
    certificate_from_dict,
    certificate_to_dict,
    gsw_grad_certificate,
    load_certificate,
    ogm_func_certificate,
    ogmg_grad_certificate,
    save_certificate,
    silver_func_certificate,
    silver_lambda_bar,
    verify_func_identity,
    verify_grad_identity,
)
from peplift.cli import main
from peplift.ledger import GramLedger, coco_block
from peplift.schedules import (
    SILVER_RATIO,
    from_diagonal,
    gsw_schedule,
    gsw_taus,
    ogm_stepsize_matrix,
    ogmg_stepsize_matrix,
    silver_schedule,
    theta_sequence,
)
from reference_forms import aggregate_identity_residual
from structural_checks import func_invariant_residuals, grad_invariant_residuals

RHO = SILVER_RATIO
SQ2 = math.sqrt(2.0)


def silver_H(k):
    return from_diagonal(silver_schedule(k))


def gsw_H(k):
    return from_diagonal(gsw_schedule(k).steps)


class TestSilverCertificate:
    def test_order_one_values(self):
        cert = silver_func_certificate(1)
        assert cert.lam[0, 1] == RHO
        assert cert.lam[1, 0] == 1.0
        np.testing.assert_allclose(cert.lam[2], [SQ2, RHO])
        np.testing.assert_allclose(cert.gamma, [SQ2, RHO])
        assert cert.r == 2 * RHO - 1

    def test_order_two_table_hand_expanded(self):
        # paste the 2x2 base block twice (second copy scaled by rho^2), then
        # the sparse entries at (1,3)/(3,1) and the low-rank row corrections
        bar = np.zeros((4, 4))
        bar[0, 1] = RHO
        bar[1, 0] = 1.0
        bar[2, 3] = RHO**3
        bar[3, 2] = RHO**2
        bar[1, 3] += RHO
        bar[3, 1] += RHO**1
        bar[1, 2] += RHO * SQ2
        bar[3, 2] += RHO * SQ2
        cert = silver_func_certificate(2)
        np.testing.assert_allclose(cert.lam[:4], bar, rtol=1e-15)
        np.testing.assert_allclose(cert.lam[4], [SQ2, 2.0, SQ2, RHO**2], rtol=1e-15)
        assert cert.r == 2 * RHO**2 - 1

    def test_rec_block_entry(self):
        # the (2, 3) entry is the scaled copy of the base (0, 1) entry
        assert silver_lambda_bar(2)[2, 3] == RHO**2 * silver_lambda_bar(1)[0, 1]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_identity(self, k):
        report = verify_func_identity(silver_H(k), silver_func_certificate(k))
        assert report.passed, report

    @pytest.mark.parametrize("k", range(1, 7))
    def test_invariants(self, k):
        res = func_invariant_residuals(silver_func_certificate(k))
        assert max(res.values()) < 1e-10


class TestOgmCertificate:
    def test_order_one_values(self):
        cert = ogm_func_certificate(1)
        assert cert.lam[0, 1] == 2.0
        assert cert.lam[2, 0] == 2.0 and cert.lam[2, 1] == 2.0
        np.testing.assert_allclose(cert.gamma, [2.0, 2.0])
        assert cert.r == 4.0

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    def test_identity_and_invariants(self, n):
        cert = ogm_func_certificate(n)
        assert max(func_invariant_residuals(cert).values()) < 1e-10
        assert verify_func_identity(ogm_stepsize_matrix(n), cert).passed


@pytest.mark.parametrize("algo", ["ogm", "ogmg"])
def test_identity_residual_far_below_the_tolerance(algo):
    # the identity reads H's entries; differencing its rounded row sums back
    # to the steps loses their low bits and puts n=300 at 7.0e-5 (ogm) and
    # 3.1e-5 (ogmg) of the tolerance, against 9.4e-7 and 1.6e-7
    family = catalog.FAMILIES[algo]
    verify = verify_func_identity if family.metric == "func" else verify_grad_identity
    report = verify(family.schedule(300), family.certificate(300))
    assert report.max_residual < 5e-6 * report.tol * report.scale


class TestGswCertificate:
    def test_order_one_values(self):
        cert = gsw_grad_certificate(1)
        assert cert.lam[0, 1] == 2.0
        assert cert.lam[1, 0] == 1.0
        assert cert.r == 3.0

    def test_order_two_table_hand_expanded(self):
        tau2 = gsw_taus(2)[-1]
        lam = np.zeros((4, 4))
        lam[0, 1] = 2.0
        lam[1, 0] = 1.0
        scale = tau2 / RHO**2
        lam[2, 3] = scale * RHO  # scaled base (0,1)
        lam[3, 2] = scale * 1.0  # scaled base (1,0)
        lam[1, 3] += tau2 / (2 * RHO**2)
        lam[3, 1] += tau2 / (2 * RHO) - 1.0
        lam[1, 2] += tau2 / (2 * RHO**2) * SQ2
        lam[3, 2] += tau2 / (2 * RHO**2) * SQ2
        cert = gsw_grad_certificate(2)
        np.testing.assert_allclose(cert.lam, lam, rtol=1e-14)
        assert cert.r == tau2 - 1.0

    def test_closing_pair_sum(self):
        # lam[n-1, n] + lam[n, n-1] collapses to tau_k / sqrt(2) for k >= 2
        for k in range(2, 7):
            cert = gsw_grad_certificate(k)
            n = cert.n
            total = cert.lam[n - 1, n] + cert.lam[n, n - 1]
            assert abs(total - gsw_taus(k)[-1] / SQ2) < 1e-9

    @pytest.mark.parametrize("k", range(1, 7))
    def test_identity_and_invariants(self, k):
        cert = gsw_grad_certificate(k)
        assert max(grad_invariant_residuals(cert).values()) < 1e-10
        assert verify_grad_identity(gsw_H(k), cert).passed


class TestOgmgCertificate:
    def test_order_one_values(self):
        cert = ogmg_grad_certificate(1)
        assert cert.lam[0, 1] == 2.0
        assert cert.lam[1, 0] == 1.0
        assert cert.r == 3.0

    @pytest.mark.parametrize("n", range(2, 65, 7))
    def test_closing_pair_sum(self, n):
        cert = ogmg_grad_certificate(n)
        tn2 = theta_sequence(n)[-1] ** 2
        total = cert.lam[n - 1, n] + cert.lam[n, n - 1]
        assert abs(total - (math.sqrt(5) + 1) / 4 * tn2) < 1e-9 * tn2

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    def test_identity_and_invariants(self, n):
        cert = ogmg_grad_certificate(n)
        assert max(grad_invariant_residuals(cert).values()) < 1e-10
        assert verify_grad_identity(ogmg_stepsize_matrix(n), cert).passed


class TestPerturbationDetector:
    def test_func_single_entry_bump_fails(self):
        cert = silver_func_certificate(2)
        lam = np.array(cert.lam)
        lam[0, 1] += 1e-3
        bumped = FuncCertificate(lam=lam, gamma=cert.gamma, r=cert.r)
        report = verify_func_identity(silver_H(2), bumped)
        assert not report.passed
        assert report.max_residual > 1e-4

    def test_grad_single_entry_bump_fails(self):
        cert = ogmg_grad_certificate(3)
        lam = np.array(cert.lam)
        lam[3, 0] += 1e-3
        bumped = GradCertificate(lam=lam, r=cert.r)
        report = verify_grad_identity(ogmg_stepsize_matrix(3), bumped)
        assert not report.passed
        assert report.max_residual > 1e-4


class TestAggregates:
    def test_hat_symmetric_and_diagonal(self):
        cert = ogm_func_certificate(4)
        hat, _ = aggregates(cert)
        np.testing.assert_array_equal(hat, hat.T)
        col = cert.lam.sum(axis=0)
        row = cert.lam[:5].sum(axis=1)
        np.testing.assert_allclose(np.diag(hat), -(col[:4] + row[:4]))

    def test_ogm_n2_tilde_pattern(self):
        cert = ogm_func_certificate(2)
        _, tilde = aggregates(cert)
        lam = cert.lam
        col = lam.sum(axis=0)
        expected = np.array([[lam[1, 0], -col[1]], [lam[2, 0], lam[2, 1]]])
        np.testing.assert_array_equal(tilde, expected)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_func_quadratic_consequence(self, k):
        cert = silver_func_certificate(k)
        assert aggregate_identity_residual(silver_H(k), cert) < 1e-10 * max(1.0, cert.r**2)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
    def test_grad_zero_matrix_identity(self, n):
        cert = ogmg_grad_certificate(n)
        assert aggregate_identity_residual(ogmg_stepsize_matrix(n), cert) < 1e-10 * max(1.0, cert.r)


class TestSnapshots:
    def test_func_roundtrip(self, tmp_path):
        cert = silver_func_certificate(3)
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        back = load_certificate(path)
        assert isinstance(back, FuncCertificate)
        np.testing.assert_array_equal(back.lam, cert.lam)
        np.testing.assert_array_equal(back.gamma, cert.gamma)
        assert back.r == cert.r

    def test_grad_roundtrip_dict(self):
        cert = gsw_grad_certificate(2)
        back = certificate_from_dict(certificate_to_dict(cert))
        assert isinstance(back, GradCertificate)
        np.testing.assert_array_equal(back.lam, cert.lam)

    def test_user_supplied_certificate_verify_only(self):
        # external certificates go through the same verifier; a wrong one fails
        doc = certificate_to_dict(ogm_func_certificate(2))
        doc["r"] = doc["r"] * 1.01
        cert = certificate_from_dict(doc)
        assert not verify_func_identity(ogm_stepsize_matrix(2), cert).passed

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            certificate_from_dict({"metric": "nope", "lam": [[0.0]], "r": 1.0})


def ogm3_null_direction_lam(sign: float) -> np.ndarray:
    """The ogm n=3 multipliers moved one unit along the null direction of
    the identity's coefficient map over the 16 off-diagonal lam entries."""
    n = 3
    h = ogm_stepsize_matrix(n).entries
    entries = [(i, j) for i in range(n + 2) for j in range(n + 1) if i != j]
    columns = []
    for i, j in entries:
        led = GramLedger(n)
        coco_block(led, [[1.0]], h, "unconstrained", origin=(i, j))
        columns.append(np.concatenate([led.quad.ravel(), led.lin_f, led.lin_h]))
    _, singular, vt = np.linalg.svd(np.array(columns).T)
    assert singular[-1] < 1e-12 * singular[0] < singular[-2]  # one null direction
    lam = np.array(ogm_func_certificate(n).lam)
    for (i, j), step in zip(entries, sign * vt[-1]):
        lam[i, j] += step
    return lam


CONTRACT_CERTS = {"func": lambda: ogm_func_certificate(3), "grad": lambda: ogmg_grad_certificate(3)}


def rebuilt(cert, lam=None, gamma=None, r=None):
    """A certificate of cert's type from its fields, some replaced."""
    lam = cert.lam if lam is None else lam
    r = cert.r if r is None else r
    if isinstance(cert, FuncCertificate):
        return FuncCertificate(lam=lam, gamma=cert.gamma if gamma is None else gamma, r=r)
    return GradCertificate(lam=lam, r=r)


class TestMultiplierContract:
    """A certificate is a proof only with nonnegative, finite multipliers,
    r > 0 and at least one step; the constructors reject anything else."""

    @pytest.mark.parametrize("metric", ["func", "grad"])
    @pytest.mark.parametrize("entry, value, match", [
        ((1, 0), math.nan, "finite"),
        ((0, 1), math.inf, "finite"),
        ((3, 0), -math.inf, "finite"),
        ((2, 2), 1e-3, r"lam\[i, i\]"),
        ((3, 3), -1e-3, r"lam\[i, i\]"),
        ((2, 0), -1e-3, "nonnegative"),
    ])
    def test_rejects_lam_entry(self, metric, entry, value, match):
        cert = CONTRACT_CERTS[metric]()
        lam = np.array(cert.lam)
        lam[entry] = value
        with pytest.raises(ValueError, match=match):
            rebuilt(cert, lam=lam)

    @pytest.mark.parametrize("metric", ["func", "grad"])
    @pytest.mark.parametrize("r, match", [
        (math.nan, "finite"), (math.inf, "finite"), (0.0, "positive"), (-2.0, "positive"),
    ])
    def test_rejects_r(self, metric, r, match):
        with pytest.raises(ValueError, match=match):
            rebuilt(CONTRACT_CERTS[metric](), r=r)

    @pytest.mark.parametrize("make, shape", [
        (lambda: FuncCertificate(lam=np.zeros((1, 0)), gamma=np.zeros(0), r=1.0), r"\(1, 0\)"),
        (lambda: FuncCertificate(lam=np.zeros((2, 1)), gamma=np.zeros(1), r=1.0), r"\(2, 1\)"),
        (lambda: GradCertificate(lam=np.zeros((0, 0)), r=1.0), r"\(0, 0\)"),
        (lambda: GradCertificate(lam=np.zeros((1, 1)), r=1.0), r"\(1, 1\)"),
    ], ids=["func-empty", "func-n0", "grad-empty", "grad-n0"])
    def test_rejects_fewer_than_one_step(self, make, shape):
        with pytest.raises(ValueError, match=r"n >= 1, got " + shape):
            make()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_func_rejects_non_finite_gamma(self, value):
        cert = ogm_func_certificate(3)
        gamma = np.array(cert.gamma)
        gamma[1] = value
        with pytest.raises(ValueError, match="finite"):
            rebuilt(cert, gamma=gamma)

    def test_negative_entries_within_the_multiplier_slack_pass(self):
        cert = ogm_func_certificate(3)
        lam = np.array(cert.lam)
        lam[1, 0] = -0.5 * config.MU_TOL * np.max(np.abs(lam))
        assert verify_func_identity(ogm_stepsize_matrix(3), rebuilt(cert, lam=lam)).passed
        lam[1, 0] *= 4.0
        with pytest.raises(ValueError, match=r"nonnegative, got lam\[1, 0\]"):
            rebuilt(cert, lam=lam)

    @pytest.mark.parametrize("cert", [silver_func_certificate(2), gsw_grad_certificate(2)], ids=["func", "grad"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["lam", "r"])
    def test_from_dict_rejects_non_finite_literals(self, cert, literal, field):
        doc = certificate_to_dict(cert)
        if field == "lam":
            doc["lam"][1][0] = json.loads(literal)
        else:
            doc["r"] = json.loads(literal)
        text = json.dumps(doc)
        assert literal in text
        with pytest.raises(ValueError, match="finite"):
            certificate_from_dict(json.loads(text))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ogm_n3_negative_multiplier_certificate_is_rejected(self, monkeypatch, sign):
        cert = ogm_func_certificate(3)
        lam = ogm3_null_direction_lam(sign)
        assert lam.min() < -0.3
        with monkeypatch.context() as patched:
            patched.setattr(certificates, "_check_multipliers", lambda *args: None)
            assert verify_func_identity(ogm_stepsize_matrix(3), rebuilt(cert, lam=lam)).passed  # its identity holds
        with pytest.raises(ValueError, match="nonnegative"):
            rebuilt(cert, lam=lam)

    @pytest.mark.parametrize("command", ["certify", "lift"])
    def test_negative_multiplier_certificate_is_a_usage_error(self, monkeypatch, capsys, command):
        cert = ogm_func_certificate(3)
        lam = ogm3_null_direction_lam(-1.0)
        monkeypatch.setattr(catalog, "ogm_func_certificate", lambda n: rebuilt(cert, lam=lam))
        assert main([command, "--algo", "ogm", "--metric", "func", "--n", "3"]) == 2
        assert "nonnegative" in capsys.readouterr().err
