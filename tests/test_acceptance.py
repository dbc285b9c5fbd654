"""Acceptance suite: the seven exit criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; empirical bound checks use the problem's smoothness constant to undo
the unit-smoothness normalization the rates are stated in.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import structural_checks as sc
from peplift.catalog import FAMILIES
from peplift.certificates import (
    FuncCertificate,
    GradCertificate,
    verify_func_identity,
    verify_grad_identity,
)
from peplift.lift import (
    _sigma,
    certified_rate,
    check_func_feasibility,
    check_grad_feasibility,
    lift_func,
    lift_grad,
    verify_composite_func_identity,
    verify_composite_grad_identity,
)
from peplift.methods import run_composite, run_pogm, run_pogmg, run_unconstrained
from peplift.problems import ProblemSpec, initial_point, make_problem
from peplift.schedules import SILVER_RATIO, from_diagonal, gsw_schedule, silver_schedule, theta_sequence
from reference_forms import diag_dominance_margin_plain, laplacian_violations_plain

IDENTITY_TOL = 1e-9  # relative, criteria 1 and 2
RATE_TOL = 1e-12  # relative, criterion 2
STRUCT_TOL = 1e-10  # criterion 3
EQUIV_TOL = 1e-8  # relative, criterion 4
SMOOTH_MATCH_TOL = 1e-12  # criterion 4, h = 0 reduction
ENVELOPE_SLACK = 1e-9  # absolute, criterion 5
RATIO_WINDOW = 0.02  # criterion 7

FUNC_GRID = [("silver", k) for k in range(1, 7)] + [("ogm", n) for n in range(1, 65)]
GRAD_GRID = [("gsw", k) for k in range(1, 7)] + [("ogmg", n) for n in range(1, 65)]


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def _instances(count: int, base_seed: int):
    specs = []
    for s in range(count // 2):
        specs.append(ProblemSpec(kind="lasso", dim=10, rows=20, seed=base_seed + s, tau=0.1))
    for s in range(count - count // 2):
        specs.append(ProblemSpec(kind="boxqp", dim=8, rows=14, seed=base_seed + 500 + s, lo=-0.7, hi=0.8))
    return [(spec, make_problem(spec)) for spec in specs]


def test_criterion_1_unconstrained_identities():
    start = time.perf_counter()
    worst = 0.0
    for algo, size in FUNC_GRID:
        report = verify_func_identity(FAMILIES[algo].schedule(size), FAMILIES[algo].certificate(size))
        worst = max(worst, report.max_residual / report.scale)
    for algo, size in GRAD_GRID:
        report = verify_grad_identity(FAMILIES[algo].schedule(size), FAMILIES[algo].certificate(size))
        worst = max(worst, report.max_residual / report.scale)
    elapsed = time.perf_counter() - start
    ok = worst < IDENTITY_TOL and elapsed < 30.0
    assert _report(1, "unconstrained identity suite", ok, f"worst rel residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_composite_lift_suite():
    worst_resid = 0.0
    worst_rate = 0.0
    feasible = True
    for algo, size in FUNC_GRID:
        H = FAMILIES[algo].schedule(size)
        cert = FAMILIES[algo].certificate(size)
        lifted = lift_func(H, cert, xi=FAMILIES[algo].xi(size))
        feas = check_func_feasibility(lifted)
        feasible &= feas.passed and feas.structural_ok  # both PSD routes
        report = verify_composite_func_identity(H, cert, lifted)
        worst_resid = max(worst_resid, report.max_residual / report.scale)
        rate = certified_rate(lifted)
        named = FAMILIES[algo].rate(size)
        worst_rate = max(worst_rate, abs(rate - named) / named)
    for algo, size in GRAD_GRID:
        H = FAMILIES[algo].schedule(size)
        cert = FAMILIES[algo].certificate(size)
        lifted = lift_grad(H, cert, xi=FAMILIES[algo].xi(size))
        feas = check_grad_feasibility(lifted)
        feasible &= feas.passed and feas.structural_ok
        report = verify_composite_grad_identity(H, cert, lifted)
        worst_resid = max(worst_resid, report.max_residual / report.scale)
        rate = certified_rate(lifted)
        named = FAMILIES[algo].rate(size)
        worst_rate = max(worst_rate, abs(rate - named) / named)
    ok = feasible and worst_resid < IDENTITY_TOL and worst_rate < RATE_TOL
    assert _report(2, "composite lift suite", ok,
                   f"worst rel residual {worst_resid:.2e}, worst rate mismatch {worst_rate:.2e}")


def test_criterion_3_structural_lemmas():
    worst = 0.0
    for k in range(1, 7):
        worst = max(worst, sc.silver_partial_sum_violation(k))
        worst = max(worst, sc.gsw_partial_sum_violation(k))
        worst = max(worst, sc.silver_t_sum_violation(k))
    for n in range(1, 65):
        worst = max(worst, sc.theta_phi_bound_violation(n))
    for n in range(1, 33):
        worst = max(worst, sc.ogm_column_sign_violation(n))
        worst = max(worst, sc.ogmg_typical_column_violation(n))
        worst = max(worst, sc.ogmg_last_column_violation(n))
    for algo, size in FUNC_GRID:
        H = FAMILIES[algo].schedule(size)
        cert = FAMILIES[algo].certificate(size)
        lifted = lift_func(H, cert, xi=FAMILIES[algo].xi(size))
        n = cert.n
        scale = max(1.0, cert.r)
        worst = max(worst, abs(_sigma(cert).sum() - cert.gamma[n]) / scale)
        worst = max(worst, abs(lifted.slack[1:, 0].sum()) / scale)
        row_target = np.zeros(n)
        row_target[-1] = -cert.r
        # mu's columns sum to minus the diagonal its rows drop, so this is the solve's row sums
        row_sums = lifted.mu[:n].sum(axis=1) - lifted.mu.sum(axis=0)
        worst = max(worst, float(np.max(np.abs(row_sums - row_target))) / scale)
        worst = max(worst, abs(lifted.mu[n].sum() - cert.r) / scale)
        laplacian = lifted.slack[1:, 1:]
        lap_scale = max(1.0, float(np.max(np.abs(laplacian))))
        worst = max(worst, max(laplacian_violations_plain(laplacian)) / lap_scale)
    for algo, size in GRAD_GRID:
        H = FAMILIES[algo].schedule(size)
        cert = FAMILIES[algo].certificate(size)
        lifted = lift_grad(H, cert, xi=FAMILIES[algo].xi(size))
        n = cert.n
        row_target = np.zeros(n)
        row_target[-1] = -1.0
        row_sums = lifted.mu[1:].sum(axis=1) - lifted.mu.sum(axis=0)
        worst = max(worst, float(np.max(np.abs(row_sums - row_target))))
        base = sc.grad_base_block(lifted)
        scale = max(1.0, float(np.max(np.abs(base))))
        worst = max(worst, -diag_dominance_margin_plain(base) / scale)
    ok = worst <= STRUCT_TOL
    assert _report(3, "structural lemma suite", ok, f"worst violation {worst:.2e}")


def test_criterion_4_method_equivalence():
    worst_pair = 0.0
    for spec, problem in _instances(20, base_seed=1000):
        x0 = initial_point(spec)
        for n in range(1, 21):
            pogm = run_pogm(n, problem, x0)
            ref = run_composite(FAMILIES["ogm"].schedule(n), problem, x0)
            for a, b in zip(pogm.xs, ref.xs):
                worst_pair = max(worst_pair, float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b)))))
            pogmg = run_pogmg(n, problem, x0)
            refg = run_composite(FAMILIES["ogmg"].schedule(n), problem, x0)
            for a, b in zip(pogmg.xs, refg.xs):
                worst_pair = max(worst_pair, float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b)))))

    worst_smooth = 0.0
    rng = np.random.default_rng(99)
    for trial in range(3):
        a = rng.standard_normal((12, 7))
        from peplift.methods import ProxProblem

        gram = a.T @ a
        center = rng.standard_normal(7)
        smooth = ProxProblem(
            dim=7,
            f_value=lambda x, q=gram, c=center: 0.5 * float((x - c) @ q @ (x - c)),
            f_grad=lambda x, q=gram, c=center: q @ (x - c),
            h_value=lambda x: 0.0,
            prox=lambda t, x: x,
            smoothness=float(np.linalg.eigvalsh(gram)[-1]),
            smooth_only=True,
        )
        x0 = rng.standard_normal(7)
        for H in (
            from_diagonal(silver_schedule(3)),
            from_diagonal(gsw_schedule(3).steps),
            FAMILIES["ogm"].schedule(7),
            FAMILIES["ogmg"].schedule(7),
        ):
            plain = run_unconstrained(H, smooth, x0)
            comp = run_composite(H, smooth, x0)
            for a_, b_ in zip(comp.xs, plain.xs):
                worst_smooth = max(worst_smooth, float(np.max(np.abs(a_ - b_))) / max(1.0, float(np.max(np.abs(b_)))))
        for runner, plain_h in ((run_pogm, "ogm"), (run_pogmg, "ogmg")):
            eff = runner(7, smooth, x0)
            plain = run_unconstrained(FAMILIES[plain_h].schedule(7), smooth, x0)
            for a_, b_ in zip(eff.xs, plain.xs):
                worst_smooth = max(worst_smooth, float(np.max(np.abs(a_ - b_))) / max(1.0, float(np.max(np.abs(b_)))))
    ok = worst_pair < EQUIV_TOL and worst_smooth < SMOOTH_MATCH_TOL
    assert _report(4, "method equivalence", ok,
                   f"worst composite/efficient gap {worst_pair:.2e}, worst smooth reduction gap {worst_smooth:.2e}")


def test_criterion_5_empirical_rate_envelopes():
    lasso = [ProblemSpec(kind="lasso", dim=10, rows=20, seed=2000 + s, tau=0.1) for s in range(50)]
    boxqp = [ProblemSpec(kind="boxqp", dim=8, rows=14, seed=3000 + s, lo=-0.7, hi=0.8) for s in range(50)]
    violations = 0
    checks = 0
    worst_ratio = 0.0
    for spec in lasso + boxqp:
        problem = make_problem(spec)
        x0 = initial_point(spec)
        L = problem.smoothness
        dist_sq = float(np.dot(x0 - problem.x_star, x0 - problem.x_star))
        for k in range(1, 6):
            trace = run_composite(from_diagonal(silver_schedule(k)), problem, x0)
            gap = trace.obj_values[-1] - problem.opt_value
            bound = FAMILIES["silver"].rate(k) * L * dist_sq
            checks += 1
            worst_ratio = max(worst_ratio, gap / bound)
            violations += gap > bound + ENVELOPE_SLACK
        for n in range(1, 33):
            trace = run_pogm(n, problem, x0)
            gap = trace.obj_values[-1] - problem.opt_value
            bound = FAMILIES["ogm"].rate(n) * L * dist_sq
            checks += 1
            worst_ratio = max(worst_ratio, gap / bound)
            violations += gap > bound + ENVELOPE_SLACK
        for k in range(1, 6):
            trace = run_composite(from_diagonal(gsw_schedule(k).steps), problem, x0)
            gap = trace.final_composite_grad_norm**2
            bound = FAMILIES["gsw"].rate(k) * L * (trace.obj_values[0] - trace.obj_values[-1])
            checks += 1
            worst_ratio = max(worst_ratio, gap / max(bound, 1e-300))
            violations += gap > bound + ENVELOPE_SLACK
        for n in range(1, 33):
            trace = run_pogmg(n, problem, x0)
            gap = trace.final_composite_grad_norm**2
            bound = FAMILIES["ogmg"].rate(n) * L * (trace.obj_values[0] - trace.obj_values[-1])
            checks += 1
            worst_ratio = max(worst_ratio, gap / max(bound, 1e-300))
            violations += gap > bound + ENVELOPE_SLACK
    ok = violations == 0
    assert _report(5, "empirical rate envelopes", ok,
                   f"{checks} bound checks, {violations} violations, worst gap/bound {worst_ratio:.3f}")


def test_criterion_6_negative_controls():
    all_fail = True
    counted = 0

    # objective metric: silver order 2
    algo, size = "silver", 2
    H = FAMILIES[algo].schedule(size)
    cert = FAMILIES[algo].certificate(size)
    lifted = lift_func(H, cert, xi=FAMILIES[algo].xi(size))
    n = cert.n
    for i in range(n + 2):
        for j in range(n + 1):
            if i == j:
                continue  # multiplies an identically zero inequality
            lam = np.array(cert.lam)
            lam[i, j] += 1e-3
            bad = FuncCertificate(lam=lam, gamma=cert.gamma, r=cert.r)
            all_fail &= not verify_func_identity(H, bad).passed
            counted += 1
    for i in range(n + 1):
        for j in range(n):
            if i < n and i == j:
                continue
            bad_lift = replace(lifted, mu=_bump(lifted.mu, (i, j)))
            all_fail &= not verify_composite_func_identity(H, cert, bad_lift).passed
            counted += 1
    for p in range(n + 2):
        for q in range(n + 2):
            bad_lift = replace(lifted, slack=_bump(lifted.slack, (p, q)))
            all_fail &= not verify_composite_func_identity(H, cert, bad_lift).passed
            counted += 1

    # gradient metric: reversed-index method at n = 3
    algo, size = "ogmg", 3
    Hg = FAMILIES[algo].schedule(size)
    certg = FAMILIES[algo].certificate(size)
    liftedg = lift_grad(Hg, certg, xi=FAMILIES[algo].xi(size))
    ng = certg.n
    for i in range(ng + 1):
        for j in range(ng + 1):
            if i == j:
                continue
            lam = np.array(certg.lam)
            lam[i, j] += 1e-3
            badg = GradCertificate(lam=lam, r=certg.r)
            all_fail &= not verify_grad_identity(Hg, badg).passed
            counted += 1
    for i in range(ng + 1):
        for j in range(ng):
            if i >= 1 and i - 1 == j:
                continue
            bad_lift = replace(liftedg, mu=_bump(liftedg.mu, (i, j)))
            all_fail &= not verify_composite_grad_identity(Hg, certg, bad_lift).passed
            counted += 1
    for p in range(ng + 1):
        for q in range(ng + 1):
            bad_lift = replace(liftedg, slack=_bump(liftedg.slack, (p, q)))
            all_fail &= not verify_composite_grad_identity(Hg, certg, bad_lift).passed
            counted += 1

    # incompatible slack constant: far too small for the Schur route
    tiny = lift_func(H, cert, xi=1e-6)
    schur_fails = not check_func_feasibility(tiny).structural_ok

    ok = all_fail and schur_fails
    assert _report(6, "negative controls", ok, f"{counted} single-entry perturbations all detected")


def _bump(matrix, entry, delta=1e-3):
    out = np.array(matrix)
    out[entry] += delta
    return out


def test_criterion_7_asymptotic_proxies():
    rho = SILVER_RATIO
    ratios = [FAMILIES["silver"].rate(k + 1) / FAMILIES["silver"].rate(k) for k in range(1, 7)]
    silver_ok = abs(ratios[-1] - 1.0 / rho) <= RATIO_WINDOW / rho
    products = []
    for n in range(2, 65):
        H = FAMILIES["ogm"].schedule(n)
        cert = FAMILIES["ogm"].certificate(n)
        lifted = lift_func(H, cert, xi=FAMILIES["ogm"].xi(n))
        tn2 = theta_sequence(n)[-1] ** 2
        products.append(certified_rate(lifted) * tn2)
    spread = (max(products) - min(products)) / products[0]
    pogm_ok = spread <= 1e-12 and abs(products[0] - (3 + math.sqrt(5)) / 8) < 1e-12
    ok = silver_ok and pogm_ok
    assert _report(7, "asymptotic proxies", ok,
                   f"silver ratio at k=6: {ratios[-1]:.6f} vs 1/rho {1/rho:.6f}; "
                   f"theta^2-scaled rate spread {spread:.1e}")
