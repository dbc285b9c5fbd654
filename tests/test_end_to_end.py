"""Cross-module consistency: the verified identities, evaluated on real runs.

Coefficient matching proves each identity as a polynomial; these tests bind
the symbols to concrete traces and check that both sides agree numerically,
which ties the ledger's expansion conventions to what the runners actually
compute.  They also re-derive the rate bound instance-by-instance: every
left-hand term is individually nonnegative, so the identity forces the gap
below the certified constant.
"""

import numpy as np
import pytest

from coco_oracle import evaluate, iter_nonzero, single_inequality
from conftest import basis_realization
from peplift.catalog import FAMILIES
from peplift.ledger import STAR
from peplift.lift import (
    certified_rate,
    composite_func_ledgers,
    composite_grad_ledgers,
    lift_func,
    lift_grad,
)
from peplift.methods import run_composite
from peplift.problems import ProblemSpec, initial_point, make_problem


def _cells():
    return [
        ("silver", 2, ProblemSpec(kind="lasso", dim=8, rows=16, seed=31, tau=0.15)),
        ("silver", 3, ProblemSpec(kind="boxqp", dim=6, rows=10, seed=32, lo=-0.4, hi=0.9)),
        ("ogm", 5, ProblemSpec(kind="lasso", dim=8, rows=16, seed=33, tau=0.1)),
        ("gsw", 2, ProblemSpec(kind="boxqp", dim=6, rows=10, seed=34, lo=-0.8, hi=0.3)),
        ("ogmg", 5, ProblemSpec(kind="lasso", dim=8, rows=16, seed=35, tau=0.2)),
    ]


@pytest.mark.parametrize("algo,size,spec", _cells())
def test_identity_evaluates_to_zero_on_traces(algo, size, spec):
    problem = make_problem(spec)
    H = FAMILIES[algo].schedule(size)
    cert = FAMILIES[algo].certificate(size)
    trace = run_composite(H, problem, initial_point(spec))
    vectors, f_vals, h_vals = basis_realization(trace, problem)
    if FAMILIES[algo].metric == "func":
        lifted = lift_func(H, cert, xi=FAMILIES[algo].xi(size))
        lhs, rhs = composite_func_ledgers(H, cert, lifted)
    else:
        lifted = lift_grad(H, cert, xi=FAMILIES[algo].xi(size))
        lhs, rhs = composite_grad_ledgers(H, cert, lifted)
    left = evaluate(lhs, vectors, f_vals, h_vals)
    right = evaluate(rhs, vectors, f_vals, h_vals)
    scale = max(1.0, abs(left), abs(right)) * max(1.0, cert.r)
    assert abs(left - right) <= 1e-9 * scale


@pytest.mark.parametrize("algo,size,spec", _cells())
def test_bound_rederived_from_nonnegative_terms(algo, size, spec):
    # each left-hand term is nonnegative on the instance, so the evaluated
    # identity yields the certified bound directly
    problem = make_problem(spec)
    H = FAMILIES[algo].schedule(size)
    cert = FAMILIES[algo].certificate(size)
    n = cert.n
    trace = run_composite(H, problem, initial_point(spec))
    vectors, f_vals, h_vals = basis_realization(trace, problem)
    L = problem.smoothness

    if FAMILIES[algo].metric == "func":
        lifted = lift_func(H, cert, xi=FAMILIES[algo].xi(size))
        mu_pairs = [
            (STAR if row == n else int(row) + 1, int(col) + 1, float(lifted.mu[row, col]))
            for row, col in zip(*np.nonzero(lifted.mu))
        ]
        slack = lifted.slack
    else:
        lifted = lift_grad(H, cert, xi=FAMILIES[algo].xi(size))
        mu_pairs = [
            (int(row), int(col) + 1, float(lifted.mu[row, col]))
            for row, col in zip(*np.nonzero(lifted.mu))
        ]
        slack = lifted.slack

    for i, j, w in iter_nonzero(cert.lam):
        if i == j:
            continue
        ii = STAR if (FAMILIES[algo].metric == "func" and i == n + 1) else i
        value = evaluate(single_inequality(H.entries, ii, j, "composite_f"), vectors, f_vals, h_vals)
        assert w >= 0 and value >= -1e-8
    for i, j, w in mu_pairs:
        if i == j:
            continue
        value = evaluate(single_inequality(H.entries, i, j, "composite_h"), vectors, f_vals, h_vals)
        assert w >= -1e-10 and value >= -1e-8

    assert np.linalg.eigvalsh(slack)[0] >= -1e-9 * max(1.0, abs(np.max(slack)))

    if FAMILIES[algo].metric == "func":
        gap = (trace.obj_values[-1] - problem.objective(problem.x_star)) / L
        dist_sq = float(np.dot(trace.xs[0] - problem.x_star, trace.xs[0] - problem.x_star))
        assert gap <= certified_rate(lifted) * dist_sq + 1e-8
    else:
        resid_sq = trace.final_composite_grad_norm**2 / L**2
        drop = (trace.obj_values[0] - trace.obj_values[-1]) / L
        assert resid_sq <= certified_rate(lifted) * drop + 1e-8
