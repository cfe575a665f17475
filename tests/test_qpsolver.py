"""QP solver: oracle agreement, optimality certificates, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpmod.qpsolver import QpProblem, solve_qp
from oracles import brute_force_box_qp, random_box_qp


def box_problem(H, g, lo, hi, c=0.0):
    n = len(g)
    return QpProblem(H=H, g=g, G=np.eye(n), lo=lo, hi=hi, c=c)


class TestBasics:
    def test_unconstrained_scalar(self):
        # minimize (z - 2)^2, written with its constant so the optimum is 0
        p = QpProblem(H=[[2.0]], g=[-4.0], G=np.empty((0, 1)), lo=[], hi=[], c=4.0)
        sol = solve_qp(p)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z, [2.0], atol=1e-9)
        assert abs(sol.objective) < 1e-9

    def test_active_upper_bound(self):
        # minimize (z - 2)^2 subject to z <= 1: optimum at the bound, objective 1
        p = box_problem([[2.0]], [-4.0], [-np.inf], [1.0], c=4.0)
        sol = solve_qp(p)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z, [1.0], atol=1e-9)
        assert abs(sol.objective - 1.0) < 1e-8
        assert sol.y[0] > 0.0  # active upper bound carries a positive multiplier

    def test_infeasible_rows_detected(self):
        # z <= 1 and z >= 2 cannot both hold: with z >= 2 in the working set
        # no step can meet z <= 1
        p = QpProblem(H=[[2.0]], g=[0.0], G=[[1.0], [1.0]],
                      lo=[-np.inf, 2.0], hi=[1.0, np.inf])
        sol = solve_qp(p)
        assert sol.status == "infeasible"

    def test_equality_rows(self):
        # minimize ||z||^2 with z0 + z1 = 1: optimum (0.5, 0.5)
        p = QpProblem(H=2.0 * np.eye(2), g=np.zeros(2), G=[[1.0, 1.0]],
                      lo=[1.0], hi=[1.0])
        sol = solve_qp(p)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-8)

    def test_max_iterations_status(self):
        # tol = 0 passes no residual test, so the solve cannot end "optimal"
        rng = np.random.default_rng(0)
        H, g, lo, hi = random_box_qp(rng, 4)
        p = box_problem(H, g, lo, hi)
        sol = solve_qp(p, tol=0.0)
        assert sol.status == "failed"
        assert sol.iterations <= 4 * (p.n + p.m)

    def test_validation(self):
        with pytest.raises(ValueError):
            QpProblem(H=[[1.0, 0.5], [0.0, 1.0]], g=[0.0, 0.0],
                      G=np.empty((0, 2)), lo=[], hi=[])
        with pytest.raises(ValueError):
            box_problem([[2.0]], [0.0], [1.0], [0.0])
        with pytest.raises(ValueError):
            box_problem([[2.0]], [0.0], [np.nan], [1.0])


class TestOracleAgreement:
    def test_random_box_qps_match_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 7))
            H, g, lo, hi = random_box_qp(rng, n)
            z_ref, obj_ref = brute_force_box_qp(H, g, lo, hi)
            sol = solve_qp(box_problem(H, g, lo, hi))
            assert sol.status == "optimal", f"trial {trial}"
            assert abs(sol.objective - obj_ref) < 1e-6, f"trial {trial}"
            np.testing.assert_allclose(sol.z, z_ref, atol=1e-6,
                                       err_msg=f"trial {trial}")

    def test_duality_gap(self):
        # At the reported (z, y): dual objective from the Lagrangian minimum
        # must match the primal objective within 10x solver tolerance.
        rng = np.random.default_rng(7)
        tol = 1e-8
        for _ in range(20):
            n = int(rng.integers(2, 7))
            H, g, lo, hi = random_box_qp(rng, n)
            p = box_problem(H, g, lo, hi)
            sol = solve_qp(p, tol=tol)
            assert sol.status == "optimal"
            y = sol.y
            z_min = np.linalg.solve(H, -(g + y))
            dual = (0.5 * z_min @ H @ z_min + g @ z_min + y @ z_min
                    - hi @ np.maximum(y, 0.0) - lo @ np.minimum(y, 0.0))
            scale = 1.0 + abs(sol.objective)
            assert abs(sol.objective - dual) <= 10 * tol * scale


class TestWarmStart:
    def test_fixed_point_converges_immediately(self):
        rng = np.random.default_rng(3)
        H, g, lo, hi = random_box_qp(rng, 5)
        p = box_problem(H, g, lo, hi)
        cold = solve_qp(p)
        # the duals of the optimum imply its active set: one KKT solve
        sol = solve_qp(p, y0=cold.y)
        assert sol.status == "optimal"
        assert sol.iterations == 0
        np.testing.assert_allclose(sol.z, cold.z, atol=1e-8)


class TestDeterminism:
    def test_bitwise_repeatability(self):
        rng = np.random.default_rng(5)
        H, g, lo, hi = random_box_qp(rng, 6)
        p = box_problem(H, g, lo, hi)
        a = solve_qp(p)
        b = solve_qp(p)
        assert np.array_equal(a.z, b.z)
        assert a.iterations == b.iterations
        assert a.objective == b.objective

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_permutation_covariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        H, g, lo, hi = random_box_qp(rng, n)
        perm = rng.permutation(n)
        sol = solve_qp(box_problem(H, g, lo, hi))
        sol_p = solve_qp(box_problem(H[np.ix_(perm, perm)], g[perm],
                                     lo[perm], hi[perm]))
        np.testing.assert_allclose(sol_p.z, sol.z[perm], atol=1e-6)

