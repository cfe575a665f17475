"""QP solver: oracle agreement, optimality certificates, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpmod.qpsolver import QpProblem, solve_qp
from oracles import (brute_force_box_qp, brute_force_qp, random_box_qp,
                     weak_duality_gap)


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
        # minimize ||z||^2 with z0 + z1 = 1: optimum (0.5, 0.5). The row is
        # an ordinary two-sided row: cold, it joins on the side it violates;
        # hot-started from the wrong side, it is dropped and joins again on
        # the other
        H, g, G = 2.0 * np.eye(2), np.zeros(2), np.array([[1.0, 1.0]])
        lo = hi = np.array([1.0])
        p = QpProblem(H=H, g=g, G=G, lo=lo, hi=hi)
        cold = solve_qp(p)
        wrong = solve_qp(p, y0=-cold.y)
        assert (cold.iterations, wrong.iterations) == (1, 2)
        z_ref, obj_ref = brute_force_qp(H, g, G, lo, hi)
        for sol in (cold, wrong):
            assert sol.status == "optimal"
            np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-8)
            np.testing.assert_allclose(sol.z, z_ref, rtol=0.0, atol=1e-12)
            assert abs(sol.objective - obj_ref) <= 1e-12 * (1.0 + abs(obj_ref))
            gap, viol = weak_duality_gap(H, g, G, lo, hi, 0.0, sol.z, sol.y)
            assert gap <= 1e-10 and viol <= 1e-10

    def test_max_iterations_status(self):
        # tol = 0 fails any nonzero residual. Rounding leaves one on this
        # QP (its premise, asserted first), so the solve cannot end
        # "optimal"
        rng = np.random.default_rng(1)
        H, g, lo, hi = random_box_qp(rng, 4)
        p = box_problem(H, g, lo, hi)
        sol = solve_qp(p, tol=0.0)
        assert max(sol.primal_residual, sol.dual_residual) > 0.0
        assert sol.status == "failed"
        assert sol.iterations <= 4 * (p.n + p.m)

    def test_exact_solve_optimal_at_zero_tol(self):
        # an exactly zero residual passes even the tol = 0 test:
        # minimize (z - 2)^2 has the float-exact optimum z = 2
        p = QpProblem(H=[[2.0]], g=[-4.0], G=np.empty((0, 1)), lo=[], hi=[], c=4.0)
        sol = solve_qp(p, tol=0.0)
        assert sol.primal_residual == 0.0 and sol.dual_residual == 0.0
        assert sol.status == "optimal"
        assert sol.z[0] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError, match="^H must be symmetric$"):
            QpProblem(H=[[1.0, 0.5], [0.0, 1.0]], g=[0.0, 0.0],
                      G=np.empty((0, 2)), lo=[], hi=[])
        with pytest.raises(ValueError, match="^g must be finite$"):
            box_problem([[2.0]], [np.nan], [0.0], [1.0])
        with pytest.raises(ValueError, match="^g must be finite$"):
            box_problem([[2.0]], [np.inf], [np.nan], [1.0])
        with pytest.raises(ValueError, match="^need lo <= hi elementwise$"):
            box_problem([[2.0]], [0.0], [1.0], [0.0])
        with pytest.raises(ValueError, match="^bounds must not be NaN$"):
            box_problem([[2.0]], [0.0], [np.nan], [1.0])
        with pytest.raises(ValueError, match="^bounds must not be NaN$"):
            box_problem(np.eye(2), [0.0, 0.0], [1.0, 0.0], [0.0, np.nan])
        # a 1-D G is not read as one row
        with pytest.raises(ValueError,
                           match=r"^G must have 2 columns, got \(2,\)$"):
            QpProblem(H=np.eye(2), g=[0.0, 0.0], G=[1.0, 1.0], lo=[0.0],
                      hi=[1.0])


class TestOracleAgreement:
    def test_random_box_qps_match_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 7))
            H, g, lo, hi = random_box_qp(rng, n)
            z_ref, obj_ref = brute_force_box_qp(H, g, lo, hi)
            p = box_problem(H, g, lo, hi)
            sol = solve_qp(p)
            assert sol.status == "optimal", f"trial {trial}"
            assert abs(sol.objective - obj_ref) < 1e-6, f"trial {trial}"
            np.testing.assert_allclose(sol.z, z_ref, atol=1e-6,
                                       err_msg=f"trial {trial}")
            gap, viol = weak_duality_gap(H, g, p.G, lo, hi, 0.0, sol.z, sol.y)
            assert gap <= 1e-10 and viol <= 1e-10, f"trial {trial}"

    def test_mixed_rows_match_enumeration(self):
        # Separable and coupled variables, bound rows of either sign (some
        # on one variable twice), general rows, a repeated general row,
        # equality and one-sided rows: every structure the method treats
        # apart, against enumeration of the row activities.
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(2, 5))
            sep = rng.random(n) < 0.5
            A = rng.normal(size=(n, n))
            H = np.where(np.outer(~sep, ~sep), A @ A.T + 0.1 * np.eye(n), 0.0)
            H[sep, sep] = rng.uniform(0.1, 2.0, size=int(sep.sum()))
            g = rng.normal(scale=2.0, size=n)
            rows = []
            for _ in range(int(rng.integers(1, 6))):
                if rng.random() < 0.5:
                    row = np.zeros(n)
                    row[rng.integers(n)] = rng.choice([-1.0, 1.0])
                else:
                    row = rng.normal(size=n)
                rows.append(row)
            if rng.random() < 0.3:
                rows.append(rows[-1].copy())
            G = np.array(rows)
            center = G @ rng.normal(size=n)
            lo = center - rng.uniform(0.0, 1.0, size=len(rows))
            hi = center + rng.uniform(0.0, 1.0, size=len(rows))
            lo[rng.random(len(rows)) < 0.2] = -np.inf
            hi[rng.random(len(rows)) < 0.2] = np.inf
            if rng.random() < 0.2:
                lo[0] = hi[0] = center[0]
            z_ref, obj_ref = brute_force_qp(H, g, G, lo, hi)
            p = QpProblem(H=H, g=g, G=G, lo=lo, hi=hi)
            sol = solve_qp(p)
            assert sol.status == "optimal", f"trial {trial}"
            assert abs(sol.objective - obj_ref) <= 1e-8 * (1 + abs(obj_ref)), \
                f"trial {trial}"
            gap, viol = weak_duality_gap(H, g, G, lo, hi, 0.0, sol.z, sol.y)
            assert gap <= 1e-10 and viol <= 1e-10, f"trial {trial}"
            hot = solve_qp(p, y0=sol.y)
            assert hot.iterations == 0, f"trial {trial}"

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


class TestFixedBounds:
    """An active bound row fixes its variable, coupled or separable; only
    general rows go through the Schur complement. Each case is checked
    against enumeration and a weak-duality certificate."""

    def solve(self, H, g, G, lo, hi, y0=None):
        p = QpProblem(H=H, g=g, G=G, lo=lo, hi=hi)
        sol = solve_qp(p, y0=y0)
        assert sol.status == "optimal"
        z_ref, obj_ref = brute_force_qp(H, g, G, lo, hi)
        np.testing.assert_allclose(sol.z, z_ref, rtol=0.0, atol=1e-12)
        assert abs(sol.objective - obj_ref) <= 1e-12 * (1.0 + abs(obj_ref))
        gap, viol = weak_duality_gap(H, g, p.G, lo, hi, 0.0, sol.z, sol.y)
        assert gap <= 1e-10 and viol <= 1e-10
        return p, sol

    def test_coupled_bound_with_general_row(self):
        # z0..z2 coupled, z3 separable (a slack): z0 <= 1 and the general
        # row z0 + z1 + z2 - z3 <= 1.5 both hold at the optimum, the first
        # fixing z0, the second a Schur row on the free z1, z2, z3
        A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.4], [0.1, 0.4, 1.0]])
        H = np.zeros((4, 4))
        H[:3, :3] = A @ A.T
        H[3, 3] = 0.5
        g = np.array([-12.0, -6.0, -4.0, 0.2])
        G = np.vstack((np.eye(4)[[0, 3]], [[1.0, 1.0, 1.0, -1.0]]))
        lo = np.array([-1.0, 0.0, -np.inf])
        hi = np.array([1.0, np.inf, 1.5])
        p, sol = self.solve(H, g, G, lo, hi)
        assert sol.z[0] == 1.0 and sol.y[0] > 0.0 and sol.y[2] > 0.0
        assert sol.iterations > 0
        hot = solve_qp(p, y0=sol.y)
        assert hot.iterations == 0
        np.testing.assert_array_equal(hot.z, sol.z)
        np.testing.assert_array_equal(hot.y, sol.y)

    def test_every_coupled_variable_fixed(self):
        # both coupled variables at their upper bounds, the separable one
        # free, and a general row on all three left inactive: the free
        # coupled block is empty
        H = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        g = np.array([-10.0, -10.0, 1.0])
        G = np.vstack((np.eye(3), [[1.0, 0.0, 1.0]]))
        lo = np.array([-1.0, -1.0, -5.0, -np.inf])
        hi = np.array([1.0, 1.0, 5.0, 10.0])
        p, sol = self.solve(H, g, G, lo, hi)
        assert sol.z[0] == sol.z[1] == 1.0 and sol.z[2] == -1.0
        assert sol.y[0] > 0.0 and sol.y[1] > 0.0
        assert sol.y[2] == sol.y[3] == 0.0
        # from a hot start the set holds both bounds from the first solve
        hot = solve_qp(p, y0=sol.y)
        assert hot.iterations == 0
        np.testing.assert_array_equal(hot.z, sol.z)

    def test_second_bound_on_fixed_variable_never_joins(self):
        # two upper bound rows on the coupled z0. A hot start that holds the
        # looser one: the tighter one is then violated but has no curvature
        # on the set, so the looser row must leave before it can join (one
        # row dropped, one added). A hot start that holds both is linearly
        # dependent: it falls back to the empty set, which adds the tighter
        # row alone
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        g = np.array([-8.0, -2.0])
        G = np.array([[1.0, 0.0], [1.0, 0.0]])
        lo = np.full(2, -np.inf)
        hi = np.array([1.0, 0.5])
        for y0, iterations in (([1.0, 0.0], 2), ([1.0, 1.0], 1)):
            p, sol = self.solve(H, g, G, lo, hi, y0=np.array(y0))
            assert sol.iterations == iterations
            assert sol.y[0] == 0.0 < sol.y[1]
            assert sol.z[0] == 0.5
            np.testing.assert_allclose(sol.z, [0.5, 0.75], rtol=0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(sol.y, [0.0, 6.25], rtol=0.0,
                                       atol=1e-12)
            # only the guess that holds both rows repeats a variable, and
            # it is refused
            for data in p.mats._sets.values():
                assert data.ok == (np.unique(data.evar).size == data.evar.size)

    def test_opposite_bounds_on_fixed_variable_infeasible(self):
        # z0 <= 1 and z0 >= 2 on a coupled variable: with z0 fixed at one
        # the other row cannot join, and no held multiplier can fall
        p = QpProblem(H=[[2.0, 1.0], [1.0, 2.0]], g=[0.0, 0.0],
                      G=[[1.0, 0.0], [1.0, 0.0]],
                      lo=[-np.inf, 2.0], hi=[1.0, np.inf])
        assert solve_qp(p).status == "infeasible"

    def test_zero_curvature_variable_at_bound(self):
        # z1 has no curvature and no cost, like u_{N-1} at rho = 0: the
        # coupled block is regularized, and the bound that fixes z0 leaves
        # a regularized sub-block. The minimizer is unique but for z1, which
        # stays at 0; the certificate is against the singular H.
        H = np.array([[2.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 1.0]])
        g = np.array([-6.0, 0.0, -2.0])
        G = np.eye(3)
        lo, hi = np.full(3, -2.0), np.full(3, 2.0)
        p = QpProblem(H=H, g=g, G=G, lo=lo, hi=hi)
        assert p.mats.regularized
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert sol.z[0] == 2.0 and sol.y[0] > 0.0 and sol.z[1] == 0.0
        z_ref, obj_ref = brute_force_qp(H, g, G, lo, hi)
        np.testing.assert_allclose(sol.z[[0, 2]], z_ref[[0, 2]], rtol=0.0,
                                   atol=1e-12)
        assert abs(sol.objective - obj_ref) <= 1e-12 * (1.0 + abs(obj_ref))
        gap, viol = weak_duality_gap(H, g, G, lo, hi, 0.0, sol.z, sol.y)
        assert gap <= 1e-10 and viol <= 1e-10
