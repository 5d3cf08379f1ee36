import numpy as np
import pytest

from blocksolve.errors import ConfigurationError
from blocksolve.inner_solvers import (
    InnerSolverSpec,
    cg_solve,
    gmres_solve,
    jacobi_solve,
    solve,
)
from blocksolve.linalg import SparseMatrix, dense_solve, residual_norms
from blocksolve.problems import DirichletBoundary, Grid3D, build_laplace_3d

from test_linalg import identity, tridiag


def laplace_4cubed():
    grid = Grid3D(4, 4, 4, DirichletBoundary({"x_lo": 1.0, "y_hi": 0.5}))
    return build_laplace_3d(grid)


def random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return SparseMatrix.from_dense(b @ b.T + n * np.eye(n))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            InnerSolverSpec("sor", 10)
        with pytest.raises(ValueError):
            InnerSolverSpec("cg", 0)
        with pytest.raises(ValueError):
            InnerSolverSpec("cg", 10, tolerance=-1.0)
        with pytest.raises(ValueError):
            InnerSolverSpec("gmres", 10, restart=0)


class TestJacobi:
    def test_identity_one_sweep(self):
        b = np.array([1.0, -2.0, 3.0])
        x, report = jacobi_solve(identity(3), b, np.zeros(3), InnerSolverSpec("jacobi", 5, 1e-12))
        assert np.array_equal(x, b)
        assert report.iterations_used == 1
        assert report.stop_reason == "tolerance_met"

    def test_exact_start_zero_iterations(self):
        a = tridiag(3)
        b = np.array([1.0, 0.0, 1.0])
        x_true = dense_solve(a.to_dense(), b)
        x, report = jacobi_solve(a, b, x_true, InnerSolverSpec("jacobi", 10, 1e-10))
        assert report.iterations_used == 0
        assert report.stop_reason == "tolerance_met"
        assert np.array_equal(x, x_true)

    def test_hand_unrolled_two_sweeps(self):
        a = tridiag(2)
        b = np.ones(2)
        x1, _ = jacobi_solve(a, b, np.zeros(2), InnerSolverSpec("jacobi", 1))
        assert np.allclose(x1, [0.5, 0.5], atol=1e-15)
        x2, _ = jacobi_solve(a, b, np.zeros(2), InnerSolverSpec("jacobi", 2))
        assert np.allclose(x2, [0.75, 0.75], atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_explicit_recurrence(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        dense = rng.standard_normal((n, n)) + 3 * n * np.eye(n)
        a = SparseMatrix.from_dense(dense)
        b = rng.standard_normal(n)
        d = np.diag(dense)
        x_ref = np.zeros(n)
        for sweeps in range(1, 6):
            x_ref = (b - (dense - np.diag(d)) @ x_ref) / d
            x, _ = jacobi_solve(a, b, np.zeros(n), InnerSolverSpec("jacobi", sweeps))
            assert np.abs(x - x_ref).max() <= 1e-14 * max(np.abs(x_ref).max(), 1.0)

    def test_zero_diagonal_breakdown(self):
        a = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        _, report = jacobi_solve(a, np.ones(2), np.zeros(2), InnerSolverSpec("jacobi", 5))
        assert report.stop_reason == "breakdown"

    def test_divergence_reports_breakdown(self):
        # spectral radius of the Jacobi iteration matrix is 2: iterates blow up
        a = SparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        _, report = jacobi_solve(a, np.ones(2), np.zeros(2), InnerSolverSpec("jacobi", 5000))
        assert report.stop_reason in ("breakdown", "max_iterations")
        assert not report.final_relative_residual <= 1.0


class TestCG:
    def test_identity_one_iteration(self):
        b = np.array([2.0, -1.0, 0.5])
        x, report = cg_solve(identity(3), b, np.zeros(3), InnerSolverSpec("cg", 5, 1e-12))
        assert report.iterations_used == 1
        assert np.allclose(x, b, atol=1e-15)

    def test_matches_dense_oracle(self):
        problem = laplace_4cubed()
        x_true = dense_solve(problem.matrix.to_dense(), problem.rhs)
        x, report = cg_solve(
            problem.matrix, problem.rhs, np.zeros(64), InnerSolverSpec("cg", 64, 1e-12)
        )
        assert report.stop_reason == "tolerance_met"
        assert np.abs(x - x_true).max() <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_termination(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 33))
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        x, report = cg_solve(a, b, np.zeros(n), InnerSolverSpec("cg", 2 * n, 1e-12))
        assert report.stop_reason == "tolerance_met"
        assert report.iterations_used <= n

    def test_non_spd_breakdown(self):
        a = SparseMatrix.from_dense(np.diag([1.0, -1.0]))
        _, report = cg_solve(a, np.ones(2), np.zeros(2), InnerSolverSpec("cg", 10, 1e-10))
        assert report.stop_reason == "breakdown"

    @pytest.mark.parametrize("seed", [3, 4])
    def test_tolerance_met_is_honest(self, seed):
        rng = np.random.default_rng(seed)
        a = random_spd(rng, 20)
        b = rng.standard_normal(20)
        tol = 1e-8
        x, report = cg_solve(a, b, np.zeros(20), InnerSolverSpec("cg", 200, tol))
        assert report.stop_reason == "tolerance_met"
        assert residual_norms(a, x, b)[1] <= tol * (1 + 1e-12)


class TestGMRES:
    def test_identity_one_iteration(self):
        b = np.array([1.0, 2.0])
        x, report = gmres_solve(identity(2), b, np.zeros(2), InnerSolverSpec("gmres", 5, 1e-12))
        assert report.iterations_used == 1
        assert np.allclose(x, b, atol=1e-14)

    def test_full_restart_matches_dense(self):
        problem = laplace_4cubed()
        x_true = dense_solve(problem.matrix.to_dense(), problem.rhs)
        x, report = gmres_solve(
            problem.matrix,
            problem.rhs,
            np.zeros(64),
            InnerSolverSpec("gmres", 200, 1e-10, restart=64),
        )
        assert report.stop_reason == "tolerance_met"
        assert np.abs(x - x_true).max() <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_monotone_within_cycle(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        a = SparseMatrix.from_dense(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
        b = rng.standard_normal(n)
        _, report = gmres_solve(a, b, np.zeros(n), InnerSolverSpec("gmres", n, 1e-14, restart=n))
        history = report.residual_history
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier * (1 + 1e-12)

    def test_happy_breakdown_returns_exact(self):
        a = SparseMatrix.from_dense(np.diag([2.0, 3.0]))
        b = np.array([1.0, 0.0])  # Krylov space closes after one step
        x, report = gmres_solve(a, b, np.zeros(2), InnerSolverSpec("gmres", 10, tolerance=0.0))
        assert report.stop_reason == "tolerance_met"
        assert report.iterations_used == 1
        assert np.allclose(x, [0.5, 0.0], atol=1e-15)

    def test_stagnation_reports_breakdown(self):
        # cyclic shift: GMRES makes no progress until the full dimension
        n = 8
        a = SparseMatrix.from_entries(n, n, [((i + 1) % n, i, 1.0) for i in range(n)])
        b = np.zeros(n)
        b[0] = 1.0
        _, report = gmres_solve(a, b, np.zeros(n), InnerSolverSpec("gmres", 20, 1e-10, restart=5))
        assert report.stop_reason == "breakdown"

    def test_restart_cap_still_converges(self):
        problem = laplace_4cubed()
        x_true = dense_solve(problem.matrix.to_dense(), problem.rhs)
        x, report = gmres_solve(
            problem.matrix,
            problem.rhs,
            np.zeros(64),
            InnerSolverSpec("gmres", 500, 1e-10, restart=10),
        )
        assert report.stop_reason == "tolerance_met"
        assert np.abs(x - x_true).max() <= 1e-7


class TestCommonBehavior:
    @pytest.mark.parametrize("kind", ["jacobi", "cg", "gmres"])
    def test_determinism(self, kind):
        problem = laplace_4cubed()
        spec = InnerSolverSpec(kind, 50, 1e-8)
        runs = [
            solve(problem.matrix, problem.rhs, np.zeros(64), spec) for _ in range(2)
        ]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1].residual_history == runs[1][1].residual_history

    @pytest.mark.parametrize("kind", ["jacobi", "cg", "gmres"])
    def test_zero_rhs_solves_to_zero(self, kind):
        a = tridiag(5, -1.0, 4.0, -1.0)
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(5)
        x, report = solve(a, np.zeros(5), x0, InnerSolverSpec(kind, 500, 1e-12))
        assert report.stop_reason == "tolerance_met"
        assert np.abs(x).max() <= 1e-10

    @pytest.mark.parametrize("kind", ["jacobi", "cg", "gmres", "direct"])
    def test_tolerance_met_residual_contract(self, kind):
        problem = laplace_4cubed()
        tol = 1e-6
        spec = InnerSolverSpec(kind, 5000, tol)
        x, report = solve(problem.matrix, problem.rhs, np.zeros(64), spec)
        assert report.stop_reason == "tolerance_met"
        assert residual_norms(problem.matrix, x, problem.rhs)[1] <= tol * (1 + 1e-12)

    def test_direct_dispatch(self):
        problem = laplace_4cubed()
        x_true = dense_solve(problem.matrix.to_dense(), problem.rhs)
        x, report = solve(
            problem.matrix, problem.rhs, np.zeros(64), InnerSolverSpec("direct", 1)
        )
        assert report.iterations_used == 1
        assert np.abs(x - x_true).max() <= 1e-12

    def test_direct_refuses_matrix_over_dense_cap(self, monkeypatch):
        # the 21x21x19 system has 8379 rows, over the 8192-row dense cap
        problem = build_laplace_3d(Grid3D(21, 21, 19))

        def no_densify(matrix):
            raise AssertionError("the matrix was densified before the size check")

        monkeypatch.setattr(SparseMatrix, "to_dense", no_densify)
        with pytest.raises(ConfigurationError, match="8379 rows"):
            solve(problem.matrix, problem.rhs, np.zeros(8379), InnerSolverSpec("direct", 1))
