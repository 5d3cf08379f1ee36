import contextlib
import threading

import numpy as np
import pytest

from blocksolve import inner_solvers
from blocksolve.errors import ConfigurationError
from blocksolve.inner_solvers import InnerSolveReport, InnerSolverSpec, prepare
from blocksolve.linalg import SparseMatrix, residual_norms
from blocksolve.problems import DirichletBoundary, Grid3D, build_laplace_3d

from conftest import dense_solve
from test_linalg import identity, tridiag


def laplace_4cubed():
    grid = Grid3D(4, 4, 4, DirichletBoundary({"x_lo": 1.0, "y_hi": 0.5}))
    return build_laplace_3d(grid)


def random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return SparseMatrix.from_dense(b @ b.T + n * np.eye(n))


def count_spmv(monkeypatch):
    """Every product the solvers make from now on."""
    original = inner_solvers.spmv
    calls = []
    monkeypatch.setattr(inner_solvers, "spmv", lambda a, x: calls.append(1) or original(a, x))
    return calls


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
        x, report = prepare(InnerSolverSpec("jacobi", 5, 1e-12), identity(3))(b, np.zeros(3))
        assert np.array_equal(x, b)
        assert report.iterations_used == 1
        assert report.stop_reason == "tolerance_met"

    def test_exact_start_zero_iterations(self):
        a = tridiag(3)
        b = np.array([1.0, 0.0, 1.0])
        x_true = dense_solve(a.to_dense(), b)
        x, report = prepare(InnerSolverSpec("jacobi", 10, 1e-10), a)(b, x_true)
        assert report.iterations_used == 0
        assert report.stop_reason == "tolerance_met"
        assert np.array_equal(x, x_true)

    def test_hand_unrolled_two_sweeps(self):
        a = tridiag(2)
        b = np.ones(2)
        x1, _ = prepare(InnerSolverSpec("jacobi", 1), a)(b, np.zeros(2))
        assert np.allclose(x1, [0.5, 0.5], atol=1e-15)
        x2, _ = prepare(InnerSolverSpec("jacobi", 2), a)(b, np.zeros(2))
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
            x, _ = prepare(InnerSolverSpec("jacobi", sweeps), a)(b, np.zeros(n))
            assert np.abs(x - x_ref).max() <= 1e-14 * max(np.abs(x_ref).max(), 1.0)

    @pytest.mark.parametrize("sweeps,tolerance", [(1, 0.0), (7, 0.0), (500, 1e-6)])
    def test_one_spmv_per_sweep(self, monkeypatch, sweeps, tolerance):
        problem = laplace_4cubed()
        calls = count_spmv(monkeypatch)
        spec = InnerSolverSpec("jacobi", sweeps, tolerance)
        x, report = prepare(spec, problem.matrix)(problem.rhs, np.zeros(64))
        assert len(calls) == 1 + report.iterations_used
        assert report.stop_reason == ("tolerance_met" if tolerance else "max_iterations")
        true_rel = residual_norms(problem.matrix, x, problem.rhs)[1]
        assert report.final_relative_residual == pytest.approx(true_rel, rel=1e-10)

    def test_zero_diagonal_breakdown(self):
        a = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        _, report = prepare(InnerSolverSpec("jacobi", 5), a)(np.ones(2), np.zeros(2))
        assert report.stop_reason == "breakdown"

    def test_divergence_reports_breakdown(self):
        # spectral radius of the Jacobi iteration matrix is 2: iterates blow up
        a = SparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            _, report = prepare(InnerSolverSpec("jacobi", 5000), a)(np.ones(2), np.zeros(2))
        assert report.stop_reason in ("breakdown", "max_iterations")
        assert not report.final_relative_residual <= 1.0


class TestCG:
    def test_identity_one_iteration(self):
        b = np.array([2.0, -1.0, 0.5])
        x, report = prepare(InnerSolverSpec("cg", 5, 1e-12), identity(3))(b, np.zeros(3))
        assert report.iterations_used == 1
        assert np.allclose(x, b, atol=1e-15)

    def test_matches_dense_oracle(self):
        problem = laplace_4cubed()
        x_true = dense_solve(problem.matrix.to_dense(), problem.rhs)
        x, report = prepare(InnerSolverSpec("cg", 64, 1e-12), problem.matrix)(
            problem.rhs, np.zeros(64)
        )
        assert report.stop_reason == "tolerance_met"
        assert np.abs(x - x_true).max() <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_termination(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 33))
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        x, report = prepare(InnerSolverSpec("cg", 2 * n, 1e-12), a)(b, np.zeros(n))
        assert report.stop_reason == "tolerance_met"
        assert report.iterations_used <= n

    def test_non_spd_breakdown(self):
        a = SparseMatrix.from_dense(np.diag([1.0, -1.0]))
        _, report = prepare(InnerSolverSpec("cg", 10, 1e-10), a)(np.ones(2), np.zeros(2))
        assert report.stop_reason == "breakdown"

    @pytest.mark.parametrize("seed", [3, 4])
    def test_tolerance_met_is_honest(self, seed):
        rng = np.random.default_rng(seed)
        a = random_spd(rng, 20)
        b = rng.standard_normal(20)
        tol = 1e-8
        x, report = prepare(InnerSolverSpec("cg", 200, tol), a)(b, np.zeros(20))
        assert report.stop_reason == "tolerance_met"
        assert residual_norms(a, x, b)[1] <= tol * (1 + 1e-12)

    def test_a_false_recurrence_claim_continues_to_an_honest_stop(self):
        # the recurrence claims 1e-15 before the true residual meets it: the
        # re-check restarts the recurrence from the true residual
        problem = build_laplace_3d(Grid3D(8, 8, 8, DirichletBoundary({"x_lo": 1.0})))
        a, b = problem.matrix, problem.rhs
        x, report = prepare(InnerSolverSpec("cg", 300, 1e-15), a)(b, np.zeros(b.shape[0]))
        assert report.stop_reason == "tolerance_met"
        assert report.final_relative_residual == residual_norms(a, x, b)[1] <= 1e-15


class TestGMRES:
    def test_identity_one_iteration(self):
        b = np.array([1.0, 2.0])
        x, report = prepare(InnerSolverSpec("gmres", 5, 1e-12), identity(2))(b, np.zeros(2))
        assert report.iterations_used == 1
        assert np.allclose(x, b, atol=1e-14)

    def test_full_restart_matches_dense(self):
        problem = laplace_4cubed()
        x_true = dense_solve(problem.matrix.to_dense(), problem.rhs)
        x, report = prepare(InnerSolverSpec("gmres", 200, 1e-10, restart=64), problem.matrix)(
            problem.rhs, np.zeros(64)
        )
        assert report.stop_reason == "tolerance_met"
        assert np.abs(x - x_true).max() <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_monotone_within_cycle(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        a = SparseMatrix.from_dense(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
        b = rng.standard_normal(n)
        _, report = prepare(InnerSolverSpec("gmres", n, 1e-14, restart=n), a)(b, np.zeros(n))
        history = report.residual_history
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier * (1 + 1e-12)

    def test_happy_breakdown_returns_exact(self):
        a = SparseMatrix.from_dense(np.diag([2.0, 3.0]))
        b = np.array([1.0, 0.0])  # Krylov space closes after one step
        x, report = prepare(InnerSolverSpec("gmres", 10, tolerance=0.0), a)(b, np.zeros(2))
        assert report.stop_reason == "tolerance_met"
        assert report.iterations_used == 1
        assert np.allclose(x, [0.5, 0.0], atol=1e-15)

    def test_happy_breakdown_at_a_positive_tolerance_is_checked(self):
        # SPD with condition 1e10: the Krylov space closes at step 40, but
        # the true residual misses 1e-15, so the cap is reported
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = SparseMatrix.from_dense((q * np.logspace(0, 10, 40)) @ q.T)
        b = rng.standard_normal(40)
        spec = InnerSolverSpec("gmres", 40, 1e-15, restart=40)
        x, report = prepare(spec, a)(b, np.zeros(40))
        assert report.stop_reason == "max_iterations"
        assert report.iterations_used == 40
        assert report.final_relative_residual == residual_norms(a, x, b)[1] > 1e-15

    def test_overflow_mid_cycle_reports_breakdown(self):
        a = SparseMatrix.from_dense(np.array([[1e300, 1e300], [1e300, -1e300]]))
        solve = prepare(InnerSolverSpec("gmres", 5, restart=5), a)
        with pytest.warns(RuntimeWarning, match="overflow"):
            _, report = solve(np.array([1.0, 2.0]), np.zeros(2))
        assert report.stop_reason == "breakdown"
        assert report.iterations_used == 1
        assert not np.isfinite(report.final_relative_residual)

    def test_stagnation_reports_breakdown(self):
        # cyclic shift: GMRES makes no progress until the full dimension
        n = 8
        a = SparseMatrix.from_dense(np.roll(np.eye(n), 1, axis=0))
        b = np.zeros(n)
        b[0] = 1.0
        _, report = prepare(InnerSolverSpec("gmres", 20, 1e-10, restart=5), a)(b, np.zeros(n))
        assert report.stop_reason == "breakdown"

    def test_singular_reduced_system_reports_breakdown(self):
        # A v0 = 0: the first Hessenberg column is zero, so it cannot be rotated
        a = SparseMatrix.from_dense(np.diag([0.0, 1.0]))
        _, report = prepare(InnerSolverSpec("gmres", 5), a)(np.array([1.0, 0.0]), np.zeros(2))
        assert report.stop_reason == "breakdown"

    def test_cap_reports_the_estimate_without_a_residual_spmv(self, monkeypatch):
        problem = laplace_4cubed()
        solver = prepare(InnerSolverSpec("gmres", 5, restart=5), problem.matrix)
        # patched after prepare: every product goes through the module-level spmv
        original = inner_solvers.spmv
        calls = []
        monkeypatch.setattr(
            inner_solvers, "spmv", lambda a, x: calls.append(1) or original(a, x)
        )
        x, report = solver(problem.rhs, np.zeros(64))
        assert report.stop_reason == "max_iterations"
        assert len(calls) == 6  # the initial residual and five Arnoldi steps
        assert report.final_relative_residual == report.residual_history[-1]
        true_rel = residual_norms(problem.matrix, x, problem.rhs)[1]
        assert report.final_relative_residual == pytest.approx(true_rel, rel=1e-10)

    def test_restart_cap_still_converges(self):
        problem = laplace_4cubed()
        x_true = dense_solve(problem.matrix.to_dense(), problem.rhs)
        x, report = prepare(InnerSolverSpec("gmres", 500, 1e-10, restart=10), problem.matrix)(
            problem.rhs, np.zeros(64)
        )
        assert report.stop_reason == "tolerance_met"
        assert np.abs(x - x_true).max() <= 1e-7


class TestCommonBehavior:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["jacobi", "cg", "gmres", "direct"])
    def test_non_finite_rhs_reports_breakdown(self, kind, bad):
        problem = laplace_4cubed()
        b = problem.rhs.copy()
        b[5] = bad
        # inf - inf: in Jacobi's first residual and in CG's first p.Ap
        warns = bad == np.inf and kind in ("jacobi", "cg")
        expected = pytest.warns(RuntimeWarning, match="invalid value")
        with expected if warns else contextlib.nullcontext():
            _, report = prepare(InnerSolverSpec(kind, 2, restart=2), problem.matrix)(
                b, np.zeros(64)
            )
        assert report.stop_reason == "breakdown"
        assert not np.isfinite(report.final_relative_residual)

    @pytest.mark.parametrize("kind", ["jacobi", "cg", "gmres", "direct"])
    def test_prepared_solver_carries_no_state(self, kind):
        problem = laplace_4cubed()
        rng = np.random.default_rng(11)
        b1, x1, b2, x2 = (rng.standard_normal(64) for _ in range(4))
        spec = InnerSolverSpec(kind, 7, restart=3)  # GMRES reuses its basis across cycles
        solver = prepare(spec, problem.matrix)
        solver(b1, x1)
        solver(b2, x2)
        x, report = solver(b1, x1)
        x_fresh, report_fresh = prepare(spec, problem.matrix)(b1, x1)
        assert x.tobytes() == x_fresh.tobytes()
        assert report == report_fresh

    @pytest.mark.parametrize("kind", ["jacobi", "cg", "gmres"])
    def test_determinism(self, kind):
        problem = laplace_4cubed()
        spec = InnerSolverSpec(kind, 50, 1e-8)
        runs = [
            prepare(spec, problem.matrix)(problem.rhs, np.zeros(64)) for _ in range(2)
        ]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1].residual_history == runs[1][1].residual_history

    @pytest.mark.parametrize("kind", ["jacobi", "cg", "gmres"])
    def test_zero_rhs_solves_to_zero(self, kind):
        a = tridiag(5, -1.0, 4.0, -1.0)
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(5)
        x, report = prepare(InnerSolverSpec(kind, 500, 1e-12), a)(np.zeros(5), x0)
        assert report.stop_reason == "tolerance_met"
        assert np.abs(x).max() <= 1e-10

    @pytest.mark.parametrize("kind", ["jacobi", "cg", "gmres", "direct"])
    def test_tolerance_met_residual_contract(self, kind):
        problem = laplace_4cubed()
        tol = 1e-6
        spec = InnerSolverSpec(kind, 5000, tol)
        x, report = prepare(spec, problem.matrix)(problem.rhs, np.zeros(64))
        assert report.stop_reason == "tolerance_met"
        assert residual_norms(problem.matrix, x, problem.rhs)[1] <= tol * (1 + 1e-12)

    def test_direct_dispatch(self, monkeypatch):
        problem = laplace_4cubed()
        x_true = dense_solve(problem.matrix.to_dense(), problem.rhs)
        calls = count_spmv(monkeypatch)
        x, report = prepare(InnerSolverSpec("direct", 1), problem.matrix)(
            problem.rhs, np.zeros(64)
        )
        assert report.iterations_used == 1
        assert np.abs(x - x_true).max() <= 1e-12
        # the exact solve does not measure its residual
        assert calls == []
        assert report == InnerSolveReport(1, 0.0, "tolerance_met", [0.0])

    def test_direct_solve_takes_columns(self):
        problem = laplace_4cubed()
        solver = prepare(InnerSolverSpec("direct", 1), problem.matrix)
        columns = np.random.default_rng(2).standard_normal((64, 3))
        x, report = solver(columns)
        assert x.shape == (64, 3) and report.stop_reason == "tolerance_met"
        for j in range(3):
            assert np.abs(x[:, j] - solver(columns[:, j])[0]).max() <= 1e-12
        columns[5, 1] = np.nan
        assert solver(columns)[1].stop_reason == "breakdown"

    def test_direct_solves_at_once_on_one_factor(self):
        # threads solving through one shared factor at once must each get
        # their own exact solve: a solve only reads the inverse
        rng = np.random.default_rng(5)
        n = 200
        solver = prepare(
            InnerSolverSpec("direct", 1),
            SparseMatrix.from_dense(rng.standard_normal((n, n)) + n * np.eye(n)),
        )
        rhs = [rng.standard_normal(n) for _ in range(6)]
        wanted = [solver(b)[0] for b in rhs]
        wrong = []

        def solve_repeatedly(b, x):
            for _ in range(300):
                if not np.array_equal(solver(b)[0], x):
                    wrong.append(b)

        threads = [threading.Thread(target=solve_repeatedly, args=bx) for bx in zip(rhs, wanted)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_direct_refuses_matrix_over_dense_cap(self, monkeypatch):
        # the 21x21x19 system has 8379 rows, over the 8192-row dense cap
        problem = build_laplace_3d(Grid3D(21, 21, 19))

        def no_densify(matrix):
            raise AssertionError("the matrix was densified before the size check")

        monkeypatch.setattr(SparseMatrix, "to_dense", no_densify)
        with pytest.raises(ConfigurationError, match="8379 rows"):
            prepare(InnerSolverSpec("direct", 1), problem.matrix)(problem.rhs, np.zeros(8379))
