import numpy as np
import pytest
import scipy.sparse

from blocksolve.linalg import SparseMatrix, ZeroRhsError, residual_norms, spmv
from blocksolve.problems import DirichletBoundary, Grid3D, build_laplace_3d

from conftest import SingularMatrixError, dense_solve


def tridiag(n, lo=-1.0, diag=2.0, hi=-1.0):
    dense = np.diag(np.full(n, diag)) + np.diag(np.full(n - 1, lo), -1)
    return SparseMatrix.from_dense(dense + np.diag(np.full(n - 1, hi), 1))


def identity(n):
    return SparseMatrix.from_dense(np.eye(n))


def random_csr(rng, n, density=0.4):
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    return SparseMatrix.from_dense(dense), dense


class TestSparseMatrix:
    def test_diagonal_and_without_diagonal(self):
        a = tridiag(4)
        assert np.array_equal(a.diagonal(), np.full(4, 2.0))
        off = a.without_diagonal()
        assert np.array_equal(off.to_dense(), a.to_dense() - 2.0 * np.eye(4))

    def test_non_canonical_csr_rejected(self):
        unsorted = scipy.sparse.csr_array(
            (np.ones(2), np.array([1, 0]), np.array([0, 2, 2])), shape=(2, 2)
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrix(unsorted)

    def test_from_dense_drops_zeros(self):
        a = SparseMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]])
        assert a.nnz == 1


class TestSpmv:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spmv(identity(3), x), x)

    def test_1d_laplace_row_sums(self):
        assert np.array_equal(spmv(tridiag(3), np.ones(3)), [1.0, 0.0, 1.0])

    def test_interior_stencil_row_cancels(self):
        problem = build_laplace_3d(Grid3D(4, 4, 4))
        y = spmv(problem.matrix, np.ones(64))
        interior = Grid3D(4, 4, 4).index(1, 1, 1)
        assert y[interior] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            spmv(identity(3), np.ones(4))

    def test_empty_rows(self):
        a = SparseMatrix.from_dense([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        assert np.array_equal(spmv(a, [1.0, 1.0, 1.0]), [2.0, 0.0, 3.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linearity_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        a, dense = random_csr(rng, 12)
        x, y = rng.standard_normal(12), rng.standard_normal(12)
        alpha, beta = 0.7, -1.3
        left = spmv(a, alpha * x + beta * y)
        right = alpha * spmv(a, x) + beta * spmv(a, y)
        assert np.linalg.norm(left - right) <= 1e-12 * max(np.linalg.norm(left), 1.0)
        assert np.allclose(spmv(a, x), dense @ x, rtol=1e-13, atol=1e-13)


class TestResidualNorms:
    def test_exact_solution(self):
        problem = build_laplace_3d(Grid3D(3, 3, 3, DirichletBoundary({"x_lo": 1.0})))
        x = dense_solve(problem.matrix.to_dense(), problem.rhs)
        absolute, relative = residual_norms(problem.matrix, x, problem.rhs)
        assert absolute <= 1e-12 * np.linalg.norm(problem.rhs)
        assert relative <= 1e-12

    def test_zero_guess(self):
        a = tridiag(4)
        b = np.array([1.0, 2.0, 0.5, -1.0])
        absolute, relative = residual_norms(a, np.zeros(4), b)
        assert absolute == pytest.approx(np.linalg.norm(b))
        assert relative == pytest.approx(1.0)

    def test_hand_evaluated_two_by_two(self):
        a = tridiag(2)
        b = np.ones(2)
        assert residual_norms(a, np.ones(2), b)[0] == 0.0
        assert residual_norms(a, np.zeros(2), b)[0] == pytest.approx(np.sqrt(2.0))

    def test_zero_rhs_signalled(self):
        with pytest.raises(ZeroRhsError):
            residual_norms(tridiag(2), np.ones(2), np.zeros(2))


class TestDenseSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(dense_solve(np.eye(3), b), b)

    def test_diagonal(self):
        assert np.allclose(dense_solve(np.diag([2.0, 4.0]), [2.0, 8.0]), [1.0, 2.0])

    def test_laplace_self_consistency(self):
        problem = build_laplace_3d(Grid3D(4, 4, 4, DirichletBoundary({"x_lo": 1.0})))
        x = dense_solve(problem.matrix.to_dense(), problem.rhs)
        absolute, _ = residual_norms(problem.matrix, x, problem.rhs)
        assert absolute <= 1e-10 * np.linalg.norm(problem.rhs)

    def test_singular_reports_pivot(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as err:
            dense_solve(a, np.ones(2))
        assert err.value.pivot_index == 1

    def test_oracle_cap(self):
        with pytest.raises(ValueError, match="cap"):
            dense_solve(np.eye(3), np.ones(3), max_dim=2)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 51))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        x = rng.standard_normal(n)
        x_back = dense_solve(a, a @ x)
        assert np.abs(x_back - x).max() <= 1e-8 * max(np.abs(x).max(), 1.0)
