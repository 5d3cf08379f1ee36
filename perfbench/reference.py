"""Correctness gate built independently of ``blocksolve.problems``.

The 7-point Laplacian on an (nx, ny, nz) interior grid, unknowns ordered
x-fastest, is the Kronecker sum of three 1D second-difference matrices. The
Dirichlet data enter b only through the points next to a nonzero face; here
that is the x_lo face, so b is the face value on the i = 0 plane.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

# Two evaluations of ||b - Ax|| / ||b|| that differ only in summation order
# lose digits to cancellation once b - Ax is ~5e-7 of b: they agreed to
# 8e-12 relative on a converged 24^3 solve. This bound keeps a 10x margin
# and still catches a residual computed from a different operator or iterate.
RESIDUAL_MATCH_RTOL = 1e-10


def _second_difference(n: int) -> scipy.sparse.csr_array:
    return scipy.sparse.diags_array(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], offsets=[-1, 0, 1]
    ).tocsr()


def laplace_x_lo(nx: int, ny: int, nz: int, x_lo: float):
    """(A, b) of the Laplace problem with value ``x_lo`` on the x_lo face."""
    kron, eye = scipy.sparse.kron, scipy.sparse.identity
    a = (
        kron(eye(nz), kron(eye(ny), _second_difference(nx)))
        + kron(eye(nz), kron(_second_difference(ny), eye(nx)))
        + kron(_second_difference(nz), eye(ny * nx))
    ).tocsr()
    b = np.zeros((nz, ny, nx))
    b[:, :, 0] = x_lo
    return a, b.ravel()


class ResidualGate:
    """Pass/fail check of one solve against the independent operator."""

    def __init__(self, nx: int, ny: int, nz: int, x_lo: float, tol: float):
        self.a, self.b = laplace_x_lo(nx, ny, nz, x_lo)
        self.b_norm = float(np.linalg.norm(self.b))
        self.tol = tol

    def check(self, result) -> tuple[bool, float, str]:
        """(passed, independent relative residual, reason if failed)."""
        rel = float(np.linalg.norm(self.b - self.a @ result.solution)) / self.b_norm
        if not result.converged:
            return False, rel, "solve did not converge"
        if not rel < self.tol:
            return False, rel, f"independent residual {rel:.3e} is not below {self.tol:g}"
        reported = result.final_true_residual
        if abs(rel - reported) > RESIDUAL_MATCH_RTOL * rel:
            return False, rel, (
                f"reported final_true_residual {reported!r} differs from the "
                f"independent {rel!r}"
            )
        return True, rel, ""
