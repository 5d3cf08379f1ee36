"""Stationary and Krylov solvers: the baseline methods and the inner stage.

``prepare`` binds a solver to one matrix once; the prepared solver carries
no state from one call to the next. The iterative solvers stop when the
relative residual ||b - Ax|| / ||b|| does not exceed ``tolerance`` (absolute
residual when b = 0), or after ``max_iterations``; a non-finite residual
reports ``breakdown``. The direct solve is exact and does not measure its
residual: it reports 0.0 by convention. As the inner stage of the two-stage method the tolerance is
normally 0, so the iteration cap is the only control, matching how the
outer algorithm is tuned.

CG and GMRES stop on recurrence residual estimates, which they report at
the iteration cap; whenever an estimate claims convergence, the true
residual is recomputed and iteration continues if the claim does not hold,
so a ``tolerance_met`` report is always honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigurationError
from .linalg import SparseMatrix, as_vector, spmv

__all__ = [
    "InnerSolverSpec",
    "InnerSolveReport",
    "factor_direct",
    "prepare",
]

SOLVER_KINDS = ("jacobi", "cg", "gmres", "direct")

DEFAULT_RESTART = 30

# the most rows a block's dense direct factor may have: the inverse
# overwrites the LU, so n^2 doubles, 512 MB at 8192 rows; the synchronous
# sweep's kept rows add |keep| * n
DIRECT_FACTOR_MAX_ROWS = 8192

# relative progress below this over a full restart cycle counts as stagnation
STAGNATION_RTOL = 1e-14


@dataclass(frozen=True)
class InnerSolverSpec:
    """Which solver to run and when to stop it."""

    kind: str
    max_iterations: int
    tolerance: float = 0.0
    restart: int | None = None

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.restart is not None and self.restart < 1:
            raise ValueError("restart must be at least 1")


@dataclass
class InnerSolveReport:
    """Outcome of one solver invocation.

    ``final_relative_residual`` and ``residual_history`` are measured or
    recurrence-estimated residuals, except for the direct kind: its exact
    solve reports 0.0 by convention (infinity on breakdown), not a
    measurement.
    """

    iterations_used: int
    final_relative_residual: float
    stop_reason: str  # tolerance_met | max_iterations | breakdown
    residual_history: list[float] = field(default_factory=list)


Solved = tuple[np.ndarray, InnerSolveReport]


def _scale(b: np.ndarray) -> float:
    bnorm = float(np.linalg.norm(b))
    return bnorm if bnorm > 0.0 else 1.0


def prepare(spec: InnerSolverSpec, a: SparseMatrix, block_id: int = 0):
    """``solve(b, x0) -> (x, report)`` for block ``block_id``'s matrix ``a``.

    Jacobi's diagonal split, the direct inverse and GMRES's reused basis
    are made here, once: one GMRES solver must not run two solves at once."""
    if spec.kind == "jacobi":
        return _jacobi(spec, a)
    if spec.kind == "cg":
        return _cg(spec, a)
    if spec.kind == "gmres":
        return _gmres(spec, a)
    return factor_direct(a, block_id)


def _jacobi(spec: InnerSolverSpec, a: SparseMatrix):
    """Point-Jacobi sweeps, x <- D^-1 (b - (A - D) x). The residual
    b - d*x - off @ x reuses the next sweep's ``off @ x``: k sweeps make
    1 + k spmv."""
    n = a.num_rows
    d = a.diagonal()
    singular = bool(np.any(d == 0.0))
    off = a.without_diagonal()

    def solve_jacobi(b, x0) -> Solved:
        b = as_vector(b, n)
        x = as_vector(x0, n).copy()
        if singular:
            return x, InnerSolveReport(0, np.inf, "breakdown")
        scale = _scale(b)
        off_x = spmv(off, x)
        rel = float(np.linalg.norm(b - d * x - off_x)) / scale
        if rel <= spec.tolerance:
            return x, InnerSolveReport(0, rel, "tolerance_met")
        history = []
        for it in range(1, spec.max_iterations + 1):
            x = (b - off_x) / d
            off_x = spmv(off, x)
            rel = float(np.linalg.norm(b - d * x - off_x)) / scale
            history.append(rel)
            if not np.isfinite(rel):
                return x, InnerSolveReport(it, rel, "breakdown", history)
            if rel <= spec.tolerance:
                return x, InnerSolveReport(it, rel, "tolerance_met", history)
        return x, InnerSolveReport(spec.max_iterations, rel, "max_iterations", history)

    return solve_jacobi


def _cg(spec: InnerSolverSpec, a: SparseMatrix):
    """Conjugate gradients for symmetric positive definite systems."""
    n = a.num_rows

    def solve_cg(b, x0) -> Solved:
        b = as_vector(b, n)
        x = as_vector(x0, n).copy()
        scale = _scale(b)

        r = b - spmv(a, x)
        rel = float(np.linalg.norm(r)) / scale
        if rel <= spec.tolerance:
            return x, InnerSolveReport(0, rel, "tolerance_met")
        p = r.copy()
        rr = float(r @ r)
        history = []
        for it in range(1, spec.max_iterations + 1):
            ap = spmv(a, p)
            pap = float(p @ ap)
            if pap <= 0.0 or not np.isfinite(pap):
                return x, InnerSolveReport(it - 1, rel, "breakdown", history)
            alpha = rr / pap
            x += alpha * p
            r -= alpha * ap
            rr_new = float(r @ r)
            rel = np.sqrt(rr_new) / scale
            history.append(rel)
            if not np.isfinite(rel):
                return x, InnerSolveReport(it, rel, "breakdown", history)
            if rel <= spec.tolerance:
                # recurrence says converged; verify against the true residual
                r_true = b - spmv(a, x)
                rel_true = float(np.linalg.norm(r_true)) / scale
                if rel_true <= spec.tolerance:
                    history[-1] = rel_true
                    return x, InnerSolveReport(it, rel_true, "tolerance_met", history)
                r = r_true
                rr_new = float(r @ r)
                rel = np.sqrt(rr_new) / scale
                history[-1] = rel
            beta = rr_new / rr
            p = r + beta * p
            rr = rr_new
        return x, InnerSolveReport(spec.max_iterations, rel, "max_iterations", history)

    return solve_cg


def _gmres(spec: InnerSolverSpec, a: SparseMatrix):
    """Restarted GMRES, orthogonalising by CGS2: two classical Gram-Schmidt
    passes, each one product with the basis block, as orthogonal as modified
    Gram-Schmidt (Giraud, Langou, Rozloznik & van den Eshof, Numer. Math.
    2005). The reduced system is rotated and solved in Python floats; its
    residual does not grow within a cycle. A happy breakdown meets tolerance
    0; above 0 the true residual decides, as for any other claim. A cycle
    without progress, or a singular reduced system, breaks down."""
    n = a.num_rows
    restart = min(spec.restart if spec.restart is not None else DEFAULT_RESTART, n)
    basis = np.empty((restart + 1, n))  # each cycle writes a row before reading it

    def solve_gmres(b, x0) -> Solved:
        b = as_vector(b, n)
        x = as_vector(x0, n).copy()
        scale = _scale(b)
        history: list[float] = []
        total, happy, cycle_start = 0, False, math.inf
        while True:
            r = b - spmv(a, x)
            beta = float(np.linalg.norm(r))
            rel = beta / scale
            if not math.isfinite(rel):
                return x, InnerSolveReport(total, rel, "breakdown", history)
            if rel <= spec.tolerance or (happy and spec.tolerance == 0.0):
                if history:
                    history[-1] = rel
                return x, InnerSolveReport(total, rel, "tolerance_met", history)
            if total >= spec.max_iterations:
                return x, InnerSolveReport(total, rel, "max_iterations", history)
            if cycle_start - rel < STAGNATION_RTOL * cycle_start:
                return x, InnerSolveReport(total, rel, "breakdown", history)
            cycle_start = rel

            basis[0] = r / beta
            g = [beta]  # the rotated right-hand side of the reduced system
            rotations: list[tuple[float, float]] = []
            columns: list[list[float]] = []  # the rotated, upper-triangular system
            for j in range(restart):
                w = spmv(a, basis[j])
                v = basis[: j + 1]
                h = v @ w
                w -= h @ v
                correction = v @ w
                w -= correction @ v
                h_next = float(np.linalg.norm(w))
                col = (h + correction).tolist() + [h_next]
                happy = h_next <= 1e-14 * max(math.hypot(*col), 1e-300)
                for i, (c, s) in enumerate(rotations):
                    col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
                d = math.hypot(col[j], col[j + 1])
                if d == 0.0:
                    return x, InnerSolveReport(total, rel, "breakdown", history)
                c, s = col[j] / d, col[j + 1] / d
                rotations.append((c, s))
                columns.append(col[:j] + [d])
                g.append(-s * g[j])
                g[j] = c * g[j]
                total += 1
                rel = abs(g[j + 1]) / scale
                history.append(rel)
                if not math.isfinite(rel):
                    return x, InnerSolveReport(total, rel, "breakdown", history)
                if happy or rel <= spec.tolerance or total >= spec.max_iterations:
                    break
                np.divide(w, h_next, out=basis[j + 1])

            y = g[: len(columns)]  # back substitution, column by column
            for k in reversed(range(len(y))):
                y[k] /= columns[k][k]
                for i in range(k):
                    y[i] -= columns[k][i] * y[k]
            x += np.array(y) @ basis[: len(y)]
            if total >= spec.max_iterations and not (happy or rel <= spec.tolerance):
                return x, InnerSolveReport(total, rel, "max_iterations", history)

    return solve_gmres


def factor_direct(a: SparseMatrix, block_id: int) -> DirectSolve:
    """Dense inverse of block ``block_id``'s ``a``, computed once: an LU
    factor (``scipy.linalg.lu_factor``, which warns of a zero pivot) turned
    into the inverse in place by LAPACK's getri.

    Returns a ``DirectSolve`` over every row of the inverse. A singular
    factor or a non-finite ``a`` (which is not factored) gives a NaN
    inverse, so each of its solves reports ``breakdown``. Blocks above
    ``DIRECT_FACTOR_MAX_ROWS`` are refused before anything is densified.
    """
    n = a.num_rows
    if n > DIRECT_FACTOR_MAX_ROWS:
        raise ConfigurationError(
            f"inner: the direct solve of block {block_id} needs a dense factor of "
            f"{n} rows, above the cap of {DIRECT_FACTOR_MAX_ROWS}"
        )
    if not np.isfinite(a.values).all():
        return DirectSolve(np.full((n, n), np.nan))
    lu, piv = scipy.linalg.lu_factor(a.to_dense())
    # getri's default workspace (3n) runs it unblocked, several times slower
    lwork, _ = scipy.linalg.lapack.dgetri_lwork(n)
    inverse, info = scipy.linalg.lapack.dgetri(lu, piv, lwork=int(lwork), overwrite_lu=1)
    if info != 0:
        inverse[...] = np.nan
    return DirectSolve(inverse)


@dataclass(eq=False)
class DirectSolve:
    """The exact solve of a factored block, restricted to some rows of its
    solution: ``x = inverse_rows @ b``, with ``inverse_rows`` those rows of
    the block's inverse. ``factor_direct`` makes the solve over every row.

    ``solve(b, x0) -> (x, report)`` ignores ``x0`` and counts as one
    iteration. ``b`` is one right-hand side of shape (n,) or k of them as
    the columns of an (n, k) array, solved in one matrix product; x has one
    row per kept row, a column per column of ``b``, and the one report
    covers every column. The solve does not measure its residual: a finite
    x reports ``tolerance_met`` with residual 0.0, and a non-finite x (a
    NaN inverse or a non-finite ``b``) reports ``breakdown`` with an
    infinite residual. A product only reads the inverse, so the solve holds
    no state: blocks with equal matrices, and threads, may share it.
    """

    inverse_rows: np.ndarray

    def __call__(self, b, x0=None) -> Solved:
        return _exact_report(self.inverse_rows @ b)

    def kept_rows(self, keep: np.ndarray) -> DirectSolve:
        """The solve that computes only the solution entries ``keep``."""
        return DirectSolve(self.inverse_rows[keep])


def _exact_report(x: np.ndarray) -> Solved:
    if np.isfinite(x).all():
        return x, InnerSolveReport(1, 0.0, "tolerance_met", [0.0])
    return x, InnerSolveReport(1, np.inf, "breakdown", [np.inf])
