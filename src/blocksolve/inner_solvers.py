"""Stationary and Krylov solvers: the baseline methods and the inner stage.

All solvers are deterministic functions of their inputs and use the same
stopping semantics: stop when the relative residual ||b - Ax|| / ||b|| does
not exceed ``tolerance`` (absolute residual when b = 0), or after
``max_iterations``. When driven as the inner stage of the two-stage method
the tolerance is normally 0, which makes the iteration cap the only control,
matching how the outer algorithm is tuned.

CG and GMRES stop on recurrence residual estimates; whenever an estimate
claims convergence, the true residual is recomputed and iteration continues
if the claim does not hold, so a ``tolerance_met`` report is always honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigurationError
from .linalg import DENSE_ORACLE_CAP, SparseMatrix, as_vector, spmv

__all__ = [
    "InnerSolverSpec",
    "InnerSolveReport",
    "jacobi_solve",
    "cg_solve",
    "gmres_solve",
    "factor_direct",
    "solve",
]

SOLVER_KINDS = ("jacobi", "cg", "gmres", "direct")

DEFAULT_RESTART = 30

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
    """Outcome of one solver invocation."""

    iterations_used: int
    final_relative_residual: float
    stop_reason: str  # tolerance_met | max_iterations | breakdown
    residual_history: list[float] = field(default_factory=list)


def _scale(b: np.ndarray) -> float:
    bnorm = float(np.linalg.norm(b))
    return bnorm if bnorm > 0.0 else 1.0


def jacobi_solve(
    a: SparseMatrix, b, x0, spec: InnerSolverSpec
) -> tuple[np.ndarray, InnerSolveReport]:
    """Point-Jacobi sweeps: x <- D^-1 (b - (A - D) x)."""
    b = as_vector(b, a.num_rows)
    x = as_vector(x0, a.num_rows).copy()
    d = a.diagonal()
    if np.any(d == 0.0):
        return x, InnerSolveReport(0, np.inf, "breakdown")
    off = a.without_diagonal()
    scale = _scale(b)

    rel = float(np.linalg.norm(b - spmv(a, x))) / scale
    if rel <= spec.tolerance:
        return x, InnerSolveReport(0, rel, "tolerance_met")
    history = []
    for it in range(1, spec.max_iterations + 1):
        x = (b - spmv(off, x)) / d
        rel = float(np.linalg.norm(b - spmv(a, x))) / scale
        history.append(rel)
        if not np.isfinite(rel):
            return x, InnerSolveReport(it, rel, "breakdown", history)
        if rel <= spec.tolerance:
            return x, InnerSolveReport(it, rel, "tolerance_met", history)
    return x, InnerSolveReport(spec.max_iterations, rel, "max_iterations", history)


def cg_solve(
    a: SparseMatrix, b, x0, spec: InnerSolverSpec
) -> tuple[np.ndarray, InnerSolveReport]:
    """Conjugate gradients for symmetric positive definite systems."""
    b = as_vector(b, a.num_rows)
    x = as_vector(x0, a.num_rows).copy()
    scale = _scale(b)

    r = b - spmv(a, x)
    rel = float(np.linalg.norm(r)) / scale
    if rel <= spec.tolerance:
        return x, InnerSolveReport(0, rel, "tolerance_met")
    p = r.copy()
    rr = float(r @ r)
    history = []
    it = 0
    while it < spec.max_iterations:
        ap = spmv(a, p)
        pap = float(p @ ap)
        if pap <= 0.0 or not np.isfinite(pap):
            return x, InnerSolveReport(it, rel, "breakdown", history)
        alpha = rr / pap
        x += alpha * p
        r -= alpha * ap
        it += 1
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
    return x, InnerSolveReport(it, rel, "max_iterations", history)


def gmres_solve(
    a: SparseMatrix, b, x0, spec: InnerSolverSpec
) -> tuple[np.ndarray, InnerSolveReport]:
    """Restarted GMRES with modified Gram-Schmidt Arnoldi and Givens rotations.

    The residual norm is tracked per step from the rotated reduced system
    without forming the iterate, and is non-increasing within a restart
    cycle. Happy breakdown returns the then-exact solution; a restart cycle
    with no progress reports ``breakdown`` (stagnation).
    """
    b = as_vector(b, a.num_rows)
    x = as_vector(x0, a.num_rows).copy()
    n = a.num_rows
    restart = min(spec.restart if spec.restart is not None else DEFAULT_RESTART, n)
    scale = _scale(b)
    history: list[float] = []
    total = 0

    v = np.zeros((restart + 1, n))
    h = np.zeros((restart + 1, restart))
    cs = np.zeros(restart)
    sn = np.zeros(restart)
    g = np.zeros(restart + 1)

    def form_solution(j: int) -> np.ndarray:
        y = scipy.linalg.solve_triangular(
            h[: j + 1, : j + 1], g[: j + 1], check_finite=False
        )
        return x + v[: j + 1].T @ y

    while True:
        r = b - spmv(a, x)
        beta = float(np.linalg.norm(r))
        rel = beta / scale
        if total == 0 and rel <= spec.tolerance:
            return x, InnerSolveReport(0, rel, "tolerance_met")
        cycle_start = rel

        h[:] = 0.0
        g[:] = 0.0
        g[0] = beta
        v[0] = r / beta
        for j in range(restart):
            w = spmv(a, v[j])
            for i in range(j + 1):
                h[i, j] = float(v[i] @ w)
                w -= h[i, j] * v[i]
            wnorm = float(np.linalg.norm(w))
            h[j + 1, j] = wnorm
            happy = wnorm <= 1e-14 * max(
                float(np.linalg.norm(h[: j + 2, j])), 1e-300
            )

            for i in range(j):
                hij = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = hij
            denom = float(np.hypot(h[j, j], h[j + 1, j]))
            cs[j] = h[j, j] / denom
            sn[j] = h[j + 1, j] / denom
            h[j, j] = denom
            h[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]

            total += 1
            rel = abs(g[j + 1]) / scale
            history.append(rel)

            if happy:
                x = form_solution(j)
                rel = float(np.linalg.norm(b - spmv(a, x))) / scale
                history[-1] = rel
                return x, InnerSolveReport(total, rel, "tolerance_met", history)
            if rel <= spec.tolerance or total >= spec.max_iterations:
                x = form_solution(j)
                rel_true = float(np.linalg.norm(b - spmv(a, x))) / scale
                if rel_true <= spec.tolerance:
                    history[-1] = rel_true
                    return x, InnerSolveReport(
                        total, rel_true, "tolerance_met", history
                    )
                if total >= spec.max_iterations:
                    return x, InnerSolveReport(
                        total, rel_true, "max_iterations", history
                    )
                break  # optimistic estimate: restart from the formed iterate
            if j == restart - 1:
                x = form_solution(j)
                break
            v[j + 1] = w / wnorm

        rel_true = float(np.linalg.norm(b - spmv(a, x))) / scale
        if not np.isfinite(rel_true):
            return x, InnerSolveReport(total, rel_true, "breakdown", history)
        if cycle_start - rel_true < STAGNATION_RTOL * cycle_start:
            return x, InnerSolveReport(total, rel_true, "breakdown", history)


def factor_direct(a: SparseMatrix, block_id: int):
    """Dense LU factor of block ``block_id``'s ``a``, computed once.

    Returns ``solve(b) -> (x, report)``, an exact solve that counts as one
    iteration. A singular factor gives a non-finite residual, which reports
    ``breakdown``. Blocks above the dense oracle's cap are refused before
    anything is densified.
    """
    if a.num_rows > DENSE_ORACLE_CAP:
        raise ConfigurationError(
            f"inner: the direct solve of block {block_id} needs a dense factor of "
            f"{a.num_rows} rows, above the cap of {DENSE_ORACLE_CAP}"
        )
    lu = scipy.linalg.lu_factor(a.to_dense())

    def solve_factored(b) -> tuple[np.ndarray, InnerSolveReport]:
        b = as_vector(b, a.num_rows)
        x = scipy.linalg.lu_solve(lu, b)
        rel = float(np.linalg.norm(b - spmv(a, x))) / _scale(b)
        stop = "tolerance_met" if np.isfinite(rel) else "breakdown"
        return x, InnerSolveReport(1, rel, stop, [rel])

    return solve_factored


def direct_solve(
    a: SparseMatrix, b, x0, spec: InnerSolverSpec
) -> tuple[np.ndarray, InnerSolveReport]:
    """Exact dense solve of the whole system as block 0; counts as one iteration."""
    return factor_direct(a, 0)(b)


_DISPATCH = {
    "jacobi": jacobi_solve,
    "cg": cg_solve,
    "gmres": gmres_solve,
    "direct": direct_solve,
}


def solve(
    a: SparseMatrix, b, x0, spec: InnerSolverSpec
) -> tuple[np.ndarray, InnerSolveReport]:
    """Dispatch to the solver named by ``spec.kind``."""
    return _DISPATCH[spec.kind](a, b, x0, spec)
