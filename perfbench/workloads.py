"""Workload table and metric catalogue of the blocksolve benchmark.

Standard library only: the launcher imports this module before any child
process has pinned the BLAS thread count, so nothing here may load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

# Settings shared by every workload.
OVERLAP = 1
TOL = 1e-6
RESIDUAL_MODE = "paper"
TRUE_RES_EVERY = 10
BUFFER_SLOTS = 100
MAX_OUTER = 5000
X_LO = 1.0  # Dirichlet value on the x_lo face; every other face is 0
ASYNC_DELAY = (0, 3)  # uniform delay bounds, in outer iterations

# Edge of the cubic grid every workload shrinks to in smoke mode. Four
# points per axis split into 4 blocks leaves each owned range one point
# wider than the overlap, the narrowest the decomposition accepts.
SMOKE_EDGE = 8


@dataclass(frozen=True)
class Workload:
    name: str
    edge: int  # interior points per axis of the cubic grid
    block_grid: tuple[int, int, int]
    inner: str
    inner_iterations: int
    mode: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sync-32-b8", 32, (2, 2, 2), "gmres", 10, "sync",
            "inner GMRES and spmv bound; kernel and inner-solver changes show here",
        ),
        Workload(
            "async-32-b8", 32, (2, 2, 2), "gmres", 10, "async",
            "same inner work as sync-32-b8 but through the R-slot pool, tree "
            "reduction and confirmation rounds; protocol changes show here",
        ),
        Workload(
            "direct-24-b64", 24, (4, 4, 4), "direct", 1, "sync",
            "64 small blocks with dense LU inner solves; per-block scheduling "
            "overhead, sync rendezvous and build_workspaces dominate",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


END_TO_END = (
    Metric("time_to_solution_s", "s", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("outer_iterations", "count", "lower"),
    Metric("inner_iterations", "count", "lower"),
    Metric("outer_iters_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    Metric("linalg.spmv_calls", "count", "lower"),
    Metric("linalg.spmv_s", "s", "lower"),
    Metric("linalg.spmv_nnz", "count", "lower"),
    Metric("linalg.spmv_bytes_computed", "bytes", "lower"),
    Metric("linalg.spmv_gbps_computed", "GB/s", "higher"),
    Metric("inner_solvers.calls", "count", "lower"),
    Metric("inner_solvers.iterations", "count", "lower"),
    Metric("inner_solvers.solve_s", "s", "lower"),
    Metric("inner_solvers.stop.max_iterations", "count", "lower"),
    Metric("inner_solvers.stop.tolerance_met", "count", "higher"),
    Metric("inner_solvers.direct_factor_s", "s", "lower"),
    Metric("inner_solvers.direct_solve_s", "s", "lower"),
    Metric("inner_solvers.direct_factor_bytes_computed", "bytes", "lower"),
    Metric("comm.halo_sync_calls", "count", "lower"),
    Metric("comm.halo_sync_busy_s", "s", "lower"),
    Metric("comm.halo_sync_wait_polls", "count", "lower"),
    Metric("comm.reduce_sync_busy_s", "s", "lower"),
    Metric("comm.reduce_sync_wait_polls", "count", "lower"),
    Metric("comm.halo_async_s", "s", "lower"),
    Metric("comm.reduce_async_s", "s", "lower"),
    Metric("comm.sends_posted", "count", "lower"),
    Metric("comm.sends_skipped", "count", "lower"),
    Metric("comm.payloads_applied", "count", "higher"),
    Metric("comm.stale_discarded", "count", "lower"),
    Metric("comm.apply_ratio", "ratio", "higher"),
    Metric("comm.applied_lag_mean", "iterations", "lower"),
    Metric("comm.applied_lag_max", "iterations", "lower"),
    Metric("comm.confirm_rounds", "count", "lower"),
    Metric("comm.confirm_failed", "count", "lower"),
    Metric("comm.payload_bytes_computed", "bytes", "lower"),
    Metric("multisplit.build_workspaces_s", "s", "lower"),
    Metric("multisplit.assemble_rhs_s", "s", "lower"),
    Metric("multisplit.merge_overlap_s", "s", "lower"),
    Metric("multisplit.local_residual_s", "s", "lower"),
    Metric("multisplit.true_residual_s", "s", "lower"),
    Metric("multisplit.driver_self_s", "s", "lower"),
    Metric("problems.build_laplace_3d_s", "s", "lower"),
    Metric("problems.decompose_s", "s", "lower"),
    Metric("problems.block_system_s", "s", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)
