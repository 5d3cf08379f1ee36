"""One benchmark run: set up, solve in a closed loop, check, report.

Started by ``run.py`` in a fresh process whose environment pins the BLAS
thread pools to one thread before numpy loads. Prints one detail line and
then the result object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from blocksolve import comm, inner_solvers, multisplit, problems
from reference import ResidualGate
from spans import Tracer
from workloads import (
    ASYNC_DELAY, BUFFER_SLOTS, END_TO_END, MAX_OUTER, OVERLAP, PER_LAYER,
    RESIDUAL_MODE, SMOKE_EDGE, TOL, TRUE_RES_EVERY, WORKLOADS, X_LO, Workload,
)

SETUPS_PER_SOLVE = 3
# solves per run even when they outlast --seconds: medians need three
MIN_SOLVES = 3
MIN_TRACED_PASSES = 2
# process CPU time over wall time of one solve; one busy thread reads <= 1.0,
# while a second busy BLAS thread read ~1.4 on a 2-core host
MAX_CPU_WALL_RATIO = 1.1
SCRATCH_DIR = Path(".perfbench_run")


def make_config(w: Workload, seed: int, record_events: bool = False):
    delay = (
        comm.DelayModel("uniform", low=ASYNC_DELAY[0], high=ASYNC_DELAY[1], seed=seed)
        if w.mode == "async"
        else comm.DelayModel()
    )
    return multisplit.OuterConfig(
        block_grid=w.block_grid,
        overlap=OVERLAP,
        inner=inner_solvers.InnerSolverSpec(w.inner, w.inner_iterations),
        mode=w.mode,
        buffer_slots=BUFFER_SLOTS,
        tol=TOL,
        max_outer=MAX_OUTER,
        residual_check_mode=RESIDUAL_MODE,
        delay=delay,
        true_residual_interval=TRUE_RES_EVERY,
        execution="replay",
        record_comm_events=record_events,
    )


def set_up(w: Workload):
    """The timed set-up: assemble, decompose, build the block workspaces."""
    grid = problems.Grid3D(w.edge, w.edge, w.edge, problems.DirichletBoundary({"x_lo": X_LO}))
    problem = problems.build_laplace_3d(grid)
    decomposition = problems.decompose(grid, w.block_grid, OVERLAP)
    multisplit.build_workspaces(problem, decomposition)
    return problem


def trace_digest(result) -> str:
    SCRATCH_DIR.mkdir(exist_ok=True)
    path = SCRATCH_DIR / f"trace-{os.getpid()}.csv"
    try:
        result.trace.write_csv(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        path.unlink(missing_ok=True)


class Checker:
    """Gates every solve and holds the replay counts every solve must repeat."""

    def __init__(self, w: Workload):
        self.gate = ResidualGate(w.edge, w.edge, w.edge, X_LO, TOL)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.signature = None
        self.residuals: list[float] = []
        self.cpu_wall: list[float] = []

    def solve(self, problem, config):
        """Timed ``outer_solve``; returns (result, wall seconds)."""
        self.attempted += 1
        gc.collect()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result = multisplit.outer_solve(problem, config)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        self.cpu_wall.append(cpu / wall)
        if cpu / wall > MAX_CPU_WALL_RATIO:
            self.errors.append(f"CPU/wall ratio {cpu / wall:.3f}: a second thread was busy")
        passed, rel, reason = self.gate.check(result)
        self.residuals.append(rel)
        signature = (
            result.outer_iterations,
            sum(row.inner_iterations for row in result.trace.rows),
            trace_digest(result),
        )
        if self.signature is None:
            self.signature = signature
        elif signature != self.signature:
            passed = False
            reason = f"replay not deterministic: {signature} after {self.signature}"
        if not passed:
            self.failed += 1
            self.errors.append(reason)
        return result, wall


def layer_metrics(tracer: Tracer, result) -> dict[str, float]:
    total, own, calls = tracer.totals()
    c = tracer.counts
    events = result.comm_events
    applied_lags = [e[4] - e[3] for e in events if e[0] == "apply"]
    posted = sum(1 for e in events if e[0] == "send")
    direct_solves = calls["lu_solve"]
    confirm_rounds = c["confirm.rounds"]
    confirmed = 1 if confirm_rounds and result.converged else 0
    return {
        "linalg.spmv_calls": calls["spmv"],
        "linalg.spmv_s": total["spmv"],
        "linalg.spmv_nnz": c["spmv.nnz"],
        "linalg.spmv_bytes_computed": c["spmv.bytes"],
        "linalg.spmv_gbps_computed": c["spmv.bytes"] / total["spmv"] / 1e9,
        "inner_solvers.calls": calls["inner_solve"] + direct_solves,
        "inner_solvers.iterations": c["inner.iterations"] + direct_solves,
        "inner_solvers.solve_s": own["inner_solve"] + total["lu_solve"],
        "inner_solvers.stop.max_iterations": c["inner.stop.max_iterations"],
        "inner_solvers.stop.tolerance_met": c["inner.stop.tolerance_met"] + direct_solves,
        "inner_solvers.direct_factor_s": total["lu_factor"],
        "inner_solvers.direct_solve_s": total["lu_solve"],
        "inner_solvers.direct_factor_bytes_computed": c["direct.factor_bytes"],
        "comm.halo_sync_calls": c["halo_sync.calls"],
        "comm.halo_sync_busy_s": total["halo_sync"],
        "comm.halo_sync_wait_polls": c["halo_sync.wait_polls"],
        "comm.reduce_sync_busy_s": total["reduce_sync"],
        "comm.reduce_sync_wait_polls": c["reduce_sync.wait_polls"],
        "comm.halo_async_s": total["halo_async"],
        "comm.reduce_async_s": total["reduce_async"],
        "comm.sends_posted": posted,
        "comm.sends_skipped": sum(1 for e in events if e[0] == "send_skipped"),
        "comm.payloads_applied": len(applied_lags),
        "comm.stale_discarded": sum(1 for e in events if e[0] == "discard_stale"),
        "comm.apply_ratio": len(applied_lags) / posted if posted else 0.0,
        "comm.applied_lag_mean": statistics.fmean(applied_lags) if applied_lags else 0.0,
        "comm.applied_lag_max": max(applied_lags, default=0),
        "comm.confirm_rounds": confirm_rounds,
        "comm.confirm_failed": confirm_rounds - confirmed,
        "comm.payload_bytes_computed": c["payload.bytes"],
        "multisplit.build_workspaces_s": own["build_workspaces"],
        "multisplit.assemble_rhs_s": own["assemble_rhs"],
        "multisplit.merge_overlap_s": own["merge_overlap"],
        "multisplit.local_residual_s": own["local_residual"],
        "multisplit.true_residual_s": own["true_residual"],
        "multisplit.driver_self_s": own["outer_solve"],
        "problems.build_laplace_3d_s": own["build_laplace_3d"],
        "problems.decompose_s": own["decompose"],
        "problems.block_system_s": own["block_system"],
    }


def timed_set_up(w, setups):
    gc.collect()
    t0 = time.perf_counter()
    problem = set_up(w)
    setups.append(time.perf_counter() - t0)
    return problem


def measure_end_to_end(w, seed, seconds, checker):
    """Closed loop of set-ups and solves; set-ups are spread over the run so
    that both medians sample the same stretch of host load."""
    start = time.perf_counter()
    config = make_config(w, seed)
    setups, walls = [], []
    while len(walls) < MIN_SOLVES or time.perf_counter() - start + walls[-1] <= seconds:
        for _ in range(SETUPS_PER_SOLVE):
            problem = timed_set_up(w, setups)
        result, wall = checker.solve(problem, config)
        walls.append(wall)
    solve_s = statistics.median(walls)
    outer = result.outer_iterations
    return {
        "time_to_solution_s": solve_s,
        "setup_s": statistics.median(setups),
        "outer_iterations": outer,
        "inner_iterations": sum(row.inner_iterations for row in result.trace.rows),
        "outer_iters_per_s": outer / solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"solve_s": walls, "setup_s": setups}


def measure_layers(w, seed, seconds, checker):
    """Alternates untraced and traced solves; a traced pass includes set-up."""
    start = time.perf_counter()
    problem = set_up(w)
    config = make_config(w, seed)
    traced_config = make_config(w, seed, record_events=True)
    plain, traced, passes = [], [], []
    while len(passes) < MIN_TRACED_PASSES or (
        time.perf_counter() - start + plain[-1] + traced[-1] <= seconds
    ):
        plain.append(checker.solve(problem, config)[1])
        tracer = Tracer()
        with tracer.installed():
            traced_problem = set_up(w)
            result, wall = checker.solve(traced_problem, traced_config)
        traced.append(wall)
        passes.append(layer_metrics(tracer, result))
    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if isinstance(values[0], int) and len(set(values)) > 1:
            checker.errors.append(f"traced count {name} differs between passes: {values}")
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, {"solve_s": plain, "traced_solve_s": traced}


def environment() -> dict:
    blas = {}
    for name, module in (("numpy", np), ("scipy", scipy)):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[name] = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help=f"shrink the grid to {SMOKE_EDGE}^3")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = Workload(w.name, SMOKE_EDGE, w.block_grid, w.inner, w.inner_iterations, w.mode, w.why)

    # untimed warm-up: loads lazily imported code on the solve path
    tiny = Workload(w.name, 4, (2, 2, 2), w.inner, w.inner_iterations, w.mode, w.why)
    multisplit.outer_solve(set_up(tiny), make_config(tiny, args.seed))

    checker = Checker(w)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, samples = measure(w, args.seed, args.seconds, checker)
    catalogue = PER_LAYER if args.trace else END_TO_END

    detail = {
        "workload": w.name,
        "seed": args.seed,
        "environment": environment(),
        "samples": samples,
        "cpu_wall_ratio": checker.cpu_wall,
        "independent_residuals": checker.residuals,
        "replay_signature": checker.signature,
        "errors": checker.errors,
    }
    print(json.dumps(detail))
    correct = not checker.errors
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in catalogue},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
