"""Experiment harness: single runs, parameter sweeps and trace comparison.

Configuration comes from command-line flags, optionally layered over a plain
``key=value`` file (flags win). Every run writes a CSV residual trace with
the fixed header and prints a summary. Exit codes: 0 converged, 2 stopped on
the outer-iteration cap, 1 on any configuration or solver error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .comm import DelayModel
from .errors import ConfigurationError, ProtocolError, SolverBreakdownError
from .inner_solvers import SOLVER_KINDS, InnerSolverSpec, prepare
from .multisplit import (
    EXECUTIONS,
    RESIDUAL_MODES,
    OuterConfig,
    ResidualTrace,
    TraceRow,
    outer_solve,
    true_relative_residual,
)
from .problems import FACES, DirichletBoundary, Grid3D, build_laplace_3d

__all__ = [
    "ExperimentConfig",
    "RunSummary",
    "run",
    "sweep",
    "compare",
    "main",
]

RUN_MODES = ("baseline", "sync", "async")


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: invalid integer {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: invalid number {raw!r}") from None


def _bounded(parse, low, reason: str):
    """Parser rejecting values below ``low``; the error names the key and ``reason``."""

    def parse_bounded(raw: str, key: str):
        value = parse(raw, key)
        if value < low:
            raise ConfigurationError(f"{key}: {reason}")
        return value

    return parse_bounded


_parse_count = _bounded(_parse_int, 1, "must be at least 1")
_parse_nonnegative = _bounded(_parse_float, 0, "must be non-negative")


def _choice(options: tuple[str, ...], noun: str):
    """Parser accepting only ``options``; the error names the key and ``noun``."""

    def parse(raw: str, key: str) -> str:
        if raw not in options:
            raise ConfigurationError(f"{key}: unknown {noun} {raw!r}")
        return raw

    return parse


def parse_delay(raw: str, seed: int) -> DelayModel:
    parts = raw.split(":")
    kind = parts[0]
    try:
        if kind == "none" and len(parts) == 1:
            return DelayModel(seed=seed)
        if kind == "fixed" and len(parts) == 2:
            return DelayModel("fixed", fixed=int(parts[1]), seed=seed)
        if kind == "uniform" and len(parts) == 3:
            return DelayModel("uniform", low=int(parts[1]), high=int(parts[2]), seed=seed)
        if kind in ("jitter", "drop_free_jitter") and len(parts) == 3:
            return DelayModel(
                "drop_free_jitter", low=int(parts[1]), high=int(parts[2]), seed=seed
            )
    except ValueError:
        raise ConfigurationError(f"delay: invalid delay bounds in {raw!r}") from None
    raise ConfigurationError(
        f"delay: expected none, fixed:d, uniform:lo:hi or jitter:lo:hi, got {raw!r}"
    )


def parse_boundary(raw: str) -> DirichletBoundary:
    if raw.startswith("const:"):
        return DirichletBoundary.constant(_parse_float(raw[6:], "boundary"))
    if raw.startswith("faces:"):
        faces: dict[str, float] = {}
        for item in raw[6:].split(","):
            if not item:
                continue
            name, _, value = item.partition("=")
            if name not in FACES:
                raise ConfigurationError(f"boundary: unknown face {name!r}")
            faces[name] = _parse_float(value, "boundary")
        return DirichletBoundary(faces)
    raise ConfigurationError(
        f"boundary: expected const:v or faces:name=v,... got {raw!r}"
    )


def _setting(default: str, parse: Callable[[str, str], Any] = _parse_int, key: str = ""):
    """An ``ExperimentConfig`` field as one configuration key: its raw default,
    its parser (raw, key) -> value, whose errors name the key, and the key
    where it is not the field name."""
    return dataclasses.field(metadata={"default": default, "parse": parse, "key": key})


@dataclass
class ExperimentConfig:
    """Fully-resolved configuration of one experiment.

    Each field is one configuration key, in flag and help order. The delay is
    parsed with seed 0 and gets the parsed seed in ``from_mapping``.
    """

    nx: int = _setting("8")
    ny: int = _setting("8")
    nz: int = _setting("8")
    boundary: DirichletBoundary = _setting("faces:x_lo=1", lambda raw, key: parse_boundary(raw))
    gx: int = _setting("1")
    gy: int = _setting("1")
    gz: int = _setting("1")
    overlap: int = _setting("0")
    inner: str = _setting("gmres", _choice(SOLVER_KINDS, "solver"))
    inner_its: int = _setting("10", _parse_count)
    inner_tol: float = _setting("0", _parse_nonnegative)
    restart: int | None = _setting(
        "", lambda raw, key: None if raw == "" else _parse_count(raw, key)
    )
    mode: str = _setting("sync", _choice(RUN_MODES, "mode"))
    buffer_slots: int = _setting("100", key="R")
    delay: DelayModel = _setting("none", lambda raw, key: parse_delay(raw, 0))
    seed: int = _setting("0")
    tol: float = _setting("1e-6", _parse_nonnegative)
    max_outer: int = _setting("5000", _parse_count)
    residual_mode: str = _setting("paper", _choice(RESIDUAL_MODES, "mode"))
    true_res_every: int = _setting("10")
    execution: str = _setting("replay", _choice(EXECUTIONS, "execution"), key="exec")
    out: str = _setting("trace.csv", lambda raw, key: raw)

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "ExperimentConfig":
        for key in raw:
            if key not in CONFIG_KEYS:
                raise ConfigurationError(f"{key}: unknown configuration key")
        values = {
            spec.name: spec.metadata["parse"](raw.get(key, spec.metadata["default"]), key)
            for key, spec in CONFIG_KEYS.items()
        }
        values["delay"] = dataclasses.replace(values["delay"], seed=values["seed"])
        return cls(**values)


# every configuration key and the field that declares it
CONFIG_KEYS = {
    spec.metadata["key"] or spec.name: spec for spec in dataclasses.fields(ExperimentConfig)
}

# the configuration keys one sweep value sets
SWEEP_AXES = {
    "block_grid": ("gx", "gy", "gz"),
    "inner_max_its": ("inner_its",),
    "overlap": ("overlap",),
    "mode": ("mode",),
}


def parse_config_file(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(f"config: line {lineno} is not key=value: {line!r}")
        pairs[key.strip()] = value.strip()
    return pairs


@dataclass
class RunSummary:
    """What one run produced, consistent with its emitted trace."""

    outer_iterations: int
    total_inner_iterations: int
    iterations_per_second: float | None
    final_true_residual: float
    converged: bool
    trace_path: str


def run(config: ExperimentConfig) -> RunSummary:
    """Execute one configured solve and write its trace CSV."""
    grid = Grid3D(config.nx, config.ny, config.nz, config.boundary)
    problem = build_laplace_3d(grid)

    if config.mode == "baseline":
        spec = InnerSolverSpec(config.inner, config.max_outer, config.tol, config.restart)
        x0 = np.zeros(problem.grid.num_unknowns)
        x, report = prepare(spec, problem.matrix)(problem.rhs, x0)
        if report.stop_reason == "breakdown":
            raise SolverBreakdownError(0, report.iterations_used, "baseline solver breakdown")
        final_true = true_relative_residual(problem, x)
        rows = [
            TraceRow(i, float(i), rel, None, 1, 0)
            for i, rel in enumerate(report.residual_history)
        ]
        if rows:
            rows[-1] = dataclasses.replace(rows[-1], true_residual=final_true)
        trace = ResidualTrace(rows)
        converged = report.stop_reason == "tolerance_met"
        outer_iterations = report.iterations_used
        total_inner = report.iterations_used
        rate = None
    else:
        outer_config = OuterConfig(
            block_grid=(config.gx, config.gy, config.gz),
            overlap=config.overlap,
            inner=InnerSolverSpec(
                config.inner, config.inner_its, config.inner_tol, config.restart
            ),
            mode=config.mode,
            buffer_slots=config.buffer_slots,
            tol=config.tol,
            max_outer=config.max_outer,
            residual_check_mode=config.residual_mode,
            delay=config.delay,
            true_residual_interval=config.true_res_every,
            execution=config.execution,
        )
        result = outer_solve(problem, outer_config)
        trace = result.trace
        converged = result.converged
        outer_iterations = result.outer_iterations
        total_inner = sum(row.inner_iterations for row in trace.rows)
        final_true = result.final_true_residual
        elapsed = trace.rows[-1].time if trace.rows else 0.0
        rate = (
            outer_iterations / elapsed
            if config.execution == "threads" and elapsed > 0
            else None
        )

    trace.write_csv(config.out)
    return RunSummary(
        outer_iterations=outer_iterations,
        total_inner_iterations=total_inner,
        iterations_per_second=rate,
        final_true_residual=final_true,
        converged=converged,
        trace_path=config.out,
    )


def format_summary(summary: RunSummary) -> str:
    rate = (
        f"{summary.iterations_per_second:.2f} it/s"
        if summary.iterations_per_second is not None
        else "-"
    )
    lines = [
        f"{'outer iterations':<24}{summary.outer_iterations}",
        f"{'total inner iterations':<24}{summary.total_inner_iterations}",
        f"{'iteration rate':<24}{rate}",
        f"{'final true residual':<24}{summary.final_true_residual:.6e}",
        f"{'converged':<24}{'yes' if summary.converged else 'no (max_outer reached)'}",
        f"{'trace':<24}{summary.trace_path}",
    ]
    return "\n".join(lines)


def sweep(
    config: ExperimentConfig, axis: str, values_raw: str
) -> list[tuple[str, RunSummary]]:
    """Run one configuration per value, everything else (and the seed) fixed.

    Every value is parsed before the first run, so a bad one writes no trace.
    """
    keys = SWEEP_AXES.get(axis)
    if keys is None:
        raise ConfigurationError(f"axis: must be one of {', '.join(SWEEP_AXES)}")
    specs = [CONFIG_KEYS[key] for key in keys]
    # values of a multi-key axis are separated by ';' and their parts by ','
    items = values_raw.split(";") if len(keys) > 1 else [v for v in values_raw.split(",") if v]
    out = Path(config.out)
    runs = []
    for item in items:
        parts = [p for p in item.split(",") if p]
        if len(parts) != len(keys):
            raise ConfigurationError(
                f"values: {axis.replace('_', ' ')} {item!r} is not {','.join(keys)}"
            )
        values = {
            spec.name: spec.metadata["parse"](part, "values") for spec, part in zip(specs, parts)
        }
        tag = "x".join(str(values[spec.name]) for spec in specs)
        name = f"{out.stem}_{axis}_{tag}{out.suffix}"
        runs.append((tag, dataclasses.replace(config, **values, out=str(out.with_name(name)))))
    return [(tag, run(per_value)) for tag, per_value in runs]


def format_sweep(axis: str, results: list[tuple[str, RunSummary]]) -> str:
    header = (
        f"{axis:<16}{'outer':>8}{'inner':>10}{'final_true_residual':>22}{'converged':>11}"
    )
    lines = [header]
    for tag, summary in results:
        lines.append(
            f"{tag:<16}{summary.outer_iterations:>8}"
            f"{summary.total_inner_iterations:>10}"
            f"{summary.final_true_residual:>22.6e}"
            f"{'yes' if summary.converged else 'no':>11}"
        )
    return "\n".join(lines)


def sweep_csv(axis: str, results: list[tuple[str, RunSummary]]) -> str:
    lines = [f"{axis},outer_iterations,total_inner_iterations,final_true_residual,converged"]
    for tag, summary in results:
        lines.append(
            f"{tag},{summary.outer_iterations},{summary.total_inner_iterations},"
            f"{format(summary.final_true_residual, '.17g')},"
            f"{int(summary.converged)}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class TraceStats:
    path: str
    iterations: int
    elapsed: float
    rate: float | None
    final_estimated: float
    final_true: float | None


def _trace_stats(path: str) -> TraceStats:
    trace = ResidualTrace.read_csv(path)
    if not trace.rows:
        raise ValueError(f"{path}: trace holds no rows")
    iterations = trace.rows[-1].outer_iteration + 1
    elapsed = trace.rows[-1].time - trace.rows[0].time
    trues = [row.true_residual for row in trace.rows if row.true_residual is not None]
    return TraceStats(
        path=path,
        iterations=iterations,
        elapsed=elapsed,
        rate=iterations / elapsed if elapsed > 0 else None,
        final_estimated=trace.rows[-1].estimated_residual,
        final_true=trues[-1] if trues else None,
    )


def compare(paths: list[str], reference: str | None = None) -> list[dict]:
    """Tabulate iteration counts/rates and ratios versus a reference trace."""
    stats = [_trace_stats(p) for p in paths]
    ref_path = reference if reference is not None else paths[0]
    ref = next((s for s in stats if s.path == ref_path), None)
    if ref is None:
        raise ConfigurationError(f"reference: {ref_path!r} is not among the traces")
    rows = []
    for s in stats:
        rows.append(
            {
                "trace": s.path,
                "iterations": s.iterations,
                "rate": s.rate,
                "final_estimated": s.final_estimated,
                "final_true": s.final_true,
                "iteration_ratio": s.iterations / ref.iterations,
                "time_ratio": s.elapsed / ref.elapsed if ref.elapsed > 0 else None,
            }
        )
    return rows


def format_compare(rows: list[dict]) -> str:
    def opt(value, spec="{:.4g}"):
        return spec.format(value) if value is not None else "-"

    lines = [
        f"{'trace':<32}{'iters':>8}{'rate':>10}{'final_est':>14}"
        f"{'final_true':>14}{'iter_ratio':>12}{'time_ratio':>12}"
    ]
    for r in rows:
        lines.append(
            f"{r['trace']:<32}{r['iterations']:>8}{opt(r['rate']):>10}"
            f"{r['final_estimated']:>14.4e}{opt(r['final_true'], '{:.4e}'):>14}"
            f"{r['iteration_ratio']:>12.4f}{opt(r['time_ratio'], '{:.4f}'):>12}"
        )
    return "\n".join(lines)


def compare_csv(rows: list[dict]) -> str:
    lines = ["trace,iterations,rate,final_estimated,final_true,iteration_ratio,time_ratio"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r["trace"],
                    str(r["iterations"]),
                    "" if r["rate"] is None else format(r["rate"], ".17g"),
                    format(r["final_estimated"], ".17g"),
                    "" if r["final_true"] is None else format(r["final_true"], ".17g"),
                    format(r["iteration_ratio"], ".17g"),
                    "" if r["time_ratio"] is None else format(r["time_ratio"], ".17g"),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    for key, spec in CONFIG_KEYS.items():
        default = spec.metadata["default"] or "none"
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=f"(default {default})")


def _collect_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = parse_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in CONFIG_KEYS}
    raw.update((key, value) for key, value in flags.items() if value is not None)
    return ExperimentConfig.from_mapping(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksolve",
        description="Two-stage block-Jacobi experiments on the 3D Laplace problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration")
    _add_config_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="run one configuration per axis value")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, help="|".join(SWEEP_AXES))
    p_sweep.add_argument(
        "--values",
        required=True,
        help="comma list (block grids as gx,gy,gz separated by ';')",
    )
    p_sweep.add_argument("--summary-out", help="also write the sweep summary as CSV")

    p_cmp = sub.add_parser("compare", help="compare residual traces")
    p_cmp.add_argument("traces", nargs="+", help="trace CSV paths")
    p_cmp.add_argument("--reference", help="reference trace (default: first)")
    p_cmp.add_argument("--out", help="also write the comparison as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            summary = run(_collect_config(args))
            print(format_summary(summary))
            return 0 if summary.converged else 2
        if args.command == "sweep":
            config = _collect_config(args)
            results = sweep(config, args.axis, args.values)
            print(format_sweep(args.axis, results))
            if args.summary_out:
                Path(args.summary_out).write_text(sweep_csv(args.axis, results))
            return 0 if all(s.converged for _, s in results) else 2
        rows = compare(args.traces, args.reference)
        print(format_compare(rows))
        if args.out:
            Path(args.out).write_text(compare_csv(rows))
        return 0
    except (ConfigurationError, SolverBreakdownError, ProtocolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
