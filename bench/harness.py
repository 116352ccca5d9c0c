"""Sample loop, metrics and result printing for one benchmark run.

The load is a closed loop with one client: the next sample starts only
after the previous ``solve`` returns.  One sample times the public set-up
calls (``setup_s``), then one in-process ``nndiff.cli.main(["solve", ...])``
call (``time_to_solution_s``), then checks the outputs untimed.
"""

from __future__ import annotations

import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import nndiff.cli as cli
import nndiff.config as config
import nndiff.fem as fem

import stream
import tracer as trace
from checks import check_sample
from stats import failed_frac, nearest_rank, tail_percentile
from workloads import WORKLOADS, velocity_for_seed, write_config

MIN_SAMPLES = 3
MIN_TRACED = 2
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "dof_per_s": "DoF/s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    suffixes = (
        ("_s", "s"), ("_calls", "count"), (".calls", "count"), (".flops", "flop"),
        (".bytes", "B"), ("_gbs", "GB/s"), ("_pct", "%"), ("_mib", "MiB"),
        ("_mb", "MB"), ("_iterations", "count"), (".steps", "count"),
        ("_ratio", "ratio"), (".ai", "flop/B"),
    )
    for suffix, unit in suffixes:
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name!r}")


@dataclass
class Sample:
    setup_s: float | None = None
    tts_s: float | None = None
    failures: list = field(default_factory=list)
    report: dict | None = None
    free_dofs: int = 0
    traced: bool = False

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.tts_s


def _setup_and_solve(cfg_path: Path, out_dir: Path):
    """The timed part of a sample; every call goes through a module attribute
    so that the traced run's rebinding sees it."""
    t0 = time.perf_counter()
    run_cfg = config.RunConfig.from_file(cfg_path)
    mesh = config.build_mesh(run_cfg.mesh, cfg_path.parent)
    diffusivity = config.build_diffusivity(run_cfg.physics, mesh, cfg_path.parent)
    bc = config.build_bc(run_cfg.bc)
    system = fem.assemble(mesh, None, bc, diffusivity, run_cfg.physics.get("source", 0.0))
    reduced = fem.apply_dirichlet(system)
    t1 = time.perf_counter()
    del mesh, diffusivity, bc, system  # keep only what the output checks need
    argv = ["solve", "--config", str(cfg_path), "--report", str(out_dir / "report.json"),
            "--vtk", str(out_dir / "out.vtk")]
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    t2 = time.perf_counter()
    return run_cfg, reduced, code, t1 - t0, t2 - t1


def run_sample(workload, cfg_path: Path, tracer: trace.Tracer | None = None) -> Sample:
    out_dir = cfg_path.parent
    for old in [*out_dir.glob("*.vtk"), out_dir / "report.json", out_dir / "steps.csv"]:
        old.unlink(missing_ok=True)
    gc.collect()  # start every sample from the same heap; garbage from the last one is freed
    sample = Sample(traced=tracer is not None)
    try:
        if tracer is None:
            run_cfg, reduced, code, setup, tts = _setup_and_solve(cfg_path, out_dir)
        else:
            with trace.Instrumentation(tracer):
                root = tracer.wrap(trace.ROOT, _setup_and_solve)
                run_cfg, reduced, code, setup, tts = root(cfg_path, out_dir)
        sample.setup_s, sample.tts_s, sample.free_dofs = setup, tts, len(reduced.free)
        tcfg = config.build_transient_config(run_cfg)
        sample.failures = check_sample(
            workload, code, out_dir, reduced, tcfg.rtol, tcfg.c_min, tcfg.c_max
        )
        if code == 0:
            sample.report = json.loads((out_dir / "report.json").read_text())
    except Exception:  # a crashed sample is a failed sample; keep measuring
        traceback.print_exc(file=sys.stderr)
        sample.failures.append("exception: " + traceback.format_exc().splitlines()[-1])
    for msg in sample.failures:
        print(f"sample failed: {msg}", file=sys.stderr)
    return sample


def _another_fits(start: float, seconds: float, durations) -> bool:
    """True while one more step as long as the longest so far ends within the run."""
    step = max(durations, default=0.0)
    return time.perf_counter() - start + step <= seconds


def _sample_loop(seconds: float, start: float, minimum: int, step) -> list:
    """Call ``step()`` (which returns a list of samples) until the run's
    time is used up, at least ``minimum`` times."""
    samples, durations = [], []
    while len(durations) < minimum or _another_fits(start, seconds, durations):
        t0 = time.perf_counter()
        samples += step(len(durations))
        durations.append(time.perf_counter() - t0)
    return samples


def _median(values):
    """Median; counts keep their integer type (median_low)."""
    if not values:
        return float("nan")
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _timing_line(name: str, values, unit: str) -> str:
    p = tail_percentile(len(values))
    tail = (
        f"p{p:g} {nearest_rank(values, p):.6g} {unit}" if p is not None
        else "too few samples for a tail percentile with 10 beyond it"
    )
    return (
        f"{name}: median {_median(values):.6g} {unit} over {len(values)} samples, "
        f"min {min(values):.6g}, max {max(values):.6g}; {tail}"
    )


def _end_to_end(workload, samples) -> dict:
    timed = [s for s in samples if s.tts_s is not None]
    if not timed:
        raise RuntimeError("no sample completed")
    dofs = timed[0].free_dofs * workload.levels
    tts = [s.tts_s for s in timed]
    setup = [s.setup_s for s in timed]
    print(f"free DoFs {timed[0].free_dofs} x {workload.levels} solved level(s)")
    print(_timing_line("time_to_solution_s", tts, "s"))
    print(_timing_line("setup_s", setup, "s"))
    return {
        "time_to_solution_s": _median(tts),
        "setup_s": _median(setup),
        "dof_per_s": _median([dofs / t for t in tts]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(workload, cfg_path: Path, seconds: float) -> tuple[list, dict]:
    """STREAM, then untraced/traced sample pairs on one config."""
    start = time.perf_counter()
    tpp = config.build_envelope(config.RunConfig.from_file(cfg_path)).tpp
    llc, available = stream.llc_bytes(), stream.mem_available_bytes()
    array_bytes, why_not = stream.plan(llc, available)
    bw = stream.measure(array_bytes) if array_bytes else None
    if bw:
        print(
            f"STREAM: triad {bw['triad_gbs']:.3f} GB/s, copy {bw['copy_gbs']:.3f} GB/s "
            f"(STREAM-counted bytes), arrays {bw['array_mib']:.0f} MiB each, "
            f"LLC {llc / 2**20:.0f} MiB"
        )
    else:
        print(f"STREAM skipped ({why_not}); efficiency against a measured bandwidth "
              "is reported as 0")

    tracers = []

    def pair(i):
        """One untraced and one traced sample, in alternating order."""
        tracers.append(trace.Tracer())
        order = (None, tracers[-1]) if i % 2 == 0 else (tracers[-1], None)
        return [run_sample(workload, cfg_path, t) for t in order]

    samples = _sample_loop(seconds, start, MIN_TRACED, pair)
    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]

    rows = []
    for sample, tr in zip(traced, tracers):
        if sample.report is None or sample.failures:
            continue
        m = trace.layer_metrics(tr, sample.report)
        perf = sample.report.get("perf", {})
        m["perf.efficiency_config_pct"] = perf.get("efficiency_pct", 0.0)
        m["perf.efficiency_measured_pct"] = 0.0
        if bw and perf:
            # same rate and time base as the config figure; only the bandwidth
            # is measured (the peak FLOP rate still comes from the config)
            rate = sample.report["flops"] / sample.report["solver_wall_time_s"]
            ideal = min(tpp, m["perf.ai"] * bw["triad_gbs"] * 1e9)
            m["perf.efficiency_measured_pct"] = 100.0 * rate / ideal
        rows.append(m)
    if not rows:
        raise RuntimeError("no traced sample completed")
    metrics = {k: _median([r[k] for r in rows]) for k in rows[0]}
    metrics["perf.stream_triad_gbs"] = bw["triad_gbs"] if bw else 0.0
    metrics["perf.stream_copy_gbs"] = bw["copy_gbs"] if bw else 0.0
    metrics["perf.stream_array_mib"] = bw["array_mib"] if bw else 0.0
    plain_wall = _median([s.wall_s for s in plain if s.tts_s is not None])
    traced_wall = _median([s.wall_s for s in traced if s.tts_s is not None])
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    print(f"untraced sample median {plain_wall:.4f} s, traced {traced_wall:.4f} s "
          f"over {len(plain)} + {len(traced)} samples")
    print("self time by span (last traced sample): name calls inclusive_s self_s")
    for name, calls, incl, self_s in trace.self_time_table(tracers[-1]):
        print(f"  {name:28s} {calls:8d} {incl:10.4f} {self_s:10.4f}")
    return samples, metrics


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library mapped into this process."""
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    for path in sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()}):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _git_commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "llc_bytes": stream.llc_bytes(),
        "git_commit": _git_commit(root),
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool, root: Path) -> int:
    workload = WORKLOADS[workload_name]
    meta = metadata(root)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"workload {workload.name}, seed {seed}, trace {int(traced)}; first velocity "
          f"[{', '.join(f'{v:.6f}' for v in velocity_for_seed(seed))}]"
          + ("; the traced run keeps it in every sample" if traced else
             "; each later sample draws its own direction from the seed"))
    print("load: closed loop, 1 client, one in-process solve at a time; nothing "
          "queues, so time waiting does not apply")
    out_root = root / OUT_DIR
    work = out_root / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    src = root / "src"
    try:
        if traced:
            cfg_path = write_config(workload, velocity_for_seed(seed), src, work)
            samples, metrics = _per_layer(workload, cfg_path, seconds)
            units = {k: layer_unit(k) for k in metrics}
        else:
            def step(i):
                cfg_path = write_config(workload, velocity_for_seed(seed, i), src, work)
                return [run_sample(workload, cfg_path)]

            samples = _sample_loop(seconds, time.perf_counter(), MIN_SAMPLES, step)
            metrics = _end_to_end(workload, samples)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s.failures)
    print(f"failed_frac {failed_frac(failed, len(samples)):.6g} "
          f"({failed} of {len(samples)} samples failed an output check)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "meta": meta, "workload": workload.name, "seed": seed, "trace": int(traced),
        "seconds": seconds,
        "samples": [{"velocity": list(velocity_for_seed(seed, 0 if traced else i)),
                     "setup_s": s.setup_s, "time_to_solution_s": s.tts_s,
                     "traced": s.traced, "failures": s.failures,
                     "iterations": [s.report.get(k) for k in ("outer_iterations",
                                                              "inner_iterations")]
                     if s.report else None} for i, s in enumerate(samples)],
        "result": result,
    }
    path = out_root / f"BENCH_{workload.name}_seed{seed}_trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {path.relative_to(root)}")
    print(json.dumps(result))
    return 0
