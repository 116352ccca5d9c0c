"""Layer spans for the traced run, recorded from outside the program.

``Instrumentation`` rebinds the public function at each layer boundary to a
wrapper that records a span (name, start, end, parent).  Names bound by
``from``-imports are rebound in the importing module too, for example
``nndiff.transient.assemble_load`` and ``nndiff.qp.spmv``.  Nothing under
``src/`` is edited; ``Instrumentation.restore`` puts every original back.

Spans stay in memory for one sample; ``layer_metrics`` reduces them to
the per-layer metrics.  A span's self time is its duration minus the
part of its interval that its child spans cover, so the self times of
all spans in a sample add up to the root span's duration.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import nndiff.cli as cli
import nndiff.config as config
import nndiff.fem as fem
import nndiff.qp as qp
import nndiff.sparse as sparse
import nndiff.transient as transient

ROOT = "sample"
ENTRY = "cli.main"
VECTOR_KERNELS = ("norm2", "dot", "axpy", "aypx", "scale", "vec_copy")

# Ledger kernels reported as kernel.<name>.{calls,flops,bytes}: every
# kernel that one of the workloads records.
KERNELS = (
    "axpy", "aypx", "copy", "dot", "ilu0_apply", "ilu0_setup", "jacobi_apply",
    "jacobi_setup", "median", "norm", "proj_grad", "scale", "spmv",
)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of it that ``children`` cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children if e > start and s < end]
    return (end - start) - covered(clipped)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: dict = defaultdict(int)
        self._stack: list = []

    def wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_return is not None:
                on_return(self.counters, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_time(start, end, children.get(idx, ()))
        return dict(out)


# -- hooks that read counts off a wrapped call ----------------------------

def _count_spmv_bytes(counters, args, result):
    a = args[0]
    n, nz = a.n, a.nnz
    counters["spmv_bytes"] += sparse.INT_BYTES * (n + nz) + sparse.FLOAT_BYTES * (2 * n + nz)


def _count_cg(counters, args, result):
    counters["cg_iterations"] += result[1].iterations


def _count_qp(counters, args, result):
    report = result[1]
    counters["qp_solves"] += 1
    counters["qp_outer"] += report.outer_iterations
    counters["qp_inner"] += report.inner_iterations


def _count_steps(counters, args, result):
    counters["steps"] += len(result.reports)


def _count_vtk(counters, args, result):
    counters["vtk_bytes"] += os.path.getsize(args[2])


def _targets():
    """(span name, [(owner, attribute)], hook) for every layer boundary."""
    csr, ilu = sparse.CsrMatrix, sparse.Ilu0Preconditioner
    vector = [(m, k) for m in (sparse, qp) for k in VECTOR_KERNELS]
    return [
        ("config.from_file", [(config.RunConfig, "from_file")], None),
        ("config.build_mesh", [(config, "build_mesh"), (cli, "build_mesh")], None),
        ("mesh.generate", [(config, "generate_cube_with_hole")], None),
        ("config.build_diffusivity",
         [(config, "build_diffusivity"), (cli, "build_diffusivity")], None),
        ("config.build_bc", [(config, "build_bc"), (cli, "build_bc")], None),
        ("fem.assemble", [(fem, "assemble"), (transient, "assemble")], None),
        ("fem.apply_dirichlet",
         [(fem, "apply_dirichlet"), (transient, "apply_dirichlet")], None),
        ("fem.assemble_load", [(fem, "assemble_load"), (transient, "assemble_load")], None),
        ("sparse.from_coo", [(csr, "from_coo")], None),
        ("sparse.submatrix", [(csr, "submatrix")], None),
        ("sparse.spmv", [(sparse, "spmv"), (qp, "spmv"), (transient, "spmv")],
         _count_spmv_bytes),
        ("sparse.ilu0_setup", [(ilu, "__init__")], None),
        ("sparse.ilu0_apply", [(ilu, "apply")], None),
        ("sparse.cg", [(transient, "cg_solve")], _count_cg),
        ("sparse.vector", vector, None),
        ("qp.solve", [(transient, "solve_tron"), (transient, "solve_blmvm")], _count_qp),
        ("qp.objective", [(qp, "objective")], None),
        ("qp.gradient", [(qp, "gradient")], None),
        ("transient.run", [(cli, "run_transient")], _count_steps),
        ("transient.write_step_csv", [(cli, "write_step_csv")], None),
        ("mesh_io.write_vtk", [(cli, "write_vtk")], _count_vtk),
        (ENTRY, [(cli, "main")], None),
    ]


class Instrumentation:
    """Rebinds every layer boundary to ``tracer``'s wrappers until restored."""

    def __init__(self, tracer: Tracer):
        self._saved = []
        for name, sites, hook in _targets():
            for owner, attr in sites:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(name, raw.__func__, hook))
                else:
                    new = tracer.wrap(name, raw, hook)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def layer_metrics(tracer: Tracer, report: dict) -> dict:
    """Per-layer metrics of one traced sample.

    Every ``<layer>.<name>_s`` is the self time of that span, summed over
    the sample (the benchmark's own set-up calls and the ``solve`` call).
    Counts cover the same interval.  ``report`` is the program's
    report.json for the sample.
    """
    rows = tracer.summary()

    def calls(name):
        return rows.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return rows.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return rows.get(name, (0, 0.0, 0.0))[2]

    c = tracer.counters
    root = incl(ROOT)
    solves = c["qp_solves"]
    trials = calls("qp.objective") - solves
    spmv_time = incl("sparse.spmv")
    solver_wall = float(report["solver_wall_time_s"])
    m = {
        "mesh.generate_s": self_s("mesh.generate"),
        "fem.assemble_s": self_s("fem.assemble"),
        "fem.apply_dirichlet_s": self_s("fem.apply_dirichlet"),
        "fem.assemble_load_calls": calls("fem.assemble_load"),
        "fem.assemble_load_s": self_s("fem.assemble_load"),
        "sparse.from_coo_calls": calls("sparse.from_coo"),
        "sparse.from_coo_s": self_s("sparse.from_coo"),
        "sparse.submatrix_calls": calls("sparse.submatrix"),
        "sparse.submatrix_s": self_s("sparse.submatrix"),
        "sparse.spmv_calls": calls("sparse.spmv"),
        "sparse.spmv_s": self_s("sparse.spmv"),
        "sparse.spmv_gbs": c["spmv_bytes"] / spmv_time / 1e9 if spmv_time > 0 else 0.0,
        "sparse.ilu0_setup_s": self_s("sparse.ilu0_setup"),
        "sparse.ilu0_apply_calls": calls("sparse.ilu0_apply"),
        "sparse.ilu0_apply_s": self_s("sparse.ilu0_apply"),
        "sparse.cg_iterations": c["cg_iterations"],
        "sparse.vector_calls": calls("sparse.vector"),
        "sparse.vector_s": self_s("sparse.vector"),
        "qp.solve_s": self_s("qp.solve"),
        "qp.outer_iterations": c["qp_outer"],
        "qp.inner_iterations": c["qp_inner"],
        "qp.objective_calls": calls("qp.objective"),
        "qp.gradient_calls": calls("qp.gradient"),
        # accepted steps / trial points; each solve evaluates its start
        # point once with both objective and gradient
        "qp.step_accept_ratio": (calls("qp.gradient") - solves) / trials if trials > 0 else 0.0,
        "transient.run_s": self_s("transient.run"),
        "transient.steps": c["steps"],
        "transient.solver_wall_s": solver_wall,
        "transient.outside_solver_s": incl("transient.run") - solver_wall,
        "mesh_io.write_vtk_calls": calls("mesh_io.write_vtk"),
        "mesh_io.write_vtk_s": self_s("mesh_io.write_vtk"),
        "mesh_io.vtk_mb": c["vtk_bytes"] / 1e6,
        "cli.self_s": self_s(ENTRY),
        # share of the sample spent inside a layer below the entry points
        "trace.coverage_pct": 100.0 * (root - self_s(ROOT) - self_s(ENTRY)) / root,
    }
    kernels = {k["name"]: k for k in report.get("perf", {}).get("kernels", [])}
    for name in KERNELS:
        k = kernels.get(name, {})
        for field in ("calls", "flops", "bytes"):
            m[f"kernel.{name}.{field}"] = k.get(field, 0)
    m["perf.ai"] = float(report.get("ai", 0.0))
    return m


def self_time_table(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """(name, calls, inclusive s, self s) rows, largest self time first."""
    rows = [(name, r[0], r[1], r[2]) for name, r in tracer.summary().items()]
    return sorted(rows, key=lambda r: -r[3])
