"""The benchmark's layer spans still fire on the program's solve paths.

``bench/tracer.py`` times each layer by rebinding module attributes such as
``nndiff.transient.assemble``.  A call that bypasses the rebound name would
read as zero time in that layer without any error, so this runs one
transient and one steady ``solve`` under the tracer and checks that every
layer the two paths go through recorded a call, the methods it rebinds on
``CsrMatrix`` and ``Ilu0Preconditioner`` among them.
"""

from pathlib import Path

import pytest

import nndiff.cli
from nndiff.transient import SOLVERS
from test_cli import HOLE_CONFIG

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


def traced_calls(tracer, argv) -> dict:
    """Span name -> call count of one traced ``nndiff`` command that exits 0."""
    spans = tracer.Tracer()
    with tracer.Instrumentation(spans):
        assert nndiff.cli.main(argv) == 0
    return {name: row[0] for name, row in spans.summary().items()}


def test_transient_and_steady_solves_fire_every_layer_span(tracer, tmp_path):
    transient = tmp_path / "transient.toml"
    transient.write_text(
        HOLE_CONFIG
        + "\n[transient]\ndt = 0.5\nn_steps = 3\n"
        + f'\n[output]\ncsv = "{tmp_path / "steps.csv"}"\ncadence = 2\n'
    )
    calls = traced_calls(tracer, ["solve", "--config", str(transient), "--solver", "tron",
                                  "--vtk", str(tmp_path / "t.vtk")])
    for name in ("fem.assemble", "fem.assemble_load", "sparse.spmv", "sparse.submatrix",
                 "qp.solve", "transient.run", "transient.write_step_csv",
                 "mesh_io.write_vtk"):
        assert calls.get(name, 0) >= 1, name
    assert calls["fem.assemble_load"] == 1  # constant data: assembled once, in prepare
    assert calls["mesh_io.write_vtk"] == 2  # the step-2 snapshot and the final field

    steady = tmp_path / "steady.toml"
    steady.write_text(HOLE_CONFIG)
    calls = traced_calls(tracer, ["solve", "--config", str(steady), "--solver", "galerkin",
                                  "--report", str(tmp_path / "report.json")])
    for name in ("fem.assemble", "fem.apply_dirichlet", "sparse.submatrix", "sparse.cg",
                 "sparse.ilu0_setup", "sparse.ilu0_apply", "transient.run"):
        assert calls.get(name, 0) >= 1, name


@pytest.mark.parametrize("solver", SOLVERS)
def test_every_solver_fires_its_solve_span(tracer, solver, tmp_path):
    """The table calls each solve function by its module name, so the
    tracer's rebinding reaches it: ``qp.solve`` for a bounded solver,
    ``sparse.cg`` for the others."""
    config = tmp_path / "steady.toml"
    config.write_text(HOLE_CONFIG)
    calls = traced_calls(tracer, ["solve", "--config", str(config), "--solver", solver])
    span = "qp.solve" if SOLVERS[solver].bounded else "sparse.cg"
    assert calls.get(span, 0) == 1  # one steady level
