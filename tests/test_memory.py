"""Peak memory of the setup stages and the VTK writer, and block sizes that
change no output.

``tracemalloc`` traces numpy's array allocations, and they repeat exactly
from run to run, so each stage's peak is a deterministic number.  A stage
is one call at n = 27 (117,936 tets): mesh generation, a steady
``prepare``, ``Ilu0Preconditioner`` of its operator, one ``write_vtk`` and
a transient ``prepare`` (dt = 0.02), which keeps the built capacity but,
with this constant data, neither its pattern, the cell geometry, K nor
M/dt + K.  A prepared problem must also keep no more than its budget of
live data (3.5 MiB steady and 7.2 MiB transient when measured, against
7.2 and 11.9 MiB while it kept both operators).

Each stage must stay within its budget, and within the bar
``peak - start <= 2 * kept + block``: ``kept`` is the live traced data
after the stage, and ``block`` is the one working set the stage does not
split.  Mesh generation and assembly each make one stable sort of all their
keys (the face keys; the cell pattern's triplets), which holds its key
columns, the order, one gathered key column and the counting pass's two
output arrays, all int32; ILU(0) setup and the writer work in blocks that
need no allowance.

The other tests set each block constant to 1, 2, 3 and 7 and require every
output to be byte-identical to its one-block result.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nndiff.mesh_io as mesh_io
import nndiff.sparse as sparse
from nndiff.errors import FactorizationError
from nndiff.fem import DiffusivityField, DispersionParams, assemble
from nndiff.mesh import (HEX8, HEX_FACES, TET4, TET_FACES, BoundarySpec, boundary_faces,
                         generate_box, generate_cube_with_hole)
from nndiff.mesh_io import _format_rows, write_gmsh, write_vtk
from nndiff.sparse import CooPattern, Ilu0Preconditioner, ilu0_factor
from nndiff.transient import prepare
from test_sparse import coo_triplets, ilu0_matrices

MiB = 2**20
N = 27

# stage -> budget for peak - start, MiB
BUDGET_MIB = {"mesh": 20, "prepare": 45, "ilu0": 25, "write_vtk": 10, "transient_prepare": 45}
# stage -> budget for the live data that the prepared problem adds, MiB
KEEP_MIB = {"prepare": 4, "transient_prepare": 8}

BLOCK_SIZES = (1, 2, 3, 7)
ONE_BLOCK = 2**62
BLOCK_CONSTANTS = ((sparse, "_BLOCK"), (sparse, "_ILU0_BLOCK"), (mesh_io, "_FORMAT_BLOCK"))


def _traced(fn):
    """``fn()``, its traced peak above the start, the live bytes after it and
    the live bytes it added."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    kept, peak = tracemalloc.get_traced_memory()
    return out, peak - start, kept, kept - start


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """stage -> (peak - start, kept, added, block) in bytes, the stages run in order."""
    path = tmp_path_factory.mktemp("memory") / "c.vtk"
    bc = BoundarySpec(dirichlet={1: 0.0, 2: 1.0})
    tracemalloc.start()
    try:
        mesh, *mesh_stage = _traced(lambda: generate_cube_with_hole(N))
        diffusivity = DiffusivityField.dispersion(DispersionParams(1.0, 0.001, 0.0), np.ones(3))
        problem, *prepare_stage = _traced(lambda: prepare(mesh, bc, diffusivity, 0.0))
        _, *ilu0_stage = _traced(lambda: Ilu0Preconditioner(problem.reduced.matrix))
        field = np.linspace(0.0, 1.0, mesh.n_vertices)
        _, *vtk_stage = _traced(lambda: write_vtk(mesh, {"c": field}, path))
        del problem, _
        transient, *transient_stage = _traced(
            lambda: prepare(mesh, bc, diffusivity, 0.0, dt=0.02))
        assert transient.geometry is None
    finally:
        tracemalloc.stop()
    faces, face_width = mesh.n_cells * len(TET_FACES), len(TET_FACES[0])
    triplets = mesh.n_cells * mesh.cells.shape[1] ** 2
    return {
        "mesh": (*mesh_stage, 4 * faces * (face_width + 4)),
        "prepare": (*prepare_stage, 4 * triplets * (1 + 4)),
        "ilu0": (*ilu0_stage, 0),
        "write_vtk": (*vtk_stage, 0),
        "transient_prepare": (*transient_stage, 4 * triplets * (1 + 4)),
    }


@pytest.mark.parametrize("stage", sorted(BUDGET_MIB))
def test_stage_peak_within_budget(stages, stage):
    peak = stages[stage][0]
    assert peak <= BUDGET_MIB[stage] * MiB, f"{stage}: {peak / MiB:.1f} MiB"


@pytest.mark.parametrize("stage", sorted(BUDGET_MIB))
def test_stage_peak_within_twice_kept_plus_one_block(stages, stage):
    peak, kept, _, block = stages[stage]
    assert peak <= 2 * kept + block, (
        f"{stage}: peak {peak / MiB:.1f} MiB, kept {kept / MiB:.1f}, block {block / MiB:.1f}")


@pytest.mark.parametrize("stage", sorted(KEEP_MIB))
def test_prepared_problem_keeps_within_budget(stages, stage):
    added = stages[stage][2]
    assert added <= KEEP_MIB[stage] * MiB, f"{stage}: keeps {added / MiB:.1f} MiB"


def test_steady_prepare_keeps_no_capacity_pattern():
    """A prepared problem keeps no assembled system (K and the capacity
    pattern), and an operator only when a later level's lift reads it."""
    mesh = generate_box(2, 2, 2)
    bc = BoundarySpec(dirichlet={1: 0.0})
    iso = DiffusivityField.constant(np.eye(3))
    steady = prepare(mesh, bc, iso, 1.0)
    assert not hasattr(steady, "system")
    assert steady.mass is None and steady.operator is None
    transient = prepare(mesh, bc, iso, 1.0, dt=0.1)
    assert transient.mass.nnz == assemble(mesh, None, bc, iso, 1.0).stiffness.nnz
    assert transient.operator is None
    varying = prepare(mesh, bc, iso, lambda points, t: np.full(len(points), t), dt=0.1)
    assert varying.operator.nnz == transient.mass.nnz


# ---------------------------------------------------------------------------
# Block sizes change no output
# ---------------------------------------------------------------------------

def _per_block_size(monkeypatch, fn):
    """``fn()`` with every block constant at one block, then at each of BLOCK_SIZES."""
    results = []
    for size in (ONE_BLOCK, *BLOCK_SIZES):
        for module, name in BLOCK_CONSTANTS:
            monkeypatch.setattr(module, name, size)
        results.append(fn())
    return results[0], results[1:]


def _bytes(*arrays) -> list:
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(coo_triplets(dyadic=False))
def test_coo_pattern_and_matrix(coo):
    n, rows, cols, vals = coo
    with pytest.MonkeyPatch.context() as mp:
        def build():
            pattern = CooPattern(n, rows, cols)
            a = pattern.matrix(vals)
            return _bytes(pattern._order, pattern._starts, a.row_offsets, a.col_indices,
                          a.values)
        one, blocked = _per_block_size(mp, build)
    assert all(b == one for b in blocked)


def test_cell_pattern_matrix(monkeypatch):
    cells = generate_cube_with_hole(9).cells
    m, k = cells.shape
    rows = np.broadcast_to(cells[:, :, None], (m, k, k))
    cols = np.broadcast_to(cells[:, None, :], (m, k, k))
    vals = np.random.default_rng(5).standard_normal((m, k, k))

    def build():
        a = CooPattern(cells.max() + 1, rows, cols).matrix(vals)
        return _bytes(a.row_offsets, a.col_indices, a.values)

    one, blocked = _per_block_size(monkeypatch, build)
    assert all(b == one for b in blocked)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(ilu0_matrices())
def test_ilu0_factor(a):
    def factor():
        try:
            val, flops = ilu0_factor(a)
        except FactorizationError as exc:
            return str(exc)
        return _bytes(val), flops

    with pytest.MonkeyPatch.context() as mp:
        one, blocked = _per_block_size(mp, factor)
    assert all(b == one for b in blocked)


def test_ilu0_factor_of_a_galerkin_operator(monkeypatch):
    mesh = generate_cube_with_hole(9)
    problem = prepare(mesh, BoundarySpec(dirichlet={1: 0.0, 2: 1.0}),
                      DiffusivityField.dispersion(DispersionParams(1.0, 0.001, 0.0),
                                                  np.ones(3)), 0.0)

    def factor():
        val, flops = ilu0_factor(problem.reduced.matrix)
        return _bytes(val), flops

    one, blocked = _per_block_size(monkeypatch, factor)
    assert all(b == one for b in blocked)


@st.composite
def cell_arrays(draw):
    """(cells, kind): up to 12 cells over at most 10 vertex ids, repeats likely."""
    kind = draw(st.sampled_from([TET4, HEX8]))
    width = 4 if kind == TET4 else 8
    m = draw(st.integers(0, 12))
    ids = draw(st.lists(st.integers(0, 9), min_size=m * width, max_size=m * width))
    return np.array(ids, dtype=np.int64).reshape(m, width), kind


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cell_arrays())
def test_boundary_faces(cells_kind):
    cells, kind = cells_kind
    with pytest.MonkeyPatch.context() as mp:
        one, blocked = _per_block_size(mp, lambda: _bytes(*boundary_faces(cells, kind)))
    assert all(b == one for b in blocked)
    # every face found once is one of its owner's faces, in face order
    faces, owners = boundary_faces(cells, kind)
    local = np.asarray(TET_FACES if kind == TET4 else HEX_FACES)
    assert all(any(np.array_equal(f, cells[o, lf]) for lf in local)
               for f, o in zip(faces, owners))


@pytest.mark.parametrize("kind", [TET4, HEX8])
def test_boundary_faces_of_a_generated_mesh(monkeypatch, kind):
    cells = generate_cube_with_hole(9, kind).cells
    one, blocked = _per_block_size(monkeypatch, lambda: _bytes(*boundary_faces(cells, kind)))
    assert all(b == one for b in blocked)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
       st.integers(1, 3))
def test_format_rows(values, width):
    array = np.array(values[:len(values) // width * width], dtype=np.float64).reshape(-1, width)
    fmt = " ".join(["%.17g"] * width) + "\n"
    with pytest.MonkeyPatch.context() as mp:
        one, blocked = _per_block_size(mp, lambda: "".join(_format_rows(fmt, array)))
    assert all(b == one for b in blocked)
    assert one == "".join(fmt % tuple(row) for row in array.tolist())


@pytest.mark.parametrize("kind", [TET4, HEX8])
def test_vtk_and_gmsh_files(monkeypatch, tmp_path, kind):
    mesh = generate_cube_with_hole(9, kind)
    field = np.random.default_rng(7).standard_normal(mesh.n_vertices)

    def write():
        write_vtk(mesh, {"c": field, "d": -field}, tmp_path / "m.vtk")
        write_gmsh(mesh, tmp_path / "m.msh")
        return (tmp_path / "m.vtk").read_bytes(), (tmp_path / "m.msh").read_bytes()

    one, blocked = _per_block_size(monkeypatch, write)
    assert all(b == one for b in blocked)
