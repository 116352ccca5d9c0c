"""Self-tests for the benchmark's own arithmetic, parsing and wiring.

    python3 -m pytest bench/tests -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import harness
import tracer as trace
from checks import read_vtk_scalars
from nndiff import cli, config, sparse
from nndiff.config import parse_config_text
from nndiff.mesh import generate_box
from nndiff.mesh_io import write_vtk
from stats import failed_frac, nearest_rank, quartile_spread, tail_percentile
from workloads import (
    CONE_HALF_ANGLE_DEG, WORKLOADS, dump_config, velocity_for_seed, write_config,
)

REPO = Path(__file__).resolve().parents[2]


# -- self time ---------------------------------------------------------------

def test_covered_merges_overlaps_and_keeps_gaps():
    assert trace.covered([]) == 0.0
    assert trace.covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert trace.covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0  # nested
    assert trace.covered([(3.0, 4.0), (0.0, 3.0)]) == 4.0  # touching, unsorted


def test_self_time_is_duration_minus_child_coverage():
    assert trace.self_time(0.0, 10.0, []) == 10.0
    assert trace.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    # children are clipped to the span; disjoint ones do not count
    assert trace.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == 2.0


def test_self_times_add_up_to_root_duration():
    tr = trace.Tracer()
    leaf = tr.wrap("leaf", lambda: sum(range(1000)))
    mid = tr.wrap("mid", lambda: [leaf() for _ in range(3)])
    root = tr.wrap(trace.ROOT, lambda: (mid(), leaf()))
    root()
    rows = tr.summary()
    assert rows["leaf"][0] == 4 and rows["mid"][0] == 1
    assert rows["leaf"][1] == pytest.approx(rows["leaf"][2])  # leaves: self == inclusive
    total_self = sum(r[2] for r in rows.values())
    assert total_self == pytest.approx(rows[trace.ROOT][1], rel=1e-9, abs=1e-12)
    parents = {name: parent for name, _, _, parent in tr.spans}
    assert parents[trace.ROOT] == -1


def test_instrumentation_restores_every_binding():
    before = {(id(o), a): vars(o)[a] for _, sites, _ in trace._targets() for o, a in sites}
    with trace.Instrumentation(trace.Tracer()):
        assert cli.main is not before[(id(cli), "main")]
        assert vars(sparse.CsrMatrix)["from_coo"] is not before[
            (id(sparse.CsrMatrix), "from_coo")]
    after = {(id(o), a): vars(o)[a] for _, sites, _ in trace._targets() for o, a in sites}
    assert after == before


def test_traced_calls_keep_results_and_count():
    tr = trace.Tracer()
    a = sparse.CsrMatrix.from_dense(np.array([[2.0, 1.0], [1.0, 3.0]]))
    with trace.Instrumentation(tr):
        y = sparse.spmv(a, np.array([1.0, 1.0]))
        b = config.RunConfig.from_raw({"mesh": {}, "physics": {}, "bc": {}})
    np.testing.assert_array_equal(y, [3.0, 4.0])
    assert isinstance(b, config.RunConfig)
    rows = tr.summary()
    assert rows["sparse.spmv"][0] == 1
    n, nz = 2, 4
    assert tr.counters["spmv_bytes"] == 4 * (n + nz) + 8 * (2 * n + nz)


# -- statistics ----------------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 90.0) == 90
    assert nearest_rank(values, 99.0) == 99
    assert nearest_rank([5.0, 1.0, 3.0], 50.0) == 3.0


def test_failed_frac_counts_failures_against_attempts():
    assert failed_frac(0, 7) == 0.0
    assert failed_frac(2, 8) == 0.25
    assert failed_frac(3, 3) == 1.0
    for failed, attempted in ((0, 0), (4, 3), (-1, 3)):
        with pytest.raises(ValueError):
            failed_frac(failed, attempted)


def test_quartile_spread():
    assert quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    # statistics.quantiles(range 1..10, n=4) gives Q1 = 2.75, Q3 = 8.25
    vals = [float(v) for v in range(1, 11)]
    assert quartile_spread(vals) == pytest.approx((8.25 - 2.75) / 5.5)


def test_integer_counts_keep_their_type_in_medians():
    assert harness._median([24, 24]) == 24 and isinstance(harness._median([24, 24]), int)
    assert harness._median([1.0, 2.0]) == 1.5


# -- VTK scalar parser ---------------------------------------------------------

def test_vtk_scalars_read_back_bit_exactly(tmp_path):
    mesh = generate_box(1, 1, 1)
    values = np.array([1 / 3, -0.0, 1e-300, 1.0, 0.1 + 0.2, -2.5e17, 5e-324, math.pi])
    values = np.resize(values, mesh.n_vertices)
    path = tmp_path / "f.vtk"
    write_vtk(mesh, {"c": values}, path)
    got = read_vtk_scalars(path)
    assert got.tobytes() == values.tobytes()


def test_vtk_parser_rejects_missing_or_short_fields(tmp_path):
    mesh = generate_box(1, 1, 1)
    path = tmp_path / "f.vtk"
    write_vtk(mesh, {"u": np.zeros(mesh.n_vertices)}, path)
    with pytest.raises(ValueError):
        read_vtk_scalars(path, "c")
    write_vtk(mesh, {"c": np.zeros(mesh.n_vertices)}, path)
    text = path.read_text().rstrip("\n").rsplit("\n", 1)[0] + "\n"  # drop a value
    path.write_text(text)
    with pytest.raises(ValueError):
        read_vtk_scalars(path)


# -- workloads and configs -------------------------------------------------------

def test_seed_zero_is_the_papers_direction_in_every_sample():
    for sample in range(3):
        np.testing.assert_array_equal(velocity_for_seed(0, sample), [1.0, 1.0, 1.0])


@pytest.mark.parametrize("seed", [1, 2, 7, 12345])
def test_seeded_directions_stay_in_the_cone(seed):
    draws = [velocity_for_seed(seed, sample) for sample in range(4)]
    for sample, v in enumerate(draws):
        np.testing.assert_array_equal(v, velocity_for_seed(seed, sample))
        assert np.linalg.norm(v) == pytest.approx(math.sqrt(3.0))
        cos_angle = v.sum() / (np.linalg.norm(v) * math.sqrt(3.0))
        assert math.degrees(math.acos(min(cos_angle, 1.0))) <= CONE_HALF_ANGLE_DEG + 1e-9
    assert len({tuple(v) for v in draws} | {(1.0, 1.0, 1.0)}) == 5


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_config_parses_back(name, tmp_path):
    workload = WORKLOADS[name]
    velocity = velocity_for_seed(3, 1)
    path = write_config(workload, velocity, REPO / "src", tmp_path)
    raw = parse_config_text(path.read_text())
    assert raw["mesh"]["n"] == workload.n
    assert raw["solver"]["choice"] == workload.solver
    assert raw["solver"]["rtol"] == 1e-6
    assert raw["bc"]["dirichlet"] == {"1": 0.0, "2": 1.0}
    np.testing.assert_array_equal(raw["physics"]["velocity"], velocity)
    assert ("transient" in raw) == (workload.transient is not None)
    assert parse_config_text(dump_config(raw)) == raw
    tcfg = config.build_transient_config(config.RunConfig.from_raw(raw))
    assert tcfg.steady == (workload.transient is None)


# -- BENCHMARK.json ----------------------------------------------------------------

def _synthetic_metrics():
    tr = trace.Tracer()
    tr.spans += [(trace.ROOT, 0.0, 10.0, -1), (trace.ENTRY, 1.0, 9.0, 0),
                 ("transient.run", 2.0, 8.0, 1)]
    report = {"solver_wall_time_s": 4.0, "ai": 0.1,
              "perf": {"kernels": [{"name": "spmv", "calls": 3, "flops": 6, "bytes": 9}]}}
    return trace.layer_metrics(tr, report)


def test_layer_metrics_on_a_synthetic_trace():
    m = _synthetic_metrics()
    assert m["trace.coverage_pct"] == pytest.approx(60.0)  # 6 s of 10 inside a layer
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["transient.run_s"] == pytest.approx(6.0)
    assert m["transient.outside_solver_s"] == pytest.approx(2.0)
    assert m["kernel.spmv.calls"] == 3 and m["kernel.dot.calls"] == 0
    assert m["qp.step_accept_ratio"] == 0.0  # no trial points


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == harness.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    extra = {"perf.efficiency_config_pct", "perf.efficiency_measured_pct",
             "perf.stream_triad_gbs", "perf.stream_copy_gbs", "perf.stream_array_mib",
             "trace.overhead_pct"}
    layer_names = set(_synthetic_metrics()) | extra
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(layers) == layer_names
    assert all(layers[name] == harness.layer_unit(name) for name in layers)


def test_launcher_offers_every_workload():
    import run

    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
