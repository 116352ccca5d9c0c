import dataclasses
import importlib
import math
import re
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nndiff.config import (
    _SCHEMA,
    INTEGER,
    MARKERS,
    NUMBER,
    NUMBERS,
    STRING,
    STRINGS,
    RunConfig,
    build_bc,
    build_diffusivity,
    build_envelope,
    build_mesh,
    build_transient_config,
    parse_config_text,
)
from nndiff.cli import _INPUT_ERRORS
from nndiff.errors import ConfigError, ParseError
from nndiff.fem import dispersion_tensor, DispersionParams
from nndiff.mesh import generate_box
from nndiff.mesh_io import write_gmsh
from nndiff.transient import SOLVERS, TransientConfig


class TestParser:
    def test_sections_and_types(self):
        text = """
        # comment
        [alpha]
        name = "value"  # trailing comment
        count = 3
        rate = 1.5e-3
        flag = true
        items = [1, 2.5, "x"]

        [alpha.sub]
        7 = 0.25
        """
        out = parse_config_text(text)
        assert out["alpha"]["name"] == "value"
        assert out["alpha"]["count"] == 3
        assert out["alpha"]["rate"] == 1.5e-3
        assert out["alpha"]["flag"] is True
        assert out["alpha"]["items"] == [1, 2.5, "x"]
        assert out["alpha"]["sub"]["7"] == 0.25

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config_text("[a]\nx = 1\nx = 2\n")

    def test_malformed_line_names_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("[a]\njust words\n")
        assert err.value.line == 2

    def test_bad_value(self):
        with pytest.raises(ParseError):
            parse_config_text("[a]\nx = oops\n")

    def test_unterminated_section(self):
        with pytest.raises(ParseError):
            parse_config_text("[a\nx = 1\n")

    def test_repeated_header_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("[a]\nx = 1\n\n[a]\ny = 2\n")
        assert err.value.line == 4

    def test_error_at_end_of_document_names_last_line(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("[a]\nx = [1,\n2")
        assert err.value.line == 3


def set_value(raw: dict, section: str, key: str, value) -> None:
    """``raw[section][key] = value``, where ``section`` may be ``bc.dirichlet``; a
    table on the way that an earlier edit made a value becomes a table again."""
    table = raw
    for part in section.split("."):
        if not isinstance(table.get(part), dict):
            table[part] = {}
        table = table[part]
    table[key] = value


# (section, key, kind) of every schema key and of one marker in each boundary table
SCHEMA_KEYS = [(s, k, kind) for s, kinds in _SCHEMA.items() for k, kind in kinds.items()]
SCHEMA_KEYS += [("bc.dirichlet", "1", NUMBER), ("bc.neumann", "2", NUMBER)]
# an array of a value each kind takes, or a nested array for the array kinds
BAD_ARRAY = {STRING: ["tet4"], NUMBER: [1.0], INTEGER: [1], NUMBERS: [[1.0, 1.0, 1.0]],
             STRINGS: [["tron"]], MARKERS: [1.0]}

EDITABLE = SCHEMA_KEYS + [("bc.dirichlet", "x", NUMBER), ("bc.neumann", "-1", NUMBER)]
# names the builders act on, so draws reach past their first check
WORDS = st.sampled_from([
    "box", "cube_with_hole", "file", "tet4", "hex8", "constant", "dispersion", "galerkin",
    "tron", "tron:1e-3", "tron:0", "tron:x", "blmvm", "blmvm:1e-3", "jacobi", "ilu0", "none",
    "m.msh", "",
])
# small integers keep every drawn box mesh small; a path is a name in an empty directory
NUMBERS_DRAWN = st.integers(-2, 3) | st.floats()
STRINGS_DRAWN = WORDS | st.text(alphabet="abc.:_-09 ", max_size=6)
OF_KIND = {
    STRING: STRINGS_DRAWN,
    NUMBER: NUMBERS_DRAWN,
    INTEGER: st.integers(-2, 3),
    NUMBERS: st.lists(NUMBERS_DRAWN, max_size=10),
    STRINGS: STRINGS_DRAWN | st.lists(WORDS, max_size=3),
    MARKERS: st.dictionaries(st.sampled_from(["1", "2", "x"]), NUMBERS_DRAWN, max_size=2),
}
TOML_VALUES = st.recursive(
    st.booleans() | NUMBERS_DRAWN | STRINGS_DRAWN | st.dates(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["1", "2", "x"]), inner, max_size=2),
    max_leaves=6,
)
# an edit sets one key to a value of its own kind or to any TOML value
EDITS = st.lists(st.sampled_from(EDITABLE).flatmap(
    lambda key: st.tuples(st.just(key[:2]), OF_KIND[key[2]] | TOML_VALUES)
), min_size=1, max_size=4)


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("empty")


MINIMAL = """
[mesh]
generator = "box"
nx = 2
ny = 2
nz = 2
kind = "hex8"

[physics]
mode = "constant"
tensor = [1.0, 2.0, 3.0]

[bc.dirichlet]
1 = 0.0
"""


class TestSchema:
    def test_minimal_accepted(self):
        run = RunConfig.from_raw(parse_config_text(MINIMAL))
        assert run.transient is None

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            RunConfig.from_raw(parse_config_text(MINIMAL + "\n[extra]\nx = 1\n"))

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_raw(parse_config_text(MINIMAL + "\n[solver]\nfoo = 1\n"))

    def test_missing_required_section(self):
        with pytest.raises(ConfigError, match="missing required"):
            RunConfig.from_raw(parse_config_text("[mesh]\ngenerator = \"box\"\n"))

    @pytest.mark.parametrize("section, line", [
        ("solver", "rtol = false"),
        ("compare", 'solvers = ["tron", true]'),
        ("bc.neumann", "2 = true"),
        ("compare", 'solvers = [["tron"], ["blmvm"]]'),
    ])
    def test_non_scalar_value_names_key(self, section, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} must be")):
            RunConfig.from_raw(parse_config_text(f"{MINIMAL}\n[{section}]\n{line}\n"))

    # a quoted number used to be accepted: source = "0.5" ran as 0.5
    @pytest.mark.parametrize("section, key", sorted(
        [(s, k) for s, kinds in _SCHEMA.items() if s != "bc"
         for k, kind in kinds.items() if kind not in (STRING, STRINGS)]
        + [("bc.dirichlet", "1"), ("bc.neumann", "2")]
    ))
    @pytest.mark.parametrize("value", ["0.5", [1.0, "2"]], ids=["string", "array"])
    def test_numeric_key_rejects_a_string(self, section, key, value):
        raw = parse_config_text(MINIMAL)
        set_value(raw, section, key, value)
        kind = _SCHEMA.get(section, {}).get(key, NUMBER)  # a boundary value is a number
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} must be {kind}")):
            RunConfig.from_raw(raw)

    @pytest.mark.parametrize("section, key", sorted(
        (s, k) for s, kinds in _SCHEMA.items() for k, kind in kinds.items()
        if kind in (STRING, STRINGS)
    ))
    def test_string_key_rejects_a_number(self, section, key):
        raw = parse_config_text(MINIMAL)
        raw.setdefault(section, {})[key] = 1
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} must be a string")):
            RunConfig.from_raw(raw)

    @pytest.mark.parametrize("section, key", sorted(
        (s, k) for s, kinds in _SCHEMA.items() for k, kind in kinds.items() if kind == INTEGER
    ))
    def test_count_must_be_integer(self, section, key):
        raw = parse_config_text(MINIMAL)
        raw.setdefault(section, {})[key] = 2.5
        with pytest.raises(ConfigError, match=f"\\[{section}\\] {key} must be an integer"):
            RunConfig.from_raw(raw)
        raw[section][key] = 2
        RunConfig.from_raw(raw)

    # each array, inf or float count used to pass the schema and crash a builder
    # with a TypeError, an OverflowError or an AttributeError
    @pytest.mark.parametrize("section, key, value", [
        (section, key, value)
        for section, key, kind in SCHEMA_KEYS
        for value in [True, BAD_ARRAY[kind]] + ([math.inf, 2.5, -1] if kind == INTEGER else [])
    ])
    def test_every_key_rejects_a_value_of_another_kind(self, section, key, value):
        raw = parse_config_text(MINIMAL)
        set_value(raw, section, key, value)
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} must")):
            RunConfig.from_raw(raw)

    @pytest.mark.parametrize("marker", ["x", "1.5", ""])
    def test_boundary_marker_must_be_an_integer(self, marker):
        raw = parse_config_text(MINIMAL)
        raw["bc"]["dirichlet"][marker] = 0.0
        named = f"[bc.dirichlet] boundary marker '{marker}' is not an integer"
        with pytest.raises(ConfigError, match=re.escape(named)):
            RunConfig.from_raw(raw)

    # every edit builds, or fails with an error the command line reports with exit 1
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(edits=EDITS)
    def test_any_toml_value_builds_or_is_an_input_error(self, edits, empty_dir):
        raw = parse_config_text(MINIMAL)
        for (section, key), value in edits:
            set_value(raw, section, key, value)
        try:
            run = RunConfig.from_raw(raw)
            mesh = build_mesh(run.mesh, empty_dir)
            build_diffusivity(run.physics, mesh, empty_dir)
            build_bc(run.bc)
            build_transient_config(run)
            build_envelope(run)
        except _INPUT_ERRORS:
            pass


class TestBuilders:
    def test_box_mesh(self):
        run = RunConfig.from_raw(parse_config_text(MINIMAL))
        mesh = build_mesh(run.mesh)
        assert mesh.kind == "hex8"
        assert mesh.n_cells == 8

    def test_refine(self):
        cfg = dict(generator="box", nx=1, ny=1, nz=1, kind="tet4", refine=1)
        assert build_mesh(cfg).n_cells == 48

    def test_mesh_from_file(self, tmp_path):
        write_gmsh(generate_box(2, 2, 2, "tet4"), tmp_path / "m.msh")
        mesh = build_mesh({"generator": "file", "path": "m.msh"}, base_dir=tmp_path)
        assert mesh.n_vertices == 27

    def test_constant_diffusivity_diagonal(self):
        mesh = generate_box(1, 1, 1, "tet4")
        field = build_diffusivity({"mode": "constant", "tensor": [1.0, 2.0, 3.0]}, mesh)
        assert np.array_equal(field.tensors, np.diag([1.0, 2.0, 3.0]))

    def test_constant_diffusivity_full(self):
        mesh = generate_box(1, 1, 1, "tet4")
        entries = [2.0, 0.1, 0.0, 0.1, 1.0, 0.0, 0.0, 0.0, 0.5]
        field = build_diffusivity({"mode": "constant", "tensor": entries}, mesh)
        assert np.array_equal(field.tensors, np.array(entries).reshape(3, 3))

    def test_dispersion_constant_velocity(self):
        mesh = generate_box(1, 1, 1, "tet4")
        cfg = {
            "mode": "dispersion", "alpha_l": 1.0, "alpha_t": 0.001, "d_m": 0.0,
            "velocity": [1.0, 1.0, 1.0],
        }
        field = build_diffusivity(cfg, mesh)
        expected = dispersion_tensor([1, 1, 1], DispersionParams(1.0, 0.001, 0.0))
        assert np.allclose(field.tensors, expected)

    def test_dispersion_velocity_file(self, tmp_path):
        mesh = generate_box(1, 1, 1, "tet4")  # 6 cells
        rows = np.tile([0.0, 0.0, 2.0], (mesh.n_cells, 1))
        np.savetxt(tmp_path / "v.txt", rows)
        cfg = {
            "mode": "dispersion", "alpha_l": 0.5, "alpha_t": 0.1, "d_m": 0.0,
            "velocity_file": "v.txt",
        }
        field = build_diffusivity(cfg, mesh, base_dir=tmp_path)
        assert field.tensors.shape == (mesh.n_cells, 3, 3)
        assert np.allclose(field.tensors, np.diag([0.2, 0.2, 1.0]))

    def test_velocity_file_length_checked(self, tmp_path):
        mesh = generate_box(1, 1, 1, "tet4")
        np.savetxt(tmp_path / "v.txt", np.ones((2, 3)))
        cfg = {"mode": "dispersion", "alpha_l": 1.0, "velocity_file": "v.txt"}
        with pytest.raises(ConfigError, match="velocity file"):
            build_diffusivity(cfg, mesh, base_dir=tmp_path)

    def test_bc_tables(self):
        spec = build_bc({"dirichlet": {"1": 0.0, "2": 1.0}, "neumann": {"3": 0.5}})
        assert spec.dirichlet == {1: 0.0, 2: 1.0}
        assert spec.neumann == {3: 0.5}

    def test_bc_conflicting_marker_named(self):
        with pytest.raises(ConfigError, match="marker 2"):
            build_bc({"dirichlet": {"2": 0.0}, "neumann": {"2": 1.0}})

    def test_transient_config_defaults(self):
        run = RunConfig.from_raw(parse_config_text(MINIMAL))
        tcfg = build_transient_config(run)
        assert tcfg.steady
        assert tcfg.solver == "galerkin"
        assert tcfg.rtol == 1e-6

    def test_solver_spec_with_inner_tolerance(self):
        run = RunConfig.from_raw(parse_config_text(MINIMAL))
        tcfg = build_transient_config(run, solver_override="tron:1e-3")
        assert tcfg.solver == "tron"
        assert tcfg.inner_rtol == 1e-3

    def test_unknown_precond(self):
        run = RunConfig.from_raw(parse_config_text(MINIMAL + '\n[solver]\nprecond = "ilu9"\n'))
        with pytest.raises(ConfigError, match="unknown preconditioner 'ilu9'"):
            build_transient_config(run, "blmvm")

    def test_transient_section(self):
        text = MINIMAL + "\n[transient]\ndt = 0.2\nn_steps = 10\n"
        run = RunConfig.from_raw(parse_config_text(text))
        tcfg = build_transient_config(run)
        assert not tcfg.steady
        assert tcfg.dt == 0.2
        assert tcfg.n_steps == 10
        assert tcfg.initial_value == 1e-8

    def test_envelope(self):
        text = MINIMAL + "\n[perf]\ntpp = 9.2e9\nstreams_bw = 5.65e9\n"
        run = RunConfig.from_raw(parse_config_text(text))
        env = build_envelope(run)
        assert env.tpp == 9.2e9
        assert build_envelope(RunConfig.from_raw(parse_config_text(MINIMAL))) is None


class TestBundledConfigs:
    def test_all_bundled_configs_validate(self):
        from importlib.resources import files

        config_dir = files("nndiff") / "configs"
        names = [p.name for p in config_dir.iterdir() if p.name.endswith(".toml")]
        assert len(names) >= 6
        for name in names:
            raw = parse_config_text((config_dir / name).read_text(), name)
            run = RunConfig.from_raw(raw)
            build_bc(run.bc)
            build_transient_config(run)
            assert build_envelope(run) is not None, name
            # the benchmark's workloads match [solver] choice to a plain solver name
            assert run.solver.get("choice", TransientConfig.solver) in SOLVERS, name


REPO = Path(__file__).resolve().parents[1]
CONFIG_DIR = files("nndiff") / "configs"
# the settings build_transient_config gave when it still restated
# TransientConfig's defaults; each config below lists its differences
DEFAULT_SETTINGS = {
    "dt": None, "n_steps": 1, "c_min": 0.0, "c_max": 1.0,
    "initial_value": 1e-8, "solver": "galerkin", "rtol": 1e-6, "inner_rtol": 1e-2,
    "max_iter": None, "precond": None,
}
TRON = {"solver": "tron", "precond": "jacobi"}
COMPARE_SPECS = {
    "galerkin": {},
    "tron:1e-1": {"solver": "tron", "inner_rtol": 0.1},
    "tron:1e-2": {"solver": "tron", "inner_rtol": 0.01},
    "tron:1e-3": {"solver": "tron", "inner_rtol": 0.001},
    "blmvm": {"solver": "blmvm"},
}
EXPECTED_SETTINGS = {
    "cube_hole_blmvm.toml": {"solver": "blmvm"},
    "cube_hole_compare_n9.toml": {},
    "cube_hole_compare_n18.toml": {},
    "cube_hole_compare_n36.toml": {},
    "cube_hole_galerkin.toml": {"precond": "ilu0"},
    "cube_hole_tron.toml": TRON,
    "steady-galerkin-ilu0-n27": {"precond": "ilu0"},
    "steady-tron-n27": TRON,
    "transient-blmvm-n18": {"solver": "blmvm", "dt": 0.02, "n_steps": 20},
}


def _typed(settings: dict) -> dict:
    return {key: (value, type(value)) for key, value in settings.items()}


def _assert_settings(tcfg, changes):
    assert _typed(dataclasses.asdict(tcfg)) == _typed({**DEFAULT_SETTINGS, **changes})


class TestTransientSettings:
    """Configs build the same TransientConfig, in value and type, as before."""

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CONFIG_DIR.iterdir() if p.name.endswith(".toml"))
    )
    def test_bundled_config(self, name):
        text = (CONFIG_DIR / name).read_text()
        run = RunConfig.from_raw(parse_config_text(text, name))
        _assert_settings(build_transient_config(run), EXPECTED_SETTINGS[name])
        for spec in (run.compare or {}).get("solvers", []):
            _assert_settings(build_transient_config(run, spec), COMPARE_SPECS[spec])

    @pytest.mark.parametrize("name", sorted(n for n in EXPECTED_SETTINGS if "." not in n))
    def test_benchmark_workload_config(self, name, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO / "bench"))
        workloads = importlib.import_module("workloads")
        path = workloads.write_config(
            workloads.WORKLOADS[name], workloads.velocity_for_seed(3, 1), REPO / "src", tmp_path
        )
        run = RunConfig.from_file(path)
        _assert_settings(build_transient_config(run), EXPECTED_SETTINGS[name])
