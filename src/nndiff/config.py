"""Experiment configuration: TOML files, a schema check, and builders.

Configs are TOML, read by :mod:`tomllib`.  ``_SCHEMA`` gives every key of
every section its one kind: a string, a number, a non-negative integer, a
flat array of numbers, or a string or flat array of strings.  ``[bc.dirichlet]``
and ``[bc.neumann]`` map integer boundary markers (bare keys such as
``1 = 0.0``) to finite numbers.  Any other value, and any unknown section or
key, is a :class:`ConfigError` naming ``[section] key``, raised before anything
is built.
"""

from __future__ import annotations

import re
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from .fem import DiffusivityField, DispersionParams
from .mesh import BoundarySpec, Mesh, generate_box, generate_cube_with_hole, refine_uniform
from .mesh_io import read_gmsh
from .perf import PerfEnvelope
from .transient import SOLVERS, TransientConfig

# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def parse_config_text(text: str, path: str = "<config>") -> dict:
    """Parse TOML text into nested dicts; syntax errors name their line."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        msg = str(exc)
        # tomllib puts the position only in the message: "(at line N, column M)"
        at = re.search(r"\(at line (\d+),", msg)
        line = int(at.group(1)) if at else len(text.splitlines())
        raise ParseError(msg, path, line) from None


def load_config_file(path) -> dict:
    text = Path(path).read_text()
    return parse_config_text(text, str(path))


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

# the kinds of value a key takes, worded as the error messages and README say them
STRING, NUMBER, INTEGER = "a string", "a number", "an integer"
NUMBERS, STRINGS = "a flat array of numbers", "a string or a flat array of strings"
MARKERS = "a table of integer boundary markers to finite numbers"
_IS_KIND = {  # bool is an int subclass, but no key takes a boolean
    STRING: lambda value: isinstance(value, str),
    NUMBER: lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    INTEGER: lambda value: type(value) is int,  # float() or int() would round a count silently
    NUMBERS: lambda value: isinstance(value, list) and all(map(_IS_KIND[NUMBER], value)),
    STRINGS: lambda value: _IS_KIND[STRING](value) or (
        isinstance(value, list) and all(map(_IS_KIND[STRING], value))),
    MARKERS: lambda value: isinstance(value, dict),
}

_SCHEMA = {
    "mesh": {"generator": STRING, "n": INTEGER, "nx": INTEGER, "ny": INTEGER, "nz": INTEGER,
             "kind": STRING, "path": STRING, "refine": INTEGER},
    "physics": {"mode": STRING, "alpha_l": NUMBER, "alpha_t": NUMBER, "d_m": NUMBER,
                "velocity": NUMBERS, "velocity_file": STRING, "tensor": NUMBERS,
                "source": NUMBER},
    "bc": {"dirichlet": MARKERS, "neumann": MARKERS},
    "solver": {"choice": STRING, "rtol": NUMBER, "inner_rtol": NUMBER, "max_iter": INTEGER,
               "precond": STRING},
    "transient": {"dt": NUMBER, "n_steps": INTEGER, "initial_value": NUMBER},
    "bounds": {"c_min": NUMBER, "c_max": NUMBER},
    "perf": {"tpp": NUMBER, "streams_bw": NUMBER},
    "output": {"vtk": STRING, "report": STRING, "csv": STRING, "cadence": INTEGER},
    "compare": {"solvers": STRINGS},
}


def _check_value(section: str, key: str, value, kind: str) -> None:
    if not _IS_KIND[kind](value):
        raise ConfigError(f"[{section}] {key} must be {kind}, not {value!r}")
    if kind == INTEGER and value < 0:
        raise ConfigError(f"[{section}] {key} must not be negative, not {value}")
    if kind == MARKERS:
        for marker, number in value.items():
            try:
                int(marker)
            except ValueError:
                raise ConfigError(
                    f"[{section}.{key}] boundary marker {marker!r} is not an integer") from None
            _check_value(f"{section}.{key}", marker, number, NUMBER)
            if not np.isfinite(number):
                raise ConfigError(f"[{section}.{key}] {marker} must be finite, not {number}")


def _check_schema(raw: dict) -> None:
    for section, content in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        if not isinstance(content, dict):
            raise ConfigError(f"[{section}] must be a section, not a key")
        for key, value in content.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            _check_value(section, key, value, _SCHEMA[section][key])


@dataclass
class RunConfig:
    """Validated experiment definition."""

    mesh: dict
    physics: dict
    bc: dict
    solver: dict = field(default_factory=dict)
    transient: dict | None = None
    bounds: dict = field(default_factory=dict)
    perf: dict | None = None
    output: dict = field(default_factory=dict)
    compare: dict | None = None

    @classmethod
    def from_raw(cls, raw: dict) -> "RunConfig":
        _check_schema(raw)
        for required in ("mesh", "physics", "bc"):
            if required not in raw:
                raise ConfigError(f"missing required config section [{required}]")
        return cls(**raw)  # the schema's sections are the fields

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_raw(load_config_file(path))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_mesh(cfg: dict, base_dir: Path | None = None) -> Mesh:
    generator = cfg.get("generator", "file" if "path" in cfg else None)
    if generator is None:
        raise ConfigError("[mesh] needs a generator or a path")
    kind = cfg.get("kind", "tet4")
    if generator == "box":
        mesh = generate_box(cfg.get("nx", 1), cfg.get("ny", 1), cfg.get("nz", 1), kind)
    elif generator == "cube_with_hole":
        if "n" not in cfg:
            raise ConfigError("[mesh] cube_with_hole needs n")
        mesh = generate_cube_with_hole(cfg["n"], kind)
    elif generator == "file":
        if "path" not in cfg:
            raise ConfigError("[mesh] generator 'file' needs a path")
        path = Path(cfg["path"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        mesh = read_gmsh(path)
        # a file may mark interior faces; generated meshes are correct by construction
        mesh.validate()
    else:
        raise ConfigError(f"unknown mesh generator {generator!r}")
    for _ in range(int(cfg.get("refine", 0))):
        mesh = refine_uniform(mesh)
    return mesh


def build_diffusivity(cfg: dict, mesh: Mesh, base_dir: Path | None = None) -> DiffusivityField:
    mode = cfg.get("mode", "constant")
    if mode == "constant":
        tensor = cfg.get("tensor")
        if tensor is None:
            raise ConfigError("[physics] constant mode needs a tensor")
        t = np.asarray(tensor, dtype=np.float64)
        if t.size == 3:
            t = np.diag(t)
        elif t.size == 9:
            t = t.reshape(3, 3)
        else:
            raise ConfigError("[physics] tensor must have 3 or 9 entries")
        return DiffusivityField.constant(t)
    if mode == "dispersion":
        params = DispersionParams(
            alpha_l=float(cfg.get("alpha_l", 0.0)),
            alpha_t=float(cfg.get("alpha_t", 0.0)),
            d_m=float(cfg.get("d_m", 0.0)),
        )
        if "velocity_file" in cfg:
            path = Path(cfg["velocity_file"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            velocity = np.loadtxt(path, dtype=np.float64, ndmin=2)
            if velocity.shape != (mesh.n_cells, 3):
                raise ConfigError(
                    f"velocity file has shape {velocity.shape}, "
                    f"expected ({mesh.n_cells}, 3)"
                )
        elif "velocity" in cfg:
            velocity = np.asarray(cfg["velocity"], dtype=np.float64)
            if velocity.shape != (3,):
                raise ConfigError("[physics] velocity must have 3 components")
        else:
            raise ConfigError("[physics] dispersion mode needs velocity or velocity_file")
        return DiffusivityField.dispersion(params, velocity)
    raise ConfigError(f"unknown physics mode {mode!r}")


def build_bc(cfg: dict) -> BoundarySpec:
    """The ``[bc]`` tables, which the schema checked, keyed by integer marker."""
    return BoundarySpec(**{
        table: {int(marker): float(value) for marker, value in cfg.get(table, {}).items()}
        for table in _SCHEMA["bc"]
    })


def build_transient_config(run: RunConfig, solver_override: str | None = None,
                           rtol: float | None = None,
                           inner_rtol: float | None = None) -> TransientConfig:
    """:class:`TransientConfig` of the [solver], [transient] and [bounds] keys
    present (its field names; ``choice`` is ``solver``) and the overrides.  A
    solver spec ``name:inner_rtol`` such as ``tron:1e-3`` sets both."""
    settings = {**run.solver, **(run.transient or {}), **run.bounds}
    choice = settings.pop("choice", TransientConfig.solver)
    settings["solver"], colon, tail = (solver_override or choice).partition(":")
    if rtol is not None:
        settings["rtol"] = rtol
    if inner_rtol is not None:
        settings["inner_rtol"] = inner_rtol
    if colon:
        settings["inner_rtol"] = float(tail)
    if run.transient is None:
        settings["dt"] = None  # no [transient] section: one steady solve
    config = TransientConfig(**settings)
    if colon and not SOLVERS[config.solver].reads_inner_rtol:
        raise ConfigError(f"{config.solver} reads no inner_rtol, so ':{tail}' sets nothing")
    return config


def build_envelope(run: RunConfig) -> PerfEnvelope | None:
    if not run.perf:
        return None
    try:
        return PerfEnvelope(
            tpp=float(run.perf["tpp"]), streams_bw=float(run.perf["streams_bw"])
        )
    except KeyError as exc:
        raise ConfigError(f"[perf] missing {exc.args[0]!r}")
