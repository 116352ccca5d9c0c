"""The benchmark's three workloads and the configs generated for them.

All three solve the bundled cube-with-hole tet4 problem (hole
[4/9, 5/9]^3, alpha_L/alpha_T = 1/0.001, Dirichlet 0 outside and 1 on the
hole, bounds [0, 1], rtol = 1e-6).  Each config is generated from the
matching file in ``src/nndiff/configs`` so the program sees only an
ordinary config file.  Why each workload is in the set:

* ``steady-galerkin-ilu0-n27`` -- CG + ILU(0).  ILU(0) setup and the
  triangular solves dominate; the QP layer is unused and the free block is
  extracted once, so preconditioner work shows here and free-block work
  does not.
* ``steady-tron-n27`` -- the same mesh, trust-region Newton with Jacobi
  inner CG.  The free block is rebuilt on every outer iteration and
  truncated-CG spmv/dot dominate; ILU(0) is never built, so a
  preconditioner change must show no effect here.
* ``transient-blmvm-n18`` -- 20 backward-Euler steps with the
  quasi-Newton solver, a VTK snapshot every 5 steps and the step CSV.
  Per-step load assembly, thousands of spmv calls and VTK output all sit
  beside the solves, so a gain for the solver that costs output or
  per-step assembly shows here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nndiff.config import load_config_file

CONE_HALF_ANGLE_DEG = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str  # file name under src/nndiff/configs
    n: int
    solver: str
    transient: dict | None = None  # [transient] section, None for steady
    cadence: int = 0  # VTK snapshot cadence in steps (transient only)

    @property
    def levels(self) -> int:
        """Solved levels per run: one when steady, else the step count."""
        return self.transient["n_steps"] if self.transient else 1

    @property
    def snapshots(self) -> int:
        return self.levels // self.cadence if self.transient and self.cadence else 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("steady-galerkin-ilu0-n27", "cube_hole_galerkin.toml", 27, "galerkin"),
        Workload("steady-tron-n27", "cube_hole_tron.toml", 27, "tron"),
        Workload(
            "transient-blmvm-n18", "cube_hole_blmvm.toml", 18, "blmvm",
            transient={"dt": 0.02, "n_steps": 20}, cadence=5,
        ),
    )
}


def velocity_for_seed(seed: int, sample: int = 0) -> np.ndarray:
    """Velocity of one sample: inside a 10-degree cone around (1, 1, 1), length sqrt(3).

    Seed 0 is exactly (1, 1, 1), the paper's problem, in every sample.
    Other seeds draw one direction per sample, uniformly over the cone's
    solid angle, from a stream keyed on (seed, sample).  The direction
    changes the iteration counts by up to a fifth, so drawing afresh per
    sample lets a run's median average over directions instead of resting
    on one.
    """
    base = np.ones(3)
    if seed == 0:
        return base
    rng = np.random.default_rng([seed, sample])
    axis = base / np.linalg.norm(base)
    e1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    e2 = np.cross(axis, e1)
    cos_t = 1.0 - rng.random() * (1.0 - math.cos(math.radians(CONE_HALF_ANGLE_DEG)))
    sin_t = math.sqrt(1.0 - cos_t * cos_t)
    phi = 2.0 * math.pi * rng.random()
    direction = cos_t * axis + sin_t * (math.cos(phi) * e1 + math.sin(phi) * e2)
    return np.linalg.norm(base) * direction


def _format_value(value) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, list):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return repr(value)


def dump_config(raw: dict) -> str:
    """Serialise nested dicts in the program's config grammar."""
    lines = []

    def section(name, table):
        scalars = {k: v for k, v in table.items() if not isinstance(v, dict)}
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {_format_value(v)}" for k, v in scalars.items())
        lines.append("")
        for k, v in table.items():
            if isinstance(v, dict):
                section(f"{name}.{k}", v)

    for name, table in raw.items():
        section(name, table)
    return "\n".join(lines)


def write_config(workload: Workload, velocity, src_dir: Path, out_dir: Path) -> Path:
    """Generate the workload's config with ``velocity`` into ``out_dir``."""
    raw = load_config_file(src_dir / "nndiff" / "configs" / workload.base_config)
    raw["mesh"]["n"] = workload.n
    raw["physics"]["velocity"] = [float(v) for v in velocity]
    if raw["solver"]["choice"] != workload.solver:
        raise ValueError(f"{workload.base_config} does not configure {workload.solver}")
    output = {"report": str(out_dir / "report.json"), "vtk": str(out_dir / "out.vtk")}
    if workload.transient:
        raw["transient"] = dict(workload.transient)
        output["cadence"] = workload.cadence
        output["csv"] = str(out_dir / "steps.csv")
    raw["output"] = output
    path = out_dir / "config.toml"
    path.write_text(dump_config(raw))
    return path
