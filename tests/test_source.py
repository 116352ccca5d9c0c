"""Static checks on the package source, read with :mod:`ast`, and on the README."""

import ast
import inspect
import re
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import nndiff.transient as transient
from nndiff.config import _SCHEMA
from nndiff.sparse import KERNEL_COSTS
from nndiff.transient import SOLVERS

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "nndiff"
# bench/tracer.py rebinds qp.aypx and transient's three solve functions, so
# those modules keep importing them; SOLVERS calls the latter by name
KEPT = {("qp.py", "aypx"), ("transient.py", "cg_solve"), ("transient.py", "solve_tron"),
        ("transient.py", "solve_blmvm")}
# (file, owner, parameter) of the parameters an interface fixes but the body
# need not read: a kernel cost is fn(n, nz), a scalar field fn(points, t)
UNREAD_KEPT = {("sparse.py", "KERNEL_COSTS", "nz"), ("fem.py", "const_fn", "t")}
# the only owners that may spell a solver name as a string constant
SOLVER_TABLES = {("transient.py", "SOLVERS"), ("cli.py", "DEFAULT_COMPARE_SOLVERS")}
# (file, owner, constant) of the solver names allowed outside those tables:
# TransientConfig's default solver and compare's log of the paper's claim
# that the Galerkin solve has at least blmvm's arithmetic intensity
NAMES_KEPT = [("cli.py", "cmd_compare", "blmvm"), ("cli.py", "cmd_compare", "galerkin"),
              ("transient.py", "TransientConfig", "galerkin")]


def unused_imports(source: str) -> list:
    """Names bound by an import and never read, unless ``__all__`` exports them."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exported)


def test_finds_an_unused_import():
    source = "import os.path\nimport sys as system\nfrom x import y, z\n__all__ = ['z']\ny()\n"
    assert unused_imports(source) == ["os", "system"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    unused = [name for name in unused_imports(path.read_text()) if (path.name, name) not in KEPT]
    assert unused == []


def unread_parameters(source: str) -> list:
    """(owner, parameter) of every parameter of a function or lambda that its
    body, nested functions included, never reads, leaving out a method's
    ``self`` or ``cls``, which Python binds.  A function owns its parameters;
    a lambda's owner is the innermost enclosing function or class, or else
    the name a module-level assignment binds."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if not isinstance(node, ast.Lambda):
                owner = node.name
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found.extend((owner, p.arg) for p in params
                         if p.arg not in read and p.arg not in ("self", "cls"))
        elif isinstance(node, ast.ClassDef):
            owner = node.name
        elif owner is None and isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            owner = getattr(target, "id", None)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_finds_an_unread_parameter():
    source = ("COSTS = {'a': lambda n, nz: n}\n"
              "def f(x, _y, *args, z=1, **kw):\n    def g(w):\n        return x + z\n"
              "    return g(kw)\nclass C:\n    def m(self, v):\n        return 0\n")
    assert unread_parameters(source) == [
        ("COSTS", "nz"), ("f", "_y"), ("f", "args"), ("g", "w"), ("m", "v")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    """A parameter that nothing reads is an option that silently does nothing."""
    unread = [(owner, name) for owner, name in unread_parameters(path.read_text())
              if (path.name, owner, name) not in UNREAD_KEPT]
    assert unread == []


def solver_name_constants(source: str, names) -> list:
    """(owner, constant) of every string constant that is a solver name or a
    ``name:inner_rtol`` spec.  The owner is the innermost enclosing function or
    class, or else the name a module-level assignment binds."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        elif owner is None and isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            owner = getattr(target, "id", None)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.partition(":")[0] in names:
                found.append((owner, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_finds_a_stray_solver_name():
    source = (
        'SOLVERS = {"tron": 1}\nDEFAULT = ["tron:1e-3"]\n'
        'def f(config):\n    """Runs tron."""\n    return config.solver == "tron"\n'
    )
    assert solver_name_constants(source, {"tron"}) == [
        ("SOLVERS", "tron"), ("DEFAULT", "tron:1e-3"), ("f", "tron")]


def test_solver_names_only_in_the_tables():
    """A site that names a solver instead of reading SOLVERS can miss a setting
    that no solver reads; every such fact is stated once, in the table."""
    stray = sorted(
        (path.name, owner, value)
        for path in SRC.glob("*.py")
        for owner, value in solver_name_constants(path.read_text(), set(SOLVERS))
        if (path.name, owner) not in SOLVER_TABLES
    )
    assert stray == NAMES_KEPT


def default_cap(function, keyword: str):
    """The cap ``function`` applies when no ``keyword`` is passed, as a function of n:
    the keyword's default, or what the body assigns it under ``if keyword is None``,
    with each parameter read as an operator of n rows."""
    params = inspect.signature(function).parameters
    default = params[keyword].default
    if default is not None:
        return lambda n: default
    source = ast.parse(textwrap.dedent(inspect.getsource(function)))
    ((assign,),) = [node.body for node in ast.walk(source) if isinstance(node, ast.If)
                    and ast.unparse(node.test) == f"{keyword} is None"]
    expr = compile(ast.Expression(assign.value), "<cap>", "eval")
    return lambda n: eval(expr, {}, dict.fromkeys(params, SimpleNamespace(n=n)))


def test_readme_solver_table_mirrors_solvers():
    """The README's caps are the solver functions' own defaults, the one statement
    of each; the other columns mirror SOLVERS."""
    rows = {}
    for line in (REPO / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] in SOLVERS:
            rows[cells[0]] = cells[1:]
    expected = {}
    for name, spec in SOLVERS.items():
        keys = ["rtol", "max_iter"] + ["precond"] * (spec.precond is not None)
        keys += [f"`{name}:inner_rtol`"] * spec.reads_inner_rtol  # the solver spec's tail
        expected[name] = ["yes" if spec.bounded else "no",
                          f"`{spec.precond}`" if spec.precond else "none", ", ".join(keys)]
    caps = {name: rows[name].pop(2) for name in rows}
    assert rows == expected
    for name, spec in SOLVERS.items():
        cap = default_cap(getattr(transient, spec.function),
                          "max_outer" if spec.bounded else "maxit")
        readme = re.sub(r"(\d)\s+n\b", r"\1 * n", caps[name])
        for n in (0, 1, 99, 100, 101, 5000):
            assert eval(readme, {}, {"n": n}) == cap(n), (name, n)


def test_readme_config_table_mirrors_schema():
    rows = {}
    for line in (REPO / "README.md").read_text().splitlines():
        if not line.startswith("| `["):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        table = rows.setdefault(cells[0].strip("`[]"), {})
        table.update({key.strip("`"): cells[2] for key in cells[1].split(", ")})
    assert rows == _SCHEMA


def readme_formula(text: str):
    """A README cost formula such as ``4(N + nz) + 8(2N + nz)`` as a function of (n, nz)."""
    expr = re.sub(r"(\d)\s*(?=[A-Za-z(])", r"\1*", text)
    return lambda n, nz: eval(expr, {}, {"N": n, "nz": nz})


def test_readme_kernel_table_mirrors_kernel_costs():
    """Each formula of the "Performance model" table, evaluated at enough
    (N, nz) points to fix a linear form, is the one KERNEL_COSTS charges."""
    rows = {}
    for line in (REPO / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        for name in cells[0].split(" / "):
            if name in KERNEL_COSTS:
                rows[name] = [readme_formula(cell) for cell in cells[1:3]]
    assert rows.keys() == KERNEL_COSTS.keys()
    for name, (flops, nbytes) in rows.items():
        for n, nz in [(0, 0), (1, 0), (0, 1), (17, 45)]:
            assert (flops(n, nz), nbytes(n, nz)) == KERNEL_COSTS[name](n, nz), name
