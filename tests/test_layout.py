"""Layout of the package: what `src/gpk` holds and what it imports.

Every top-level function and class of gpk, and every method, must be reached
from one of three roots: `cli.main`, the code that runs when a module is
imported (the stage table `bench.STAGES` among it), and the names used in
`tests/test_acceptance.py`.  Reach is followed by name through the syntax
trees: a function or class is reached where its name is used, a method where
its name is used as an attribute, and the dunder methods of a reached class
are reached with it.  Matching by name over-approximates what is reached, so
live code is never reported as dead.  There are no exceptions.

Every dataclass field of gpk must be read, matched by name as an attribute,
in `src/`, `tests/test_acceptance.py` or `perfbench/`; a call `x.name()`
reads no field where a gpk class has a method `name`.  No comparison in
`bench`, `dynamics`, `fock` or `scattering` may write the value of a
`gpk.budgets` budget as a literal.  numpy's cos and sin appear nowhere in
gpk: every phase e^{i angle}, and every sine and cosine, goes through
`radial._unit_phase`.  Every name of gpk that `perfbench/` reads must
exist: each of its workloads is built at toy size.

Imports are per use: no module imports scipy when it is itself imported,
`bench` imports `fock` only in the stage that runs it and `cli` imports the
layers per subcommand, so each process loads the scipy modules of the work
it does, and a 1D reference run none.  The import checks run each entry
point in a fresh interpreter and read its `sys.modules`.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gpk"
REFERENCE = str(ROOT / "configs" / "reference.ini")

# key: module.name or module.Class.method; owner: the class key of a method
Definition = namedtuple("Definition", "key owner node")


def _uses(nodes):
    """(bare names, attribute names) used in the trees `nodes`; import
    statements use nothing."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
    return names, attrs


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def _import_time_code(stmt):
    """The parts of a top-level statement that run at import: the whole
    statement, or for a definition its decorators, defaults and bases, and
    for a class the statements of its body that are not methods."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [*stmt.decorator_list, *stmt.args.defaults,
                *(d for d in stmt.args.kw_defaults if d is not None)]
    if isinstance(stmt, ast.ClassDef):
        parts = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
        for item in stmt.body:
            parts += [item] if not _is_def(item) else _import_time_code(item)
        return parts
    return [stmt]


def _package():
    """(definitions, import-time code) of every module of gpk."""
    definitions, import_time = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            import_time += _import_time_code(stmt)
            if not _is_def(stmt):
                continue
            key = f"{module}.{stmt.name}"
            definitions.append(Definition(key, None, stmt))
            if isinstance(stmt, ast.ClassDef):
                definitions += [Definition(f"{key}.{item.name}", key, item)
                                for item in stmt.body if _is_def(item)]
    return definitions, import_time


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreached_definitions():
    """Keys of the definitions of gpk that no root reaches."""
    definitions, import_time = _package()
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    main = next(d for d in definitions if d.key == "cli.main")
    names, attrs = _uses(import_time + [acceptance, main.node])
    reached = {main.key}
    grew = True
    while grew:
        grew = False
        for d in definitions:
            if d.key in reached:
                continue
            name = d.node.name
            if d.owner:
                hit = name in attrs or (_is_dunder(name) and d.owner in reached)
            else:
                hit = name in names or name in attrs
            if hit:
                reached.add(d.key)
                more_names, more_attrs = _uses([d.node])
                names |= more_names
                attrs |= more_attrs
                grew = True
    return sorted(d.key for d in definitions if d.key not in reached)


def test_every_definition_is_reached_from_the_cli_the_stages_or_acceptance():
    assert unreached_definitions() == []


def _classes():
    """(module name, class node) of every top-level class of gpk."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, ast.ClassDef):
                yield path.stem, stmt


def _dataclass_fields():
    """(module.Class, field) of every dataclass field of gpk."""
    for module, cls in _classes():
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            yield from ((f"{module}.{cls.name}", item.target.id)
                        for item in cls.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name))


def test_every_dataclass_field_is_read():
    # a field is read where its name is loaded as an attribute in src/, in
    # tests/test_acceptance.py or in perfbench/; unit tests do not count, and
    # nor does a call x.name() where a gpk class has a method `name`
    methods = {item.name for _, cls in _classes() for item in cls.body
               if isinstance(item, ast.FunctionDef)}
    sources = [*sorted((ROOT / "src").rglob("*.py")),
               ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "perfbench").glob("*.py"))]
    read = set()
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        method_calls = {id(node.func) for node in ast.walk(tree)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in methods}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)
                 and id(node) not in method_calls}
    assert [f"{owner}.{name}" for owner, name in _dataclass_fields()
            if name not in read] == []



def test_the_gpk_names_perfbench_reads_exist(tmp_path, monkeypatch):
    # perfbench/ changes only with the benchmark, so a name of gpk that it
    # reads (GridSpec.fft_workers, ExperimentConfig.get_ints, ...) must
    # stay; each workload builds at toy size and reports its parameters
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for @dataclass
    spec.loader.exec_module(workloads)
    for cls in (workloads.GP3D, workloads.Kernels3D, workloads.Pipeline):
        params = cls(seed=7, workdir=tmp_path / cls.name, toy=True).params()
        assert params["fft_workers"] == 1, cls.name


def _trig_uses():
    """(module.top-level definition, name) of each use of numpy's cos or
    sin in gpk."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            where = f"{path.stem}.{stmt.name}" if _is_def(stmt) else path.stem
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and node.attr in ("cos", "sin")
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ("np", "numpy")):
                    yield where, node.attr


def test_every_phase_goes_through_unit_phase():
    # e^{i angle} is formed in one place, `radial._unit_phase`, from one
    # tangent an angle; the j1 kernel takes its sin and cos from there too
    assert list(_trig_uses()) == []


def _written_numbers(node):
    """The numbers written in an operand: a constant, signed or inside
    + - * /; not the arguments of a call the operand makes."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        yield node.value
    elif isinstance(node, ast.UnaryOp):
        yield from _written_numbers(node.operand)
    elif isinstance(node, ast.BinOp):
        yield from _written_numbers(node.left)
        yield from _written_numbers(node.right)


def test_no_check_compares_with_a_budget_literal():
    # every check reads its budget from gpk.budgets by name; a cutoff sizes
    # a basis and is compared with nothing, so its value may recur
    from gpk import budgets

    values = {value: name for name, value in vars(budgets).items()
              if name.isupper() and not name.endswith("_CUTOFF")}
    assert {"NORM_TOL", "W_BOUND_SLACK", "ROUNDOFF_SLACK", "RATIO_SLACK",
            "ODE_DEFECT_BUDGET", "STABILITY_BUDGET", "TAIL_WARN",
            "DEGENERATE_FLOOR", "TRANSFORM_TOL", "KERNEL_HS_BUDGET",
            "POISSON_SHARE", "LEAKAGE_TOL", "DIM_BUDGET", "DENSE_EXPM_CAP",
            "VACUUM_FLOOR"} <= set(vars(budgets))
    offenders = []
    for module in ("bench", "dynamics", "fock", "scattering"):
        path = PACKAGE / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare):  # and the tolerances of a call
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.Call):
                operands = [kw.value for kw in node.keywords
                            if kw.arg in ("atol", "rtol")]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} writes {number!r} "
                          f"for {values[abs(number)]}"
                          for operand in operands
                          for number in _written_numbers(operand)
                          if abs(number) in values]
    assert not offenders, "\n".join(offenders)


def test_readme_config_table_lists_the_schema_keys_and_defaults():
    from gpk.bench import REQUIRED, SCHEMA
    from gpk.scattering import _FAMILIES

    rows = dict(re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$",
                           (ROOT / "README.md").read_text(), re.MULTILINE))
    assert list(rows) == list(SCHEMA)
    for section, keys in SCHEMA.items():
        defaults = {name: key.default for name, key in keys.items()}
        if section == "potential":  # and the parameters of each family
            for family, (_, params) in _FAMILIES.items():
                if family != "table":
                    defaults.update(params)
        assert set(re.findall(r"`(\w+)`", rows[section])) == set(defaults), \
            section
        for name, default in defaults.items():
            if default is not None and default is not REQUIRED:
                if isinstance(default, bool):
                    default = "yes" if default else "no"
                assert f"`{name}` = {default}" in rows[section], (section, name)


def test_gpk_does_not_import_scipy_integrate():
    # Simpson sums go through the one set of weights in gpk.scattering
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, gpk.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def _module_level_imports(tree):
    """(line, module) of each import that runs when the module is imported,
    that is, outside every function body; `from . import x` gives `.x`."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, "." * node.level + node.module
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, "." * node.level + alias.name
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_module_level():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, module in sorted(_module_level_imports(tree)):
            scipy = module == "scipy" or module.startswith("scipy.")
            fock = module in (".fock", "gpk.fock")
            if scipy or (fock and path.stem in ("bench", "cli")):
                offenders.append(f"{path.name}:{line} imports {module}")
    assert not offenders, "\n".join(offenders)


def _scipy_modules(code, cwd=None):
    """The scipy modules in sys.modules after `code` runs in a fresh
    interpreter with gpk on its path."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code += ("\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         check=True, capture_output=True, text=True)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def _cli(*argv):
    return f"from gpk.cli import main\nassert main({list(argv)!r}) == 0"


def test_importing_gpk_loads_no_scipy():
    assert _scipy_modules(
        "import gpk.cli, gpk.bench, gpk.dynamics, gpk.kernels") == set()


def test_importing_fock_loads_no_scipy():
    # the Fock operators and both exponentials are numpy
    assert _scipy_modules("import gpk.fock") == set()


def test_report_and_scattering_subcommands_load_no_scipy(tmp_path):
    (tmp_path / "report.json").write_text('{"stages": []}')
    assert _scipy_modules(_cli("report", str(tmp_path))) == set()
    assert _scipy_modules(_cli(
        "scattering", "--potential", "square-well:height=8,radius=1",
        "--points", "1000", "--out", str(tmp_path / "s.csv"))) == set()


def test_load_config_loads_no_scipy_fock_or_difflib():
    # the Fock basis checks read gpk.budgets; difflib is for error messages
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = (f"import sys, gpk.bench\ngpk.bench.load_config({REFERENCE!r})\n"
            "print([m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'difflib') or m == 'gpk.fock'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """(working directory, scipy modules loaded) of a fresh
    `gpk run configs/reference.ini` in a new interpreter."""
    cwd = tmp_path_factory.mktemp("run")
    return cwd, _scipy_modules(_cli("run", REFERENCE), cwd=cwd)


def test_fresh_run_loads_no_scipy(fresh_run):
    # every grid of the reference config is 1D, so its FFTs are numpy's,
    # and the fock stage is numpy alone
    _, loaded = fresh_run
    assert loaded == set()


def test_warm_run_loads_no_scipy(fresh_run):
    cwd, _ = fresh_run
    assert _scipy_modules(_cli("run", REFERENCE), cwd=cwd) == set()


def _evolve_1d(nonlinearity):
    """Code that evolves a 1D Gaussian under `nonlinearity`, an expression
    in `sol` (a solved square well) and `grid`."""
    return ("from gpk.dynamics import GridSpec, NonlinearitySpec, evolve, "
            "gaussian_datum\n"
            "from gpk.scattering import RadialPotential, solve_zero_energy\n"
            "grid = GridSpec(dim=1, box_length=16.0, points_per_axis=64, "
            "dt=1e-3, t_final=1e-2)\n"
            "sol = solve_zero_energy(RadialPotential.square_well(8.0, 1.0), "
            "5.0, 1000)\n"
            f"evolve(gaussian_datum(grid), {nonlinearity}, grid)")


def test_1d_gp_evolve_loads_no_scipy():
    # a 1D grid transforms with numpy.fft
    assert _scipy_modules(_evolve_1d("NonlinearitySpec.gp(a0=0.1)")) == set()


def test_1d_modified_evolve_loads_no_scipy():
    # the interaction table's spline is numpy: no scipy.interpolate and
    # none of what it pulls in
    assert _scipy_modules(_evolve_1d(
        "NonlinearitySpec.modified(sol, N=8, grid=grid)")) == set()


# methods that change a list, dict or set in place
_MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem",
             "clear", "update", "setdefault", "add", "discard", "sort",
             "reverse"}


def _module_state_writes(tree):
    """(line, name) of each write into the object of a module-level name:
    a subscript assignment, a `del`, or a call of a mutating method; and of
    each `global` statement, which rebinds one."""
    names = {t.id for stmt in tree.body if isinstance(stmt, ast.Assign)
             for t in stmt.targets if isinstance(t, ast.Name)}
    names |= {stmt.target.id for stmt in tree.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)}
    for node in ast.walk(tree):
        held = []
        if isinstance(node, ast.Global):
            yield from ((node.lineno, name) for name in node.names)
        elif isinstance(node, ast.Delete):
            held = [t.value if isinstance(t, ast.Subscript) else t
                    for t in node.targets]
        elif isinstance(node, ast.Assign):
            held = [t.value for t in node.targets
                    if isinstance(t, ast.Subscript)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Subscript):
                held = [node.target.value]
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATORS:
            held = [node.func.value]
        for target in held:
            if isinstance(target, ast.Name) and target.id in names:
                yield node.lineno, target.id


def test_no_module_state_is_written():
    # an artifact must not depend on what earlier calls left in the process
    offenders = [f"{path.name}:{line} writes {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, name in sorted(_module_state_writes(
                     ast.parse(path.read_text(), filename=str(path))))]
    assert not offenders, "\n".join(offenders)


def test_readme_lists_the_arrays_of_scattering_npz(tmp_path):
    import numpy as np

    from gpk.bench import dump_solution_json
    from gpk.scattering import RadialPotential, solve_zero_energy

    listed = re.search(r"`scattering\.npz`, which holds\s+the arrays\s+(.*?);",
                       (ROOT / "README.md").read_text(), re.DOTALL)
    assert listed, "README.md does not list the arrays of scattering.npz"
    sol = solve_zero_energy(RadialPotential.square_well(8.0, 1.0), 5.0, 1000)
    dump_solution_json(sol, tmp_path / "scattering.json")
    with np.load(tmp_path / "scattering.npz") as data:
        written = data.files
    assert re.findall(r"`(\w+)`", listed.group(1)) == written
