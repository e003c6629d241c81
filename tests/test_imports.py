"""Every imported name is used, every public name of the package is read, the
two solver backends do not import each other, and only the functions where a
sweep starts take the Hamiltonian constants as one ``PhysicalParams``.

No linter ships with the test dependencies, so this walks the syntax tree of
each module: a name bound by an import must be read somewhere in the same
file.  The package ``__init__.py`` only re-exports and is left out.  A public
function, class or method of the package must be read by the package itself
or by the benchmark (``perfbench/*.py``); the tests do not count, so no public
API exists only for them.  A method counts as read when any attribute of
that name is read, since the syntax tree carries no types.  ``gravjcm.ode``
(the production Magnus backend, whose ``_integrate`` is the DOP853 oracle)
and ``gravjcm.analytic`` share only ``gravjcm.core``.

A run imports only what it runs.  A run, an ode sweep or snapshot or the
closed form at qg > 0, leaves a fresh interpreter's ``sys.modules`` without
any scipy module: the DOP853 oracle's ``scipy.integrate`` is imported on its
first call, no observable uses scipy, and the closed form's Faddeeva function
is numpy arithmetic.  The oracle still calls ``gravjcm.ode.solve_ivp``, the
name the benchmark's tracer wraps.  Importing ``gravjcm.cli`` loads neither
``fractions`` nor ``decimal``: the array formatter builds its power-of-ten
table from Python ints.  Neither the import nor a run loads
``importlib.metadata``: a run records ``gravjcm.__version__``, which
``pyproject.toml`` reads as its version.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gravjcm import ode

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "gravjcm").glob("*.py") if p.name != "__init__.py")
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nfrom a import b, c\nc()\n") == [
        (1, "os"), (2, "system"), (3, "b")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_public_names(modules: dict, readers: list) -> list:
    """(module, line, name) of each public definition in modules no reader reads.

    ``modules`` maps a label to its source; ``readers`` holds sources.  Public
    means top-level functions and classes, and the methods of those classes,
    whose names do not start with an underscore.
    """
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for label, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.lineno, node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                members += [(m.lineno, m.name, f"{node.name}.{m.name}") for m in node.body
                            if isinstance(m, ast.FunctionDef)]
            unread += [(label, line, full) for line, name, full in members
                       if not name.startswith("_") and name not in read]
    return unread


def test_checker_flags_an_unread_public_name():
    lib = ("def used():\n    pass\ndef unused():\n    pass\ndef _private():\n    pass\n"
           "class K:\n    def read(self):\n        pass\n    def unread(self):\n        pass\n")
    assert unread_public_names({"lib": lib}, ["used()\nK().read()\n"]) == [
        ("lib", 3, "unused"), ("lib", 10, "K.unread")]


def test_every_public_name_is_read_outside_the_tests():
    modules = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_public_names(modules, readers) == []


def package_imports(source: str) -> set:
    """Short names of the gravjcm modules a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("gravjcm."))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module and node.module.split(".")[0] == "gravjcm":
                module = node.module.partition(".")[2]
            else:
                continue
            found.update([module.split(".")[0]] if module else [a.name for a in node.names])
    return found


def test_checker_finds_package_imports():
    source = ("import os\nimport gravjcm.ode\nfrom .core import x\nfrom . import analytic\n"
              "from gravjcm import cli\nfrom gravjcm.scenario import y\nfrom numpy import z\n")
    assert package_imports(source) == {"ode", "core", "analytic", "cli", "scenario"}


def test_backends_do_not_import_each_other():
    for module, other in (("ode", "analytic"), ("analytic", "ode")):
        source = (ROOT / "src" / "gravjcm" / f"{module}.py").read_text(encoding="utf-8")
        assert other not in package_imports(source), module


# The Hamiltonian constants are read only where a sweep starts: the two backend
# entry points and the detuning they share.  The scenario's params_for and
# paper_defaults build them.  Every kernel below takes the plain numbers it reads.
PHYSICAL_PARAMS_SIGNATURES = {"detuning0_of_p", "branch_states_ode_sweep",
                              "branch_states_analytic", "Scenario.params_for", "paper_defaults"}


def functions_naming(source: str, type_name: str) -> set:
    """Qualified names of the functions whose parameter or return annotations name type_name."""
    found = set()

    def names(annotation) -> bool:
        return any(isinstance(n, ast.Name) and n.id == type_name
                   or isinstance(n, ast.Constant) and n.value == type_name
                   for n in ast.walk(annotation))

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                visit(node.body, f"{prefix}{node.name}.")
            if isinstance(node, ast.FunctionDef):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                annotations = [p.annotation for p in params if p] + [node.returns]
                if any(names(ann) for ann in annotations if ann is not None):
                    found.add(prefix + node.name)

    visit(ast.parse(source).body, "")
    return found


def test_checker_finds_signatures_naming_a_type():
    source = ("def f(x: P): pass\ndef g(x) -> P: pass\ndef h(x: float): pass\n"
              "class K:\n    def m(self, *, p: 'P'): pass\n    def n(self, p: list[P]): pass\n")
    assert functions_naming(source, "P") == {"f", "g", "K.m", "K.n"}


def test_physical_params_only_where_a_sweep_starts():
    found = set()
    for path in PACKAGE:
        found |= functions_naming(path.read_text(encoding="utf-8"), "PhysicalParams")
    assert found == PHYSICAL_PARAMS_SIGNATURES


# an ode sweep, an ode snapshot, whose Q grid reduces the field state to its
# significant modes, and the closed form at qg > 0 load no scipy module
RUN_OUTPUTS = {"sweep": "qg = 0\noutputs = inversion, entropy\nn_samples = 5\n",
               "snapshot": "qg = 0\noutputs = qgrid, cat_report\nn_samples = 1\nt_start = 1\n",
               "closed_form": "qg = 0, 1.5e7\nbackend = analytic\noutputs = inversion\n"
                              "n_samples = 5\n"}


@pytest.mark.parametrize("kind", RUN_OUTPUTS)
def test_run_does_not_import_the_oracle(tmp_path, kind):
    scn = tmp_path / "scn.txt"
    scn.write_text("alpha = 2\nt_end = 1\nn_nodes = 2\n" + RUN_OUTPUTS[kind], encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    code = ("import sys\nfrom pathlib import Path\nfrom gravjcm import cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "print('imported:', *scipy_modules())\n"
            f"cli.parse_scenario(Path({str(scn)!r}).read_text(encoding='utf-8'))\n"
            "print('built:', *scipy_modules())\n"
            f"assert cli.main(['run', {str(scn)!r}, '--out', {str(out)!r}]) == 0\n"
            "print('run:', *scipy_modules())\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = {line.split(":")[0]: line.split()[1:] for line in result.stdout.splitlines()}
    imported, built, run = lines["imported"], lines["built"], lines["run"]
    assert imported == built == run == []


def test_cli_import_loads_neither_fractions_nor_decimal():
    # the array formatter builds its power-of-ten table from Python ints
    code = ("import sys\nimport gravjcm.cli\n"
            "print(*sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_cli_import_and_run_load_no_importlib_metadata(tmp_path):
    # the version a run records is gravjcm.__version__, not the installed metadata
    code = ("import sys\nimport gravjcm.cli\n"
            "print('imported:', 'importlib.metadata' in sys.modules)\n"
            f"argv = ['run', '--builtin', 'fig1', '--out', {str(tmp_path)!r}]\n"
            "assert gravjcm.cli.main(argv) == 0\n"
            "print('run:', 'importlib.metadata' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = [ln for ln in result.stdout.splitlines() if ln.startswith(("imported:", "run:"))]
    assert lines == ["imported: False", "run: False"]


def test_pyproject_reads_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "gravjcm.__version__"}


def test_oracle_calls_the_module_solve_ivp(monkeypatch):
    # the benchmark's ode.solve_ivp span wraps this module attribute, and counts
    # the right-hand side evaluations from the result's nfev
    nfev = []
    scipy_backed = ode.solve_ivp

    def counting(*args, **kwargs):
        result = scipy_backed(*args, **kwargs)
        nfev.append(result.nfev)
        return result

    monkeypatch.setattr(ode, "solve_ivp", counting)
    y = ode._integrate(np.array([0.0, 2e5]), np.array([1e6]), 1.5e7, np.array([0.0, 1e-6, 2e-6]))
    assert y.shape == (3, 2, 2, 1)
    assert len(nfev) == 1 and nfev[0] > 0
