"""Module-boundary rules of the package, checked on its source.

No module imports a ``_``-prefixed name from another module: what one
module uses of another is that module's public surface.  (Importing a
public name under a private alias, ``slack as _slack``, is allowed.)  And
no function imports :mod:`repro.core.engine` to dodge an import cycle —
except the process pool's worker bootstrap, which must build a
``DITAEngine.from_store`` from inside :mod:`repro.cluster`, a layer the
engine itself imports.  And every ``DITAConfig`` field has a heading in
``docs/TUNING.md`` that says who sets it.
"""

import ast
import dataclasses
import re
from pathlib import Path

import repro
from repro import DITAConfig

SRC = Path(repro.__file__).parent

#: the one function allowed to import the engine module at call time
ENGINE_IMPORT_ALLOWED = {("cluster/parallel.py", "open_sides")}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), str(path))


def _absolute(rel: str, node: ast.ImportFrom) -> str:
    """The dotted module an ``ImportFrom`` in package file ``rel`` names."""
    if node.level == 0:
        return node.module or ""
    package = ["repro", *rel.split("/")[:-1]]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _private_imports(modules):
    for rel, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.startswith("__"):
                        yield f"{rel}:{node.lineno} imports {alias.name} from {_absolute(rel, node)}"


def _function_engine_imports(modules):
    for rel, tree in modules:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = [_absolute(rel, node)]
                    names += [f"{names[0]}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if "repro.core.engine" in names and (rel, fn.name) not in ENGINE_IMPORT_ALLOWED:
                    yield f"{rel}:{node.lineno} ({fn.name}) imports repro.core.engine"


def test_no_module_imports_another_modules_private_name():
    assert list(_private_imports(_modules())) == []


def test_no_function_level_engine_import_outside_the_worker_bootstrap():
    assert list(_function_engine_imports(_modules())) == []


def test_the_worker_bootstrap_builds_a_store_backed_engine():
    """The allowed exception is what it claims to be."""
    tree = dict(_modules())["cluster/parallel.py"]
    (fn,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "open_sides"]
    calls = [
        n.func for n in ast.walk(fn)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    ]
    assert any(
        f.attr == "from_store" and isinstance(f.value, ast.Name) and f.value.id == "DITAEngine"
        for f in calls
    )


def test_the_checks_see_a_violation():
    """The walkers flag what they are meant to flag, on a synthetic
    module placed in the package."""
    tree = ast.parse(
        "from .faults import _mix\n"
        "from .numerics import slack as _slack\n"
        "def f():\n"
        "    from ..core.engine import DITAEngine\n"
        "def g():\n"
        "    import repro.core.engine\n"
    )
    modules = [("sql/probe.py", tree)]
    assert list(_private_imports(modules)) == ["sql/probe.py:1 imports _mix from repro.sql.faults"]
    assert list(_function_engine_imports(modules)) == [
        "sql/probe.py:4 (f) imports repro.core.engine",
        "sql/probe.py:6 (g) imports repro.core.engine",
    ]


def _tuning_heading_knobs():
    """The knobs ``docs/TUNING.md`` documents: each backticked plain name
    in a ``##`` heading (dotted ``RecoveryPolicy`` attributes are not
    config fields)."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "TUNING.md").read_text()
    return {
        name
        for line in text.splitlines() if line.startswith("## ")
        for name in re.findall(r"`([^`]+)`", line) if name.isidentifier()
    }


def test_every_config_field_has_a_tuning_heading():
    assert _tuning_heading_knobs() == {f.name for f in dataclasses.fields(DITAConfig)}
