"""Module-boundary rules of the package, checked on its source.

No module imports a ``_``-prefixed name from another module: what one
module uses of another is that module's public surface.  (Importing a
public name under a private alias, ``slack as _slack``, is allowed.)  And
no function imports :mod:`repro.core.engine` to dodge an import cycle —
except the process pool's worker bootstrap, which must build a
``DITAEngine.from_store`` from inside :mod:`repro.cluster`, a layer the
engine itself imports.  And every ``DITAConfig`` field has a heading in
``docs/TUNING.md`` that says who sets it.

Every name a package exports has a caller outside its own module and
tests, and every ``repro`` name the benchmarks and examples import exists:
the benchmarks are not collected with the tests, so a deleted name they
use would otherwise fail only a benchmark run.
"""

import ast
import dataclasses
import importlib
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


REPO = Path(__file__).resolve().parents[1]

#: where an exported name's callers may live: the package (its CLI
#: included), the benchmarks and the examples -- never ``tests/``
CALLER_ROOTS = ("src", "benchmarks", "examples")

#: exported names nothing outside their own module calls, by the reason
#: each stays exported
EXPORT_ALLOWED = {
    name: reason
    for reason, names in {
        "reached by name through get_distance / get_adapter, not imported": (
            "repro.core.ERPAdapter", "repro.core.FrechetAdapter",
            "repro.distances.DTWDistance", "repro.distances.EDRDistance",
            "repro.distances.ERPDistance", "repro.distances.FrechetDistance",
            "repro.distances.HausdorffDistance", "repro.distances.LCSSDistance",
        ),
        "lists the distance registry's names": (
            "repro.available_distances", "repro.distances.available_distances",
        ),
        "the plain-function form of a distance its class wraps": (
            "repro.distances.dtw_threshold", "repro.distances.edr", "repro.distances.edr_threshold",
            "repro.distances.erp", "repro.distances.erp_threshold", "repro.distances.hausdorff",
            "repro.distances.hausdorff_threshold", "repro.distances.lcss",
            "repro.distances.lcss_dissimilarity", "repro.distances.lcss_threshold",
        ),
        "a typed error callers catch": (
            "repro.serving.QueueFullError", "repro.serving.RateLimitedError",
            "repro.storage.ChecksumError", "repro.storage.CorruptBlockError",
            "repro.storage.SchemaVersionError",
        ),
        "a record, label or constant a public call returns or takes": (
            "repro.analytics.ClusteringResult", "repro.analytics.FrequentRoute",
            "repro.analytics.NOISE", "repro.analytics.OutlierReport", "repro.cluster.Worker",
            "repro.core.FilterState", "repro.obs.LatencyHistogram", "repro.serving.Outcome",
            "repro.sql.ExplainAnalyzeResult", "repro.storage.CURRENT_NAME",
            "repro.storage.STORAGE_FORMAT_VERSION",
        ),
        "a step its module composes, tested on its own": (
            "repro.baselines.segment_trajectory", "repro.cluster.make_fixed_cost_measure",
            "repro.core.available_strategies", "repro.core.divide_partitions",
            "repro.core.orient_edges", "repro.obs.accounted_spans", "repro.obs.stage_rows",
            "repro.obs.worker_span_seconds", "repro.serving.TokenBucket",
            "repro.serving.canonical_result",
        ),
        # each removal retires its module's tests: ROADMAP item 9 deletes
        # them a module at a time
        "only its own tests call it: to delete": (
            "repro.analytics.KNNTrajectoryClassifier", "repro.analytics.knn_outlier_scores",
            "repro.distances.dtw_window", "repro.distances.keogh_envelope",
            "repro.distances.lb_keogh", "repro.geometry.as_point", "repro.geometry.centroid",
            "repro.geometry.point_to_points_min", "repro.geometry.squared_euclidean",
            "repro.trajectory.attach_time", "repro.trajectory.attach_uniform_time",
            "repro.trajectory.dataset_bounds", "repro.trajectory.douglas_peucker",
            "repro.trajectory.load_plt", "repro.trajectory.load_plt_directory",
            "repro.trajectory.normalize_unit_box", "repro.trajectory.resample",
            "repro.trajectory.simplify", "repro.trajectory.strip_time",
            "repro.trajectory.temporal_dataset", "repro.trajectory.translate",
        ),
    }.items()
    for name in names
}


def _exports():
    """``(dotted name, defining file)`` for each name in a ``repro``
    package's ``__all__``; the file is None for a name the ``__init__``
    defines itself."""
    for init in sorted(SRC.rglob("__init__.py")):
        tree = ast.parse(init.read_text())
        package = ".".join(["repro", *init.parent.relative_to(SRC).parts])
        origin = {}
        exported = []
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    origin[alias.asname or alias.name] = init.parent.joinpath(*node.module.split(".")).with_suffix(".py")
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = [e.value for e in node.value.elts]
        for name in exported:
            yield f"{package}.{name}", origin.get(name)


def _referenced_names(paths):
    """Every identifier the files use: names, attributes and imported names."""
    used = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.setdefault(node.id, set()).add(path)
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, set()).add(path)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    used.setdefault(alias.name, set()).add(path)
    return used


def _uncalled_exports(exports, used):
    for dotted, definer in exports:
        callers = used.get(dotted.rsplit(".", 1)[1], set()) - {definer}
        if not any(p.name != "__init__.py" for p in callers):
            yield dotted


def _caller_files():
    return [p for root in CALLER_ROOTS for p in sorted((REPO / root).rglob("*.py"))]


def test_every_exported_name_has_a_caller():
    uncalled = set(_uncalled_exports(list(_exports()), _referenced_names(_caller_files())))
    assert sorted(uncalled - set(EXPORT_ALLOWED)) == []
    # an allowance outlives neither its name nor the name's lack of callers
    assert sorted(set(EXPORT_ALLOWED) - uncalled) == []


def _harness_imports():
    """``(file:line, module, name)`` for each ``from repro... import name``
    in the benchmarks and examples."""
    paths = sorted((REPO / "benchmarks").rglob("*.py")) + sorted((REPO / "examples").glob("*.py"))
    for path in paths:
        rel = path.relative_to(REPO).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield f"{rel}:{node.lineno}", node.module, alias.name


def _unresolved(imports):
    for where, module, name in imports:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            yield f"{where}: no module {module}"
            continue
        if not hasattr(mod, name):
            yield f"{where}: {module} has no {name}"


def test_harness_imports_resolve():
    imports = list(_harness_imports())
    assert any(where.startswith("benchmarks/e2e/") for where, _, _ in imports)
    assert list(_unresolved(imports)) == []


def test_the_surface_checks_see_a_violation(tmp_path):
    """An export nobody calls and an import of a missing name are flagged."""
    pkg = tmp_path / "probe"
    pkg.mkdir()
    init = pkg / "__init__.py"
    init.write_text("from .mod import used, unused\n__all__ = ['used', 'unused']\n")
    mod = pkg / "mod.py"
    mod.write_text("def used():\n    pass\ndef unused():\n    return used()\n")
    caller = tmp_path / "caller.py"
    caller.write_text("from probe import used\nused()\n")
    exports = [("probe.used", mod), ("probe.unused", mod)]
    assert list(_uncalled_exports(exports, _referenced_names([init, mod, caller]))) == ["probe.unused"]
    imports = [("x.py:1", "repro.core", "TrieIndex"), ("x.py:2", "repro.core", "NoSuchName"),
               ("x.py:3", "repro.no_such_module", "f")]
    assert list(_unresolved(imports)) == [
        "x.py:2: repro.core has no NoSuchName",
        "x.py:3: no module repro.no_such_module",
    ]
