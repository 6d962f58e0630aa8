"""``src/`` holds one implementation of each thing; the per-pair and
per-cell twins the differential suites compare it against live under
``tests/oracles`` and nothing in ``src/`` may lean on them."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_defines_no_reference_twin_and_imports_no_oracle():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.endswith("_reference"):
                    offenders.append(f"{path}:{node.lineno}: def {node.name}")
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders.extend(
                f"{path}:{node.lineno}: imports {m}" for m in modules if "oracles" in m.split(".")
            )
    assert not offenders, "\n".join(offenders)


def test_src_has_one_dataset_container_and_one_loader_per_format():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "TrajectoryDataset":
                offenders.append(f"{path}:{node.lineno}: class {node.name}")
            elif isinstance(node, ast.FunctionDef) and (
                node.name.startswith("load_") and node.name.endswith("_columnar")
            ):
                offenders.append(f"{path}:{node.lineno}: def {node.name}")
    assert not offenders, "\n".join(offenders)


def test_src_declares_a_similarity_function_once():
    """The adapter's traits are the only place ``src/`` learns what a
    distance admits: no name list, no second registry, no ``subtracts`` /
    ``accumulates`` flag, and ``exact`` / ``exact_batch`` / ``distance``
    defined on ``IndexAdapter`` alone."""
    sniffing = re.compile(
        r"distance_name (not )?in \(|\.subtracts\b|accumulates *[:=]"
        r"|_ADAPTERS *= *\{|SIMILARITY_FUNCTIONS *= *\{"
    )
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        offenders.extend(
            f"{path}:{n}: {line.strip()}"
            for n, line in enumerate(text.splitlines(), 1)
            if sniffing.search(line)
        )
        tree = ast.parse(text)
        owned = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "IndexAdapter"
            for node in cls.body
        }
        offenders.extend(
            f"{path}:{node.lineno}: def {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name in ("exact", "exact_batch", "distance")
            and id(node) not in owned
        )
    assert not offenders, "\n".join(offenders)
