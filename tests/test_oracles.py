"""``src/`` holds one implementation of each thing; the per-pair and
per-cell twins the differential suites compare it against live under
``tests/oracles`` and nothing in ``src/`` may lean on them."""

import ast
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
