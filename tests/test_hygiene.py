"""Source hygiene checks that need only the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(path: pathlib.Path) -> list:
    """Names an import in path binds and nothing in path reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    # the package's __init__ imports names to re-export them
    sources = [p for p in (ROOT / "src" / "besovlab").glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "tests").glob("*.py")
    unused = [entry for path in sorted(sources) for entry in unused_imports(path)]
    assert unused == []


def test_import_loads_no_executor_module():
    # the runners' threads come from threading, which numpy already loads;
    # concurrent.futures would add ~9 ms and 0.25 MB to every start-up
    code = "import sys, besovlab; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
