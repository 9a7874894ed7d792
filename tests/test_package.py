"""Importing the package has no effect beyond defining it, and each module
imports only what it uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import promptsum

from conftest import perfbench_spans

_PROBE = (
    "import sys; before = set(sys.modules); import promptsum; "
    "print(sorted(set(sys.modules) - before))"
)


def test_importing_the_package_loads_no_other_module():
    # Nothing process-wide is set at import: no allocator or thread setting,
    # no foreign-function library, not even NumPy until a submodule asks for it.
    env = dict(os.environ)
    src = str(Path(promptsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['promptsum']"


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_imported_name_is_used():
    # A name the benchmark's tracer wraps at an import site stays imported
    # there even when the module does not call it.
    traced = {(owner.__name__, attr) for _, attr, sites, _ in perfbench_spans().SITES.values() for owner in sites}
    unused = []
    for path in sorted(Path(promptsum.__file__).parent.glob("*.py")):
        module = "promptsum" if path.stem == "__init__" else f"promptsum.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{module}.{name}"
            for name in sorted(_imported_names(tree) - used)
            if (module, name) not in traced
        ]
    assert unused == []
