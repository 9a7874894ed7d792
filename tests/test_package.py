"""Importing the package has no effect beyond defining it."""

import os
import subprocess
import sys
from pathlib import Path

import promptsum

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
