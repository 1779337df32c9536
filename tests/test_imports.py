"""The package is pure Python with no runtime dependencies, and starts light."""

import ast
import subprocess
import sys
from pathlib import Path

from helpers import child_env

SOURCE = Path(__file__).resolve().parents[1] / "src" / "latcomb"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_itself_and_the_standard_library():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    outside = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, root in _imported_roots(tree):
            if root != "latcomb" and root not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{lineno}: {root}")
    assert not outside, outside


def test_start_up_loads_no_dataclasses():
    # Importing dataclasses loads inspect, ast, dis and tokenize, and each
    # dataclass runs generated code as it is defined: together about a
    # third of a fresh process's set-up.  -S keeps site hooks, which may
    # import either module, out of the child.
    code = ("import sys, latcomb, latcomb.lattice_io, latcomb.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=child_env(PYTHONPATH=str(SOURCE.parent)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
