"""``import repro`` needs nothing beyond the declared dependencies.

CI installs the package with ``pip install -e .[test]`` on a fresh
runner, so a third-party import that ``pyproject.toml`` does not
declare breaks ``import repro`` there even when the development
environment happens to have it.  Two checks pin the declaration:

- a static scan of every import under ``src/`` (top-level and lazy
  alike) against ``[project] dependencies``;
- a subprocess whose meta-path hook refuses every package that is not
  the standard library, ``repro`` or declared, in which the basic
  session surface (``import repro``, ``connect()``, ``prepare``,
  ``len``) must still work.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="needs sys.stdlib_module_names (Python 3.10+)",
)


def declared_packages():
    """Import names of ``[project] dependencies`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    requirements = re.findall(r'"([^"]+)"', block.group(1))
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def imported_packages():
    """Top-level package -> first importing file, over all of ``src/``."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(
                    name.partition(".")[0], str(path.relative_to(ROOT))
                )
    return found


def test_every_third_party_import_in_src_is_declared():
    declared = declared_packages()
    assert "numpy" in declared
    undeclared = {
        package: where
        for package, where in imported_packages().items()
        if package != "repro"
        and package not in sys.stdlib_module_names
        and package not in declared
    }
    assert undeclared == {}


BLOCKED_IMPORTS_SCRIPT = textwrap.dedent(
    """
    import sys

    ALLOWED = set(sys.stdlib_module_names) | {"repro"} | set(sys.argv[1:])


    class Undeclared:
        def find_spec(self, name, path=None, target=None):
            top = name.partition(".")[0]
            # The build-specific sysconfig data module ships with the
            # interpreter but is not in stdlib_module_names.
            if top not in ALLOWED and not top.startswith("_sysconfigdata"):
                raise ModuleNotFoundError(f"undeclared package {top!r}")
            return None


    sys.meta_path.insert(0, Undeclared())

    from repro import connect

    session = connect({"R": [(1, 2), (1, 3)], "S": [(2, 4), (3, 4)]})
    answers = session.prepare("q(x, z) :- R(x, y), S(y, z)").run()
    assert len(answers) == 1, len(answers)
    print("ok")
    """
)


def test_import_repro_needs_only_declared_packages():
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED_IMPORTS_SCRIPT]
        + sorted(declared_packages()),
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok")
