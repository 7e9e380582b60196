"""The package's advertised surface exists.

Two checks that catch code deleted while something still points at it:
every name a package exports (``__all__`` and the lazy ``_LAZY``
re-export tables) resolves, and every command the repository tells
people to run (the ``[project.scripts]`` console scripts, and each
``repro-…`` or ``python -m repro.…`` invocation in the Makefile and the
CI workflow) names a module that imports and can be run: a console
script's target is a callable ``main``, a ``python -m`` module has a
``__main__`` block.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = ["repro", "repro.obs", "repro.serve", "repro.faults", "repro.core"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    names = set(module.__all__) | set(getattr(module, "_LAZY", {}))
    missing = []
    for name in sorted(names):
        try:
            getattr(module, name)
        except (AttributeError, ImportError) as exc:
            missing.append(f"{name}: {exc}")
    assert not missing, missing


def _console_scripts() -> dict[str, str]:
    """``[project.scripts]`` of pyproject.toml as name -> "module:func".

    A line parser for this one flat table (Python 3.10 has no tomllib).
    """
    scripts: dict[str, str] = {}
    in_table = False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line and not line.startswith("#"):
            name, target = line.split("=", 1)
            scripts[name.strip().strip('"')] = target.strip().strip('"')
    return scripts


def _invocations() -> tuple[set[str], set[str]]:
    """Console-script names and ``python -m`` modules that the Makefile
    and the CI workflow invoke."""
    scripts: set[str] = set()
    modules: set[str] = set()
    for rel in ("Makefile", ".github/workflows/ci.yml"):
        text = (ROOT / rel).read_text()
        scripts.update(re.findall(r"(?<![\w./-])(repro-[a-z]+)\b", text))
        modules.update(re.findall(r"python3? -m (repro(?:\.\w+)+)", text))
    return scripts, modules


def _has_main_guard(module) -> bool:
    tree = ast.parse(Path(module.__file__).read_text())
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for node in tree.body
    )


def test_every_advertised_command_exists():
    scripts = _console_scripts()
    assert scripts, "no [project.scripts] table found"
    invoked_scripts, invoked_modules = _invocations()
    unknown = sorted(invoked_scripts - set(scripts))
    assert not unknown, f"invoked but not a console script: {unknown}"
    assert invoked_modules, "no python -m invocation found"
    for name, target in sorted(scripts.items()):
        module_name, _, func = target.partition(":")
        module = importlib.import_module(module_name)
        assert func == "main" and callable(getattr(module, "main", None)), (
            name, target,
        )
    # ``python -m`` runs a module's ``if __name__ == "__main__"`` block.
    for module_name in sorted(invoked_modules):
        assert _has_main_guard(importlib.import_module(module_name)), (
            module_name
        )
