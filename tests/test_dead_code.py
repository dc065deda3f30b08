"""Every top-level function and class of src/qelab has a use in src/qelab, and every
module-level import of a module has a use in that module.

A use is a name, an attribute or a string constant (suites._calls("check_ssa_strengthened")
looks a checker up by name) outside the definition itself.  cli.main calls cmd_<command> by
name, so every cmd_* counts as used.  STAYS names the definitions kept without a use in
src/qelab, each with its reason.
"""

from __future__ import annotations

import ast
import collections
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qelab"
STAYS = {
    # the "trial alone" reference that tests hold each chunk's bits to
    ("suites", "run_trial"),
    ("suites", "trial_rng"),
    # perfbench still maps states.random_unitary.*, until its metric names are repaired
    ("states", "random_unitary"),
}


def _definitions_and_uses() -> tuple[list[tuple[str, str]], collections.Counter]:
    definitions, uses = [], collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)  # a def's or class's uses of its own name don't count
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name != own:
                    uses[name] += 1
    return definitions, uses


def test_every_top_level_definition_is_used():
    definitions, uses = _definitions_and_uses()
    unused = {(module, name) for module, name in definitions
              if not uses[name] and not name.startswith("cmd_")}
    assert unused - STAYS == set()


def test_each_kept_definition_still_exists_without_a_use():
    # a STAYS entry that gains a use, or goes, leaves the list
    definitions, uses = _definitions_and_uses()
    for module, name in STAYS:
        assert (module, name) in definitions
        assert not uses[name], f"{module}.{name} has a use now: drop it from STAYS"


def _unused_module_imports(tree: ast.Module) -> list[str]:
    """The names that a module's top-level imports (``from __future__`` aside) bind and no
    name in the module reads, as "line: name"."""
    bound = {}
    for top in tree.body:
        if isinstance(top, ast.Import) or (isinstance(top, ast.ImportFrom)
                                           and top.module != "__future__"):
            for alias in top.names:
                bound[alias.asname or alias.name.split(".")[0]] = top.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("source, unused", [
    ("import math\nimport os\nmath.pi", ["2: os"]),
    ("import os.path\nos.sep", []),
    ("from __future__ import annotations\nfrom .a import b as c\nx = 1", ["2: c"]),
    ("def f():\n    import os\n    return 1", []),  # not at module level
])
def test_the_import_scan_finds_the_unused_module_level_names(source, unused):
    assert _unused_module_imports(ast.parse(source)) == unused


def test_every_module_level_import_is_used_in_its_module():
    # __init__.py imports names for the package's callers, not for itself
    hits = [f"{path.name}:{hit}" for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
            for hit in _unused_module_imports(ast.parse(path.read_text()))]
    assert hits == []
