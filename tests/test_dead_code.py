"""Every top-level function and class of src/qelab has a use in src/qelab.

A use is a name, an attribute or a string constant (suites._calls("check_ssa_strengthened")
looks a checker up by name) outside the definition itself.  cli.main calls cmd_<command> by
name, so every cmd_* counts as used.  STAYS names the definitions kept without a use in
src/qelab, each with its reason.
"""

from __future__ import annotations

import ast
import collections
from pathlib import Path

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
