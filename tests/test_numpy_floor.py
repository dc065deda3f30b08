"""Source scans: the package keeps to its declared NumPy floor (numpy>=1.24 in
pyproject.toml), and no module of the package or its tests imports a name it never uses.

Only one NumPy is installed where the tests run, so a name that exists only from
NumPy 2 would pass every other test; this one reads the source for such names.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TESTS = pathlib.Path(__file__).resolve().parent
NUMPY2_ONLY = re.compile(
    r"\.mT\b|\bmatrix_transpose\b|\bvecdot\b|\bisdtype\b|\bunique_values\b"
    r"|\b(?:np|numpy)\.bool\b|\bnumpy\._core\b"
    r"|\bcopy_context\b"  # carries numpy's error state to a thread from NumPy 2 on only
)


@pytest.mark.parametrize("line, hit", [
    ("y = x.mT", True),
    ("np.linalg.matrix_transpose(x)", True),
    ("np.vecdot(a, b)", True),
    ("np.isdtype(x.dtype, 'bool')", True),
    ("np.unique_values(x)", True),
    ("np.ones(3, dtype=np.bool)", True),
    ("from numpy._core import umath", True),
    ("pool.submit(contextvars.copy_context().run, work)", True),
    ("np.ones(3, dtype=np.bool_)", False),
    ("np.swapaxes(x.conj(), -1, -2)", False),
    ("with np.errstate(**np.geterr()):", False),
])
def test_the_guard_knows_the_numpy2_only_names(line, hit):
    assert bool(NUMPY2_ONLY.search(line)) == hit


def test_src_uses_no_numpy2_only_name():
    hits = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if NUMPY2_ONLY.search(line)
    ]
    assert hits == []


def _unused_imports(source: str) -> list[str]:
    """The names a module imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("source, unused", [
    ("import numpy as np\nnp.eye(2)", []),
    ("import numpy as np\nimport pytest\nnp.eye(2)", ["2: pytest"]),
    ("import os.path\nos.sep", []),
    ("from a import b, c as d\nd()", ["1: b"]),
    ("from __future__ import annotations\nx = 1", []),
    ("def f():\n    from a import b\n    return 1", ["2: b"]),
])
def test_the_import_scan_finds_the_unused_names(source, unused):
    assert _unused_imports(source) == unused


def test_no_module_imports_a_name_it_never_uses():
    hits = [
        f"{path.relative_to(root.parent)}:{hit}"
        for root in (SRC / "qelab", TESTS)
        for path in sorted(root.rglob("*.py"))
        for hit in _unused_imports(path.read_text())
    ]
    assert hits == []
