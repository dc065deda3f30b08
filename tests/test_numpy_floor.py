"""The package keeps to its declared NumPy floor (numpy>=1.24 in pyproject.toml).

Only one NumPy is installed where the tests run, so a name that exists only from
NumPy 2 would pass every other test; this one reads the source for such names.
"""

from __future__ import annotations

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
NUMPY2_ONLY = re.compile(
    r"\.mT\b|\bmatrix_transpose\b|\bvecdot\b|\bisdtype\b|\bunique_values\b"
    r"|\b(?:np|numpy)\.bool\b|\bnumpy\._core\b"
)


@pytest.mark.parametrize("line, hit", [
    ("y = x.mT", True),
    ("np.linalg.matrix_transpose(x)", True),
    ("np.vecdot(a, b)", True),
    ("np.isdtype(x.dtype, 'bool')", True),
    ("np.unique_values(x)", True),
    ("np.ones(3, dtype=np.bool)", True),
    ("from numpy._core import umath", True),
    ("np.ones(3, dtype=np.bool_)", False),
    ("np.swapaxes(x.conj(), -1, -2)", False),
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
