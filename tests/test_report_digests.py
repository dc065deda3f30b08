"""The byte-identity set as a golden file: scripts/report_digests.py prints the lines of
tests/data/report_digests.txt.

A change that moves report bits on purpose regenerates the file,

    python scripts/report_digests.py > tests/data/report_digests.txt

and the file's diff is then the list of moved reports and suites.  The file's header is the
envelope the bits hold in: numpy's version, the SIMD features its dispatch found and the
kernels of its bundled OpenBLAS.  A host outside that envelope moves most lines (an AVX2-only
dispatch moved 103 of 221, OpenBLAS on Haswell kernels 181), so there the test skips and
names the field that differs.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "report_digests.txt"


def _split(text: str) -> tuple[dict, dict]:
    """({header field: value}, {line name: (sha256, exit code)}) of the script's output."""
    header, lines = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            field, _, value = line[2:].partition(" ")
            header[field] = value
        else:
            digest, code, name = line.split(" ", 2)
            lines[name] = (digest, code)
    return header, lines


def test_report_digests_match_the_golden_file():
    # a subprocess, so the script imports this checkout's qelab afresh
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digests.py")],
                          capture_output=True, text=True, check=True)
    header, lines = _split(done.stdout)
    golden_header, golden = _split(GOLDEN.read_text())
    for field, value in golden_header.items():
        if header.get(field) != value:
            pytest.skip(f"outside the golden file's envelope: {field} is {header.get(field)!r}"
                        f" here and {value!r} there")
    moved = sorted(name for name in golden.keys() | lines.keys()
                   if golden.get(name) != lines.get(name))
    if moved:
        pytest.fail(f"{len(moved)} lines moved (report:file:suite):\n" + "\n".join(moved))
