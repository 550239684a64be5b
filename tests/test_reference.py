"""Reference outputs: every case re-run through ``cli.main`` must match the stored files.

Each case writes to a relative path, so its ``.config`` sidecar records the
same ``output_path`` in any directory.  Every number of a CSV or text report
must agree with ``tests/reference/`` to 1e-12 absolute, and every other token
(headers, labels, separators) and every sidecar byte for byte.  Run this file as a
script to regenerate the data (see ``tests/reference/README.md``).
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from bellnoise import cli

REFERENCE = Path(__file__).parent / "reference"
TOLERANCE = 1e-12

_RTN_MC = ["simulate", "--noise", "rtn", "--method", "mc", "--samples", "2000", "--points", "21"]
_STATIC = ["--noise", "static", "--c0", "1", "--delta-c", "1"]

# (argv, expected exit code); every path is relative to the working directory
CASES = [
    *(
        (["preset", name, "--points", str(points), "--out", f"preset-{points}"], 0)
        for name in ("fig1-static", "fig2-markov", "fig2-nonmarkov")
        for points in (21, 201)
    ),
    *(
        (_RTN_MC + ["--gamma", gamma, "--topology", topology,
                    "--out", f"mc-rtn-{gamma}-{topology}.csv"], 0)
        for gamma in ("0.2", "5")
        for topology in ("separate", "common")
    ),
    *(
        (["simulate", *_STATIC, "--method", "mc", "--samples", "2000", "--points", "21",
          "--topology", topology, "--out", f"mc-static-{topology}.csv"], 0)
        for topology in ("separate", "common")
    ),
    *(
        (["simulate", *_STATIC, "--method", "quadrature", "--points", "201",
          "--topology", topology, "--out", f"quadrature-static-{topology}.csv"], 0)
        for topology in ("separate", "common")
    ),
    (["compare", *_STATIC, "--method", "closed_form,quadrature,mc", "--samples", "2000",
      "--points", "21", "--out", "compare-static-separate.txt"], 0),
    (["features", "--noise", "rtn", "--gamma", "0.2", "--topology", "common", "--points", "201",
      "--out", "features-nonmarkov-common.txt"], 0),
]

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")


def run_cases():
    """Run every case in the working directory; return the exit codes."""
    codes = []
    for argv, _ in CASES:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
    return codes


def _files(root):
    return sorted(
        str(path.relative_to(root)) for path in root.rglob("*")
        if path.is_file() and path.name != "README.md"
    )


def _numbers_close(actual, expected):
    # tokens that read as numbers agree to the tolerance, every other token exactly
    got, want = _NUMBER.split(actual), _NUMBER.split(expected)
    if len(got) != len(want):
        return False
    for k, (a, b) in enumerate(zip(got, want)):
        if k % 2 == 0:
            if a != b:
                return False
        elif not (a == b or abs(float(a) - float(b)) <= TOLERANCE):
            return False
    return True


def assert_text_close(actual, expected, name):
    got, want = actual.splitlines(), expected.splitlines()
    assert len(got) == len(want), f"{name}: {len(got)} lines, reference has {len(want)}"
    for row, (a, b) in enumerate(zip(got, want), start=1):
        assert _numbers_close(a, b), f"{name}:{row}: {a!r}, reference {b!r}"


def test_outputs_match_the_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cases() == [code for _, code in CASES]
    assert _files(tmp_path) == _files(REFERENCE)
    for name in _files(REFERENCE):
        actual = (tmp_path / name).read_text()
        expected = (REFERENCE / name).read_text()
        if name.endswith(".config"):
            assert actual == expected, f"{name} differs from the reference"
        else:
            assert_text_close(actual, expected, name)


@pytest.mark.parametrize(
    "actual, expected, close",
    [
        ("max 1.000e-03 ok", "max 1.000e-03 ok", True),
        ("nt=0.5000000000001", "nt=0.5", True),
        ("nt=0.50000000001", "nt=0.5", False),
        ("max 1.0e-03 ok", "max 1.0e-03 FAIL", False),
        ("death 2: nt=1.5", "death 1: nt=1.5", False),
        ("value=-inf", "value=-inf", True),
    ],
)
def test_text_numbers_compare_to_the_tolerance(actual, expected, close):
    assert _numbers_close(actual, expected) is close


if __name__ == "__main__":
    # regenerate: PYTHONPATH=src python tests/test_reference.py
    for stale in _files(REFERENCE):
        (REFERENCE / stale).unlink()
    REFERENCE.mkdir(exist_ok=True)
    os.chdir(REFERENCE)
    codes = run_cases()
    expected = [code for _, code in CASES]
    if codes != expected:
        sys.exit(f"exit codes {codes}, expected {expected}")
    print(f"wrote {len(_files(REFERENCE))} files to {REFERENCE}")
