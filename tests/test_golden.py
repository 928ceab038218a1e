"""Golden reports: the JSON ``report`` objects of a few CLI runs, and the
full text and CSV output of others, byte for byte.

The ``invariants`` and ``reduce`` files under ``golden/`` were recorded before
every exact solve moved onto the one eliminator, ``rationals.RowReducer``.
Parameter-valued coefficients print in a form that follows the elimination
dataflow, so these files pin it down.  The ``landau`` and ``flow`` files were
recorded before the float layer moved onto one compiled kernel,
``polynomials.NumericPoly`` over a polynomial map; they pin every float of
minimization, sweep bisection and integration to the last bit.  The ``.txt``
and ``.csv`` files were recorded before the text and CSV output of every
command came to be read from its JSON report; they pin the header lines and
every line the two formats print.  They run from ``golden/`` with a relative
spec path, so the ``# spec=`` header line does not depend on the checkout.
Regenerate one only for a change that is meant to alter a report.
"""

import json
from pathlib import Path

import pytest

from orbitscope.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("invariants-d4", ["invariants", "--spec", "d4"]),
    ("invariants-o-rot", ["invariants", "--spec", "o-rot"]),
    ("invariants-s4-std", ["invariants", "--spec", "s4-std"]),
    ("reduce-d4-ell6", ["reduce", "--spec", "d4", "--ell=6"]),
    ("reduce-z2xz2-ell4", ["reduce", "--spec", "z2xz2", "--ell=4"]),
    ("landau-d4", ["landau", "--spec", "d4"]),
    ("landau-z2-line-sweep", ["landau", "--spec", "z2-line", "--sweep=a1:-1:1:5"]),
    ("flow-d4", ["flow", "--spec", "d4", "--x0=0.3,-0.2", "--t-end=1", "--dt=0.05"]),
]

PRINTED = [
    ("group-d4", ["group", "--spec", "d4"]),
    ("invariants-d4", ["invariants", "--spec", "d4"]),
    ("strata-d4", ["strata", "--spec", "d4"]),
    ("landau-d4", ["landau", "--spec", "d4"]),
    ("landau-z2-line-sweep", ["landau", "--spec", "z2-line", "--sweep=a1:-1:1:5"]),
    ("reduce-d4-ell6", ["reduce", "--spec", "d4", "--ell=6"]),
    ("flow-d4", ["flow", "--spec", "d4", "--x0=0.3,-0.2", "--t-end=1", "--dt=0.05"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, capsys):
    argv = list(argv)
    argv[2] = str(GOLDEN / "specs" / f"{argv[2]}.json")
    rc = main([*argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    report = json.loads(out)["report"]
    got = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert got == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv")])
@pytest.mark.parametrize("name, argv", PRINTED, ids=[c[0] for c in PRINTED])
def test_output_matches_golden(name, argv, fmt, ext, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    argv = list(argv)
    argv[2] = f"specs/{argv[2]}.json"
    rc = main([*argv, "--format", fmt])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert out == (GOLDEN / f"{name}.{ext}").read_text()
