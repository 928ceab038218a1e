"""Golden reports: the JSON ``report`` objects of a few CLI runs, and the
full text and CSV output of others, byte for byte.

The ``invariants`` and ``reduce`` files under ``golden/`` were recorded before
every exact solve moved onto the one eliminator, ``rationals.RowReducer``.
Parameter-valued coefficients print in a form that follows the elimination
dataflow, so these files pin it down.  ``reduce-d4-ell6`` was re-recorded
when each generator came to act as its time-one flow, applied in J-space as
a Lie series: a flow is not y + h, so the degree-6 generator differs, and
the survivors print the same values in a shorter form.  ``reduce-s3-perm-ell3``
pins the one ladder report whose coefficients have denominators that are not
monomials, such as ``a2 + 2*a1``.  The ``landau`` and
``flow`` files pin every float of minimization, sweep bisection and
integration to the last bit.  ``landau-d4`` and ``flow-d4`` (``.json``,
``.txt``, ``.csv``) were re-recorded when ``polynomials.NumericPoly`` became
generated straight-line Python and descent and RK4 came to step on plain
floats: the sums run in another order, so the last bits moved.  Before
re-recording, the old and new files had the same text apart from numbers, so
the same labels, inertia, orbit sizes and row counts, and every number agreed
within 1e-12 absolute (the largest change was 1.1e-16).  The z2-line sweep
did not change.  ``invariants-d4-sheared`` pins a dense rational conjugate
whose invariant metric is not the identity, and ``invariants-s3-perm`` a
basis with a degree-1 generator.  ``invariants-a4-rot`` and
``invariants-z3-perm`` pin two groups that are not coregular, whose basis
search stops at a degree bound rather than at a certified free basis.  The ``.txt``
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
    ("invariants-d4-sheared", ["invariants", "--spec", "d4-sheared"]),
    ("invariants-s3-perm", ["invariants", "--spec", "s3-perm"]),
    ("invariants-a4-rot", ["invariants", "--spec", "a4-rot"]),
    ("invariants-z3-perm", ["invariants", "--spec", "z3-perm"]),
    ("reduce-d4-ell6", ["reduce", "--spec", "d4", "--ell=6"]),
    ("reduce-z2xz2-ell4", ["reduce", "--spec", "z2xz2", "--ell=4"]),
    ("reduce-s3-perm-ell3", ["reduce", "--spec", "s3-perm", "--ell=3"]),
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
