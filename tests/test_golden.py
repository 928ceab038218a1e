"""Golden reports: the JSON ``report`` objects of a few CLI runs, and the
full text and CSV output of others, byte for byte.

The ``invariants`` and ``reduce`` files under ``golden/`` were recorded before
every exact solve over int and Fraction rows moved onto one fraction-free
integer eliminator, ``rationals.RowReducer``, which ``rref`` also runs on.
Only the homological solves of ``reduce``, whose rows have parameter-valued
entries, still divide, in ``reduction.ParameterReducer``; such coefficients
print in a form that follows the elimination dataflow, so these files pin
it down.  ``invariants-b4-rot`` (the rotation subgroup of B4, order 192)
was recorded before that move: it pins the relations and P-matrix of the
group whose hsop span test is the largest of the golden cases (1140
monomials of degree 17; o-rot's has 66, a4-rot's 36).  ``reduce-d4-ell6`` was re-recorded
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
did not change then.  ``landau-d4`` and ``landau-z2-line-sweep`` were
re-recorded again when the gradient phase of a descent came to take Newton
steps, with the same check: the same text apart from numbers, and the
largest change 5.9e-14, on a near-zero coordinate of ``landau-d4`` (its
reported gradient norm went from 1.5e-15 to 5.2e-14, still below the
polish's stop at 1e-13); on the sweep, 1.6e-15.  ``invariants-d4-sheared`` pins a dense rational conjugate
whose invariant metric is not the identity, and ``invariants-s3-perm`` a
basis with a degree-1 generator.  ``invariants-a4-rot`` and
``invariants-z3-perm`` pin two groups that are not coregular, whose basis
search stops at a degree bound rather than at a certified free basis.
``strata-s4-std``, ``strata-o-rot``, ``strata-a4-rot`` and
``strata-d4-sheared`` (``.json``) and ``group-s4-std`` (``.txt``, ``.csv``)
pin the type census beyond d4 (subgroup and class counts, fix dims,
realized flags, Hasse edges, rays): they were recorded before the realized
flag came to be read off the subgroup lattice and fixed spaces came to be
built from a generating set, so they hold those two changes to the old
answers.  ``invariants-b3`` (``--degree-cap=8``) and
``invariants-s4-std-sheared`` (``--degree-cap=6``, the benchmark's dense
3x3 conjugate of s4-std, its spec taken from ``perfbench/specs.py``) are
the benchmark's two largest ``invariants`` jobs; they were recorded before
the Molien series and the invariant metric came to be summed in integers,
so they hold that change to the old Molien coefficients and P-matrix.
``strata-b4-rot``, ``strata-s5-std`` and ``strata-b3-c`` (the benchmark's
seed-201 conjugate of b3, its spec taken from ``perfbench/specs.py``) pin
the type census of the three largest groups whose subgroups the tests
enumerate; they were recorded before ``groups.all_subgroups`` came to
extend one subgroup per conjugacy class, so they hold that change to the
old lattice.  ``strata-b4`` (``.json``) and ``group-b4`` (``.txt``,
``.csv``) pin B4, the signed permutations of R^4 (order 384, 1659
subgroups in 193 classes); they were recorded before the subgroup search
came to extend each class by one cyclic subgroup per orbit of its
normalizer and to close joins by cosets, and before the closure came to
run in integers, so they hold those changes to the old lattice.
``strata-f4`` (``.json``) and ``group-f4`` (``.txt``, ``.csv``) pin W(F4),
the Weyl group of F4 on R^4 (order 1152, 5191 subgroups in 246 classes),
its spec built from the simple reflections of ``tests/conftest.py``; they
were recorded before each class came to be walked as an orbit under the
generators with its normalizer closed from Schreier generators, and before
fix dimensions came to be read off traces, so they hold those changes to
the old classes, fix dims and rays.  The ``.txt``
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
    ("invariants-b3", ["invariants", "--spec", "b3", "--degree-cap=8"]),
    ("invariants-s4-std-sheared", ["invariants", "--spec", "s4-std-sheared", "--degree-cap=6"]),
    ("invariants-b4-rot", ["invariants", "--spec", "b4-rot"]),
    ("strata-s4-std", ["strata", "--spec", "s4-std"]),
    ("strata-o-rot", ["strata", "--spec", "o-rot"]),
    ("strata-a4-rot", ["strata", "--spec", "a4-rot"]),
    ("strata-d4-sheared", ["strata", "--spec", "d4-sheared"]),
    ("strata-b4-rot", ["strata", "--spec", "b4-rot"]),
    ("strata-s5-std", ["strata", "--spec", "s5-std"]),
    ("strata-b3-c", ["strata", "--spec", "b3-c"]),
    ("strata-b4", ["strata", "--spec", "b4"]),
    ("strata-f4", ["strata", "--spec", "f4"]),
    ("reduce-d4-ell6", ["reduce", "--spec", "d4", "--ell=6"]),
    ("reduce-z2xz2-ell4", ["reduce", "--spec", "z2xz2", "--ell=4"]),
    ("reduce-s3-perm-ell3", ["reduce", "--spec", "s3-perm", "--ell=3"]),
    ("landau-d4", ["landau", "--spec", "d4"]),
    ("landau-z2-line-sweep", ["landau", "--spec", "z2-line", "--sweep=a1:-1:1:5"]),
    ("flow-d4", ["flow", "--spec", "d4", "--x0=0.3,-0.2", "--t-end=1", "--dt=0.05"]),
]

PRINTED = [
    ("group-d4", ["group", "--spec", "d4"]),
    ("group-s4-std", ["group", "--spec", "s4-std"]),
    ("group-b4", ["group", "--spec", "b4"]),
    ("group-f4", ["group", "--spec", "f4"]),
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
