"""Shared group fixtures and numerical references.

All test groups are exact rational matrix groups.  Session scope keeps the
closure cost to one run per group.
"""

import math
from fractions import Fraction

import pytest

from orbitscope import cli, groups, rationals as ra


def _frac_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


REFLECT_LINE = _frac_rows([[-1]])
NEG_IDENTITY_2 = _frac_rows([[-1, 0], [0, -1]])
FLIP_X = _frac_rows([[-1, 0], [0, 1]])
FLIP_Y = _frac_rows([[1, 0], [0, -1]])
ROT90 = _frac_rows([[0, -1], [1, 0]])


@pytest.fixture(scope="session")
def z2_line():
    """{+1, -1} acting on the line."""
    return groups.close_generators([REFLECT_LINE], name="z2-line")


@pytest.fixture(scope="session")
def z2_plane():
    """{I, -I} on the plane."""
    return groups.close_generators([NEG_IDENTITY_2], name="z2-plane")


@pytest.fixture(scope="session")
def z2xz2():
    """Independent sign flips on the plane, order 4."""
    return groups.close_generators([FLIP_X, FLIP_Y], name="z2xz2")


@pytest.fixture(scope="session")
def z4():
    """Quarter-turn rotations, order 4."""
    return groups.close_generators([ROT90], name="z4")


@pytest.fixture(scope="session")
def d4():
    """Square symmetry group: quarter turn plus axis mirror, order 8."""
    return groups.close_generators([ROT90, FLIP_Y], name="d4")


def permutation_matrix(perm):
    n = len(perm)
    return tuple(
        tuple(Fraction(1) if perm[i] == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


@pytest.fixture(scope="session")
def s3_perm():
    """Permutation action of S3 on R^3."""
    swap = permutation_matrix((1, 0, 2))
    cycle = permutation_matrix((1, 2, 0))
    return groups.close_generators([swap, cycle], name="s3-perm")


S4_PERM_GENS = (permutation_matrix((1, 0, 2, 3)), permutation_matrix((1, 2, 3, 0)))


@pytest.fixture(scope="session")
def s4_perm():
    """Permutation action of S4 on R^4."""
    return groups.close_generators(S4_PERM_GENS, name="s4-perm")


CONJUGATOR = _frac_rows([[1, 1], [0, 2]])


def conjugate(gens, s):
    """The generators S^-1 g S of the conjugate group."""
    s_inv = ra.mat_inverse(s)
    return [ra.mat_mul(ra.mat_mul(s_inv, g), s) for g in gens]


D4_SHEARED_GENS = conjugate((ROT90, FLIP_Y), CONJUGATOR)


@pytest.fixture(scope="session")
def d4_sheared():
    """D4 conjugated by a non-orthogonal rational matrix."""
    return groups.close_generators(D4_SHEARED_GENS, name="d4-sheared")


# the quarter turn about z and the 3-fold turn about (1, 1, 1)
O_ROT_GENS = (
    _frac_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
    permutation_matrix((1, 2, 0)),
)
# a dense rational conjugator of R^3, of determinant -3
DENSE_CONJUGATOR_3 = _frac_rows([[1, 2, 0], [0, 1, -1], [2, 0, 1]])


@pytest.fixture(scope="session")
def o_rot():
    """Rotations of the cube on R^3, order 24: quarter turn about z and
    the 3-fold turn about (1, 1, 1)."""
    return groups.close_generators(O_ROT_GENS, name="o-rot")


@pytest.fixture(scope="session")
def o_rot_conj():
    """o-rot conjugated by a dense rational matrix."""
    return groups.close_generators(
        conjugate(O_ROT_GENS, DENSE_CONJUGATOR_3), name="o-rot-c"
    )


def _diag(*d):
    return _frac_rows([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])


@pytest.fixture(scope="session")
def z3_hex():
    """The 120-degree rotation of the plane in a hexagonal lattice basis."""
    return groups.close_generators([_frac_rows([[0, -1], [1, -1]])], name="z3-hex")


@pytest.fixture(scope="session")
def neg_identity_3():
    """{I, -I} on R^3: six quadratic generators."""
    return groups.close_generators([_diag(-1, -1, -1)], name="neg-i3")


@pytest.fixture(scope="session")
def z3_perm():
    """The cyclic permutation of the coordinates of R^3."""
    return groups.close_generators([permutation_matrix((1, 2, 0))], name="z3-perm")


@pytest.fixture(scope="session")
def a4_rot():
    """Rotations of the tetrahedron on R^3, order 12."""
    return groups.close_generators(
        [_diag(-1, -1, 1), permutation_matrix((1, 2, 0))], name="a4-rot"
    )


@pytest.fixture(scope="session")
def b4_rot():
    """Rotations of the 4-cube, order 192: the signed permutations of
    determinant 1."""
    flip = _diag(-1, 1, 1, 1)
    gens = [
        ra.mat_mul(permutation_matrix((1, 0, 2, 3)), flip),
        ra.mat_mul(permutation_matrix((1, 2, 3, 0)), flip),
        _diag(-1, -1, 1, 1),
    ]
    return groups.close_generators(gens, name="b4-rot")


# all signed permutations of R^3: two permutations and one sign flip
B3_GENS = (
    permutation_matrix((1, 0, 2)),
    permutation_matrix((1, 2, 0)),
    _frac_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]),
)


# a dense rational conjugate of B3
B3_CONJ_GENS = conjugate(B3_GENS, DENSE_CONJUGATOR_3)


@pytest.fixture(scope="session")
def b3():
    """The hyperoctahedral group B3 on R^3, order 48."""
    return groups.close_generators(B3_GENS, name="b3")


# S5 on the sum-zero hyperplane of R^5 in the basis v_i = e_i - e_5: the
# transposition (1 2) swaps v1 and v2; the 5-cycle sends v_i to
# v_{i+1} - v_1 for i < 4 and v_4 to -v_1 (columns are images).
S5_GENS = (
    permutation_matrix((1, 0, 2, 3)),
    _frac_rows([[-1, -1, -1, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
)


@pytest.fixture(scope="session")
def s5_std():
    """The standard representation of S5 on R^4, order 120."""
    return groups.close_generators(S5_GENS, name="s5-std")


# ------------------------------------------------------- numerical references


def cli_default_assignment(model) -> dict:
    """The coefficients the CLI gives a model when no --param is passed."""
    cfg = cli.RunConfig(
        command="landau", spec="", spec_sha256="", degree_cap=None, relation_cap=None,
        ell=None, params={}, sweep=None, seed=0, tol=None, out=None, fmt="json",
    )
    return cli._model_assignment(model, cfg)


def float_bits(x) -> tuple:
    """The exact bits of a sequence of floats, for bit-identity checks."""
    return tuple(float.hex(c) for c in x)


def reference_gradient_phase(x0, f, grad, tol, escape, steps):
    """The gradient phase of a descent as a Python loop over tuples of floats.

    The oracle for ``landau._gradient_phase``: the same float operations in
    the same order, with f and grad as separate kernels.  Returns
    ``(escaped, x)``: None when the phase ends at tol or after ``steps``
    steps, False at a non-finite gradient, True once |x| exceeds escape.
    """
    x = tuple(float(c) for c in x0)
    for _ in range(steps):
        g = grad(x)
        gn = math.hypot(*g)
        if not math.isfinite(gn):
            return False, x
        if gn <= tol:
            break
        fx = f(x)
        step = 1.0 / (1.0 + gn)
        trial = tuple(a - step * b for a, b in zip(x, g))
        while step > 1e-18 and f(trial) > fx - 1e-4 * step * gn * gn:
            step *= 0.5
            trial = tuple(a - step * b for a, b in zip(x, g))
        x = trial
        if math.hypot(*x) > escape:
            return True, x
    return None, x


# --------------------------------------------------------------- acceptance

ACCEPTANCE_RESULTS: dict = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        ok, detail = ACCEPTANCE_RESULTS[n]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {n:2d}: {status} - {detail}")
