"""Shared group fixtures and numerical references.

All test groups are exact rational matrix groups.  Session scope keeps the
closure cost to one run per group.
"""

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from orbitscope import cli, dynamics, groups, invariants, polynomials, rationals as ra
from orbitscope.errors import (
    DimensionMismatch,
    MonotonicityViolation,
    NonInvertibleGenerator,
    OrderCapExceeded,
    SubgroupCapExceeded,
)
from orbitscope.polynomials import J_KIND, Polynomial, compile_polynomial, mono_key


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


S3_PERM_GENS = (permutation_matrix((1, 0, 2)), permutation_matrix((1, 2, 0)))


@pytest.fixture(scope="session")
def s3_perm():
    """Permutation action of S3 on R^3."""
    return groups.close_generators(S3_PERM_GENS, name="s3-perm")


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


A4_ROT_GENS = (_diag(-1, -1, 1), permutation_matrix((1, 2, 0)))


@pytest.fixture(scope="session")
def a4_rot():
    """Rotations of the tetrahedron on R^3, order 12."""
    return groups.close_generators(A4_ROT_GENS, name="a4-rot")


# the signed permutations of R^4 of determinant 1
B4_ROT_GENS = (
    ra.mat_mul(permutation_matrix((1, 0, 2, 3)), _diag(-1, 1, 1, 1)),
    ra.mat_mul(permutation_matrix((1, 2, 3, 0)), _diag(-1, 1, 1, 1)),
    _diag(-1, -1, 1, 1),
)


@pytest.fixture(scope="session")
def b4_rot():
    """Rotations of the 4-cube, order 192: the signed permutations of
    determinant 1."""
    return groups.close_generators(B4_ROT_GENS, name="b4-rot")


# all signed permutations of R^3: two permutations and one sign flip
B3_GENS = (
    permutation_matrix((1, 0, 2)),
    permutation_matrix((1, 2, 0)),
    _frac_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]),
)


# a dense rational conjugate of B3
B3_CONJ_GENS = conjugate(B3_GENS, DENSE_CONJUGATOR_3)


@pytest.fixture(scope="session")
def b3_conj():
    """B3 conjugated by a dense rational matrix."""
    return groups.close_generators(B3_CONJ_GENS, name="b3-conj")


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


# all signed permutations of R^4: a transposition, a 4-cycle and one sign flip
B4_GENS = (
    permutation_matrix((1, 0, 2, 3)),
    permutation_matrix((1, 2, 3, 0)),
    _diag(-1, 1, 1, 1),
)


@pytest.fixture(scope="session")
def b4():
    """The hyperoctahedral group B4 on R^4, order 384: the signed
    permutations."""
    return groups.close_generators(B4_GENS, name="b4")


def reflection(v):
    """The reflection of R^n in the hyperplane orthogonal to v."""
    v = [Fraction(x) for x in v]
    vv = sum(x * x for x in v)
    return tuple(
        tuple(int(i == j) - 2 * v[i] * v[j] / vv for j in range(len(v)))
        for i in range(len(v))
    )


# the simple reflections of F4: in e2 - e3, e3 - e4, e4 and (e1 - e2 - e3 - e4)/2
F4_GENS = (
    reflection((0, 1, -1, 0)),
    reflection((0, 0, 1, -1)),
    reflection((0, 0, 0, 1)),
    reflection((Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))),
)


@pytest.fixture(scope="session")
def f4():
    """The Weyl group W(F4) on R^4, order 1152."""
    return groups.close_generators(F4_GENS, name="f4")


# ------------------------------------------------------------ benchmark pins

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def trace_targets() -> list:
    """``TARGETS`` of ``perfbench/tracer.py``: the (module, qualified name)
    of every orbitscope callable the benchmark's layer tracer times."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.fixture
def fresh_kernel_cache():
    """Empty the process-wide cache of compiled kernel code, so that a test
    that counts ``compile`` calls sees every source it builds compiled,
    whichever tests ran before it."""
    polynomials._code.cache_clear()


def compiled_sources(monkeypatch) -> list:
    """The source of every kernel compiled from now on, in order."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(polynomials, "compile", spy, raising=False)
    return sources


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


def _positive_definite_solve(h, g):
    """d with H d = g, H the flat row-major n x n matrix h, by elimination
    without pivoting; None when a pivot is not positive, that is when H is
    not positive definite."""
    n = len(g)
    a = [list(h[i * n : (i + 1) * n]) for i in range(n)]
    d = list(g)
    for k in range(n):
        if not a[k][k] > 0.0:
            return None
        for r in range(k + 1, n):
            m = a[r][k] / a[k][k]
            for j in range(k + 1, n):
                a[r][j] = a[r][j] - m * a[k][j]
            d[r] = d[r] - m * d[k]
    for k in range(n - 1, -1, -1):
        for j in range(n - 1, k, -1):
            d[k] = d[k] - a[k][j] * d[j]
        d[k] = d[k] / a[k][k]
    return d


def reference_gradient_phase(x0, f, grad, hess, tol, escape, steps):
    """The gradient phase of a descent as a Python loop over tuples of floats.

    The oracle for the gradient phase of ``landau._descent``: the same
    float operations in the same order, with f, grad and the flat Hessian
    hess as separate kernels.  Each step is the backtracking gradient step,
    unless the Hessian is positive definite and its Newton step x - d is no
    longer than 0.5 (1 + |x|), passes the Armijo test and lands no higher
    than the gradient step.
    Returns ``(escaped, x)``: None when the phase ends at tol or after
    ``steps`` steps, False at a non-finite gradient, True once |x| exceeds
    escape.
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
        d = _positive_definite_solve(hess(x), g)
        if d is not None and math.hypot(*d) <= 0.5 * (1.0 + math.hypot(*x)):
            slope = g[0] * d[0]
            for gi, di in zip(g[1:], d[1:]):
                slope = slope + gi * di
            newton = tuple(a - b for a, b in zip(x, d))
            if f(newton) <= fx - 1e-4 * slope and f(newton) <= f(trial):
                trial = newton
        x = trial
        if math.hypot(*x) > escape:
            return True, x
    return None, x


def reference_newton(x, grad, hess, gtol, escape, steps):
    """The Newton polish of a descent as the numpy loop it once was.

    The oracle for the Newton phase of ``landau._descent``: from the end x
    of the gradient phase, damped Newton steps solved by
    ``np.linalg.solve`` (the gradient when it raises or returns a
    non-finite step), each halved at most 40 times until the gradient norm
    falls, until that norm is at most gtol / 1000.  Returns
    ``('ok' | 'escaped' | 'unconverged', x)``.
    """
    x = np.array(x, dtype=float)
    for _ in range(steps):
        g = np.array(grad(x))
        gn = float(np.linalg.norm(g))
        if gn <= 1e-3 * gtol:
            break
        try:
            d = np.linalg.solve(hess(x), g)
        except np.linalg.LinAlgError:
            d = g
        if not np.all(np.isfinite(d)):
            d = g
        t = 1.0
        improved = False
        for _ in range(40):
            xc = x - t * d
            if float(np.linalg.norm(grad(xc))) < gn:
                x = xc
                improved = True
                break
            t *= 0.5
        if not improved:
            break
        if float(np.linalg.norm(x)) > escape:
            return "escaped", tuple(x.tolist())
    gn = float(np.linalg.norm(grad(x)))
    if np.isfinite(gn) and gn <= gtol:
        return "ok", tuple(x.tolist())
    return "unconverged", tuple(x.tolist())


def reference_rk4_step(field, x: tuple, h: float) -> tuple:
    """One classical Runge-Kutta step of a callable field on a tuple of
    floats: the oracle for ``GradientField.step``, which takes these float
    operations in this order."""
    half, sixth = 0.5 * h, h / 6.0
    k1 = tuple(map(float, field(x)))
    k2 = tuple(map(float, field(tuple(a + half * b for a, b in zip(x, k1)))))
    k3 = tuple(map(float, field(tuple(a + half * b for a, b in zip(x, k2)))))
    k4 = tuple(map(float, field(tuple(a + h * b for a, b in zip(x, k3)))))
    return tuple(
        a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
    )


def reference_flow(field, x0, dt, steps, energy_tol=1e-9, halvings=6) -> list:
    """``dynamics.integrate``'s stepping as a Python loop over
    :func:`reference_rk4_step`, with the potential from ``field.potential``.

    A step that leaves the finite range (the state or its potential) or
    raises the potential by more than energy_tol is retried with 2, 4,
    ..., 2**halvings substeps.  When none cures it, MonotonicityViolation
    if the step or a retry ended finite; otherwise the flow has left the
    finite range, and the states are returned with that step's end last.
    """
    def finite(y, e):
        return math.isfinite(e) and all(map(math.isfinite, y))

    x = tuple(float(c) for c in x0)
    e_old = field.potential(x)
    states = [x]
    for _ in range(steps):
        x_new = reference_rk4_step(field, x, dt)
        e_new = field.potential(x_new)
        seen_finite = finite(x_new, e_new)
        if not (seen_finite and e_new <= e_old + energy_tol):
            for k in range(1, halvings + 1):
                y = x
                for _ in range(2**k):
                    y = reference_rk4_step(field, y, dt / 2**k)
                e_y = field.potential(y)
                if finite(y, e_y):
                    seen_finite = True
                    if e_y <= e_old + energy_tol:
                        x_new, e_new = y, e_y
                        break
            else:
                if not seen_finite:
                    return states + [x_new]
                raise MonotonicityViolation("no substep refinement cured a rise")
        x, e_old = x_new, e_new
        states.append(x)
    return states


def fix_residuals(rep, field, sub) -> list:
    """How far the flow leaves Fix(sub): one (field, trajectory) pair of
    residuals per sample point.

    The oracle for flow invariance of fixed spaces.  It draws 6 points of
    radius 0.7 in Fix(sub) from a generator seeded with 0 (the origin alone
    when Fix(sub) = 0) and flows each to t = 2 in steps of 1e-2.  The
    residuals are the distances of f(x) and, at worst over the trajectory,
    of x(t) from Fix(sub).
    """
    vecs = groups.fixed_subspace(rep, sub)
    basis = np.zeros((rep.dim, 0))
    if vecs:
        basis = np.linalg.qr(np.array([[float(c) for c in v] for v in vecs]).T)[0]
    rng = np.random.default_rng(0)

    def off_fix(v):
        return float(np.linalg.norm(v - basis @ (basis.T @ v)))

    out = []
    for _ in range(6 if vecs else 1):
        x = np.zeros(rep.dim)
        if vecs:
            coeffs = rng.standard_normal(len(vecs))
            x = basis @ (0.7 * coeffs / np.linalg.norm(coeffs))
        states = dynamics.integrate(field, x, 2.0, 1e-2).states
        out.append((off_fix(field(x)), max(off_fix(s) for s in states)))
    return out


def orbit_space_residuals(field, traj) -> tuple:
    """``(residual, rise)`` of a trajectory's shadow J(x(t)) in orbit space.

    The oracle for the projected system: residual is the largest
    |(J_{i+1} - J_{i-1}) / 2dt - (DJ)(x_i) f(x_i)| over interior points,
    O(dt^2) for a smooth trajectory; rise is the largest increase of the
    potential psi(J) from one projected state to the next.
    """
    basis = field.model.basis
    j_states = dynamics.project_trajectory(basis, traj)
    jacobian = compile_polynomial([d for p in basis.polys for d in p.gradient()])
    residual = 0.0
    for i in range(1, len(traj.times) - 1):
        x = traj.states[i]
        fx = field(x)
        rows = np.reshape(jacobian(x), (basis.k, -1))
        rhs = np.array([sum(d * fv for d, fv in zip(row, fx)) for row in rows])
        fd = (j_states[i + 1] - j_states[i - 1]) / (2.0 * traj.dt)
        residual = max(residual, float(np.max(np.abs(fd - rhs))))
    psi = compile_polynomial(field.model.psi_at(field.assignment))
    energies = np.array([psi(j) for j in j_states])
    rise = float(np.max(np.diff(energies))) if len(energies) > 1 else 0.0
    return residual, rise


# ---------------------------------------------------------- exact references


def orbit(rep, point) -> tuple:
    """The orbit {T_g x} over every group element, deduplicated exactly and
    sorted."""
    x = ra.vec(point)
    return tuple(sorted({ra.mat_vec(t, x) for t in rep.elements}))


def realized_by_stabilizer(rep, sub, fix) -> bool:
    """Does some point have isotropy exactly the subgroup H (``sub``)?

    The oracle for ``SymmetryType.realized``, by matrices: exactly when
    the pointwise stabilizer K of Fix(H), spanned by ``fix``, is H.  K
    contains H and fixes every point of Fix(H), so if K != H no point has
    isotropy H.  If K = H, each g outside H fixes only a proper subspace
    of Fix(H); a vector space over an infinite field is not a finite union
    of proper subspaces, so some point of Fix(H) is fixed by no such g,
    and its isotropy is H.
    """
    stabilizer = tuple(
        i
        for i, t in enumerate(rep.elements)
        if all(ra.mat_vec(t, b) == b for b in fix)
    )
    return stabilizer == sub.members


def close_generators_by_fractions(generators, max_order: int = 10000, name=None):
    """Close a generating set into a FiniteGroupRep with Fraction points.

    The oracle for ``groups.close_generators``, which keys the points as
    integer vectors over a denominator and builds the Cayley table by
    rows: here every point image is a ``rationals.mat_vec`` in Fractions,
    and every Cayley entry is looked up by its base images.
    """
    gens = [ra.mat(g) for g in generators]
    if not gens:
        raise NonInvertibleGenerator("need at least one generator")
    dim = len(gens[0])
    for g in gens:
        if len(g) != dim or any(len(row) != dim for row in g):
            raise DimensionMismatch("generators must be square and equal size")
        reducer = ra.RowReducer(dim)
        for row in g:
            reducer.add(row)
        if reducer.rank < dim:
            raise NonInvertibleGenerator("generator matrix is singular")
    pts = list(ra.mat_identity(dim))
    point_index = {p: i for i, p in enumerate(pts)}
    images: list = [[] for _ in gens]
    for p in pts:
        for g, image in zip(gens, images):
            q = ra.mat_vec(g, p)
            if q not in point_index:
                point_index[q] = len(pts)
                pts.append(q)
                if len(pts) > dim * max_order:
                    raise OrderCapExceeded(
                        f"closure exceeded {max_order} elements: the basis "
                        f"orbits passed {dim * max_order} points"
                    )
            image.append(point_index[q])
    gen_perms = [tuple(image) for image in images]
    identity = tuple(range(len(pts)))
    perms = [identity]
    index = {identity[:dim]: 0}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in gen_perms:
                key = tuple(m[g[j]] for j in range(dim))
                if key not in index:
                    index[key] = len(perms)
                    prod = tuple(m[k] for k in g)
                    perms.append(prod)
                    new_frontier.append(prod)
                    if len(perms) > max_order:
                        raise OrderCapExceeded(f"closure exceeded {max_order} elements")
        frontier = new_frontier
    cayley = [
        [index[tuple(a[b[j]] for j in range(dim))] for b in perms] for a in perms
    ]
    inverse = [row.index(0) for row in cayley]
    elements = [tuple(zip(*(pts[p[j]] for j in range(dim)))) for p in perms]
    gen_index = dict.fromkeys(index[g[:dim]] for g in gen_perms)
    gen_index.pop(0, None)
    return groups.FiniteGroupRep(dim, elements, cayley, inverse, gen_index, name=name)


def join_by_generators(cayley, inside: set, gens: tuple) -> set:
    """<H, g> as a set, for a subgroup H (``inside``) generated by all but
    the last of ``gens`` and g the last: H's members closed under right
    multiplication by every generator, one element at a time.

    The oracle for ``groups._join``, which closes the join by right cosets
    of H.  A finite group's inverses are positive powers, so the products
    of generators are the whole join.
    """
    g = gens[-1]
    closed = set(inside)
    frontier = []
    for h in inside:
        k = cayley[h][g]
        if k not in closed:
            closed.add(k)
            frontier.append(k)
    while frontier:
        nxt = []
        for m in frontier:
            row = cayley[m]
            for s in gens:
                k = row[s]
                if k not in closed:
                    closed.add(k)
                    nxt.append(k)
        frontier = nxt
    return closed


def subgroups_by_cyclic_extension(rep, cap=100000) -> list:
    """Every subgroup's members, by plain cyclic extension (Neubüser, 1960).

    The oracle for ``groups.all_subgroups``, which extends one subgroup
    per conjugacy class by one cyclic subgroup per orbit of its normalizer
    and closes each join by cosets: here every subgroup found is extended
    by every cyclic subgroup outside it, and each join is closed one
    element at a time (``join_by_generators``), so no conjugation is used.
    Sorted by (order, members); raises SubgroupCapExceeded past ``cap``
    closures.
    """
    cyclic: dict = {}
    for g in range(1, rep.order):
        cyclic.setdefault(groups._cyclic_subgroup(rep, g), g)
    found = {(0,): ()}
    queue = [(0,)]
    work = 0
    for members in queue:
        gens = found[members]
        inside = set(members)
        for g in cyclic.values():
            if g in inside:
                continue
            work += 1
            if work > cap:
                raise SubgroupCapExceeded(f"exceeded {cap} closure computations")
            ext_gens = gens + (g,)
            key = tuple(sorted(join_by_generators(rep.cayley, inside, ext_gens)))
            if key not in found:
                found[key] = ext_gens
                queue.append(key)
    return sorted(found, key=lambda m: (len(m), m))


def fixed_subspace_of_all_members(rep, sub) -> list:
    """Fix(H) from the stacked (T_h - I) rows of every member of H.

    The oracle for ``groups.fixed_subspace``, which stacks the rows of a
    generating set only: the canonical null space of all |H| blocks, each
    vector scaled to coprime integer entries with the first nonzero entry
    positive.
    """
    rows = [row for h in sub.members for row in ra.mat_sub_identity(rep.elements[h])]
    out = []
    for v in ra.nullspace(rows, rep.dim):
        scale = math.lcm(*(q.denominator for q in v))
        ints = [int(q * scale) for q in v]
        ints = [c // math.gcd(*ints) for c in ints]
        if next(c for c in ints if c) < 0:
            ints = [-c for c in ints]
        out.append(tuple(Fraction(c) for c in ints))
    return out


def rref_by_row_reducer(rows_in, ncols=None):
    """Reduced row echelon form through ``rationals.RowReducer``.

    The oracle for ``rationals.rref``, which eliminates fraction-free in
    integers: here every row goes through the Fraction eliminator, and its
    pivot rows are normalized and back-eliminated in Fraction.  Int entries
    become Fractions first, so that no step of the oracle runs in ints.
    Returns (dense rows, pivot columns).
    """
    rows_in = list(rows_in)
    if ncols is None:
        ncols = len(rows_in[0]) if rows_in else 0
    reducer = ra.RowReducer()
    for row in rows_in:
        reducer.add({c: Fraction(x) for c, x in ra.sparse(row).items()})
    pivots = sorted(reducer.pivot_rows)
    red: dict[int, dict] = {}
    for col in reversed(pivots):
        row = reducer.pivot_rows[col]
        inv = ra.ONE / row[col]
        row = {v: x * inv for v, x in row.items()}
        for later, lrow in red.items():
            c = row.get(later)
            if c:
                for v, x in lrow.items():
                    row[v] = row.get(v, ra.ZERO) - c * x
        red[col] = row
    return [[red[p].get(j, ra.ZERO) for j in range(ncols)] for p in pivots], pivots


def mat_det(a) -> Fraction:
    """Determinant by Fraction Gaussian elimination, tracking row swaps.

    The oracle for singularity: the library decides it by the rank of a
    ``rationals.RowReducer`` and forms no determinant.
    """
    n = len(a)
    rows = [list(r) for r in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            for c in range(col, n):
                rows[r][c] -= factor * rows[col][c]
    return det


def char_poly_by_minors(rep) -> tuple:
    """The distinct det(I - t T_g) with the number of elements that have
    each, in order of first appearance.

    The oracle for ``invariants._char_polys``, which forms them from power
    sums by Newton's identities: here the coefficient of t^k is (-1)^k
    times the sum of the k x k principal minors of T_g, each an exact
    determinant.
    """
    counts: dict = {}
    n = rep.dim
    for t in rep.elements:
        coeffs = [Fraction(1)]
        for k in range(1, n + 1):
            minors = sum(
                mat_det(tuple(tuple(t[i][j] for j in subset) for i in subset))
                for subset in itertools.combinations(range(n), k)
            )
            coeffs.append((-1) ** k * minors)
        q = tuple(coeffs)
        counts[q] = counts.get(q, 0) + 1
    return tuple(counts.items())


def metric_by_fraction_sum(rep):
    """(1/|G|) sum_g T_g^T T_g, summed entry by entry in Fractions.

    The oracle for ``groups.invariant_metric``, which sums integer-scaled
    Gram matrices instead.
    """
    n = rep.dim
    return tuple(
        tuple(
            sum((t[i][a] * t[i][b] for t in rep.elements for i in range(n)), Fraction(0))
            / rep.order
            for b in range(n)
        )
        for a in range(n)
    )


class FractionTableBasis(invariants.IntegrityBasis):
    """An integrity basis whose J-monomial images are read from one
    power-product table over the monic Fraction generators, for
    ``find_relations`` and ``express_homogeneous`` to run on.

    The oracle for ``IntegrityBasis.jmonomial_images``, which reads the
    products N^e of the integer multiples N_i = L_i J_i and divides each
    entry by prod_i L_i^{e_i}.
    """

    def __post_init__(self):
        super().__post_init__()
        self.fraction_image = polynomials.power_products(list(self.polys))

    def jmonomial_images(self, xdegree: int):
        if xdegree not in self._images:
            jmonos = invariants.jmonomials_of_xdegree(self.degrees, xdegree)
            rows: dict = {}
            for col, expo in enumerate(jmonos):
                for m, c in self.fraction_image(expo).terms.items():
                    rows.setdefault(m, {})[col] = c
            ordered = {m: rows[m] for m in sorted(rows, key=mono_key, reverse=True)}
            self._images[xdegree] = (jmonos, ordered)
        return self._images[xdegree]


def p_matrix_by_fractions(rep, oracle: FractionTableBasis) -> tuple:
    """The P-matrix entries from the Fraction gradients of the monic
    generators, each product scaled by its eta^-1 weight, re-expressed over
    the ``oracle``'s table.

    The oracle for ``invariants.p_matrix``, which multiplies the integer
    gradients of the N_i and divides each sum once.
    """
    eta_inv = groups.invariant_metric(rep).eta_inv
    grads = [p.gradient() for p in oracle.polys]
    n, k = rep.dim, oracle.k
    entries = [[None] * k for _ in range(k)]
    for i in range(k):
        for h in range(i, k):
            acc = Polynomial.zero(n)
            for a in range(n):
                for b in range(n):
                    if eta_inv[a][b]:
                        acc = acc + (grads[i][a] * grads[h][b]).scale(eta_inv[a][b])
            degree = oracle.degrees[i] + oracle.degrees[h] - 2
            entries[i][h] = entries[h][i] = Polynomial(
                k, invariants.express_homogeneous(oracle, acc, degree), J_KIND
            )
    return tuple(tuple(row) for row in entries)


def rational_conjugators(n):
    """n x n matrices with small rational entries; a property that uses
    them skips the singular ones."""
    entry = st.fractions(-2, 2, max_denominator=3)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(ra.mat)


def poly_pow(p: Polynomial, e: int) -> Polynomial:
    """p**e by repeated squaring, from Polynomial's own product."""
    if e < 0:
        raise ValueError("negative power")
    result = Polynomial.constant(p.nvars, 1, p.kind)
    base = p
    while e:
        if e & 1:
            result = result * base
        base = base * base if e > 1 else base
        e >>= 1
    return result


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
