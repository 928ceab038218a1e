"""Model building, minimization, classification and sweeps."""

import dataclasses
import gc
import inspect
import json
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    cli_default_assignment,
    compiled_sources,
    float_bits,
    reference_gradient_phase,
    reference_newton,
)

from orbitscope import cli, dynamics, landau, reduction, strata
from orbitscope.errors import (
    AmbiguousClassification,
    StabilityViolation,
    UnknownParameter,
)
from orbitscope.groups import close_generators
from orbitscope.invariants import compute_mib
from orbitscope.landau import (
    build_generic,
    classify_symmetry,
    make_model,
    minimize,
    sweep,
)
from orbitscope.params import Coefficient
from orbitscope.polynomials import (
    J_KIND,
    Polynomial,
    act,
    compile_polynomial,
)
from orbitscope.strata import principal_critical_orbits

F = Fraction


def quartic_d4_model(d4_basis):
    """a J1 + J1^2 + c J2 with J1 = x^2+y^2, J2 = x^2 y^2."""
    psi = Polynomial(
        2,
        {
            (1, 0): Coefficient.parameter("a"),
            (2, 0): Coefficient.number(1),
            (0, 1): Coefficient.parameter("c"),
        },
        J_KIND,
    )
    return make_model(d4_basis, psi, critical={"a"})


# ------------------------------------------------------------ settable values


def settable_values(module) -> list[str]:
    """Defaulted parameters of public functions and of the public methods
    of public classes, and defaulted fields of public dataclasses, defined
    in module: what a caller may set or omit."""

    def defaulted(label, fn):
        return [
            f"{label}({p.name})"
            for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty
        ]

    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if dataclasses.is_dataclass(obj):
            out += [
                f"{name}.{f.name}"
                for f in dataclasses.fields(obj)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING
            ]
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    out += defaulted(f"{name}.{attr}", fn)
        elif inspect.isfunction(obj):
            out += defaulted(name, obj)
    return out


def test_library_settable_values():
    # numerical settings with one value in use are module constants; what
    # is left is what callers, the CLI among them, actually vary
    modules = (landau, dynamics, strata, reduction)
    found = [v for m in modules for v in settable_values(m)]
    assert sorted(found) == [
        "PhasePoint.error",
        "build_generic(degree_x)",
        "integrate(energy_tol)",
        "make_model(critical)",
        "make_model(degree_x)",
        "minimize(gtol)",
        "minimize(seed)",
        "sweep(assignment)",
        "sweep(seed)",
        "sweep(transition_tol)",
    ]


# ------------------------------------------------------------- construction


def test_build_generic_z2_line(z2_line):
    model = build_generic(compute_mib(z2_line))
    assert model.degree_x == 4
    assert model.parameters() == {"a1", "a2"}
    assert model.critical == frozenset({"a1"})
    phi = model.potential({"a1": F(-1), "a2": F(3)})
    # a1 x^2 + a2 x^4 with the parameters pinned
    assert phi.terms == {(2,): F(-1), (4,): F(3)}


def test_build_generic_d4_parameter_order(d4):
    model = build_generic(compute_mib(d4))  # degrees (2, 4) -> degree_x 8
    assert model.degree_x == 8
    names = {}
    for mono, coeff in model.psi.terms.items():
        (name,) = coeff.parameters()
        names[mono] = name
    assert names == {
        (1, 0): "a1",
        (2, 0): "a2",
        (0, 1): "a3",
        (3, 0): "a4",
        (1, 1): "a5",
        (4, 0): "a6",
        (2, 1): "a7",
        (0, 2): "a8",
    }


def test_build_generic_z2_plane_count(z2_plane):
    model = build_generic(compute_mib(z2_plane), degree_x=4)
    # three basic invariants of degree 2: 3 linear + 6 quadratic monomials
    assert len(model.parameters()) == 9


def test_missing_parameter_raises(z2_line):
    model = build_generic(compute_mib(z2_line))
    with pytest.raises(UnknownParameter):
        model.potential({"a1": 1})
    # extra names are ignored
    phi = model.potential({"a1": 1, "a2": 1, "zz": 5})
    assert phi.terms == {(2,): F(1), (4,): F(1)}


def test_make_model_rejects_constant_part(z2_line):
    basis = compute_mib(z2_line)
    psi = Polynomial(1, {(0,): Coefficient.number(1), (1,): Coefficient.number(1)}, J_KIND)
    with pytest.raises(ValueError):
        make_model(basis, psi)


def test_potential_is_invariant(z2_plane):
    model = build_generic(compute_mib(z2_plane), degree_x=4)
    lam = {f"a{i}": F(i, 7) - F(1, 3) for i in range(1, 10)}
    phi = model.potential(lam)
    for t in z2_plane.elements:
        assert act(t, phi) == phi


# ----------------------------------------------------------- classification


def test_classify_d4_points(d4):
    axis = classify_symmetry(d4, (0.3, 0.0))
    diag = classify_symmetry(d4, (0.2, 0.2))
    generic = classify_symmetry(d4, (0.3, 0.1))
    origin = classify_symmetry(d4, (0.0, 0.0))
    assert axis.fix_dim == 1 and axis.order == 2
    assert diag.fix_dim == 1 and diag.order == 2
    assert axis.label != diag.label
    assert generic.order == 1
    assert origin.order == d4.order and origin.fix_dim == 0


def test_classify_ambiguous_tolerance(s3_perm):
    # two coordinate gaps of 1.2e-8 = one transposition each inside the
    # tolerance band, but their product (a 3-cycle) moves the point too far
    x = (1.0, 1.0 + 1.2e-8, 1.0 + 2.4e-8)
    with pytest.raises(AmbiguousClassification):
        classify_symmetry(s3_perm, x)


# -------------------------------------------------------------- minimization


def test_minimize_rejects_a_negative_seed(z2_line):
    # the quasi-random start index would never reach zero
    model = build_generic(compute_mib(z2_line))
    with pytest.raises(ValueError, match="seed"):
        minimize(model, {"a1": 1, "a2": 1}, seed=-1)


def test_minimize_disordered_phase(z2_line):
    model = build_generic(compute_mib(z2_line))
    points = minimize(model, {"a1": 1, "a2": 1})
    assert len(points) == 1
    origin = points[0]
    assert origin.location == (0.0,)
    assert origin.hessian_inertia == (0, 0, 1)
    assert origin.orbit_size == 1
    assert origin.symmetry.order == 2


def test_minimize_broken_phase(z2_line):
    model = build_generic(compute_mib(z2_line))
    points = minimize(model, {"a1": -1, "a2": 1})
    assert len(points) == 2
    best, saddle = points
    assert abs(abs(best.location[0]) - math.sqrt(0.5)) <= 1e-8
    assert abs(best.value + 0.25) <= 1e-10
    assert best.orbit_size == 2 and best.symmetry.order == 1
    assert best.hessian_inertia == (0, 0, 1)
    assert saddle.location == (0.0,)
    assert saddle.hessian_inertia == (1, 0, 0)


def test_minimize_d4_axis_phase(d4):
    model = quartic_d4_model(compute_mib(d4))
    best = minimize(model, {"a": -1, "c": F(1, 2)})[0]
    x, y = best.location
    assert min(abs(x), abs(y)) <= 1e-8          # on a coordinate axis
    assert abs(max(abs(x), abs(y)) - math.sqrt(0.5)) <= 1e-8
    assert abs(best.value + 0.25) <= 1e-10
    assert best.symmetry.fix_dim == 1 and best.orbit_size == 4


def test_minimize_d4_diagonal_phase(d4):
    model = quartic_d4_model(compute_mib(d4))
    best = minimize(model, {"a": -1, "c": F(-1, 2)})[0]
    x, y = best.location
    assert abs(abs(x) - abs(y)) <= 1e-8          # on a diagonal
    assert abs(best.value + F(2, 7)) <= 1e-10
    assert best.symmetry.fix_dim == 1 and best.orbit_size == 4
    axis_best = minimize(model, {"a": -1, "c": F(1, 2)})[0]
    assert best.symmetry.label != axis_best.symmetry.label


def test_minimize_escape_raises(z2_line):
    model = build_generic(compute_mib(z2_line))
    with pytest.raises(StabilityViolation):
        minimize(model, {"a1": 0, "a2": -1})


def test_symmetry_types_cache_does_not_keep_groups_alive():
    # the types classify_symmetry looks up are kept on the group itself,
    # so a group nobody holds is collected along with them
    rep = close_generators([((F(-1),),)], name="z2-scratch")
    assert classify_symmetry(rep, (0.5,)).order == 1
    assert "symmetry_types" in rep.memo
    ref = weakref.ref(rep)
    del rep
    gc.collect()
    assert ref() is None


def test_minimize_deterministic(d4):
    model = quartic_d4_model(compute_mib(d4))
    first = minimize(model, {"a": -1, "c": F(-1, 2)})
    second = minimize(model, {"a": -1, "c": F(-1, 2)})
    assert [p.location for p in first] == [p.location for p in second]
    assert [p.value for p in first] == [p.value for p in second]


def test_critical_point_values_orbit_invariant(d4):
    model = quartic_d4_model(compute_mib(d4))
    lam = {"a": -1, "c": F(-1, 2)}
    f = compile_polynomial(model.potential(lam))
    mats = [
        np.array([[float(c) for c in row] for row in t])
        for t in d4.elements
    ]
    for p in minimize(model, lam):
        x = np.array(p.location)
        for m in mats:
            assert abs(f(m @ x) - p.value) <= 1e-9


def test_minima_sit_on_principal_critical_rays(d4):
    model = quartic_d4_model(compute_mib(d4))
    family_labels = {
        fam.symmetry.label for fam in principal_critical_orbits(d4)
    }
    for c in (F(1, 2), F(-1, 2)):
        best = minimize(model, {"a": -1, "c": c})[0]
        assert best.symmetry.label in family_labels


def _descent_setup(request, group, a1):
    """phi at the CLI defaults (a1 pinned when given), the descent kernel
    and the float kernels of phi, its gradient and its flat Hessian, and
    the starts minimize uses, with minimize's tolerances."""
    rep = request.getfixturevalue(group)
    model = build_generic(compute_mib(rep))
    lam = cli_default_assignment(model)
    if a1 is not None:
        lam["a1"] = F(a1)
    phi = model.potential(lam)
    grads = phi.gradient()
    hess = [d.partial(j) for d in grads for j in range(phi.nvars)]
    kernels = compile_polynomial(phi), compile_polynomial(grads), compile_polynomial(hess)
    count = landau._STARTS_PER_GENERATOR * model.basis.k
    starts = landau._ball_starts(rep.dim, count, landau._RADIUS, 0)
    escape = landau._ESCAPE_FACTOR * landau._RADIUS
    return landau._descent(phi, grads, hess), kernels, starts, 1e-10, escape


@pytest.mark.parametrize("group, a1", [
    ("z2_line", None), ("z2xz2", None), ("d4", None), ("d4_sheared", None),
    ("o_rot", None), ("z2_line", 0), ("z2xz2", 0), ("d4", 0), ("d4_sheared", 0),
    ("o_rot", 0), ("s3_perm", None),
])
def test_gradient_phase_is_the_reference_loop(request, group, a1):
    # with no Newton steps, the descent kernel ends where its gradient
    # phase does, having taken the reference loop's float operations in
    # its order: same status, same bits, from every start minimize uses
    descend, (f, grad, hess), starts, gtol, escape = _descent_setup(request, group, a1)
    statuses, capped = [], 0
    for x0 in starts:
        want = reference_gradient_phase(
            x0, f, grad, hess, 100.0 * gtol, escape, landau._MAX_GRADIENT_STEPS)
        status, x, values = descend(
            *x0.tolist(), gtol, escape, range(landau._MAX_GRADIENT_STEPS), range(0))
        assert float_bits(x) == float_bits(want[1])
        assert (values is None) == (status != "ok")
        if want[0] is None:
            assert status == ("ok" if math.hypot(*grad(x)) <= gtol else "unconverged")
        else:
            assert status == ("escaped" if want[0] else "unconverged")
        statuses.append(want[0])
        capped += want[0] is None and math.hypot(*grad(want[1])) > 100.0 * gtol
    if group == "s3_perm":
        assert True in statuses  # the default model runs away
    elif a1 == 0:
        assert not capped  # Newton steps cross the flat quartic
    else:
        assert statuses == [None] * len(starts)


@pytest.mark.parametrize("group, a1", [
    ("z2_line", None), ("z2xz2", None), ("d4", None), ("d4_sheared", None),
    ("o_rot", None), ("b3", None), ("z2_line", 0), ("z2xz2", 0), ("d4", 0),
    ("d4_sheared", 0), ("o_rot", 0), ("b3", 0),
])
def test_newton_phase_is_the_reference_loop(request, group, a1):
    # the kernel's Newton phase against the numpy loop, from where the
    # gradient phase ends at every start minimize uses.  A 1x1 solve is
    # one division in both, and the z2xz2 iterates lie on the axes (the
    # other coordinate below 1e-240), where the off-diagonal Hessian terms
    # change no bit: there the two agree to the bit.  numpy's LAPACK fuses
    # multiply-adds, so elsewhere the last bits may differ
    descend, (f, grad, second), starts, gtol, escape = _descent_setup(request, group, a1)
    n = len(starts[0])

    def hess(x):
        return np.reshape(second(x), (n, n))

    exact = group in ("z2_line", "z2xz2")
    statuses = []
    for x0 in starts:
        escaped, x = reference_gradient_phase(
            x0, f, grad, second, 100.0 * gtol, escape, landau._MAX_GRADIENT_STEPS)
        assert escaped is None
        want = reference_newton(x, grad, hess, gtol, escape, landau._MAX_NEWTON_STEPS)
        got = descend(*x0.tolist(), gtol, escape, range(landau._MAX_GRADIENT_STEPS),
                      range(landau._MAX_NEWTON_STEPS))
        assert got[0] == want[0]
        if exact:
            assert float_bits(got[1]) == float_bits(want[1])
        else:
            scale = max(1.0, math.hypot(*want[1]))
            assert math.dist(got[1], want[1]) <= 1e-12 * scale
        statuses.append(want[0])
    assert "ok" in statuses


def test_newton_step_bound_keeps_a_descent_in_its_basin():
    # phi = x^2/2 - x^4 + x^6/6 has a local minimum at 0, maxima at +-0.52
    # and deeper minima at +-1.93.  From 0.27 or 0.28 the Hessian is
    # positive definite, and the Newton step, about 1.3 long, lands past
    # -0.52 and lower than the gradient step does; the bound
    # |d| <= 0.5 (1 + |x|) keeps the descent in the basin it starts in
    phi = Polynomial(1, {(2,): F(1, 2), (4,): F(-1), (6,): F(1, 6)})
    grads = phi.gradient()
    descend = landau._descent(phi, grads, [grads[0].partial(0)])
    for x0 in (0.27, 0.28):
        status, (x,), _ = descend(x0, 1e-10, 20.0, range(landau._MAX_GRADIENT_STEPS),
                                  range(landau._MAX_NEWTON_STEPS))
        assert status == "ok" and abs(x) < 1e-12


def _gradient_steps(monkeypatch, argv, capsys) -> list[int]:
    """Run the CLI and count, per descent, the items its gradient phase
    takes from ``steps``: one per step, and one more when it converges.
    A call with no steps, which only evaluates at the origin, is no
    descent."""
    counts = []
    compile_descent = landau._descent

    def counted_descent(*args):
        descend = compile_descent(*args)

        def run(*args):
            *head, steps, newton_steps = args
            if not steps:
                return descend(*args)
            taken = [0]

            def counted():
                for item in steps:
                    taken[0] += 1
                    yield item

            result = descend(*head, counted(), newton_steps)
            counts.append(taken[0])
            return result

        return run

    monkeypatch.setattr(landau, "_descent", counted_descent)
    assert cli.main(argv) == 0
    capsys.readouterr()
    return counts


def test_gradient_phase_stops_well_before_its_cap(monkeypatch, capsys):
    # Newton steps end the gradient phase early: with gradient steps alone,
    # 22 of the 32 d4-sheared starts at minimizer seed 5 took all 300
    # steps, and the z2-line sweep averaged 211 steps per descent, since
    # the quartic is flat near a1 = 0
    specs = Path(__file__).parent / "golden" / "specs"
    counts = _gradient_steps(
        monkeypatch, ["landau", "--spec", str(specs / "d4-sheared.json"), "--seed=5"], capsys)
    assert len(counts) == 32
    assert max(counts) < landau._MAX_GRADIENT_STEPS
    counts = _gradient_steps(
        monkeypatch, ["landau", "--spec", str(specs / "z2-line.json"), "--sweep=a1:-1:1:5"],
        capsys)
    assert len(counts) == 24 * 16
    assert sum(counts) / len(counts) < 20


@pytest.mark.parametrize("group", ["z2_line", "z2xz2", "d4", "d4_sheared", "o_rot", "b3"])
def test_reported_values_are_the_descents_own(request, group):
    # each critical point reports phi, the gradient norm and the Hessian
    # inertia from the values its descent returned, or from the no-step
    # evaluation at the origin: to the bit what one kernel of phi, its
    # gradient and its Hessian gives at the reported location
    rep = request.getfixturevalue(group)
    model = build_generic(compute_mib(rep))
    lam = cli_default_assignment(model)
    phi = model.potential(lam)
    n = rep.dim
    grads = phi.gradient()
    oracle = compile_polynomial([phi, *grads, *(g.partial(j) for g in grads for j in range(n))])
    origins = 0
    for seed in range(4):
        for p in minimize(model, lam, seed):
            value, *rest = oracle(p.location)
            eigs = np.linalg.eigvalsh(np.reshape(rest[n:], (n, n)))
            neg = int(np.sum(eigs < -landau._HESSIAN_ZERO_TOL))
            pos = int(np.sum(eigs > landau._HESSIAN_ZERO_TOL))
            assert p.value.hex() == value.hex()
            assert p.gradient_norm.hex() == float(np.linalg.norm(rest[:n])).hex()
            assert p.hessian_inertia == (neg, n - neg - pos, pos)
            origins += not any(p.location)
    assert origins == 4  # a1 < 0 makes the origin a critical point


def test_d4_sheared_default_report_keeps_its_orbits(capsys):
    # the descents at the CLI defaults end at the minima, not at the T3
    # saddle, onto which Newton steps lead one of them when they need not
    # land lower than the gradient step (see landau._descent)
    spec = Path(__file__).parent / "golden" / "specs" / "d4-sheared.json"
    assert cli.main(["landau", "--spec", str(spec), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert [
        (p["symmetry"], tuple(p["hessian_inertia"]), p["orbit_size"])
        for p in report["critical_points"]
    ] == [("T1", (0, 0, 2), 4), ("T7", (2, 0, 0), 1)]


# -------------------------------------------------------------------- sweeps


def test_sweep_pitchfork(z2_line):
    model = build_generic(compute_mib(z2_line))
    grid = [-1 + 0.1 * i for i in range(21)]
    diagram = sweep(model, "a1", grid, assignment={"a2": 1})
    assert diagram.parameter == "a1"
    assert len(diagram.points) == 21
    for p in diagram.points:
        assert p.error is None
        if p.parameter_value < -1e-9:
            assert p.symmetry.order == 1          # broken phase
            assert abs(p.min_value + p.parameter_value**2 / 4) <= 1e-8
        else:
            assert p.symmetry.order == 2          # symmetric phase
    assert len(diagram.transitions) == 1
    t = diagram.transitions[0]
    assert abs(t.parameter_value) <= 1e-6 and t.width <= 1e-6
    assert t.before.order == 1 and t.after.order == 2


def test_descending_sweep_refines_its_transition(z2_line):
    # the grid may run downwards: the bisection brackets on |hi - lo| and
    # the width is never negative
    model = build_generic(compute_mib(z2_line))
    diagram = sweep(model, "a1", [1.0, 0.5, 0.0, -0.5, -1.0], assignment={"a2": 1})
    (t,) = diagram.transitions
    assert abs(t.parameter_value) <= 1e-6 and 0.0 <= t.width <= 1e-6
    assert t.before.order == 2 and t.after.order == 1


def _run_bounded(args: list[str]) -> subprocess.CompletedProcess:
    """Run python with ``args`` on this package, killed after 60 s, so that
    a bisection that never ends fails the test instead of hanging it."""
    src = str(Path(landau.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("tol", ["0", "-1e-6", "nan", "inf"])
def test_sweep_rejects_a_transition_tolerance_not_finite_and_positive(tol):
    # at 0 the bisection could never end; at nan it would silently not run
    spec = Path(__file__).parent / "golden" / "specs" / "z2-line.json"
    run = _run_bounded(["-m", "orbitscope", "landau", "--spec", str(spec),
                        "--sweep=a1:-1:1:5", f"--tol={tol}"])
    assert run.returncode == 1
    assert json.loads(run.stderr)["error"]["code"] == "builtins.ValueError"


BISECT_TO_ADJACENT_FLOATS = """
from orbitscope.groups import close_generators
from orbitscope.invariants import compute_mib
from orbitscope.landau import build_generic, sweep
basis = compute_mib(close_generators([[[-1]]]))
model = build_generic(basis, degree_x=6)
diagram = sweep(model, "a1", [0.0, 0.5], {"a2": -1, "a3": 1}, transition_tol=1e-20)
(t,) = diagram.transitions
print(t.parameter_value.hex(), t.width.hex())
"""


def test_bisection_stops_at_adjacent_floats():
    # a1 J - J^2 + J^3 with J = x^2 jumps from its broken minimum at
    # J = 1/2 to the origin at a1 = 1/4, where floats lie 2^-54 apart, far
    # wider than the tolerance: the bisection ends once the midpoint is
    # an end of the bracket
    run = _run_bounded(["-c", BISECT_TO_ADJACENT_FLOATS])
    assert run.returncode == 0, run.stderr
    at, width = (float.fromhex(v) for v in run.stdout.split())
    assert abs(at - 0.25) <= 1e-9
    assert 0.0 < width <= 2.0 * math.ulp(0.25)


def test_sweep_compiles_each_kernel_once_per_support(
    monkeypatch, capsys, fresh_kernel_cache
):
    # the descent kernel binds its coefficients, so the 24 minimize calls of
    # this sweep (5 grid points, 19 bisection steps) compile it once for
    # a1 != 0, and once more at a1 = 0, where the quadratic term drops out
    # of the support
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1]["a1"])
        return minimize(*args, **kwargs)

    sources = compiled_sources(monkeypatch)
    monkeypatch.setattr(landau, "minimize", counted)
    spec = Path(__file__).parent / "golden" / "specs" / "z2-line.json"
    assert cli.main(["landau", "--spec", str(spec), "--sweep=a1:-1:1:5"]) == 0
    capsys.readouterr()
    assert len(calls) == 24 and calls.count(0) == 1
    assert len(sources) == len(set(sources)) == 2


def test_kernel_code_outlives_the_model(z2_line, monkeypatch):
    # compiled code is kept by source text, not by model: a second model
    # on the same basis and coefficient support compiles nothing
    basis = compute_mib(z2_line)
    first = build_generic(basis)
    lam = cli_default_assignment(first)
    minimize(first, lam)
    sources = compiled_sources(monkeypatch)
    minimize(build_generic(basis), lam)
    assert sources == []


def test_sweep_unknown_parameter(z2_line):
    model = build_generic(compute_mib(z2_line))
    with pytest.raises(UnknownParameter):
        sweep(model, "b7", [0.0, 1.0])


def test_sweep_records_per_point_errors(z2_line):
    model = build_generic(compute_mib(z2_line))
    diagram = sweep(model, "a2", [-0.5, 0.5], assignment={"a1": 1})
    bad, good = diagram.points
    assert bad.error is not None and "StabilityViolation" in bad.error
    assert bad.symmetry is None and bad.min_value is None
    assert good.error is None
    assert diagram.transitions == ()
