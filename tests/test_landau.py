"""Model building, minimization, classification and sweeps."""

import dataclasses
import gc
import inspect
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from orbitscope import dynamics, landau, reduction, strata
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
from orbitscope.polynomials import J_KIND, Polynomial, act, compile_polynomial
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
        "GradedPotential.from_psi(critical)",
        "PhasePoint.error",
        "build_generic(critical)",
        "build_generic(degree_x)",
        "integrate(energy_tol)",
        "make_model(critical)",
        "make_model(degree_x)",
        "minimize(gtol)",
        "minimize(seed)",
        "removable_terms(min_generator_degree)",
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


def test_minimize_disordered_phase(z2_line):
    model = build_generic(compute_mib(z2_line))
    points = minimize(model, {"a1": 1, "a2": 1})
    assert len(points) == 1
    origin = points[0]
    assert origin.location == (0.0,)
    assert origin.hessian_inertia == (0, 0, 1)
    assert origin.is_minimum and not origin.is_marginal
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
        fam.symmetry.label for fam in principal_critical_orbits(d4).rays
    }
    for c in (F(1, 2), F(-1, 2)):
        best = minimize(model, {"a": -1, "c": c})[0]
        assert best.symmetry.label in family_labels


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
