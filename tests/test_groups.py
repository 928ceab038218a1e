"""Group layer: closure, tables, subgroups, fixed spaces, exact metric."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    B3_CONJ_GENS,
    B3_GENS,
    D4_SHEARED_GENS,
    FLIP_Y,
    O_ROT_GENS,
    ROT90,
    S3_PERM_GENS,
    S4_PERM_GENS,
    class_and_normalizer_by_every_element,
    close_generators_by_fractions,
    conjugate,
    fixed_subspace_of_all_members,
    mat_det,
    orbit,
    rational_conjugators,
    subgroups_by_cyclic_extension,
)
from orbitscope import groups, rationals as ra
from orbitscope.cli import load_group_spec
from orbitscope.errors import (
    DimensionMismatch,
    NonInvertibleGenerator,
    NotASubgroup,
    OrderCapExceeded,
    SpecParseError,
    SubgroupCapExceeded,
)
from orbitscope.strata import symmetry_types

def brute_force_subgroups(rep):
    """Oracle: scan all index subsets containing the identity (small groups)."""
    n = rep.order
    found = []
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(1, n), r - 1):
            members = (0,) + subset
            mset = set(members)
            ok = all(
                rep.cayley[i][j] in mset for i in members for j in members
            ) and all(rep.inverse[i] in mset for i in members)
            if ok:
                found.append(tuple(sorted(members)))
    return sorted(found, key=lambda m: (len(m), m))


def sorted_subgroups(rep, **kwargs):
    """The classes of ``groups.all_subgroups`` flattened, each subgroup's
    members, sorted by (order, members) as the oracles list them."""
    classes = groups.all_subgroups(rep, **kwargs)
    return sorted((s.members for c in classes for s in c), key=lambda m: (len(m), m))


def matmul_closure(gens):
    """Oracle: the element list of a breadth first closure by exact
    matrix products m*g, in order of discovery."""
    elements = [ra.mat_identity(len(gens[0]))]
    seen = set(elements)
    frontier = list(elements)
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in gens:
                prod = ra.mat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    new_frontier.append(prod)
        frontier = new_frontier
    return elements


def rand_rational_point(rng, n):
    return tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)
    )


def test_closure_orders(z2_line, z2_plane, z2xz2, z4, d4, s3_perm, s4_perm):
    assert z2_line.order == 2
    assert z2_plane.order == 2
    assert z2xz2.order == 4
    assert z4.order == 4
    assert d4.order == 8
    assert s3_perm.order == 6
    assert s4_perm.order == 24


def test_identity_first(d4):
    assert d4.elements[0] == ra.mat_identity(2)


def test_cayley_matches_matrix_product(d4):
    for i in range(d4.order):
        for j in range(d4.order):
            prod = ra.mat_mul(d4.elements[i], d4.elements[j])
            assert d4.elements[d4.cayley[i][j]] == prod


def test_cayley_associative(d4):
    c = d4.cayley
    n = d4.order
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert c[c[i][j]][k] == c[i][c[j][k]]


def test_inverse_table(s4_perm):
    for i in range(s4_perm.order):
        assert s4_perm.cayley[i][s4_perm.inverse[i]] == 0
        assert s4_perm.cayley[s4_perm.inverse[i]][i] == 0


def test_generators_are_distinct_and_not_the_identity():
    rep = groups.close_generators([ROT90, ROT90, ra.mat_identity(2)])
    assert rep.order == 4
    assert len(rep.generators) == 1
    assert rep.elements[rep.generators[0]] == ROT90
    assert groups.close_generators([ra.mat_identity(2)]).generators == ()


def test_non_invertible_generator():
    # a zero row, and rows that cancel only under elimination
    for g in ([[1, 0], [0, 0]], [[1, 2, 0], [0, 1, 1], [1, 3, 1]]):
        with pytest.raises(NonInvertibleGenerator, match="generator matrix is singular"):
            groups.close_generators([g])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        groups.close_generators([[[1, 0], [0, 1]], [[1]]])


@pytest.mark.parametrize("gens", [D4_SHEARED_GENS, S4_PERM_GENS, B3_CONJ_GENS],
                         ids=["d4-sheared", "s4-perm", "b3-conj"])
def test_closure_against_matmul_oracle(gens):
    rep = groups.close_generators(gens)
    # the element order fixes every T<k> label downstream
    assert rep.elements == matmul_closure(gens)
    index = {t: i for i, t in enumerate(rep.elements)}
    identity = ra.mat_identity(rep.dim)
    for i in range(rep.order):
        for j in range(rep.order):
            assert rep.cayley[i][j] == index[ra.mat_mul(rep.elements[i], rep.elements[j])]
        assert ra.mat_mul(rep.elements[i], rep.elements[rep.inverse[i]]) == identity


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(ROT90, FLIP_Y), S4_PERM_GENS, O_ROT_GENS, B3_GENS]).flatmap(
    lambda gens: st.tuples(st.just(gens), rational_conjugators(len(gens[0])))
))
def test_closure_matches_fraction_oracle(case):
    # integer points and a Cayley table built by rows give the Fraction
    # closure's group exactly, down to the entry types
    gens, s = case
    assume(mat_det(s) != 0)
    conj = conjugate(gens, s)
    rep = groups.close_generators(conj)
    oracle = close_generators_by_fractions(conj)
    assert rep.elements == oracle.elements
    assert all(type(q) is Fraction for t in rep.elements for row in t for q in row)
    assert rep.cayley == oracle.cayley
    assert rep.inverse == oracle.inverse
    assert rep.generators == oracle.generators


def test_order_cap():
    # the shear moves (0, 1) along the infinite orbit (k, 1), which the
    # point-set guard stops at dim * max_order points
    shear = [[1, 1], [0, 1]]
    with pytest.raises(OrderCapExceeded, match="passed 128 points"):
        groups.close_generators([shear], max_order=64)


def test_order_cap_boundary():
    assert groups.close_generators(B3_GENS, max_order=48).order == 48
    with pytest.raises(OrderCapExceeded, match="exceeded 47 elements$"):
        groups.close_generators(B3_GENS, max_order=47)


def test_subgroup_cap(b3):
    with pytest.raises(SubgroupCapExceeded):
        groups.all_subgroups(b3, cap=10)


# joins all_subgroups makes on s5-std; plain cyclic extension makes 9561,
# and extending each class representative by every cyclic subgroup 1079
S5_CLOSURES = 205
# the same on b4, where extending by every cyclic subgroup makes 39036
B4_CLOSURES = 7720


def test_subgroup_cap_boundary(s5_std):
    assert S5_CLOSURES <= 9561 // 5
    assert len(sorted_subgroups(s5_std, cap=S5_CLOSURES)) == 156
    with pytest.raises(SubgroupCapExceeded, match=f"exceeded {S5_CLOSURES - 1} closure"):
        groups.all_subgroups(s5_std, cap=S5_CLOSURES - 1)


def test_subgroup_cap_boundary_b4(b4):
    # one cyclic subgroup per normalizer orbit: a lost pruning fails here
    assert len(sorted_subgroups(b4, cap=B4_CLOSURES)) == 1659
    with pytest.raises(SubgroupCapExceeded, match=f"exceeded {B4_CLOSURES - 1} closure"):
        groups.all_subgroups(b4, cap=B4_CLOSURES - 1)


@pytest.mark.parametrize("name", ["s4_perm", "b3", "b3_conj", "o_rot_conj", "s5_std", "b4_rot"])
def test_subgroups_match_cyclic_extension(request, name):
    # one class representative extended by one cyclic subgroup per orbit of
    # its normalizer, joins closed by cosets and its conjugates taken at
    # once, gives the same lattice as extending every subgroup
    rep = request.getfixturevalue(name)
    assert sorted_subgroups(rep) == subgroups_by_cyclic_extension(rep)


def test_subgroup_counts_against_oracle(d4, d4_sheared, s3_perm, z2_plane, z2xz2, z4):
    for rep, expected in ((d4, 10), (d4_sheared, 10), (s3_perm, 6),
                          (z2_plane, 2), (z2xz2, 5), (z4, 3)):
        enumerated = sorted_subgroups(rep)
        assert enumerated == brute_force_subgroups(rep)
        assert len(enumerated) == expected


@pytest.mark.parametrize("name, subgroups, classes", [
    ("s4_perm", 30, 11), ("b3", 98, 33), ("s5_std", 156, 19), ("b4", 1659, 193),
    ("f4", 5191, 246),
])
def test_subgroup_census(request, name, subgroups, classes):
    # the classes of the lattice, which every later test of the same
    # fixture reads from its memo, so the search runs once
    rep = request.getfixturevalue(name)
    found = [t.conjugates for t in symmetry_types(rep)]
    subs = [s for c in found for s in c]
    assert len(subs) == subgroups and len(found) == classes
    # the classes are disjoint, closed under conjugation, and listed by
    # (order, first members), each sorted by members
    assert len({s.members for s in subs}) == subgroups
    for c in found:
        assert list(c) == sorted(c, key=lambda s: s.members)
        if rep.order <= 384:
            # each class is all conjugates of its first member
            assert {groups.conjugate_subgroup(rep, c[0], x) for x in range(rep.order)} == set(c)
        else:
            # closure under a generating set implies closure under G
            assert {groups.conjugate_subgroup(rep, s, x) for s in c for x in rep.generators} <= set(c)
    assert found == sorted(found, key=lambda c: (c[0].order, c[0].members))
    for sub in subs:
        groups.check_subgroup(rep, sub)


@pytest.mark.parametrize("name", [
    "z2_line", "z2xz2", "d4", "d4_sheared", "s3_perm", "s4_perm", "b3", "s5_std", "b4",
])
def test_classes_and_normalizers_match_every_element(request, name):
    # the orbit under the generators and the normalizer closed from its
    # Schreier generators, against conjugation by all |G| elements; any
    # generating set of the subgroup will do, so its non-identity members
    rep = request.getfixturevalue(name)
    for c in groups.all_subgroups(rep):
        members, normalizer = class_and_normalizer_by_every_element(rep, c[0])
        assert [s.members for s in c] == members
        if c[0].order > 1:
            got = groups._class_and_normalizer(rep, c[0].members, c[0].members[1:])
            assert got == (members, normalizer)


def test_lagrange(d4, s3_perm, s4_perm):
    for rep in (d4, s3_perm, s4_perm):
        for c in groups.all_subgroups(rep):
            assert all(rep.order % sub.order == 0 for sub in c)


def test_orbit_square_vertices(d4):
    orb = orbit(d4, (1, 0))
    assert len(orb) == 4
    assert ra.vec((0, 1)) in orb and ra.vec((-1, 0)) in orb
    generic = orbit(d4, (Fraction(1), Fraction(1, 3)))
    assert len(generic) == 8


def test_orbit_stabilizer(d4, s3_perm):
    rng = random.Random(100)
    for rep in (d4, s3_perm):
        for _ in range(100):
            x = rand_rational_point(rng, rep.dim)
            orb = orbit(rep, x)
            iso = groups.isotropy_subgroup(rep, x)
            assert len(orb) * iso.order == rep.order


def test_isotropy_is_subgroup(d4):
    iso = groups.isotropy_subgroup(d4, (1, 0))
    groups.check_subgroup(d4, iso)
    assert iso.order == 2


def test_isotropy_conjugation(d4, s3_perm):
    rng = random.Random(101)
    for rep in (d4, s3_perm):
        for _ in range(30):
            x = rand_rational_point(rng, rep.dim)
            g = rng.randrange(rep.order)
            gx = ra.mat_vec(rep.elements[g], x)
            lhs = groups.isotropy_subgroup(rep, gx)
            rhs = groups.conjugate_subgroup(
                rep, groups.isotropy_subgroup(rep, x), g
            )
            assert lhs == rhs


def test_conjugate_mirror(d4):
    # conjugating the y-flip mirror by the quarter turn gives the x-flip
    mirror_y = groups.isotropy_subgroup(d4, (1, 0))
    rot = next(
        i
        for i in range(d4.order)
        if d4.elements[i] == ra.mat([[0, -1], [1, 0]])
    )
    conj = groups.conjugate_subgroup(d4, mirror_y, rot)
    expected = groups.isotropy_subgroup(d4, (0, 1))
    assert conj == expected


def test_check_subgroup_rejects(d4):
    rot = next(
        i
        for i in range(1, d4.order)
        if d4.elements[i] == ra.mat([[0, -1], [1, 0]])
    )
    with pytest.raises(NotASubgroup):
        groups.check_subgroup(d4, groups.Subgroup((0, rot)))
    # {I, R} generates the rotation subgroup, so fixed_subspace's
    # generating-set rows alone would answer Fix(<R>) without the check
    with pytest.raises(NotASubgroup):
        groups.fixed_subspace(d4, groups.Subgroup((0, rot)))


def test_fixed_subspace(d4):
    subs = {s.members: s for c in groups.all_subgroups(d4) for s in c}
    mirror = groups.isotropy_subgroup(d4, (1, 0))
    basis = groups.fixed_subspace(d4, mirror)
    assert basis == [(Fraction(1), Fraction(0))]
    full = subs[tuple(range(8))]
    assert groups.fixed_subspace(d4, full) == []
    trivial = subs[(0,)]
    assert groups.fixed_subspace(d4, trivial) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]


def test_fixed_subspace_diagonal_mirror(d4):
    mirror = groups.isotropy_subgroup(d4, (1, 1))
    assert mirror.order == 2
    assert groups.fixed_subspace(d4, mirror) == [(Fraction(1), Fraction(1))]


@pytest.mark.parametrize("name", ["d4_sheared", "o_rot_conj", "b3_conj"])
def test_fixed_subspace_matches_all_members(request, name):
    # the rows of a generating set span the rows of all |H| members, so
    # the canonical basis is the same, vector for vector
    rep = request.getfixturevalue(name)
    for c in groups.all_subgroups(rep):
        for sub in c:
            assert groups.fixed_subspace(rep, sub) == fixed_subspace_of_all_members(rep, sub)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(ROT90, FLIP_Y), S3_PERM_GENS]).flatmap(
    lambda gens: st.tuples(st.just(gens), rational_conjugators(len(gens[0])))
))
def test_fixed_subspace_on_rational_conjugates(case):
    gens, s = case
    assume(mat_det(s) != 0)
    rep = groups.close_generators(conjugate(gens, s))
    subs = sorted_subgroups(rep)
    assert subs == subgroups_by_cyclic_extension(rep)
    for members in subs:
        sub = groups.Subgroup(members)
        assert groups.fixed_subspace(rep, sub) == fixed_subspace_of_all_members(rep, sub)


def test_invariant_metric_orthogonal(d4):
    metric = groups.invariant_metric(d4)
    assert metric.eta == ra.mat_identity(2)


def test_invariant_metric_sheared(d4_sheared):
    metric = groups.invariant_metric(d4_sheared)
    assert metric.eta != ra.mat_identity(2)
    for t in d4_sheared.elements:
        assert ra.mat_mul(ra.mat_mul(tuple(zip(*t)), metric.eta), t) == metric.eta
    assert ra.mat_mul(metric.eta, metric.eta_inv) == ra.mat_identity(2)


def test_group_file_round_trip(tmp_path, d4):
    path = tmp_path / "d4.json"
    spec = {
        "generators": [
            [["0", "-1"], ["1", "0"]],
            [["1", "0"], ["0", "-1"]],
        ],
        "name": "d4-file",
    }
    path.write_text(json.dumps(spec))
    rep, digest = load_group_spec(str(path))
    assert rep.order == 8
    assert rep.name == "d4-file"
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert set(rep.elements) == set(d4.elements)


def test_group_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecParseError):
        load_group_spec(str(bad))
    empty = tmp_path / "no_generators.json"
    empty.write_text(json.dumps({"generators": []}))
    with pytest.raises(SpecParseError):
        load_group_spec(str(empty))
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"generators": [[["1", "0"], ["0"]]]}))
    with pytest.raises(SpecParseError):
        load_group_spec(str(ragged))
    with pytest.raises(SpecParseError):
        load_group_spec(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("field", [
    {"max_order": "abc"}, {"max_order": 0}, {"max_order": True}, {"max_order": 2.5},
    {"name": 7},
], ids=["order-text", "order-zero", "order-bool", "order-float", "name-number"])
def test_group_file_bad_fields(tmp_path, field):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"generators": [[["-1"]]], **field}))
    with pytest.raises(SpecParseError):
        load_group_spec(str(path))
