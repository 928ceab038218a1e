"""Group layer: closure, tables, subgroups, fixed spaces, exact metric."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from orbitscope import groups, rationals as ra
from orbitscope.cli import load_group_spec
from orbitscope.errors import (
    DimensionMismatch,
    NonInvertibleGenerator,
    NotASubgroup,
    OrderCapExceeded,
    SpecParseError,
)


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
    assert d4.matrix(0) == ra.mat_identity(2)


def test_cayley_matches_matrix_product(d4):
    for i in range(d4.order):
        for j in range(d4.order):
            prod = ra.mat_mul(d4.matrix(i), d4.matrix(j))
            assert d4.matrix(d4.cayley[i][j]) == prod


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


def test_non_invertible_generator():
    with pytest.raises(NonInvertibleGenerator):
        groups.close_generators([[[1, 0], [0, 0]]])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        groups.close_generators([[[1, 0], [0, 1]], [[1]]])


def test_order_cap():
    shear = [[1, 1], [0, 1]]
    with pytest.raises(OrderCapExceeded):
        groups.close_generators([shear], max_order=64)


def test_subgroup_counts_against_oracle(d4, s3_perm, z2_plane, z2xz2):
    for rep, expected in ((d4, 10), (s3_perm, 6), (z2_plane, 2), (z2xz2, 5)):
        enumerated = [s.members for s in groups.all_subgroups(rep)]
        assert enumerated == brute_force_subgroups(rep)
        assert len(enumerated) == expected


def test_lagrange(d4, s3_perm, s4_perm):
    for rep in (d4, s3_perm, s4_perm):
        for sub in groups.all_subgroups(rep):
            assert rep.order % sub.order == 0


def test_orbit_square_vertices(d4):
    orb = groups.orbit(d4, (1, 0))
    assert len(orb) == 4
    assert ra.vec((0, 1)) in orb and ra.vec((-1, 0)) in orb
    generic = groups.orbit(d4, (Fraction(1), Fraction(1, 3)))
    assert len(generic) == 8


def test_orbit_stabilizer(d4, s3_perm):
    rng = random.Random(100)
    for rep in (d4, s3_perm):
        for _ in range(100):
            x = rand_rational_point(rng, rep.dim)
            orb = groups.orbit(rep, x)
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
            gx = ra.mat_vec(rep.matrix(g), x)
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
        if d4.matrix(i) == ra.mat([[0, -1], [1, 0]])
    )
    conj = groups.conjugate_subgroup(d4, mirror_y, rot)
    expected = groups.isotropy_subgroup(d4, (0, 1))
    assert conj == expected


def test_check_subgroup_rejects(d4):
    rot = next(
        i
        for i in range(1, d4.order)
        if d4.matrix(i) == ra.mat([[0, -1], [1, 0]])
    )
    with pytest.raises(NotASubgroup):
        groups.check_subgroup(d4, groups.Subgroup((0, rot)))


def test_fixed_subspace(d4):
    subs = {s.members: s for s in groups.all_subgroups(d4)}
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


def test_invariant_metric_orthogonal(d4):
    metric = groups.invariant_metric(d4)
    assert metric.eta == ra.mat_identity(2)


def test_invariant_metric_sheared(d4_sheared):
    metric = groups.invariant_metric(d4_sheared)
    assert metric.eta != ra.mat_identity(2)
    for e in d4_sheared.elements:
        t = e.matrix
        assert ra.mat_mul(ra.mat_mul(ra.mat_transpose(t), metric.eta), t) == metric.eta
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
    assert {e.matrix for e in rep.elements} == {e.matrix for e in d4.elements}


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
