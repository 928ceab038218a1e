"""The group ladder the benchmark feeds to the CLI, and its known answers.

Every group is an exact rational matrix group written as a CLI spec file
(``{"name": ..., "generators": [...]}``).  Seeded groups are rational
conjugates ``S^-1 g S`` of a ladder group, with ``S`` drawn from a bounded
family: entries in {-1, 0, 1, 2} and 1 <= |det S| <= 3.  Conjugation keeps
every answer below (degrees, relation count, subgroup census, ray count)
while replacing monomial matrices by dense rational ones.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

Mat = tuple[tuple[Fraction, ...], ...]


def _mat(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _perm(p) -> Mat:
    n = len(p)
    return _mat([[1 if p[i] == j else 0 for j in range(n)] for i in range(n)])


def _diag(*d) -> Mat:
    return _mat([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])


# S5 on the sum-zero hyperplane of R^5, basis v_i = e_i - e_5: the
# transposition (1 2) swaps v1, v2; the 5-cycle sends v_i -> v_{i+1} - v_1
# for i < 4 and v_4 -> -v_1 (columns are images).
_S5_CYCLE = _mat([[-1, -1, -1, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])

BASE_GENERATORS: dict[str, list[Mat]] = {
    "z2-line": [_mat([[-1]])],
    "z2xz2": [_diag(-1, 1), _diag(1, -1)],
    "d4": [_mat([[0, -1], [1, 0]]), _diag(1, -1)],
    "s3-perm": [_perm((1, 0, 2)), _perm((1, 2, 0))],
    "s4-perm": [_perm((1, 0, 2, 3)), _perm((1, 2, 3, 0))],
    # rotations of the cube: quarter turn about z, 3-fold about (1,1,1)
    "o-rot": [_mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), _perm((1, 2, 0))],
    # S4 as the symmetry group of the tetrahedron (A3 reflection group)
    "s4-std": [_perm((1, 0, 2)), _perm((1, 2, 0)), _diag(-1, -1, 1)],
    # hyperoctahedral group: all signed permutations of R^3 (order 48)
    "b3": [_perm((1, 0, 2)), _perm((1, 2, 0)), _diag(-1, 1, 1)],
    "s5-std": [_perm((1, 0, 2, 3)), _S5_CYCLE],
}

# Fixed conjugators: the test suite's for d4-sheared, and for s4-std one
# of middling cost from the seeded family (seeded conjugates of s4-std
# cost 0.9 to 1.9 s in invariants, enough to swamp a pass's spread).
SHEARED = {
    "d4": _mat([[1, 1], [0, 2]]),
    "s4-std": _mat([[1, 1, 2], [0, -1, -1], [1, 2, 1]]),
}


def _mul(a: Mat, b: Mat) -> Mat:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _det(a: Mat) -> Fraction:
    n = len(a)
    if n == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * _det(tuple(row[:j] + row[j + 1:] for row in a[1:]))
        for j in range(n)
    )


def _inverse(a: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(a)
    rows = [list(a[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def conjugate(gens: list[Mat], s: Mat) -> list[Mat]:
    s_inv = _inverse(s)
    return [_mul(_mul(s_inv, g), s) for g in gens]


def draw_conjugator(rng: random.Random, n: int) -> Mat:
    """A matrix with entries in {-1, 0, 1, 2} and 1 <= |det| <= 3."""
    while True:
        s = _mat([[rng.choice((-1, 0, 1, 2)) for _ in range(n)] for _ in range(n)])
        if 1 <= abs(_det(s)) <= 3:
            return s


def _entry(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def spec_doc(name: str, gens: list[Mat]) -> dict:
    return {"name": name, "generators": [[[_entry(q) for q in row] for row in g] for g in gens]}


def mat_text(s: Mat) -> str:
    return "[" + "; ".join(" ".join(str(q) for q in row) for row in s) + "]"


def ladder(seed: int, seeded: tuple[str, ...]) -> tuple[dict[str, dict], dict[str, str]]:
    """Spec documents for every base group, the fixed conjugates
    ``<name>-sheared``, and the seeded conjugates ``<name>-c``.

    Each name in ``seeded`` gets a conjugate ``<name>-c`` drawn from its
    own stream of ``seed``.  Returns the specs and the conjugator text of
    each seeded group, which the benchmark records in its output.
    """
    specs = {name: spec_doc(name, gens) for name, gens in BASE_GENERATORS.items()}
    for base, s in SHEARED.items():
        specs[f"{base}-sheared"] = spec_doc(f"{base}-sheared", conjugate(BASE_GENERATORS[base], s))
    conjugators = {}
    for base in seeded:
        gens = BASE_GENERATORS[base]
        s = draw_conjugator(random.Random(f"{seed}:{base}"), len(gens[0]))
        specs[f"{base}-c"] = spec_doc(f"{base}-c", conjugate(gens, s))
        conjugators[f"{base}-c"] = mat_text(s)
    return specs, conjugators


def write_specs(directory: Path, specs: dict[str, dict]) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in specs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        paths[name] = str(path)
    return paths


def base_of(name: str) -> str:
    """Known answers of a conjugate are those of its base group."""
    for suffix in ("-sheared", "-c"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


# Known answers, with their sources.
#   degrees: Chevalley-Shephard-Todd for the reflection groups (S3 on R^3:
#     1, 2, 3; S4 = A3 on R^3: 2, 3, 4; B3: 2, 4, 6); z2xz2: x^2, y^2;
#     D4: x^2 + y^2, x^2 y^2; o-rot (rotations of the cube, not a
#     reflection group): 2, 4, 6, 9 with one relation (the square of the
#     degree-9 invariant is a polynomial in the others).
#   order / subgroups / classes: S4 has 30 subgroups in 11 classes, B3 =
#     Z2 x S4 has 98 in 33, S5 has 156 in 19 (standard subgroup tables).
#   transition: with every other coefficient positive, the origin loses
#     stability exactly where a1 (the coefficient of x^2 + ...) changes sign.
#   rays: B3 has three guaranteed critical ray families (face centres,
#     edge midpoints, vertices of the cube).
KNOWN = {
    "z2-line": {"order": 2, "degrees": [2], "relations": 0, "transition": 0.0},
    "z2xz2": {"order": 4, "degrees": [2, 2], "relations": 0},
    "d4": {"order": 8, "degrees": [2, 4], "relations": 0, "transition": 0.0},
    "s3-perm": {"order": 6, "degrees": [1, 2, 3], "relations": 0},
    "o-rot": {"order": 24, "degrees": [2, 4, 6, 9], "relations": 1},
    "s4-std": {"order": 24, "degrees": [2, 3, 4], "relations": 0},
    "s4-perm": {"order": 24, "subgroups": 30, "classes": 11},
    "b3": {"order": 48, "degrees": [2, 4, 6], "relations": 0,
           "subgroups": 98, "classes": 33, "rays": 3},
    "s5-std": {"order": 120, "subgroups": 156, "classes": 19},
}
