"""Checks of parsed CLI reports against known answers and numpy oracles.

Each check takes the job (its command, spec name and flags) and the
report text, parses the facts it needs, and returns a list of failure
messages (empty when the report is right).  Checks read facts, not
bytes, so a report that gains a field or a line still passes.

The oracles here share no code with orbitscope: Molien coefficients come
from eigenvalues of the float group elements, and Landau potentials are
written out by hand in numpy for the groups whose basis is classical
(z2-line: J1 = x^2; d4: J1 = x^2 + y^2, J2 = x^2 y^2).
"""

from __future__ import annotations

import json

import numpy as np


def _float_group(generators) -> list[np.ndarray]:
    """Close float generator matrices (entries like "1/2") into the group."""
    from fractions import Fraction

    gens = [np.array([[float(Fraction(str(e))) for e in row] for row in g]) for g in generators]
    key = lambda m: tuple(np.round(m, 9).ravel())  # noqa: E731
    elements = {key(np.eye(len(gens[0]))): np.eye(len(gens[0]))}
    frontier = list(elements.values())
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = m @ g
                if key(p) not in elements:
                    elements[key(p)] = p
                    nxt.append(p)
        frontier = nxt
    return list(elements.values())


def molien_oracle(generators, cap: int) -> list[int]:
    """c_0..c_cap of (1/|G|) sum_g 1/det(I - t g), from eigenvalues."""
    group = _float_group(generators)
    total = np.zeros(cap + 1, dtype=complex)
    for g in group:
        series = np.zeros(cap + 1, dtype=complex)
        series[0] = 1.0
        for lam in np.linalg.eigvals(g):
            geo = lam ** np.arange(cap + 1)
            series = np.convolve(series, geo)[: cap + 1]
        total += series
    return [int(round(c.real)) for c in total / len(group)]


# Hand-written potentials at the CLI's default parameters (a1 = -1/2,
# a_k = 1/(k+1)), ell = twice the top degree.  Parameter order follows the
# J-monomials by x-degree: d4 has J1 | J1^2, J2 | J1^3, J1 J2 | J1^4,
# J1^2 J2, J2^2.
def _phi_z2_line(x):
    j1 = x[..., 0] ** 2
    return -j1 / 2 + j1**2 / 3


def _phi_d4(x):
    j1 = x[..., 0] ** 2 + x[..., 1] ** 2
    j2 = x[..., 0] ** 2 * x[..., 1] ** 2
    a = [-1 / 2] + [1 / (k + 1) for k in range(2, 9)]
    monos = [j1, j1**2, j2, j1**3, j1 * j2, j1**4, j1**2 * j2, j2**2]
    return sum(c * m for c, m in zip(a, monos))


ORACLE_POTENTIALS = {"z2-line": _phi_z2_line, "d4": _phi_d4}


def _grad(phi, x, h=1e-6):
    e = np.eye(len(x))
    return np.array([(phi(x + h * e[i]) - phi(x - h * e[i])) / (2 * h) for i in range(len(x))])


def _hessian_eigs(phi, x, h=1e-4):
    n = len(x)
    e = np.eye(n)
    hess = np.array([
        [(phi(x + h * (e[i] + e[j])) - phi(x + h * (e[i] - e[j]))
          - phi(x - h * (e[i] - e[j])) + phi(x - h * (e[i] + e[j]))) / (4 * h * h)
         for j in range(n)]
        for i in range(n)
    ])
    return np.linalg.eigvalsh(hess)


def _grid_min(phi, dim: int, radius: float = 2.0, points: int = 201) -> float:
    axis = np.linspace(-radius, radius, points)
    mesh = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1)
    return float(np.min(phi(mesh)))


def _check_minimizer(phi, x, reported_value, what: str) -> list[str]:
    """x is a local minimizer of phi, phi(x) matches the report, and no
    grid point of the ball of radius 2 lies lower."""
    fails = []
    x = np.asarray(x, dtype=float)
    g = float(np.linalg.norm(_grad(phi, x)))
    if g > 1e-6:
        fails.append(f"{what}: oracle gradient {g:.3g} at {x.tolist()}")
    if np.min(_hessian_eigs(phi, x)) <= 1e-6:
        fails.append(f"{what}: oracle Hessian not positive definite at {x.tolist()}")
    if abs(float(phi(x)) - reported_value) > 1e-9 * (1 + abs(reported_value)):
        fails.append(f"{what}: oracle value {float(phi(x))!r} != reported {reported_value!r}")
    if _grid_min(phi, len(x)) < reported_value - 1e-9:
        fails.append(f"{what}: oracle grid finds a lower value than {reported_value!r}")
    return fails


# ------------------------------------------------------------- per command


def check_group(job, report, spec) -> list[str]:
    k = job["known"]
    got = (report["order"], report["cayley_closed"], report["subgroup_count"],
           report["symmetry_type_count"])
    want = (k["order"], True, k["subgroups"], k["classes"])
    return [] if got == want else [f"group (order, closed, subgroups, classes) {got} != {want}"]


def check_invariants(job, report, spec) -> list[str]:
    k = job["known"]
    fails = []
    if report["degrees"] != k["degrees"]:
        fails.append(f"degrees {report['degrees']} != {k['degrees']}")
    if len(report["relations"]) != k["relations"] or report["coregular"] != (k["relations"] == 0):
        fails.append(f"{len(report['relations'])} relations, expected {k['relations']}")
    size = len(report["degrees"])
    if len(report["p_matrix"]) != size or any(len(r) != size for r in report["p_matrix"]):
        fails.append("P-matrix is not k x k")
    want = molien_oracle(spec["generators"], len(report["molien"]) - 1)
    if report["molien"] != want:
        fails.append(f"molien {report['molien']} != oracle {want}")
    return fails


def check_strata(job, report, spec) -> list[str]:
    k = job["known"]
    fails = []
    if len(report["types"]) != k["classes"]:
        fails.append(f"{len(report['types'])} symmetry types, expected {k['classes']}")
    trivial = report["types"][0]
    if report["principal"] != trivial["label"] or trivial["order"] != 1 or not trivial["realized"]:
        fails.append(f"principal stratum {report['principal']} is not the trivial type")
    if "rays" in k and len(report["critical_rays"]) != k["rays"]:
        fails.append(f"{len(report['critical_rays'])} ray families, expected {k['rays']}")
    return fails


def check_landau(job, report, spec) -> list[str]:
    if "sweep" in job:
        return _check_sweep(job, report)
    points = report["critical_points"]
    if not points:
        return ["no critical points"]
    fails = []
    order = job["known"]["order"]
    values = [float(p["value"]) for p in points]
    if values != sorted(values):
        fails.append("critical points not sorted by value")
    for p in points:
        if float(p["gradient_norm"]) > 1e-8:
            fails.append(f"gradient norm {p['gradient_norm']} at {p['location']}")
        if order % p["orbit_size"]:
            fails.append(f"orbit size {p['orbit_size']} does not divide {order}")
    best = points[0]
    if best["hessian_inertia"][0] != 0 or values[0] >= 0:
        fails.append(f"first point {best['location']} is not a minimum below 0")
    phi = ORACLE_POTENTIALS.get(job["spec"])
    if phi is not None:
        fails += _check_minimizer(phi, [float(c) for c in best["location"]], values[0], "landau")
    return fails


def _check_sweep(job, report) -> list[str]:
    fails = [f"sweep point {p['value']}: {p['error']}" for p in report["points"] if p["error"]]
    trans = report["transitions"]
    want = job["known"]["transition"]
    if len(trans) != 1 or abs(float(trans[0]["at"]) - want) > 1e-5:
        fails.append(f"transitions {[t['at'] for t in trans]}, expected one within 1e-5 of {want}")
    elif trans[0]["before"] == trans[0]["after"]:
        fails.append("transition does not change the symmetry type")
    return fails


def check_reduce(job, report, spec) -> list[str]:
    ver = report["verification"]
    slope = float(ver["min_slope"])
    if slope < ver["required"]:
        return [f"residual slope {slope} < {ver['required']}"]
    if not report["survivors"]:
        return ["reduction kept no terms"]
    return []


def check_flow(job, text) -> list[str]:
    """The CSV's last state is a minimizer of the hand-written potential."""
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    header, body = rows[0], rows[1:]
    fails = []
    if len(body) - 1 != job["steps"]:
        fails.append(f"{len(body) - 1} steps in CSV, expected {job['steps']}")
    last = dict(zip(header, body[-1]))
    dim = sum(1 for h in header if h.startswith("x"))
    x = np.array([float(last[f"x{i + 1}"]) for i in range(dim)])
    phi = ORACLE_POTENTIALS[job["spec"]]
    fails += _check_minimizer(phi, x, float(last["phi"]), "flow final state")
    return fails


CHECKS = {
    "group": check_group, "invariants": check_invariants, "strata": check_strata,
    "landau": check_landau, "reduce": check_reduce,
}


def check(job, rc: int, out: str, spec: dict) -> list[str]:
    """Failure messages for one finished job (empty when it is right)."""
    if rc != 0:
        return [f"exit status {rc}"]
    try:
        if job["cmd"] == "flow":
            return check_flow(job, out)
        return CHECKS[job["cmd"]](job, json.loads(out)["report"], spec)
    except (LookupError, ValueError, TypeError) as exc:
        return [f"report lacks an expected fact: {exc!r}"]
