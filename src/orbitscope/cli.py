"""Command-line front end.

Subcommands map one-to-one onto the analysis stages: ``group`` (closure
and subgroup census), ``invariants`` (integrity basis, graded dimensions,
relations, gradient-product matrix), ``strata`` (isotropy lattice and
guaranteed critical rays), ``landau`` (critical points or a parameter
sweep), ``reduce`` (normal-form reduction with numeric verification),
``flow`` (gradient-flow trajectory).

Group input is a small JSON file::

    {"name": "d4",
     "generators": [[["0", "-1"], ["1", "0"]],
                    [["1", "0"], ["0", "-1"]]]}

Matrix entries are integers or strings accepted by Fraction ("1/2").
An optional "max_order" (an integer >= 1) bounds the closure (default
10000); an optional "name" (a string) labels the reports.

Every report embeds the tool version, the sha256 of the spec file, the
seed, tolerances and caps, so a rerun with the same configuration is
byte-identical.  Set ORBITSCOPE_CACHE_DIR to cache the integrity basis
keyed by spec hash, caps and version; a cache hit changes timing, never
output.  An entry that cannot be read, whose polynomials are not invariant
or do not match its degree list, or that is not the canonical basis
(``invariants.is_canonical``), is recomputed and rewritten.

Exit status: 0 on success, 1 with a one-line JSON error record on
stderr otherwise (code "module.ExceptionName").
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dynamics import dump_trajectory_csv, gradient_field, integrate
from .errors import OrbitscopeError, SpecParseError, UnknownParameter
from .groups import FiniteGroupRep, all_subgroups, close_generators
from .invariants import (
    IntegrityBasis,
    compute_mib,
    find_relations,
    is_canonical,
    is_invariant,
    molien_series,
    p_matrix,
)
from .landau import MinimizeOptions, SweepOptions, build_generic, minimize, sweep
from .polynomials import J_KIND, X_KIND, Polynomial, mono_text
from .reduction import GradedPotential, reduce as reduce_potential, verify_reduction
from .strata import (
    isotropy_lattice,
    principal_critical_orbits,
    principal_stratum,
    symmetry_types,
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    spec: str
    spec_sha256: str
    degree_cap: int | None
    relation_cap: int | None
    ell: int | None
    params: dict
    sweep: tuple | None     # (name, lo, hi, steps) exact
    seed: int
    tol: float | None
    out: str | None
    fmt: str

    def echo(self) -> dict:
        return {
            "version": __version__,
            "command": self.command,
            "spec": self.spec,
            "spec_sha256": self.spec_sha256,
            "degree_cap": self.degree_cap,
            "relation_cap": self.relation_cap,
            "ell": self.ell,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "sweep": None
            if self.sweep is None
            else {
                "parameter": self.sweep[0],
                "lo": str(self.sweep[1]),
                "hi": str(self.sweep[2]),
                "steps": self.sweep[3],
            },
            "seed": self.seed,
            "tol": self.tol,
        }

    def header_lines(self) -> list[str]:
        caps = (
            f"degree-cap={self.degree_cap if self.degree_cap is not None else 'default'} "
            f"relation-cap={self.relation_cap if self.relation_cap is not None else 'default'} "
            f"ell={self.ell if self.ell is not None else 'default'}"
        )
        return [
            f"# orbitscope {__version__} command={self.command}",
            f"# spec={self.spec} sha256={self.spec_sha256}",
            f"# seed={self.seed} tol={self.tol if self.tol is not None else 'default'} {caps}",
        ]


# ---------------------------------------------------------------- spec input


def _entry_fraction(e) -> Fraction:
    if isinstance(e, bool) or isinstance(e, float):
        raise SpecParseError(
            f"matrix entry {e!r} must be an integer or an exact string like '1/2'"
        )
    try:
        return Fraction(e)
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad matrix entry {e!r}: {exc}") from None


def load_group_spec(path: str) -> tuple[FiniteGroupRep, str]:
    """Parse a spec file; returns the closed group and the file's sha256."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise SpecParseError(f"cannot read spec file {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"spec file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "generators" not in doc:
        raise SpecParseError(f"spec file {path} must be an object with 'generators'")
    gens = []
    for g in doc["generators"]:
        rows = tuple(tuple(_entry_fraction(e) for e in row) for row in g)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise SpecParseError(f"generator in {path} is not a square matrix")
        gens.append(rows)
    if not gens:
        raise SpecParseError(f"spec file {path} lists no generators")
    if len({len(g) for g in gens}) != 1:
        raise SpecParseError(f"generators in {path} act on different dimensions")
    name = doc.get("name") or Path(path).stem
    if not isinstance(name, str):
        raise SpecParseError(f"'name' in {path} must be a string, got {name!r}")
    max_order = doc.get("max_order", 10000)
    if type(max_order) is not int or max_order < 1:
        raise SpecParseError(
            f"'max_order' in {path} must be an integer >= 1, got {max_order!r}"
        )
    rep = close_generators(gens, max_order=max_order, name=name)
    return rep, digest


# --------------------------------------------------------------- basis cache


def _poly_to_doc(p: Polynomial) -> dict:
    return {
        "nvars": p.nvars,
        "kind": p.kind,
        "terms": [[list(m), str(c)] for m, c in p.sorted_terms()],
    }


def _poly_from_doc(doc: dict) -> Polynomial:
    terms = {tuple(m): Fraction(c) for m, c in doc["terms"]}
    return Polynomial(doc["nvars"], terms, doc["kind"])


def _cached_basis(path: Path, rep: FiniteGroupRep) -> IntegrityBasis | None:
    """The basis stored at ``path``; None when the entry is missing,
    unreadable, or fails validation: its degree list must match its
    polynomials, each polynomial must be invariant under the group, and
    together they must be the canonical basis that compute_mib returns."""
    try:
        doc = json.loads(path.read_text())
        polys = tuple(_poly_from_doc(d) for d in doc["polys"])
        degrees = tuple(doc["degrees"])
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return None
    valid = len(degrees) == len(polys) and all(
        type(d) is int
        and p.kind == X_KIND
        and p.nvars == rep.dim
        and set(p.homogeneous_parts()) == {d}
        and is_invariant(rep, p)
        for d, p in zip(degrees, polys)
    ) and is_canonical(rep, polys, degrees)
    return IntegrityBasis(rep=rep, polys=polys, degrees=degrees) if valid else None


def _basis_for(cfg: RunConfig, rep: FiniteGroupRep) -> IntegrityBasis:
    cache_dir = os.environ.get("ORBITSCOPE_CACHE_DIR")
    if not cache_dir:
        return compute_mib(rep, cfg.degree_cap)
    key = (
        f"{cfg.spec_sha256}-mib-"
        f"{cfg.degree_cap if cfg.degree_cap is not None else 'default'}-{__version__}.json"
    )
    path = Path(cache_dir) / key
    basis = _cached_basis(path, rep)
    if basis is not None:
        return basis
    basis = compute_mib(rep, cfg.degree_cap)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(
        json.dumps(
            {"degrees": list(basis.degrees), "polys": [_poly_to_doc(p) for p in basis.polys]},
            sort_keys=True,
        )
    )
    os.replace(tmp, path)
    return basis


# ------------------------------------------------------------- text helpers


def _fnum(v) -> str:
    return repr(float(v))


def _model_assignment(model, cfg: RunConfig, skip=()) -> dict:
    names = sorted(model.parameters(), key=lambda s: int(s[1:]))
    for given in cfg.params:
        if given not in names:
            raise UnknownParameter(
                f"--param {given} does not name a model parameter; "
                f"model has {', '.join(names)}"
            )
    out = {}
    for k, name in enumerate(names, start=1):
        if name in skip:
            continue
        if name in cfg.params:
            out[name] = cfg.params[name]
        elif k == 1:
            out[name] = Fraction(-1, 2)
        else:
            out[name] = Fraction(1, k + 1)
    return out


def _generic_model(cfg: RunConfig, basis: IntegrityBasis):
    ell = cfg.ell if cfg.ell is not None else 2 * max(basis.degrees)
    return build_generic(basis, degree_x=ell)


# ---------------------------------------------------------------- commands

# what a command returns: the JSON report, the text lines, the CSV rows
Report = tuple[dict, list[str], list[list[str]]]


def cmd_group(cfg: RunConfig, rep: FiniteGroupRep) -> Report:
    # close_generators builds the Cayley table by looking every product up
    # in its element index, so a closed rep has a closed table
    closed = True
    subs = all_subgroups(rep)
    types = symmetry_types(rep, seed=cfg.seed)
    report = {
        "name": rep.name,
        "order": rep.order,
        "dim": rep.dim,
        "cayley_closed": closed,
        "subgroup_count": len(subs),
        "symmetry_type_count": len(types),
    }
    text = [
        f"group {rep.name}: order {rep.order}, acting on R^{rep.dim}",
        "cayley table closed: yes",
        f"subgroups: {len(subs)} in {len(types)} conjugacy classes",
    ]
    rows = [["name", "order", "dim", "cayley_closed", "subgroups", "classes"],
            [rep.name, str(rep.order), str(rep.dim), str(closed).lower(),
             str(len(subs)), str(len(types))]]
    return report, text, rows


def cmd_invariants(cfg: RunConfig, rep: FiniteGroupRep) -> Report:
    basis = _basis_for(cfg, rep)
    mol_cap = cfg.degree_cap if cfg.degree_cap is not None else 8
    mol = molien_series(rep, mol_cap)
    relations = find_relations(basis, cfg.relation_cap)
    pm = p_matrix(rep, basis)
    report = {
        "degrees": list(basis.degrees),
        "generators": [p.pretty() for p in basis.polys],
        "molien": list(mol.coefficients),
        "relations": [r.pretty() for r in relations],
        "coregular": not relations,
        "p_matrix": [[e.pretty() for e in row] for row in pm.entries],
    }
    k = len(basis.polys)
    text = [f"integrity basis ({k} generators, degrees {list(basis.degrees)}):"]
    text += [f"  J{i + 1} = {p.pretty()}" for i, p in enumerate(basis.polys)]
    text.append(f"molien coefficients c_0..c_{mol_cap}: {list(mol.coefficients)}")
    if relations:
        text.append(f"relations ({len(relations)}):")
        text += [f"  {r.pretty()} = 0" for r in relations]
    else:
        text.append("relations: none (coregular)")
    text.append("gradient-product matrix P:")
    text += [
        "  [" + ", ".join(e.pretty() for e in row) + "]" for row in pm.entries
    ]
    rows = [["generator", "degree", "polynomial"]]
    rows += [
        [f"J{i + 1}", str(d), p.pretty()]
        for i, (d, p) in enumerate(zip(basis.degrees, basis.polys))
    ]
    return report, text, rows


def cmd_strata(cfg: RunConfig, rep: FiniteGroupRep) -> Report:
    types = symmetry_types(rep, seed=cfg.seed)
    lattice = isotropy_lattice(rep, types)
    principal = principal_stratum(rep, lattice)
    pco = principal_critical_orbits(rep, types)
    report = {
        "types": [
            {
                "label": t.label,
                "order": t.representative.order,
                "class_size": len(t.conjugates),
                "fix_dim": t.fix_dim,
                "realized": t.realized,
            }
            for t in types
        ],
        "hasse_edges": [[types[i].label, types[j].label] for i, j in lattice.hasse_edges()],
        "principal": principal.label,
        "critical_rays": [
            {
                "symmetry": r.symmetry.label,
                "direction": [str(c) for c in r.direction],
                "unit": [_fnum(c) for c in r.unit],
            }
            for r in pco.rays
        ],
    }
    text = [f"symmetry types for {rep.name} (principal: {principal.label}):"]
    for t in types:
        text.append(
            f"  {t.label}: subgroup order {t.representative.order}, "
            f"class size {len(t.conjugates)}, fix dim {t.fix_dim}, "
            f"{'realized' if t.realized else 'not realized'}"
        )
    text.append(f"guaranteed critical rays: {len(pco.rays)}")
    for r in pco.rays:
        text.append(
            f"  {r.symmetry.label}: direction ({', '.join(str(c) for c in r.direction)})"
        )
    rows = [["label", "order", "class_size", "fix_dim", "realized"]]
    rows += [
        [t.label, str(t.representative.order), str(len(t.conjugates)),
         str(t.fix_dim), str(t.realized).lower()]
        for t in types
    ]
    return report, text, rows


def cmd_landau(cfg: RunConfig, rep: FiniteGroupRep) -> Report:
    basis = _basis_for(cfg, rep)
    model = _generic_model(cfg, basis)
    n = rep.dim

    if cfg.sweep is not None:
        name, lo, hi, steps = cfg.sweep
        if name not in model.parameters():
            raise UnknownParameter(
                f"--sweep parameter {name} not in model "
                f"({', '.join(sorted(model.parameters(), key=lambda s: int(s[1:])))})"
            )
        grid = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
        assignment = _model_assignment(model, cfg, skip=(name,))
        options = SweepOptions(
            assignment=assignment,
            minimize=MinimizeOptions(seed=cfg.seed),
            transition_tol=cfg.tol if cfg.tol is not None else 1e-6,
        )
        diagram = sweep(model, name, grid, options)
        report = {
            "parameter": name,
            "assignment": {k: str(v) for k, v in sorted(assignment.items())},
            "points": [
                {
                    "value": str(p.parameter_value),
                    "symmetry": None if p.symmetry is None else p.symmetry.label,
                    "min_value": None if p.min_value is None else _fnum(p.min_value),
                    "minimizer": None
                    if p.minimizer is None
                    else [_fnum(c) for c in p.minimizer],
                    "error": p.error,
                }
                for p in diagram.points
            ],
            "transitions": [
                {
                    "at": _fnum(t.parameter_value),
                    "width": _fnum(t.width),
                    "before": t.before.label,
                    "after": t.after.label,
                }
                for t in diagram.transitions
            ],
        }
        text = [f"sweep of {name} over [{lo}, {hi}] in {steps} steps:"]
        for p in diagram.points:
            if p.error is not None:
                text.append(f"  {name}={_fnum(p.parameter_value)}: ERROR {p.error}")
            else:
                text.append(
                    f"  {name}={_fnum(p.parameter_value)}: {p.symmetry.label} "
                    f"min={_fnum(p.min_value)} at "
                    f"({', '.join(_fnum(c) for c in p.minimizer)})"
                )
        for t in diagram.transitions:
            text.append(
                f"transition {t.before.label} -> {t.after.label} at {name}={_fnum(t.parameter_value)}"
                f" (width {_fnum(t.width)})"
            )
        rows = [[name, "symmetry", "min_value"] + [f"x{i + 1}" for i in range(n)] + ["error"]]
        for p in diagram.points:
            if p.error is not None:
                rows.append([_fnum(p.parameter_value), "", ""] + [""] * n + [p.error])
            else:
                rows.append(
                    [_fnum(p.parameter_value), p.symmetry.label, _fnum(p.min_value)]
                    + [_fnum(c) for c in p.minimizer]
                    + [""]
                )
        return report, text, rows

    assignment = _model_assignment(model, cfg)
    options = MinimizeOptions(
        seed=cfg.seed, gtol=cfg.tol if cfg.tol is not None else 1e-10
    )
    points = minimize(model, assignment, options)
    report = {
        "assignment": {k: str(v) for k, v in sorted(assignment.items())},
        "critical_points": [
            {
                "location": [_fnum(c) for c in p.location],
                "value": _fnum(p.value),
                "gradient_norm": _fnum(p.gradient_norm),
                "hessian_inertia": list(p.hessian_inertia),
                "symmetry": p.symmetry.label,
                "orbit_size": p.orbit_size,
            }
            for p in points
        ],
    }
    text = [
        "model parameters: "
        + ", ".join(f"{k}={v}" for k, v in sorted(assignment.items())),
        f"critical points found: {len(points)}",
    ]
    for p in points:
        text.append(
            f"  value {_fnum(p.value)} at ({', '.join(_fnum(c) for c in p.location)})"
            f" symmetry {p.symmetry.label} orbit {p.orbit_size}"
            f" inertia {p.hessian_inertia}"
        )
    rows = [["value", "symmetry", "orbit_size", "inertia_neg", "inertia_zero",
             "inertia_pos"] + [f"x{i + 1}" for i in range(n)]]
    for p in points:
        rows.append(
            [_fnum(p.value), p.symmetry.label, str(p.orbit_size)]
            + [str(c) for c in p.hessian_inertia]
            + [_fnum(c) for c in p.location]
        )
    return report, text, rows


def cmd_reduce(cfg: RunConfig, rep: FiniteGroupRep) -> Report:
    basis = _basis_for(cfg, rep)
    model = _generic_model(cfg, basis)
    pm = p_matrix(rep, basis)
    psi = GradedPotential.from_model(model)
    truncation = cfg.ell if cfg.ell is not None else 2 * max(basis.degrees)
    result = reduce_potential(psi, truncation, pm)

    lam = {
        k: float(v) for k, v in _model_assignment(model, cfg).items()
    }
    stats = verify_reduction(psi, result, [lam], seed=cfg.seed)

    def _slope(v: float) -> str:
        return "inf" if v == float("inf") else f"{v:.6g}"

    report = {
        "truncation": truncation,
        "critical": sorted(psi.critical),
        "generators": [
            {"degree": g.degree, "h": g.h_poly.to_text(bracketed=True)}
            for g in result.generators
        ],
        "removed": [
            {"degree": d, "monomial": list(m)} for d, m in result.removed_terms
        ],
        "survivors": [
            {"degree": d, "monomial": list(m), "coefficient": str(c)}
            for d, m, c in result.survivors()
        ],
        "verification": {
            "lambdas": [{k: _fnum(v) for k, v in sorted(lam.items())}],
            "min_slope": _slope(stats.min_slope),
            "required": result.residual_degree + 1,
        },
    }
    text = result.describe().splitlines()
    text.append(
        f"verification: min residual slope {_slope(stats.min_slope)} "
        f"(required > {result.residual_degree})"
    )
    rows = [["degree", "monomial", "status"]]
    for d, m in result.removed_terms:
        rows.append([str(d), mono_text(m, J_KIND, pretty=True), "removed"])
    for d, m, _c in result.survivors():
        rows.append([str(d), mono_text(m, J_KIND, pretty=True), "kept"])
    return report, text, rows


def cmd_flow(cfg: RunConfig, rep: FiniteGroupRep, x0, t_end: float, dt: float) -> Report:
    basis = _basis_for(cfg, rep)
    model = _generic_model(cfg, basis)
    if len(x0) != rep.dim:
        raise SpecParseError(
            f"--x0 has {len(x0)} components, the action needs {rep.dim}"
        )
    assignment = _model_assignment(model, cfg)
    field = gradient_field(model, assignment)
    traj = integrate(
        field, x0, t_end, dt,
        energy_tol=cfg.tol if cfg.tol is not None else 1e-9,
    )
    buf = io.StringIO()
    dump_trajectory_csv(buf, field, traj)
    csv_text = buf.getvalue()
    lines = csv_text.strip().splitlines()
    report = {
        "assignment": {k: str(v) for k, v in sorted(assignment.items())},
        "t_end": t_end,
        "dt": dt,
        "steps": len(traj.times) - 1,
        "columns": lines[0].split(","),
        "rows": [line.split(",") for line in lines[1:]],
        "final_state": [_fnum(c) for c in traj.final_state],
    }
    text = [
        f"integrated {len(traj.times) - 1} steps of dt={dt} "
        f"(final state: {', '.join(_fnum(c) for c in traj.final_state)})",
        csv_text.rstrip("\n"),
    ]
    rows = [line.split(",") for line in lines]
    return report, text, rows


# ------------------------------------------------------------------ plumbing


def _render(cfg: RunConfig, report: dict, text: list[str], rows: list[list[str]]) -> str:
    if cfg.fmt == "json":
        doc = {"config": cfg.echo(), "report": report}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.fmt == "csv":
        out = [*cfg.header_lines()]
        out += [",".join(r) for r in rows]
        return "\n".join(out) + "\n"
    out = [*cfg.header_lines(), *text]
    return "\n".join(out) + "\n"


def _deliver(cfg: RunConfig, rendered: str) -> None:
    if cfg.out:
        ext = {"text": "txt", "json": "json", "csv": "csv"}[cfg.fmt]
        path = Path(cfg.out) / f"{cfg.command}.{ext}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        print(f"wrote {path}")
    else:
        sys.stdout.write(rendered)


def _parse_param(text: str) -> tuple[str, Fraction]:
    if "=" not in text:
        raise SpecParseError(f"--param needs NAME=VALUE, got {text!r}")
    name, _, val = text.partition("=")
    try:
        return name.strip(), Fraction(val.strip())
    except ValueError:
        raise SpecParseError(f"--param {name}: {val!r} is not an exact number") from None


def _parse_sweep(text: str) -> tuple[str, Fraction, Fraction, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise SpecParseError(f"--sweep needs NAME:LO:HI:STEPS, got {text!r}")
    name, lo, hi, steps = parts
    try:
        lo_f, hi_f, n = Fraction(lo), Fraction(hi), int(steps)
    except ValueError:
        raise SpecParseError(f"--sweep {text!r}: bounds must be exact, steps integer") from None
    if n < 2:
        raise SpecParseError("--sweep needs at least 2 steps")
    return name.strip(), lo_f, hi_f, n


def _parse_flow(x0: str, t_end: str, dt: str) -> tuple[list[float], float, float]:
    try:
        point = [float(c) for c in x0.split(",")]
    except ValueError:
        raise SpecParseError(f"--x0 {x0!r} is not a comma-separated list of numbers") from None
    try:
        t_end_f, dt_f = float(t_end), float(dt)
    except ValueError:
        raise SpecParseError(f"--t-end {t_end!r} and --dt {dt!r} must be numbers") from None
    if not (math.isfinite(dt_f) and dt_f > 0):
        raise SpecParseError(f"--dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(t_end_f) and t_end_f >= 0):
        raise SpecParseError(f"--t-end must be non-negative and finite, got {t_end!r}")
    return point, t_end_f, dt_f


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitscope",
        description="Invariant-theoretic analysis of finite-group Landau potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("group", "closure check and subgroup census"),
        ("invariants", "integrity basis, graded dimensions, relations, P-matrix"),
        ("strata", "isotropy lattice and guaranteed critical rays"),
        ("landau", "critical points, or a phase sweep with --sweep"),
        ("reduce", "normal-form reduction of the generic model, with verification"),
        ("flow", "gradient-flow trajectory as CSV"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--spec", required=True, help="group spec JSON file")
        p.add_argument("--degree-cap", type=int, default=None)
        p.add_argument("--relation-cap", type=int, default=None)
        p.add_argument("--ell", type=int, default=None,
                       help="model degree (default: twice the top basis degree)")
        p.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="model coefficient; a1 defaults to -1/2, a_k to 1/(k+1)")
        p.add_argument("--sweep", default=None, metavar="NAME:LO:HI:STEPS")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None, help="write report into this directory")
        p.add_argument("--format", dest="fmt", choices=["text", "json", "csv"],
                       default="text")
        if name == "flow":
            p.add_argument("--x0", required=True,
                           help="comma-separated start point, e.g. 0.1,0.2")
            p.add_argument("--t-end", default="10.0")
            p.add_argument("--dt", default="0.01")
    return parser


_COMMANDS = {
    "group": cmd_group,
    "invariants": cmd_invariants,
    "strata": cmd_strata,
    "landau": cmd_landau,
    "reduce": cmd_reduce,
    "flow": cmd_flow,
}

_ERROR_LAYER = {
    "OrderCapExceeded": "groups", "NotASubgroup": "groups",
    "SubgroupCapExceeded": "groups", "DimensionMismatch": "groups",
    "KindMismatch": "polynomials",
    "CapTooLow": "invariants", "NotInvariant": "invariants",
    "NotExpressible": "invariants",
    "NoUniqueMinimum": "strata",
    "UnknownParameter": "landau", "AmbiguousClassification": "landau",
    "NoConvergence": "landau", "StabilityViolation": "landau",
    "SingularHomologicalSolve": "reduction", "VerificationFailed": "reduction",
    "NonFiniteState": "dynamics", "MonotonicityViolation": "dynamics",
    "SpecParseError": "cli",
}


def _structured_error(exc: Exception) -> None:
    name = type(exc).__name__
    layer = _ERROR_LAYER.get(name, type(exc).__module__.rsplit(".", 1)[-1])
    record = {
        "error": {
            "code": f"{layer}.{name}",
            "message": str(exc),
        }
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = dict(_parse_param(p) for p in args.param)
        sweep_spec = _parse_sweep(args.sweep) if args.sweep else None
        flow_args = (
            _parse_flow(args.x0, args.t_end, args.dt) if args.command == "flow" else ()
        )
        rep, spec_hash = load_group_spec(args.spec)
        cfg = RunConfig(
            command=args.command,
            spec=args.spec,
            spec_sha256=spec_hash,
            degree_cap=args.degree_cap,
            relation_cap=args.relation_cap,
            ell=args.ell,
            params=params,
            sweep=sweep_spec,
            seed=args.seed,
            tol=args.tol,
            out=args.out,
            fmt=args.fmt,
        )
        out = _COMMANDS[args.command](cfg, rep, *flow_args)
        _deliver(cfg, _render(cfg, *out))
        return 0
    except OrbitscopeError as exc:
        _structured_error(exc)
        return 1
    except (OSError, ValueError) as exc:
        _structured_error(exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
