"""Command-line front end.

Subcommands map one-to-one onto the analysis stages: ``group`` (closure
and subgroup census), ``invariants`` (integrity basis, graded dimensions,
relations, gradient-product matrix), ``strata`` (isotropy lattice and
guaranteed critical rays), ``landau`` (critical points or a parameter
sweep), ``reduce`` (normal-form reduction with exact verification),
``flow`` (gradient-flow trajectory).

Group input is a small JSON file::

    {"name": "d4",
     "generators": [[["0", "-1"], ["1", "0"]],
                    [["1", "0"], ["0", "-1"]]]}

Matrix entries are integers or strings accepted by Fraction ("1/2").
An optional "max_order" (an integer >= 1) bounds the closure (default
10000); an optional "name" (a string; null or "" means the file's stem)
labels the reports.

Every report embeds the tool version, the sha256 of the spec file, the
seed, tolerances and caps, so a rerun with the same configuration is
byte-identical.

Exit status: 0 on success, 1 with a one-line JSON error record on
stderr otherwise (code "layer.ExceptionName": the ``layer`` an orbitscope
error declares, ``builtins`` for OSError and ValueError).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
from collections.abc import Iterable
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
    is_coregular,
    molien_series,
    p_matrix,
)
from .landau import build_generic, minimize, sweep
from .polynomials import J_KIND, mono_text
from .reduction import reduce as reduce_potential, verify_reduction
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
        e = {k: "default" if v is None else v for k, v in self.echo().items()}
        return [
            f"# orbitscope {e['version']} command={e['command']}",
            f"# spec={e['spec']} sha256={e['spec_sha256']}",
            f"# seed={e['seed']} tol={e['tol']} degree-cap={e['degree_cap']} "
            f"relation-cap={e['relation_cap']} ell={e['ell']}",
        ]


# ---------------------------------------------------------------- spec input


def _entry_fraction(e) -> Fraction:
    if isinstance(e, bool) or isinstance(e, float):
        raise SpecParseError(
            f"matrix entry {e!r} must be an integer or an exact string like '1/2'"
        )
    try:
        return Fraction(e)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
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
    if not isinstance(doc["generators"], list):
        raise SpecParseError(f"'generators' in {path} must be a list of matrices")
    gens = []
    for g in doc["generators"]:
        if not isinstance(g, list) or not all(isinstance(row, list) for row in g):
            raise SpecParseError(f"generator {g!r} in {path} is not a list of rows")
        rows = tuple(tuple(_entry_fraction(e) for e in row) for row in g)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise SpecParseError(f"generator in {path} is not a square matrix")
        gens.append(rows)
    if not gens:
        raise SpecParseError(f"spec file {path} lists no generators")
    if len({len(g) for g in gens}) != 1:
        raise SpecParseError(f"generators in {path} act on different dimensions")
    name = doc.get("name")
    if not isinstance(name, (str, type(None))):
        raise SpecParseError(f"'name' in {path} must be a string, got {name!r}")
    max_order = doc.get("max_order", 10000)
    if type(max_order) is not int or max_order < 1:
        raise SpecParseError(
            f"'max_order' in {path} must be an integer >= 1, got {max_order!r}"
        )
    rep = close_generators(gens, max_order=max_order, name=name or Path(path).stem)
    return rep, digest


def _basis_for(cfg: RunConfig, rep: FiniteGroupRep) -> IntegrityBasis:
    return compute_mib(rep, cfg.degree_cap)


# ------------------------------------------------------------- text helpers


def _fnum(v) -> str:
    return repr(float(v))


def _cell(v) -> str:
    """A report scalar as a CSV cell: strings as they are, numbers and
    booleans as the JSON report prints them."""
    return v if isinstance(v, str) else json.dumps(v)


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


# ---------------------------------------------------------------- commands

# what a command returns: the JSON report, the text lines, the CSV rows.
# Each command formats its results once, into the report; its text lines
# and CSV rows read the report's strings and numbers.
Report = tuple[dict, list[str], Iterable[list[str]]]


def cmd_group(cfg: RunConfig, rep: FiniteGroupRep) -> Report:
    classes = all_subgroups(rep)
    report = {
        "name": rep.name,
        "order": rep.order,
        "dim": rep.dim,
        # close_generators looks the generators' rows of the Cayley table
        # up in its element index and composes every other row from them,
        # so a closed rep has a closed table
        "cayley_closed": True,
        # every subgroup lies in exactly one conjugacy class
        "subgroup_count": sum(map(len, classes)),
        "symmetry_type_count": len(classes),
    }
    text = [
        f"group {report['name']}: order {report['order']}, acting on R^{report['dim']}",
        f"cayley table closed: {'yes' if report['cayley_closed'] else 'no'}",
        f"subgroups: {report['subgroup_count']} in "
        f"{report['symmetry_type_count']} conjugacy classes",
    ]
    rows = [["name", "order", "dim", "cayley_closed", "subgroups", "classes"],
            [_cell(v) for v in report.values()]]
    return report, text, rows


def cmd_invariants(cfg: RunConfig, rep: FiniteGroupRep) -> Report:
    basis = _basis_for(cfg, rep)
    mol_cap = cfg.degree_cap if cfg.degree_cap is not None else 8
    relations = find_relations(basis, cfg.relation_cap)
    report = {
        "degrees": list(basis.degrees),
        "generators": [p.pretty() for p in basis.polys],
        "molien": list(molien_series(rep, mol_cap).coefficients),
        "relations": [r.pretty() for r in relations],
        "coregular": is_coregular(basis),
        "p_matrix": [[e.pretty() for e in row] for row in p_matrix(rep, basis).entries],
    }
    gens = report["generators"]
    text = [f"integrity basis ({len(gens)} generators, degrees {report['degrees']}):"]
    text += [f"  J{i + 1} = {p}" for i, p in enumerate(gens)]
    text.append(f"molien coefficients c_0..c_{mol_cap}: {report['molien']}")
    if report["coregular"]:
        text.append("relations: none (coregular)")
    else:
        text.append(f"relations ({len(report['relations'])}):")
        text += [f"  {r} = 0" for r in report["relations"]]
    text.append("gradient-product matrix P:")
    text += ["  [" + ", ".join(row) + "]" for row in report["p_matrix"]]
    rows = [["generator", "degree", "polynomial"]]
    rows += [[f"J{i + 1}", _cell(d), p] for i, (d, p) in enumerate(zip(report["degrees"], gens))]
    return report, text, rows


def cmd_strata(cfg: RunConfig, rep: FiniteGroupRep) -> Report:
    types = symmetry_types(rep)
    lattice = isotropy_lattice(rep)
    principal = principal_stratum(rep)
    rays = principal_critical_orbits(rep)
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
            for r in rays
        ],
    }
    text = [f"symmetry types for {rep.name} (principal: {report['principal']}):"]
    text += [
        f"  {t['label']}: subgroup order {t['order']}, "
        f"class size {t['class_size']}, fix dim {t['fix_dim']}, "
        f"{'realized' if t['realized'] else 'not realized'}"
        for t in report["types"]
    ]
    text.append(f"guaranteed critical rays: {len(report['critical_rays'])}")
    text += [
        f"  {r['symmetry']}: direction ({', '.join(r['direction'])})"
        for r in report["critical_rays"]
    ]
    columns = ["label", "order", "class_size", "fix_dim", "realized"]
    rows = [columns] + [[_cell(t[c]) for c in columns] for t in report["types"]]
    return report, text, rows


def cmd_landau(cfg: RunConfig, rep: FiniteGroupRep) -> Report:
    basis = _basis_for(cfg, rep)
    model = build_generic(basis, degree_x=cfg.ell)
    if cfg.sweep is not None:
        return _landau_sweep(cfg, model, rep.dim)
    assignment = _model_assignment(model, cfg)
    points = minimize(
        model, assignment, seed=cfg.seed, gtol=cfg.tol if cfg.tol is not None else 1e-10
    )
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
    found = report["critical_points"]
    text = [
        "model parameters: "
        + ", ".join(f"{k}={v}" for k, v in report["assignment"].items()),
        f"critical points found: {len(found)}",
    ]
    text += [
        f"  value {p['value']} at ({', '.join(p['location'])})"
        f" symmetry {p['symmetry']} orbit {p['orbit_size']}"
        f" inertia {tuple(p['hessian_inertia'])}"
        for p in found
    ]
    rows = [["value", "symmetry", "orbit_size", "inertia_neg", "inertia_zero",
             "inertia_pos"] + [f"x{i + 1}" for i in range(rep.dim)]]
    rows += [
        [p["value"], p["symmetry"], _cell(p["orbit_size"])]
        + [_cell(c) for c in p["hessian_inertia"]]
        + p["location"]
        for p in found
    ]
    return report, text, rows


def _landau_sweep(cfg: RunConfig, model, n: int) -> Report:
    name, lo, hi, steps = cfg.sweep
    if name not in model.parameters():
        raise UnknownParameter(
            f"--sweep parameter {name} not in model "
            f"({', '.join(sorted(model.parameters(), key=lambda s: int(s[1:])))})"
        )
    grid = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    assignment = _model_assignment(model, cfg, skip=(name,))
    diagram = sweep(
        model, name, grid, assignment, seed=cfg.seed,
        transition_tol=cfg.tol if cfg.tol is not None else 1e-6,
    )
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
    # the report keeps the exact grid values; text and CSV show them as floats
    points = [(_fnum(Fraction(p["value"])), p) for p in report["points"]]
    text = [f"sweep of {name} over [{lo}, {hi}] in {steps} steps:"]
    text += [
        f"  {name}={at}: ERROR {p['error']}"
        if p["error"] is not None
        else f"  {name}={at}: {p['symmetry']} min={p['min_value']} at "
        f"({', '.join(p['minimizer'])})"
        for at, p in points
    ]
    text += [
        f"transition {t['before']} -> {t['after']} at {name}={t['at']} (width {t['width']})"
        for t in report["transitions"]
    ]
    rows = [[name, "symmetry", "min_value"] + [f"x{i + 1}" for i in range(n)] + ["error"]]
    rows += [
        [at, "", ""] + [""] * n + [p["error"]]
        if p["error"] is not None
        else [at, p["symmetry"], p["min_value"]] + p["minimizer"] + [""]
        for at, p in points
    ]
    return report, text, rows


def cmd_reduce(cfg: RunConfig, rep: FiniteGroupRep) -> Report:
    basis = _basis_for(cfg, rep)
    model = build_generic(basis, degree_x=cfg.ell)
    pm = p_matrix(rep, basis)
    truncation = model.degree_x
    result = reduce_potential(model, truncation, pm)

    lam = _model_assignment(model, cfg)
    stats = verify_reduction(model, result, [lam])

    report = {
        "truncation": truncation,
        "critical": sorted(model.critical),
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
            "min_slope": str(stats.min_slope),
            "required": result.residual_degree + 1,
        },
    }

    def _jmono(t, pretty=False) -> str:
        return mono_text(t["monomial"], J_KIND, pretty=pretty)

    text = [f"reduction to x-degree {report['truncation']}", "generators:"]
    text += [
        f"  degree {g['degree']}: H = {g['h']}" for g in report["generators"]
    ] or ["  (none)"]
    text.append("removed terms:")
    text += [
        f"  degree {t['degree']}: {_jmono(t) or '1'}" for t in report["removed"]
    ] or ["  (none)"]
    text.append("surviving terms (degree >= 3):")
    text += [
        f"  degree {t['degree']}: {_jmono(t) or '1'} coefficient {t['coefficient']}"
        for t in report["survivors"]
    ] or ["  (none)"]
    text.append(
        f"verification: min residual slope {report['verification']['min_slope']} "
        f"(required > {report['truncation']})"
    )
    rows = [["degree", "monomial", "status"]]
    rows += [[_cell(t["degree"]), _jmono(t, True), "removed"] for t in report["removed"]]
    rows += [[_cell(t["degree"]), _jmono(t, True), "kept"] for t in report["survivors"]]
    return report, text, rows


def cmd_flow(cfg: RunConfig, rep: FiniteGroupRep, x0, t_end: float, dt: float) -> Report:
    basis = _basis_for(cfg, rep)
    model = build_generic(basis, degree_x=cfg.ell)
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
    lines = buf.getvalue().splitlines()
    report = {
        "assignment": {k: str(v) for k, v in sorted(assignment.items())},
        "t_end": t_end,
        "dt": dt,
        "steps": len(traj.times) - 1,
        "final_state": [_fnum(c) for c in traj.final_state],
    }
    if cfg.fmt == "json":
        # only the JSON report holds the table split into cells
        table = [line.split(",") for line in lines]
        report["columns"], report["rows"] = table[0], table[1:]
    text = [
        f"integrated {report['steps']} steps of dt={report['dt']} "
        f"(final state: {', '.join(report['final_state'])})"
    ]
    text += lines
    # each CSV line is already a row: as one cell, it joins to itself.  The
    # rows are made only if the CSV is rendered, one at a time.
    return report, text, ([line] for line in lines)


# ------------------------------------------------------------------ plumbing


def _render(cfg: RunConfig, report: dict, text: list[str], rows: Iterable[list[str]]) -> str:
    if cfg.fmt == "json":
        doc = {"config": cfg.echo(), "report": report}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = text if cfg.fmt == "text" else [",".join(r) for r in rows]
    return "\n".join([*cfg.header_lines(), *lines]) + "\n"


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
    except (ValueError, ZeroDivisionError):
        raise SpecParseError(f"--param {name}: {val!r} is not an exact number") from None


# the most grid points a sweep may have
_MAX_SWEEP_STEPS = 10_000


def _parse_sweep(text: str) -> tuple[str, Fraction, Fraction, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise SpecParseError(f"--sweep needs NAME:LO:HI:STEPS, got {text!r}")
    name, lo, hi, steps = parts
    try:
        lo_f, hi_f, n = Fraction(lo), Fraction(hi), int(steps)
    except (ValueError, ZeroDivisionError):
        raise SpecParseError(f"--sweep {text!r}: bounds must be exact, steps integer") from None
    if n < 2:
        raise SpecParseError("--sweep needs at least 2 steps")
    if n > _MAX_SWEEP_STEPS:
        raise SpecParseError(f"--sweep asks for {n} steps, more than {_MAX_SWEEP_STEPS}")
    return name.strip(), lo_f, hi_f, n


# the most steps a flow may take
_MAX_STEPS = 1_000_000


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
    if not math.isfinite(t_end_f / dt_f):
        raise SpecParseError(f"--t-end {t_end} / --dt {dt} is not a finite number of steps")
    if round(t_end_f / dt_f) > _MAX_STEPS:
        raise SpecParseError(
            f"--t-end {t_end} / --dt {dt} asks for more than {_MAX_STEPS} steps"
        )
    return point, t_end_f, dt_f


# every flag besides --spec, --out and --format; a subcommand registers the
# ones its command reads, and the others keep their default in the config
_FLAGS = {
    "--degree-cap": {"type": int, "default": None},
    "--relation-cap": {"type": int, "default": None},
    "--ell": {"type": int, "default": None,
              "help": "model degree (default: twice the top basis degree)"},
    "--param": {"action": "append", "default": [], "metavar": "NAME=VALUE",
                "help": "model coefficient; a1 defaults to -1/2, a_k to 1/(k+1)"},
    "--sweep": {"default": None, "metavar": "NAME:LO:HI:STEPS"},
    "--seed": {"type": int, "default": 0},
    "--tol": {"type": float, "default": None},
    "--x0": {"required": True, "help": "comma-separated start point, e.g. 0.1,0.2"},
    "--t-end": {"default": "10.0"},
    "--dt": {"default": "0.01"},
}

_MODEL_FLAGS = ("--degree-cap", "--ell", "--param")

# subcommand: (command, help, the flags it reads)
_COMMANDS = {
    "group": (cmd_group, "closure check and subgroup census", ()),
    "invariants": (cmd_invariants,
                   "integrity basis, graded dimensions, relations, P-matrix",
                   ("--degree-cap", "--relation-cap")),
    "strata": (cmd_strata, "isotropy lattice and guaranteed critical rays", ()),
    "landau": (cmd_landau, "critical points, or a phase sweep with --sweep",
               (*_MODEL_FLAGS, "--sweep", "--seed", "--tol")),
    "reduce": (cmd_reduce, "normal-form reduction of the generic model, with verification",
               _MODEL_FLAGS),
    "flow": (cmd_flow, "gradient-flow trajectory as CSV",
             (*_MODEL_FLAGS, "--tol", "--x0", "--t-end", "--dt")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first :func:`main` call of a
    process and reused by every later one.  Parsing leaves it unchanged:
    the ``append`` action of ``--param`` copies its default list."""
    parser = argparse.ArgumentParser(
        prog="orbitscope",
        description="Invariant-theoretic analysis of finite-group Landau potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--spec", required=True, help="group spec JSON file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", default=None, help="write report into this directory")
        p.add_argument("--format", dest="fmt", choices=["text", "json", "csv"],
                       default="text")
        p.set_defaults(usage_error=p.error, **{
            flag[2:].replace("-", "_"): settings.get("default")
            for flag, settings in _FLAGS.items()
            if flag not in flags
        })
    return parser


def _structured_error(exc: Exception) -> None:
    name = type(exc).__name__
    layer = getattr(exc, "layer", type(exc).__module__.rsplit(".", 1)[-1])
    record = {
        "error": {
            "code": f"{layer}.{name}",
            "message": str(exc),
        }
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        # the subcommand's usage lists the flags it does read
        args.usage_error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        if args.ell is not None and args.ell < 2:
            raise SpecParseError(f"--ell must be at least 2, got {args.ell}")
        if args.degree_cap is not None and args.degree_cap < 0:
            raise SpecParseError(f"--degree-cap must be non-negative, got {args.degree_cap}")
        if args.relation_cap is not None and args.relation_cap < 0:
            raise SpecParseError(
                f"--relation-cap must be non-negative, got {args.relation_cap}"
            )
        if args.seed < 0:
            raise SpecParseError(f"--seed must be non-negative, got {args.seed}")
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
        out = _COMMANDS[args.command][0](cfg, rep, *flow_args)
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
