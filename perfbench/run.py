"""orbitscope benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository: the program is
imported from ``src/`` next to this directory, and nothing outside
``perfbench/`` is written (scratch files go to ``perfbench/.work/``).

One run generates the spec ladder from ``--seed``, then runs passes of
the workload for ``--seconds`` seconds, starting a pass only if it fits.
Each pass is a fresh child process running every job once, one after
another, with BLAS pinned to one thread.  ``setup_s`` is the median, over
the passes, of the time from starting that process until it has imported
``orbitscope.cli``.  The child times a fixed reference kernel
(reference.py) before the first job and after every job; a job's figure
is its time over the mean of the two kernel times around it, which takes
out the drift of a shared host.  ``wall_ref`` is one pass in those units:
the sum over its jobs of each job's median figure across the untraced
passes.  ``peak_rss_mb`` is the median peak RSS of a pass.  With
``--trace 1`` traced passes alternate with untraced ones; they report the
per-layer metrics, check that every report is byte-identical to the
untraced pass, and measure the tracing overhead.  See NOTES.md for the
workloads and metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A table for people goes to
standard error.  ``--workload all`` runs every workload (with the untimed
probes) and prints ``fail_ratio`` and the per-command times next to the
bench metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import specs  # noqa: E402
from workloads import CACHED, SEEDED, WORKLOADS, jobs_for  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
COMMANDS = ("group", "invariants", "strata", "landau", "sweep", "reduce", "flow")

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

# Traced name -> the per-layer metrics taken from it: s (inclusive seconds
# of outermost calls), self_s (minus child spans), calls.  _DERIVED ones
# are computed in layer_metrics.  A layer a workload never calls reads 0.
_LAYER_STATS = {
    "cli.main": ("self_s",),
    "cli.load_group_spec": ("calls", "self_s"),
    "groups.close_generators": ("s", "calls"),
    "groups.all_subgroups": ("s", "calls"),
    "groups.fixed_subspace": ("s", "calls"),
    "groups.invariant_metric": ("s",),
    "rationals.mat_mul": ("calls",),
    "strata.symmetry_types": ("s", "self_s"),
    "strata.isotropy_lattice": ("s",),
    "strata.principal_critical_orbits": ("s",),
    "invariants.molien_series": ("s",),
    "invariants.compute_mib": ("s", "self_s", "calls"),
    "polynomials.reynolds": ("calls", "s"),
    "rationals.RowReducer.add": ("calls", "s"),
    "invariants.find_relations": ("s",),
    "invariants.p_matrix": ("s",),
    "invariants.express_in_basis": ("calls",),
    "reduction.reduce": ("s", "self_s"),
    "params.substitute_param": ("s",),
    "params.compose_param": ("s",),
    "reduction.verify_reduction": ("s",),
    "landau.build_generic": ("s",),
    "landau.LandauModel.potential": ("s",),
    "landau.minimize": ("s", "self_s", "calls"),
    "landau.classify_symmetry": ("s",),
    "polynomials.compile_polynomial": ("calls", "s"),
    "dynamics.integrate": ("s",),
    "dynamics.dump_trajectory_csv": ("s",),
}
_DERIVED = {
    "cli.basis_cache.hit_ratio": "ratio",
    "invariants.compute_mib.useful_degree_ratio": "ratio",
    "landau.sweep.bisection_steps": "count",
    "polynomials.NumericPoly.calls": "count",
    "dynamics.integrate.steps": "count",
    "dynamics.integrate.us_per_step": "us",
    "dynamics.GradientField.calls_per_step": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_min": "ratio",
}
_UNITS = {"s": "s", "self_s": "s", "calls": "count"}
PER_LAYER = {
    **{f"{name}.{kind}": _UNITS[kind] for name, kinds in _LAYER_STATS.items() for kind in kinds},
    **_DERIVED,
    **{f"cmd.{c}_s": "s" for c in COMMANDS},
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    })
    env.pop("ORBITSCOPE_CACHE_DIR", None)
    return env


def warm_up(env: dict, deadline: float) -> None:
    """Import orbitscope.cli once in a fresh interpreter, which fills the
    file cache and writes the bytecode cache before any pass is timed."""
    subprocess.run([sys.executable, "-c", "import orbitscope.cli"], env=env,
                   check=True, timeout=max(1.0, deadline - time.monotonic()))


def run_pass(workdir: Path, index: int, cfg: dict, env: dict, deadline: float) -> dict:
    pass_path = workdir / f"pass{index}.json"
    result_path = workdir / f"result{index}.json"
    pass_path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(pass_path), str(result_path)],
        env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def command_of(job: dict) -> str:
    return "sweep" if "sweep" in job else job["cmd"]


def layer_metrics(traced: dict, untraced_ref: float, cached: bool) -> dict:
    """Per-layer metrics of one traced pass."""
    tr = traced["trace"]
    calls, incl, self_s, counters = tr["calls"], tr["incl_s"], tr["self_s"], tr["counters"]
    edges = {(p, n): c for p, n, c in tr["edge_calls"]}
    pick = {"s": incl, "self_s": self_s, "calls": calls}
    out = {f"{name}.{kind}": pick[kind].get(name, 0)
           for name, kinds in _LAYER_STATS.items() for kind in kinds}

    lookups = calls.get("cli._basis_for", 0)
    misses = edges.get(("cli._basis_for", "invariants.compute_mib"), 0)
    out["cli.basis_cache.hit_ratio"] = (lookups - misses) / lookups if cached and lookups else 0.0
    cap = counters.get("invariants.compute_mib.degree_cap", 0)
    out["invariants.compute_mib.useful_degree_ratio"] = (
        counters.get("invariants.compute_mib.top_degree", 0) / cap if cap else 0.0)
    out["landau.sweep.bisection_steps"] = (
        edges.get(("landau.sweep", "landau.minimize"), 0)
        - counters.get("landau.sweep.grid_points", 0))
    out["polynomials.NumericPoly.calls"] = calls.get("polynomials.NumericPoly.__call__", 0)
    steps = counters.get("dynamics.integrate.steps", 0)
    out["dynamics.integrate.steps"] = steps
    out["dynamics.integrate.us_per_step"] = (
        incl.get("dynamics.integrate", 0) / steps * 1e6 if steps else 0.0)
    out["dynamics.GradientField.calls_per_step"] = (
        edges.get(("dynamics.integrate", "dynamics.GradientField.__call__"), 0) / steps
        if steps else 0.0)
    out["trace.overhead_ratio"] = traced["wall_ref"] / untraced_ref
    secs = {r["id"]: r["seconds"] for r in traced["jobs"]}
    out["trace.attributed_min"] = min(
        tr["roots"].get(job_id, 0.0) / s for job_id, s in secs.items())
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, probes: bool,
                 deadline: float) -> dict:
    workdir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ladder, conjugators = specs.ladder(seed, SEEDED[workload])
        paths = specs.write_specs(workdir / "specs", ladder)
        jobs = jobs_for(workload, seed, paths, probes)
        env = child_env()
        warm_up(env, deadline)

        base = {
            "src": str(SRC), "spec_paths": paths,
            "cache_dir": str(workdir / "cache") if workload in CACHED else None,
            "spans_path": str(WORK / f"spans-{workload}.jsonl"),
        }
        untraced, traced = [], []
        kinds = [False, True] if trace else [False]
        start = time.monotonic()
        index = 0
        while True:
            kind = kinds[index % len(kinds)]
            done = traced if kind else untraced
            if index >= len(kinds):
                # start a pass only if it fits in --seconds and before the run limit
                est = statistics.median(r["pass_s"] for r in done)
                now = time.monotonic()
                if now + est > min(start + seconds, deadline):
                    break
            # untimed probes run once, in the first pass
            pass_jobs = jobs if index == 0 else [j for j in jobs if j["timed"]]
            t0 = time.monotonic()
            result = run_pass(workdir, index, {**base, "jobs": pass_jobs, "trace": kind},
                              env, deadline)
            result["pass_s"] = time.monotonic() - t0
            result["setup_s"] = result["ready"] - t0
            done.append(result)
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(workload, jobs, conjugators, untraced, traced)


def summarize(workload, jobs, conjugators, untraced, traced) -> dict:
    reference = {r["id"]: r["sha256"] for r in untraced[0]["jobs"]}
    failures = []
    attempted = 0
    for result in untraced + traced:
        for res in result["jobs"]:
            attempted += 1
            problems = list(res["fails"])
            if "trace" in result and res["sha256"] != reference[res["id"]]:
                problems.append("traced report differs from the untraced one")
            if problems:
                failures.append(f"{res['id']}: {'; '.join(problems)} {res['stderr']}")

    # A job's time is divided by the reference kernel's time around it,
    # which takes out most of the host's drift (see reference.py).  Each
    # job's figure is its median over the untraced passes, and a pass is
    # the sum of its jobs: a slow moment in one pass moves one sample of
    # each job it hits, not the whole pass.
    def per_job(value) -> dict:
        return {j["id"]: statistics.median(value(r) for u in untraced for r in u["jobs"]
                                           if r["id"] == j["id"]) for j in jobs}

    job_s = per_job(lambda r: r["seconds"])
    job_ref = per_job(lambda r: r["seconds"] / r["ref_s"])
    samples = {j["id"]: [r["seconds"] / r["ref_s"] for u in untraced for r in u["jobs"]
                         if r["id"] == j["id"]] for j in jobs}
    timed = [j for j in jobs if j["timed"]]
    cmd = {c: sum(job_s[j["id"]] for j in timed if command_of(j) == c) for c in COMMANDS}
    summary = {
        "workload": workload,
        "conjugators": conjugators,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_walls": [round(r["wall_s"], 3) for r in untraced],
        "wall_s": sum(job_s[j["id"]] for j in timed),
        "reference_ms": 1e3 * statistics.median(r["ref_s"] for u in untraced for r in u["jobs"]),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "fail_ratio": len(failures) / attempted,
        "end_to_end": {
            "wall_ref": sum(job_ref[j["id"]] for j in timed),
            "setup_s": statistics.median(r["setup_s"] for r in untraced + traced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        },
        "job_s": job_s,
        "job_ref": job_ref,
        "job_samples": samples,
        "commands": {f"{c}_s": v for c, v in cmd.items()
                     if any(command_of(j) == c for j in timed)},
    }
    if traced:
        pass_ref = statistics.median(r["wall_ref"] for r in untraced)
        layers = [layer_metrics(t, pass_ref, workload in CACHED) for t in traced]
        summary["per_layer"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        summary["per_layer"].update({f"cmd.{c}_s": v for c, v in cmd.items()})
    return summary


def print_table(summary: dict) -> None:
    err = sys.stderr
    print(f"== {summary['workload']}: {summary['passes']} passes, "
          f"{summary['attempted']} jobs, {summary['failed']} failed "
          f"(fail_ratio {summary['fail_ratio']:.4f})", file=err)
    print(f"   untraced pass walls: {summary['pass_walls']}", file=err)
    for name, conj in summary["conjugators"].items():
        print(f"   conjugator {name}: {conj}", file=err)
    for name, value in summary["end_to_end"].items():
        print(f"   {name:<14} {value:12.4f} {END_TO_END[name]}", file=err)
    print(f"   {'wall_s':<14} {summary['wall_s']:12.4f} s (reference kernel "
          f"{summary['reference_ms']:.2f} ms)", file=err)
    for name, value in summary["commands"].items():
        print(f"   {name:<14} {value:12.4f} s", file=err)
    for name, value in summary["job_s"].items():
        runs = " ".join(f"{x:.1f}" for x in summary["job_samples"][name])
        print(f"   job {name:<30} {value:8.4f} s {summary['job_ref'][name]:9.2f} ref"
              f"  (passes: {runs})", file=err)
    for name, value in summary.get("per_layer", {}).items():
        print(f"   {name:<48} {value:14.6g} {PER_LAYER[name]}", file=err)
    for line in summary["failures"]:
        print(f"   FAIL {line}", file=err)


def metrics_doc(summary: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": summary["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    return {k: {"value": summary["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbitscope" / "cli.py").is_file():
        print(f"no orbitscope sources at {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               probes=args.workload == "all",
                               deadline=time.monotonic() + RUN_LIMIT_S)
        print_table(summary)
        summaries.append(summary)
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    doc = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if len(summaries) == 1:
        doc["metrics"] = metrics_doc(summaries[0], bool(args.trace))
    else:
        doc["metrics"] = {
            f"{s['workload']}.{k}": v for s in summaries
            for k, v in metrics_doc(s, bool(args.trace)).items()
        }
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
