"""The three workloads: which CLI jobs one pass runs, built from the seed.

A job is a dict: ``id``, ``cmd``, ``spec`` (ladder name), ``argv`` for
``orbitscope.cli.main``, ``timed`` (untimed probes stay out of every
time), the ``known`` answers its check compares with, and what else the
check needs (``steps`` of a flow, ``sweep``).
Reports are JSON, except flow's, whose documented output is CSV.
"""

from __future__ import annotations

import math
import random

from specs import KNOWN, base_of

# Ladder groups that get a seeded rational conjugate, per workload.
SEEDED = {
    "exact-ladder": ("d4", "s3-perm"),
    "group-scale": ("b3",),
    "landau-dynamics": (),
}

# Workloads whose passes use a basis cache (emptied at the start of a pass).
CACHED = {"exact-ladder", "landau-dynamics"}

SWEEP = "a1:-1:1:5"
FLOW_DT = 0.01


def _job(cmd: str, spec: str, paths: dict, *flags: str, timed: bool = True, **extra) -> dict:
    fmt = "csv" if cmd == "flow" else "json"
    argv = [cmd, "--spec", paths[spec], "--format", fmt, *flags]
    return {"cmd": cmd, "spec": spec, "argv": argv, "timed": timed, **extra}


def _flow_x0(rng: random.Random, dim: int) -> str:
    """A start point off every mirror of z2-line and d4: a nonzero point
    of the line, or a plane point at least 0.1 rad from each multiple of
    pi/4."""
    if dim == 1:
        return f"{rng.choice((-1, 1)) * rng.uniform(0.2, 1.2):.6f}"
    theta = rng.randrange(8) * math.pi / 4 + rng.uniform(0.1, math.pi / 4 - 0.1)
    r = rng.uniform(0.3, 1.2)
    return f"{r * math.cos(theta):.6f},{r * math.sin(theta):.6f}"


def exact_ladder(seed: int, paths: dict, probes: bool) -> list[dict]:
    jobs = [
        _job("invariants", name, paths)
        for name in ("z2xz2", "d4", "d4-sheared", "s3-perm", "o-rot", "s4-std",
                     "d4-c", "s3-perm-c")
    ]
    # At the Noether bound these take 8 s and 4-7 s; a cap above the top
    # degree (6 and 4) gives the same basis.
    jobs.append(_job("invariants", "b3", paths, "--degree-cap=8"))
    jobs.append(_job("invariants", "s4-std-sheared", paths, "--degree-cap=6"))
    jobs.append(_job("reduce", "d4", paths, "--ell=6"))
    if probes:
        # Fails at the seed commit (reduction.VerificationFailed, residual
        # slope below 5); untimed so that a fix does not read as a slowdown.
        jobs.append(_job("reduce", "s4-std", paths, "--ell=4", timed=False))
    return jobs


def group_scale(seed: int, paths: dict, probes: bool) -> list[dict]:
    jobs = [
        _job("group", "s4-perm", paths),
        _job("strata", "s4-perm", paths),
        _job("strata", "b3-c", paths),
    ]
    if probes:
        # 5 s, half of a pass on its own: in the timed passes strata on
        # b3-c covers the same closure and subgroup search.
        jobs.append(_job("group", "b3", paths, timed=False))
        # S5 (order 120) takes about 30 s, three times a whole pass.
        jobs.append(_job("strata", "s5-std", paths, timed=False))
    return jobs


def landau_dynamics(seed: int, paths: dict, probes: bool) -> list[dict]:
    rng = random.Random(f"{seed}:landau")
    mseed = f"--seed={rng.randrange(1000)}"
    jobs = [_job("landau", name, paths, mseed) for name in ("z2-line", "d4", "d4-sheared")]
    # The sweep keeps the CLI's default minimizer seed, because the reported
    # transition can move with the seed (on D4 by up to 5e-5; see the probe).
    # Its 19 bisection steps, not the grid points, are most of its cost.
    jobs.append(_job("landau", "z2-line", paths, f"--sweep={SWEEP}", sweep=SWEEP))
    for name, dim, steps in (("z2-line", 1, 5000), ("d4", 2, 8000)):
        x0 = _flow_x0(rng, dim)
        jobs.append(_job("flow", name, paths, f"--x0={x0}",
                         f"--t-end={steps * FLOW_DT:g}", f"--dt={FLOW_DT}", steps=steps))
    if probes:
        # With minimizer seed 3 the reported D4 transition sits 1.26e-5
        # below a1 = 0 (seeds 4 and 5: 2.5e-5 and 4.9e-5), outside the
        # 1e-5 known answer, while its reported width is under 1e-6.
        jobs.append(_job("landau", "d4", paths, "--seed=3", "--sweep=a1:-1:1:21",
                         sweep="a1:-1:1:21", timed=False))
    return jobs


WORKLOADS = {
    "exact-ladder": exact_ladder,
    "group-scale": group_scale,
    "landau-dynamics": landau_dynamics,
}


def jobs_for(workload: str, seed: int, paths: dict, probes: bool) -> list[dict]:
    jobs = WORKLOADS[workload](seed, paths, probes)
    for i, job in enumerate(jobs):
        job["id"] = f"{i:02d}-{job['cmd']}-{job['spec']}"
        job["known"] = KNOWN[base_of(job["spec"])]
    return jobs
