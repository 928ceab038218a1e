"""One pass of a workload, in a fresh interpreter.

Usage: python3 worker.py PASS.json RESULT.json

The interpreter starts with the program's sources on PYTHONPATH and
imports ``orbitscope.cli`` first; ``ready`` in the result is the
monotonic clock right after, so the caller can time the set-up of a
fresh interpreter.  PASS.json names the program's source directory, the
jobs, the basis cache directory (or null) and whether to trace.  Each
job calls ``orbitscope.cli.main(argv)`` in this process with stdout and
stderr captured, one job after another (closed loop, one thread).  Timed
jobs run first, each followed by the reference kernel (reference.py),
and make up the pass wall time; untimed probes run after them.
Reports are checked after the last job, so checking costs no measured
time and does not raise the peak RSS read at the end of the timed jobs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import orbitscope.cli as cli

# End of set-up: this fresh interpreter has imported orbitscope.cli.
READY = time.monotonic()


def run_job(cli, job) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is one failed job, not a failed pass
            rc = -1
            traceback.print_exc(file=err)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def main(pass_path: str, result_path: str) -> None:
    cfg = json.loads(Path(pass_path).read_text())
    import orbitscope

    if not Path(orbitscope.__file__).resolve().is_relative_to(Path(cfg["src"]).resolve()):
        raise SystemExit(f"imported orbitscope from {orbitscope.__file__}, not {cfg['src']}")
    from checks import check
    from reference import reference_s

    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(orbitscope)
    if cfg["cache_dir"]:
        shutil.rmtree(cfg["cache_dir"], ignore_errors=True)
        os.environ["ORBITSCOPE_CACHE_DIR"] = cfg["cache_dir"]

    def run(job):
        if tracer is not None:
            tracer.job = job["id"]
        return run_job(cli, job)

    timed = [j for j in cfg["jobs"] if j["timed"]]
    probes = [j for j in cfg["jobs"] if not j["timed"]]
    # the reference kernel runs before the first job and after every job
    refs = [reference_s()]
    runs = []
    for job in timed:
        runs.append(run(job))
        refs.append(reference_s())
    wall_s = sum(seconds for *_, seconds in runs)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    runs += [run(job) for job in probes]
    refs += [refs[-1]] * len(probes)

    specs = {name: json.loads(Path(p).read_text()) for name, p in cfg["spec_paths"].items()}
    results = [
        {"id": job["id"], "rc": rc, "seconds": seconds, "ref_s": (refs[i] + refs[i + 1]) / 2,
         "sha256": hashlib.sha256(out.encode()).hexdigest(), "stderr": err.strip()[:300],
         "fails": check(job, rc, out, specs[job["spec"]])}
        for i, (job, (rc, out, err, seconds)) in enumerate(zip(timed + probes, runs))
    ]

    wall_ref = sum(r["seconds"] / r["ref_s"] for r in results[:len(timed)])
    doc = {"ready": READY, "wall_s": wall_s, "wall_ref": wall_ref,
           "peak_rss_mb": peak_kb / 1024.0, "jobs": results}
    if tracer is not None:
        doc["trace"] = {
            "calls": dict(tracer.calls),
            "incl_s": {k: v / 1e9 for k, v in tracer.incl_ns.items()},
            "self_s": {k: v / 1e9 for k, v in tracer.self_ns.items()},
            "edge_calls": [[p, n, c] for (p, n), c in tracer.edge_calls.items()],
            "counters": dict(tracer.counters),
            "roots": root_durations(tracer.spans),
        }
        with open(cfg["spans_path"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path(result_path).write_text(json.dumps(doc))


def root_durations(spans) -> dict:
    """Seconds inside top-level spans, per job."""
    out: dict = {}
    for _id, _name, start, end, parent, job in spans:
        if parent is None:
            out[job] = out.get(job, 0.0) + (end - start) / 1e9
    return out


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
