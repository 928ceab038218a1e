"""Quick self-check of the benchmark harness (under a minute).

    python3 perfbench/selfcheck.py

Runs one tiny job per workload through the real harness, one untraced
and one traced pass each, and asserts that:

1. every metric named in BENCHMARK.json is emitted, with its unit, and
   the traced reports are byte-identical to the untraced ones;
2. a wrong expected answer is counted as a failure;
3. no file outside perfbench/ and BENCHMARK.json is written.

Exits 0 and prints "selfcheck: ok", or raises on the first broken check.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "exact-ladder": ("invariants", "z2xz2"),
    "group-scale": ("strata", "s4-perm"),
    "landau-dynamics": ("landau", "z2-line"),
}


def snapshot() -> dict:
    """(mtime, size) of every file of the checkout outside perfbench/ and .git/."""
    out = {}
    for path in run.ROOT.rglob("*"):
        rel = path.relative_to(run.ROOT)
        if rel.parts[0] in (run.HERE.name, ".git") or not path.is_file():
            continue
        st = path.stat()
        out[str(rel)] = (st.st_mtime_ns, st.st_size)
    return out


def tiny_run(workload: str, wrong_answer: bool = False) -> dict:
    real_jobs_for = run.jobs_for

    def jobs_for(name, seed, paths, probes):
        jobs = [j for j in real_jobs_for(name, seed, paths, probes)
                if (j["cmd"], j["spec"]) == TINY[name]][:1]
        if wrong_answer:
            jobs[0]["known"] = {**jobs[0]["known"], "degrees": [2]}
        return jobs

    run.jobs_for = jobs_for
    try:
        return run.run_workload(workload, seed=0, seconds=0.0, trace=True, probes=False,
                                deadline=time.monotonic() + run.RUN_LIMIT_S)
    finally:
        run.jobs_for = real_jobs_for


def main() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    before = snapshot()
    for workload in TINY:
        summary = tiny_run(workload)
        assert summary["attempted"] == 2 and summary["failed"] == 0, summary["failures"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            got = {k: v["unit"] for k, v in run.metrics_doc(summary, trace).items()}
            want = {m["name"]: m["unit"] for m in bench[key]}
            assert got == want, f"{workload} {key}: emitted {got}, BENCHMARK.json {want}"
        print(f"selfcheck: {workload}: metrics and units match, traced reports identical")

    summary = tiny_run("exact-ladder", wrong_answer=True)
    assert summary["failed"] == summary["attempted"] == 2, summary
    print("selfcheck: a wrong expected answer counts as a failure")

    after = snapshot()
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    assert not changed, f"files written outside {run.HERE.name}/: {changed}"
    print(f"selfcheck: nothing written outside {run.HERE.name}/")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
