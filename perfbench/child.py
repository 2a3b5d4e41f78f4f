"""Processes the benchmark starts: the set-up probe and the workload process.

``child.py setup SPEC`` times, in a fresh interpreter, what a user pays on a
first run: importing the package, building the group and sieving the prime
table cold into an empty cache directory.

``child.py ops SPEC`` is the workload process.  It runs the workload's
operation back to back, one caller in a closed loop, until the next one
would end past the run length, and records each operation's wall and CPU
time (its own plus reaped workers'), the process's peak memory and every
output for the exactness check.  With tracing on, operations alternate
untraced and traced so the difference gives the tracing overhead.

SPEC is a JSON object; the result is written as JSON to ``SPEC["result"]``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer


def setup(spec: dict) -> dict:
    start = time.perf_counter()
    import abelian_census  # noqa: F401

    rec = None
    if spec["trace"]:
        rec = tracer.Recorder(spec["sink"])
        rec.install()
    from abelian_census import groups, sieve

    G = groups.make_group(spec["factors"])
    groups.make_params(G, spec["params"])
    table = sieve.load_prime_table(spec["prime_limit"], cache_dir=spec["cache_dir"])
    setup_s = time.perf_counter() - start
    out = {"setup_s": setup_s, "primes": table.count()}
    if rec is not None:
        out["spans"] = rec.spans
        out["unmeasured"] = rec.unmeasured
    return out


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def ops(spec: dict) -> dict:
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]]
    workdir = Path(spec["workdir"])
    cache_dir = Path(spec["cache_dir"])
    cached_before = sorted(os.listdir(cache_dir))
    op = wl.prepare(spec["inputs"], workdir, cache_dir)
    rec = tracer.Recorder(spec["sink"]) if spec["trace"] else None
    records = []
    start = time.perf_counter()
    while True:
        traced = rec is not None and len(records) % 2 == 1
        entry = {"traced": traced}
        if traced:
            rec.op = len(records)
            rec.install()
        c0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception:  # every failure is counted, never skipped
            result = None
            entry["error"] = traceback.format_exc()
        entry["wall_s"] = time.perf_counter() - t0
        entry["cpu_s"] = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - c0
        if traced:
            rec.uninstall()
            rec.collect_children()
        if result is not None:
            try:
                entry["output"] = wl.collect(result)
            except Exception:
                entry["error"] = traceback.format_exc()
        records.append(entry)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in records)
        if len(records) >= spec["min_ops"] and elapsed + typical > spec["seconds"]:
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "ops": records,
        "peak_rss_mb": (self_kb + child_kb) / 1024,
        "cache_built_during_ops": sorted(os.listdir(cache_dir)) != cached_before,
    }
    if rec is not None:
        out["spans"] = rec.spans
        out["unmeasured"] = rec.unmeasured
    return out


def main() -> int:
    mode, spec_text = sys.argv[1], sys.argv[2]
    spec = json.loads(spec_text)
    sys.path.insert(0, spec["src"])
    result = setup(spec) if mode == "setup" else ops(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
