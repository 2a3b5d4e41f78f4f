"""Census benchmark: one workload per invocation, checked exactly.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload walk --seed 0 --seconds 26 --trace 0

Workloads are ``walk``, ``euler``, ``slices`` and ``parallel`` (see
workloads.py).  A run sets up several times in fresh interpreters
(``setup_s``), then runs the workload's operation in one fresh workload
process for ``--seconds`` seconds, one caller in a closed loop, then checks
every operation's output against an independent counting route.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics from spans recorded around the public calls into each
module.  Every metric is printed by name with its unit, and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

All files a run writes live under ``.perfbench_work/`` in the checkout,
including the prime cache: both the ``cache_dir`` argument and the
``ABELIAN_CENSUS_CACHE`` variable point there, so worker processes, which
read only the variable, never touch the user's cache.  The directory is
removed when the run ends.

``--scale`` multiplies every census bound; the harness self-test uses it to
run each workload in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30
OPS_GRACE_S = 100  # room for the operation that overruns the run length

END_TO_END = (
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# name, unit, span names it is computed from
PER_LAYER = (
    ("profiles.walk_s", "s", ("profiles.run_task",)),
    ("profiles.nodes_per_s", "1/s", ("profiles.run_task",)),
    ("profiles.nodes", "count", ("profiles.run_task",)),
    ("profiles.tasks", "count", ("profiles.run_task",)),
    ("profiles.task_nodes_max_share", "fraction", ("profiles.run_task",)),
    ("profiles.enumerate_self_s", "s", ("profiles.enumerate",)),
    ("profiles.context_s", "s", ("profiles.context",)),
    ("profiles.context_calls", "count", ("profiles.context",)),
    ("profiles.usable_primes", "count", ("profiles.context",)),
    ("sieve.build_s", "s", ("sieve.build",)),
    ("sieve.primes", "count", ("sieve.build",)),
    ("sieve.load_s", "s", ("sieve.load",)),
    ("sieve.calls", "count", ("sieve.load",)),
    ("series.convolve_s", "s", ("series.convolve",)),
    ("series.calls", "count", ("series.convolve",)),
    ("series.dense_cells", "count", ("series.convolve", "profiles.context")),
    ("series.bytes_computed", "bytes", ("series.convolve", "profiles.context")),
    ("groups.build_s", "s", ("groups.build",)),
    ("constants.report_s", "s", ("constants.report",)),
    ("cli.emit_self_s", "s", ("cli.run",)),
    ("trace.overhead_s", "s", ()),
)

# Counts that must repeat exactly on every traced operation of a run.
EXACT = (
    "profiles.nodes", "profiles.tasks", "profiles.task_nodes_max_share",
    "profiles.context_calls", "profiles.usable_primes", "sieve.calls",
    "series.calls", "series.dense_cells", "series.bytes_computed",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child(mode: str, spec: dict, cache_dir: Path, timeout: float) -> dict | None:
    """Run child.py in its own session; None if it failed or timed out."""
    env = dict(os.environ, ABELIAN_CENSUS_CACHE=str(cache_dir))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)],
        env=env, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
        # the child's session also holds any pool workers it started
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if code != 0:
        print(f"{mode} process {'timed out' if code is None else f'exited {code}'}", file=sys.stderr)
        return None
    return json.loads(Path(spec["result"]).read_text())


def _probes(wl, inp: dict, work: Path, trace: bool) -> list[dict]:
    probes = []
    for i in range(SETUP_PROBES):
        spec = {
            "src": str(SRC), "trace": trace, "sink": str(work / f"probe{i}.sink"),
            "factors": list(wl.factors), "params": list(wl.params),
            "prime_limit": inp["prime_limit"], "cache_dir": str(work / f"cache{i}"),
            "result": str(work / f"probe{i}.json"),
        }
        out = _child("setup", spec, work / f"cache{i}", PROBE_TIMEOUT_S)
        if out is None:
            raise BenchError("set-up probe failed")
        probes.append(out)
    return probes


def _op_figures(spans: list[dict]) -> dict[str, float]:
    own = tracer.self_times(spans)

    def self_s(name):
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    def named(name):
        return [s for s in spans if s["name"] == name]

    tasks = [s.get("nodes", 0) for s in named("profiles.run_task")]
    nodes = sum(tasks)
    walk_s = self_s("profiles.run_task")
    t_max = {}
    for s in named("profiles.context"):
        t_max.setdefault(s["parent"], []).append(s.get("t_max", 0))
    cells = sum(s.get("states", 0) * sum(t_max.get(s["id"], [])) for s in named("series.convolve"))
    return {
        "profiles.walk_s": walk_s,
        "profiles.nodes_per_s": nodes / walk_s if walk_s > 0 else 0.0,
        "profiles.nodes": nodes,
        "profiles.tasks": len(tasks),
        "profiles.task_nodes_max_share": max(tasks) / nodes if nodes else 0.0,
        "profiles.enumerate_self_s": self_s("profiles.enumerate"),
        "profiles.context_s": self_s("profiles.context"),
        "profiles.context_calls": len(named("profiles.context")),
        "profiles.usable_primes": sum(s.get("usable_primes", 0) for s in named("profiles.context")),
        "sieve.load_s": self_s("sieve.load"),
        "sieve.calls": len(named("sieve.load")),
        "series.convolve_s": self_s("series.convolve"),
        "series.calls": len(named("series.convolve")),
        "series.dense_cells": cells,
        "series.bytes_computed": 8 * cells,  # int64 cells, computed not measured
        "groups.build_s": self_s("groups.build"),
        "constants.report_s": self_s("constants.report"),
        "cli.emit_self_s": self_s("cli.run"),
    }


def layer_metrics(ops_out: dict, probes: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer figures: medians over traced operations; counts must repeat."""
    problems = []
    traced = [i for i, r in enumerate(ops_out["ops"]) if r["traced"]]
    per_op = [_op_figures([s for s in ops_out["spans"] if s["op"] == i]) for i in traced]
    values = {k: statistics.median(f[k] for f in per_op) for k in per_op[0]}
    for k in EXACT:
        if len({f[k] for f in per_op}) > 1:
            problems.append(f"{k} differs between traced operations: {[f[k] for f in per_op]}")
        values[k] = per_op[0][k]

    builds = []
    for p in probes:
        own = tracer.self_times(p["spans"])
        builds.append([(own[s["id"]], s.get("primes", 0)) for s in p["spans"] if s["name"] == "sieve.build"])
    values["sieve.build_s"] = statistics.median(sum(t for t, _ in b) for b in builds)
    primes = {sum(n for _, n in b) for b in builds}
    if len(primes) > 1:
        problems.append(f"sieve.primes differs between set-up probes: {sorted(primes)}")
    values["sieve.primes"] = max(primes)

    walls = [r["wall_s"] for r in ops_out["ops"]]
    values["trace.overhead_s"] = statistics.median(
        w for w, r in zip(walls, ops_out["ops"]) if r["traced"]
    ) - statistics.median(w for w, r in zip(walls, ops_out["ops"]) if not r["traced"])

    missing = set(ops_out["unmeasured"]) | {m for p in probes for m in p["unmeasured"]}
    live = {name for name, module, attr in tracer.TARGETS if f"{module}.{attr}" not in missing}
    metrics = {}
    for name, unit, sources in PER_LAYER:
        if not live.issuperset(sources):
            metrics[name] = {"value": None, "unit": unit, "status": "unmeasured"}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Fraction) -> dict:
    import workloads

    wl = workloads.WORKLOADS[workload]
    inp = wl.inputs(seed, scale)
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "ops").mkdir(parents=True)
    try:
        probes = _probes(wl, inp, work, trace)
        cache_dir = work / "cache0"  # warm: probe 0 sieved the table there
        spec = {
            "src": str(SRC), "workload": workload, "inputs": inp,
            "workdir": str(work / "ops"), "cache_dir": str(cache_dir),
            "seconds": seconds, "trace": trace, "min_ops": 2 if trace else 1,
            "sink": str(work / "ops.sink"), "result": str(work / "ops.json"),
        }
        ops_out = _child("ops", spec, cache_dir, seconds + OPS_GRACE_S)
        if ops_out is None:
            raise BenchError("workload process failed")
        if ops_out["cache_built_during_ops"]:
            print("warning: the prime cache grew during timed operations", file=sys.stderr)

        os.environ["ABELIAN_CENSUS_CACHE"] = str(cache_dir)
        try:
            ref = wl.reference(inp, cache_dir)
            ref_error = None
        except Exception as exc:  # a broken reference fails every operation
            ref, ref_error = None, f"reference failed: {exc!r}"
        failed = 0
        for i, r in enumerate(ops_out["ops"]):
            problems = [r["error"]] if "error" in r else (
                [ref_error] if ref_error else wl.check(inp, r["output"], ref)
            )
            if problems:
                failed += 1
                print(f"operation {i} failed: " + "; ".join(problems[:5]), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    records = ops_out["ops"]
    ok = [r for r in records if "error" not in r] or records
    correct = failed == 0
    if trace:
        metrics, problems = layer_metrics(ops_out, probes)
        for p in problems:
            print(f"exact count check failed: {p}", file=sys.stderr)
        correct = correct and not problems
    else:
        untraced = {
            "run_s": statistics.median(r["wall_s"] for r in ok),
            "cpu_s": statistics.median(r["cpu_s"] for r in ok),
            "peak_rss_mb": ops_out["peak_rss_mb"],
            "setup_s": statistics.median(p["setup_s"] for p in probes),
        }
        metrics = {name: {"value": untraced[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "walls": [r["wall_s"] for r in records],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("walk", "euler", "slices", "parallel"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=Fraction, default=Fraction(1))
    args = parser.parse_args(argv)

    if not (SRC / "abelian_census" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    walls = result.pop("walls")
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} operations, "
          f"wall s {[round(w, 3) for w in walls]}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        shown = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name} = {shown} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
