"""Self-test of the benchmark harness at tiny bounds; takes about a minute.

    python3 perfbench/selftest.py

It checks that every workload, untraced and traced, prints every metric
declared in BENCHMARK.json by name with its unit and ends with the result
object; that the exact per-layer counts repeat between two traced runs;
that the exactness check flags a count corrupted in its input (the package
itself is never touched); and that the benchmark fails without a result
when the package source is absent.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run

SEED = 3
SCALE = Fraction(1, 1000)
REPEATED = run.EXACT + ("sieve.primes",)


def _bench(args: list[str], cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _run_workload(name: str, trace: int, declared: list[dict]) -> dict:
    proc = _bench(["--workload", name, "--seed", str(SEED), "--seconds", "1",
                   "--trace", str(trace), "--scale", str(SCALE)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    assert list(result["metrics"]) == [m["name"] for m in declared], list(result["metrics"])
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert any(
            line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines[:-1]
        ), f"{m['name']} not printed with its unit"
    return result


def check_metrics_print() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for wl in bench["workloads"]:
        name = wl["name"]
        _run_workload(name, 0, bench["end_to_end"])
        first = _run_workload(name, 1, bench["per_layer"])["metrics"]
        second = _run_workload(name, 1, bench["per_layer"])["metrics"]
        for key in REPEATED:
            assert first[key]["value"] == second[key]["value"], (name, key)
        print(f"ok {name}: metrics print with units, exact counts repeat")


def _corrupt_walk(out: dict) -> None:
    lines = out["csv"].splitlines()
    cells = lines[1].split(",")
    cells[2] = str(int(cells[2]) + 1)
    lines[1] = ",".join(cells)
    out["csv"] = "\n".join(lines) + "\n"


def _corrupt_euler(out: dict) -> None:
    out["pairs"][0][1] += 1


def _corrupt_slices(out: dict) -> None:
    out["2"][0][1] += 1


CORRUPT = {
    "walk": _corrupt_walk,
    "parallel": _corrupt_walk,
    "euler": _corrupt_euler,
    "slices": _corrupt_slices,
}


def check_corruption_is_flagged() -> None:
    sys.path.insert(0, str(run.SRC))
    import workloads

    work = run.WORK_ROOT / f"selftest-{os.getpid()}"
    cache_dir = work / "cache"
    (work / "out").mkdir(parents=True)
    os.environ["ABELIAN_CENSUS_CACHE"] = str(cache_dir)
    try:
        for name, wl in workloads.WORKLOADS.items():
            inp = wl.inputs(SEED, SCALE)
            out = wl.collect(wl.prepare(inp, work / "out", cache_dir)())
            ref = wl.reference(inp, cache_dir)
            assert wl.check(inp, out, ref) == [], name
            bad = copy.deepcopy(out)
            CORRUPT[name](bad)
            assert wl.check(inp, bad, ref), f"{name}: corrupted count not flagged"
            print(f"ok {name}: the check flags a corrupted count")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_fails_without_package() -> None:
    bare = run.WORK_ROOT / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(["--workload", "walk", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
        print("ok: without the package source the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_corruption_is_flagged()
    check_fails_without_package()
    check_metrics_print()
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
