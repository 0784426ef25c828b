"""Benchmark of the AMS-sort / RLM-sort simulator: one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ams_p8192_l3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each in its own process

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
root.  A run sets up (input generation, machine construction, a cold sort),
then measures warm units for ``--seconds`` and checks every output.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced units and prints the per-layer metrics,
whose spans it writes under ``.perfbench/``.  Metrics of a layer the
workload does not run read 0.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``wall_s`` and ``setup_s`` are medians scaled to the nominal speed of a
fixed numpy reference task timed in the same run (see
``workloads.Reference``), because the speed of a shared host drifts by a
quarter between runs; the measured seconds are printed beside them.  Every
run appends a record with its provenance to ``.perfbench/records.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli_output(args, cwd: Path) -> str | None:
    try:
        proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int, backend_used) -> dict:
    """Where and on what a run was measured; walls compare within one."""
    import numpy as np

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        git_sha = _cli_output(["git", "rev-parse", "HEAD"], ROOT)
    l3 = _cli_output(["getconf", "LEVEL3_CACHE_SIZE"], ROOT)
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "cores": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "l3_bytes": int(l3) if l3 and l3.isdigit() else None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "backend_used": backend_used,
        "REPRO_ARENA": os.environ.get("REPRO_ARENA"),
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
        "seed": seed,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = _spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if workload == workloads.CAMPAIGN:
        res = workloads.run_campaign(seed, seconds, trace, ROOT, OUT_DIR)
    else:
        res = workloads.run_sort(workload, seed, seconds, trace, ROOT, OUT_DIR)

    metrics = {}
    for m in declared:
        name = m["name"]
        if name in res.metrics:
            value = res.metrics[name]
        elif name.startswith(res.not_exercised):
            value = 0
        else:
            raise RuntimeError(f"workload {workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
        note = "  (layer not run by this workload)" if name not in res.metrics else ""
        print(f"{name} = {value:.6g} {m['unit']}{note}")
    for line in res.lines:
        print(line)
    for problem in res.problems:
        print(f"CHECK FAILED: {problem}")
    prov = provenance(seed, res.record.get("backend_used"))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    correct = not res.problems and res.failed == 0
    result = {"correct": correct, "attempted": res.attempted,
              "failed": res.failed, "metrics": metrics}
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              **result, "provenance": prov, "detail": res.record}
    with open(OUT_DIR / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process; a combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in _spec()["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(f"== {w['name']}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{w['name']} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        one = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for name, m in one["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside, unwind so that child processes are killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} needs src/repro and BENCHMARK.json to measure",
              file=sys.stderr)
        return 2
    spec = _spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}, all")
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
