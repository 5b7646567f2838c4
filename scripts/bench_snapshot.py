#!/usr/bin/env python3
"""Record one benchmark snapshot of this checkout: every workload, untraced.

    python3 scripts/bench_snapshot.py [--seed 1] [--out DIR]

Runs the command of ``BENCHMARK.json`` (``perfbench/run.py``) with
``--trace 0`` once per declared workload, each in a fresh process, and
writes ``BENCH_<short-commit>.json`` into ``--out`` (default: the checkout
root). The file holds, per workload, the run's provenance line and its final
result object, so later changes can diff snapshots instead of prose. The
commit named is HEAD; uncommitted edits are measured too. Exits 1 when any
run fails or misses its correctness gate; the snapshot is written anyway.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json_lines(stdout: str) -> tuple[dict, dict]:
    """(provenance, result): the provenance line and the final result object."""
    docs = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    provenance = next(d["provenance"] for d in docs if "provenance" in d)
    return provenance, docs[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True, check=True).stdout.strip()
    snapshot = {"commit": commit, "seed": args.seed, "seconds": spec["run_seconds"],
                "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [*spec["command"], "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        try:
            provenance, result = last_json_lines(proc.stdout)
        except (StopIteration, ValueError, IndexError):
            sys.stderr.write(f"{workload}: no result (exit {proc.returncode})\n")
            snapshot["workloads"][workload] = {"exit": proc.returncode}
            ok = False
            continue
        ok &= proc.returncode == 0 and result.get("correct") is True
        snapshot["workloads"][workload] = {"provenance": provenance, "result": result}
        metrics = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload}: {metrics}", flush=True)
    path = args.out / f"BENCH_{commit}.json"
    path.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
