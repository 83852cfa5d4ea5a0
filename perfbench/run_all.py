"""Run every benchmark workload, each in its own process.

    python3 perfbench/run_all.py --seed 1 --seconds 20 --trace 0

Prints each workload's metric lines as ``run.py`` does, then one JSON
line mapping each workload to its result object.  Exits 1 if any
workload's output checks failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def workloads() -> List[str]:
    """The workloads ``BENCHMARK.json`` names, in its order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [workload["name"] for workload in bench["workloads"]]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 scale: float = 1.0, out: Optional[Path] = None,
                 echo: bool = True) -> Dict:
    """One ``run.py`` process; returns its result object."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--scale", str(scale)]
    if out is not None:
        command += ["--out", str(out)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=600)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited "
                         f"{completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]))
        sys.stderr.write(completed.stderr)
    return json.loads(lines[-1])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    results = {workload: run_workload(workload, args.seed, args.seconds,
                                      args.trace)
               for workload in workloads()}
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
