"""Self-test of the benchmark at a tiny input scale.

    python3 perfbench/selftest.py

Runs every workload untraced and traced through the same command line
the benchmark uses, and fails (exit 1) unless:

* every run's output checks pass and its last line is the result object;
* every metric ``BENCHMARK.json`` names is emitted with its unit, the
  end-to-end ones untraced and the per-layer ones traced;
* every end-to-end metric is nonzero;
* every layer gets nonzero self time in at least one traced workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYERS  # noqa: E402
from run_all import run_workload, workloads  # noqa: E402

SCALE = 0.15


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: List[str] = []
    self_time = {layer: 0.0 for layer in LAYERS}
    for workload in workloads():
        for trace, spec in ((0, bench["end_to_end"]),
                            (1, bench["per_layer"])):
            result = run_workload(
                workload, seed=3, seconds=1, trace=trace, scale=SCALE,
                out=HERE / "results" / "selftest"
                / f"{workload}-trace{trace}.json", echo=False)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: checks failed")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec}
            if set(metrics) != set(wanted):
                problems.append(
                    f"{workload} trace {trace}: metrics "
                    f"{sorted(set(metrics) ^ set(wanted))} do not match "
                    "BENCHMARK.json")
            for name, unit in wanted.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit:
                    problems.append(f"{workload}: {name} unit "
                                    f"{got.get('unit')!r} != {unit!r}")
                if trace == 0 and not got.get("value"):
                    problems.append(f"{workload}: {name} is zero")
            if trace:
                for layer in LAYERS:
                    self_time[layer] += metrics[f"{layer}.self_s"]["value"]
            print(f"{workload} trace {trace}: ok")
    problems.extend(f"layer {layer} got no self time in any workload"
                    for layer, seconds in self_time.items() if seconds <= 0)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
