"""Compare two groups of benchmark results files, metric by metric.

    python3 perfbench/compare.py --base base-*.json --new new-*.json

Each file is one ``run.py`` results file.  The comparison refuses to run
(exit 2) unless every file measured the same workload configuration
(config digest and seed), the same run lengths and trace mode, on the
same host fingerprint: numbers from another input size or another
machine are a trajectory, not evidence.

For each metric it prints both medians and quartiles, and flags a
metric whose new median is worse than the base median by more than the
bound ``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Provenance fields that must agree across every compared file.
MUST_MATCH = ("workload", "config_digest", "seed")
RUN_MUST_MATCH = ("seconds", "scale", "trace")


def load(path: Path) -> Dict[str, Any]:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def mismatches(files: List[Path], docs: List[Dict[str, Any]]) -> List[str]:
    reference = docs[0]["provenance"]
    problems = []
    for path, doc in zip(files[1:], docs[1:]):
        prov = doc["provenance"]
        for key in MUST_MATCH:
            if prov[key] != reference[key]:
                problems.append(f"{path}: {key} {prov[key]!r} != "
                                f"{reference[key]!r} ({files[0]})")
        for key in RUN_MUST_MATCH:
            if prov["run"][key] != reference["run"][key]:
                problems.append(f"{path}: run {key} {prov['run'][key]!r} "
                                f"!= {reference['run'][key]!r}")
        if prov["host"]["fingerprint"] != reference["host"]["fingerprint"]:
            problems.append(f"{path}: host fingerprint differs from "
                            f"{files[0]}")
    return problems


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[{q1:.6g}, {q3:.6g}]"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    files = list(args.base) + list(args.new)
    docs = [load(path) for path in files]
    problems = mismatches(files, docs)
    if problems:
        print("refusing to compare:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 2

    bench = load(args.bench)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base_docs, new_docs = docs[:len(args.base)], docs[len(args.base):]
    names = list(base_docs[0]["summary"]["metrics"])
    print(f"workload {docs[0]['provenance']['workload']}, seed "
          f"{docs[0]['provenance']['seed']}: {len(base_docs)} base, "
          f"{len(new_docs)} new")
    worse = 0
    for name in names:
        base = [d["summary"]["metrics"][name]["value"] for d in base_docs]
        new = [d["summary"]["metrics"][name]["value"] for d in new_docs]
        base_median, new_median = statistics.median(base), \
            statistics.median(new)
        change = ((new_median - base_median) / base_median
                  if base_median else 0.0)
        verdict = ""
        metric = spec.get(name, {})
        if "bound" in metric:
            sign = 1.0 if metric["better"] == "lower" else -1.0
            if sign * change > metric["bound"]:
                verdict = f"  WORSE than bound {metric['bound']}"
                worse += 1
        unit = docs[0]["summary"]["metrics"][name]["unit"]
        print(f"{name:32s} {base_median:12.6g} -> {new_median:12.6g} {unit:8s}"
              f" {change:+8.2%}  base {spread(base)} new {spread(new)}"
              f"{verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
