"""Self-test of the benchmark (not part of the repository's test suite).

    python3 benchmarks/selftest.py [--workload W ...] [--seed N]

For each workload, one untraced run of one second (one round, or a few short
ones) and two traced runs with the same seed, each of the workload's fixed
number of rounds.  Asserts that every metric named in BENCHMARK.json is
emitted with its unit, and that every per-layer count repeats exactly across
the two traced runs.  Takes about five minutes, most of it in ``leps``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmarks" / "run.py"


def deterministic(name: str) -> bool:
    """Per-layer metrics that are counts or ratios of counts and outputs."""
    return (name.endswith((".calls", ".matrices", "tilt_evals", "_ratio", "restart_spread",
                           "_mean", "failed_frac"))
            or "_per_" in name or name.startswith("failed."))


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: correct is {result['correct']}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def expect_metrics(result: dict, spec: list[dict], where: str) -> None:
    got = result["metrics"]
    assert set(got) == {m["name"] for m in spec}, f"{where}: {set(got) ^ {m['name'] for m in spec}}"
    for m in spec:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{where}: {m['name']} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)), f"{where}: {m['name']} not a number"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    for workload in args.workload or names:
        expect_metrics(run(workload, args.seed, 0), bench["end_to_end"], f"{workload} untraced")
        first, second = run(workload, args.seed, 1), run(workload, args.seed, 1)
        for result in (first, second):
            expect_metrics(result, bench["per_layer"], f"{workload} traced")
        counts = [m["name"] for m in bench["per_layer"] if deterministic(m["name"])]
        differ = {n: (first["metrics"][n]["value"], second["metrics"][n]["value"])
                  for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]}
        assert not differ, f"{workload}: counts differ between runs with one seed: {differ}"
        print(f"{workload}: ok ({len(counts)} per-layer counts repeat exactly)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
