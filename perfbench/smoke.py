"""Smoke test of the benchmark itself, on the tiny size (8 machines x 45 days).

Usage: python3 perfbench/smoke.py [--seed N]

For every workload, untraced and traced, at a seed other than the default
(so a FoldError on an unseen seed shows), it checks that run.py:
  * exits 0 and ends with the JSON result line, with no failed evaluate;
  * reports exactly the metrics BENCHMARK.json declares for that mode, each
    with its declared unit, and prints each one on a human-readable line.
It then traces one tiny evaluate directly and checks that the spans nest in
the root span and that their self times add up to the traced wall time.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import run

TINY_SECONDS = "1"


def declared_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def check_run(workload, seed, trace, declared):
    argv = [sys.executable, os.path.join(run.HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", TINY_SECONDS, "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    label = f"{workload} --trace {trace} --seed {seed}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {declared}")
    for name, unit in declared.items():
        if not any(line.split()[1:2] == [name] and line.endswith(f" {unit}")
                   for line in lines[:-1] if line.startswith(workload)):
            problems.append(f"{label}: no printed line for {name} [{unit}]")
    return problems


def check_spans(seed):
    """Trace a tiny generate + evaluate by hand and check span arithmetic."""
    machines, days, _ = run.SIZES["tiny"]["year-3fold"]
    env = dict(os.environ, PYTHONPATH=run.SRC)
    problems = []
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench_smoke_") as tmp:
        spans_path = os.path.join(tmp, "spans.json")
        for command in (["generate", "--out-dir", os.path.join(tmp, "data"),
                         "--machines", str(machines), "--days", str(days),
                         "--seed", str(seed)],
                        ["evaluate", "--in-dir", os.path.join(tmp, "data"),
                         "--out-dir", os.path.join(tmp, "report")]):
            done = subprocess.run([sys.executable, run.TRACE_RUN, spans_path, *command],
                                  env=env, capture_output=True, text=True, timeout=170)
            if done.returncode != 0:
                return [f"trace_run {command[0]}: exit {done.returncode}: {done.stderr[-500:]}"]
            with open(spans_path) as handle:
                spans = json.load(handle)["spans"]
            (root,) = [s for s in spans if s[3] is None]
            for name, start, end, parent in spans:
                outer = spans[parent] if parent is not None else root
                if not outer[1] <= start <= end <= outer[2]:
                    problems.append(f"{command[0]}: span {name} escapes {outer[0]}")
            wall = root[2] - root[1]
            total = sum(run.self_times(spans).values())
            if abs(total - wall) > 1e-6 * max(wall, 1.0):
                problems.append(f"{command[0]}: self times sum {total} != wall {wall}")
            names = {s[0] for s in spans}
            wanted = (set(run.SETUP_LAYERS) if command[0] == "generate"
                      else set(run.LAYER_TIMES) - set(run.SETUP_LAYERS))
            if wanted - names:
                problems.append(f"{command[0]}: no spans for {sorted(wanted - names)}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="a seed other than the default 0")
    args = parser.parse_args()
    end_to_end, per_layer = declared_metrics()
    problems = []
    for workload in run.WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            found = check_run(workload, args.seed, trace, declared)
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}")
            problems += found
    found = check_spans(args.seed)
    print(f"{'FAIL' if found else 'ok  '} span self times add up to the traced wall")
    problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
