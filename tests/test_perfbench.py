"""The benchmark's tracer wraps failcast functions by name, so a rename in
``src/`` must show here as well as in ``perfbench/smoke.py``."""

import json
import os
import pathlib
import runpy
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_generate_and_evaluate_span_every_benchmarked_layer(tmp_path):
    # run_path executes run.py without importing it, so nothing is written
    # under perfbench/.
    layers = runpy.run_path(str(PERFBENCH / "run.py"))["LAYER_TIMES"]
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    spans_path, data = tmp_path / "spans.json", tmp_path / "data"
    names = set()
    for command in (["generate", "--out-dir", str(data), "--machines", "8",
                     "--days", "45", "--seed", "7"],
                    ["evaluate", "--in-dir", str(data), "--out-dir", str(tmp_path / "report")]):
        done = subprocess.run([sys.executable, str(PERFBENCH / "trace_run.py"),
                               str(spans_path), *command],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        names |= {span[0] for span in json.loads(spans_path.read_text())["spans"]}
    assert sorted(set(layers) - names) == []
