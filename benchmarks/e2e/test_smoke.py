"""Smoke test of the e2e benchmark: the same code paths at ~1/50 size.

Run with ``python -m pytest benchmarks/e2e/test_smoke.py`` from the
repository root; it spawns the benchmark's own worker processes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

from benchmarks.e2e import ROOT, load_spec


def test_smoke_run_emits_every_metric_finite_and_correct(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--trace",
         "--repeat", "1", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spec = load_spec()
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in result["workloads"].items():
        e2e = {metric: s["median"] for metric, s in entry["metrics"].items()}
        layers = entry["traced"]["layers"]
        for metric in spec["end_to_end"]:
            assert math.isfinite(e2e[metric["name"]]), (name, metric["name"])
        for metric in spec["per_layer"]:
            assert math.isfinite(layers[metric["name"]]), (name, metric["name"])
        assert e2e["ops_failed_frac"] == 0, name
        assert layers["ops_failed_frac"] == 0, name
