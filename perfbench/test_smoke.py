"""Small-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Every workload emits every metric declared in BENCHMARK.json with its unit,
traced and untraced runs reproduce the reference digest, and the benchmark
refuses to run where there are no kinnav sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), "--episodes", "4"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_and_same_digest(workload):
    details = []
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        *_, detail_line, result_line = proc.stdout.splitlines()
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]
        details.append(json.loads(detail_line)["details"])
    digests = {p["digest"] for d in details for p in d["passes"]}
    assert digests == {details[0]["expected_digest"]}


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("dynb-oracle", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
