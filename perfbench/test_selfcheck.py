"""Tiny-size self-check of the benchmark; takes a few seconds.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload",
                         [w["name"] for w in spec()["workloads"]])
@pytest.mark.parametrize("traced", [0, 1])
def test_workload_reports_every_metric(workload, traced):
    done = run("--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(traced), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record, summary = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0, record["failures"]
    assert summary["attempted"] >= 1
    assert record["fail_ratio"]["value"] == 0
    kind = "per_layer" if traced else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec()[kind]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == wanted
    for name, metric in summary["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not traced:
            assert metric["value"] > 0, name
    env = record["environment"]
    assert {"git_revision", "python", "numpy", "nproc", "seed"} <= set(env)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "design", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_reduce_oracle_rejects_wrong_results():
    words = ["000", "001", "01", "110"]
    expected = ref.reduce(words)
    assert sorted(expected) == ["0", "110"]
    assert ref.reduce_ok(words, expected) is None
    assert ref.reduce_ok(words, ["00", "01", "110"]) is not None  # not maximal
    assert ref.reduce_ok(words, ["0", "11"]) is not None          # too wide
    assert ref.reduce_ok(words, ["0", "01", "110"]) is not None   # not prefix-free


def test_container_reader_matches_the_documented_layout():
    data = b"AIFV\x01" + (5).to_bytes(8, "little") \
        + (10).to_bytes(8, "little") + bytes([0b10011010, 0b01000000])
    assert ref.container(data) == ("1001101001", 5)
    assert ref.container(data[:-1]) is None
    assert ref.container(data[:-1] + b"\x41") is None  # padding bit set
