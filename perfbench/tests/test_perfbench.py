"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

from layertrace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT, timeout: float = 170) -> tuple[int, dict | None]:
    """Run the benchmark command; returns (exit code, parsed last line or None)."""
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--seconds", "0.5", "--size", "tiny", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def test_spec_lists_the_workloads_the_runner_knows():
    from run import WORKLOADS

    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result = bench("--workload", workload, "--seed", "5", "--trace", trace)
    assert code == 0
    assert result is not None and set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in wanted
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_a_planted_wrong_expectation_fails_the_run(workload):
    code, result = bench("--workload", workload, "--seed", "5", "--plant-wrong-expectation")
    assert code == 1
    assert result is not None and result["correct"] is False


def test_a_forced_429_counts_as_a_failed_unit():
    # The daemon refuses quotas of 0, so a queue of one request forces the
    # two concurrent tenants into 429s.
    code, result = bench("--workload", "serve", "--seed", "5", "--daemon-arg=--queue-limit=1")
    assert code == 0 and result["correct"] is True
    assert 0 < result["failed"] < result["attempted"]
    fraction = result["metrics"]["verified_fraction"]["value"]
    assert fraction == (result["attempted"] - result["failed"]) / result["attempted"]

    code, traced = bench(
        "--workload", "serve", "--seed", "5", "--trace", "1", "--daemon-arg=--queue-limit=1"
    )
    assert code == 0
    # Every failed unit was a 429; a refused session delete is one more.
    assert traced["metrics"]["serve.admission.rejected"]["value"] >= traced["failed"] > 0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("--workload", "changes", "--seed", "1", cwd=tmp_path, timeout=60)
    assert code != 0
    assert result is None


def test_same_seed_same_inputs_other_seed_other_inputs():
    from run import import_program

    import_program()
    from workloads import Changes

    def ids(seed):
        return [
            (scenario.change_id, scenario.description, sorted(scenario.post.fec_ids()))
            for _db, scenario in Changes().build(seed, "tiny")
        ]

    assert ids(3) == ids(3)
    assert ids(3) != ids(4)


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.span("child", child)

    def parent():
        time.sleep(0.01)
        traced_child()

    tracer.span("parent", parent)()
    stats = tracer._stats
    assert stats["child"][0] == stats["parent"][0] == 1
    assert stats["parent"][1] >= stats["child"][1] >= 0.02
    assert stats["parent"][2] == pytest.approx(stats["parent"][1] - stats["child"][1])
    tracer.reset()
    assert tracer._stats == {}
