"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced twice.

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the traced run's exact counts repeat, and that no span wrapper stays installed.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run as harness  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_UNITS = ("count", "bytes")


def _units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload(workload, tmp_path):
    before = spans.wrapped_names()
    plain, plain_record = harness.run_workload(workload, 5, 0.0, False, tmp_path, tiny=True)
    traced = [harness.run_workload(workload, 5, 0.0, True, tmp_path, tiny=True) for _ in range(2)]
    after = spans.wrapped_names()

    assert all(after[key] is before[key] for key in before), "a span wrapper was left installed"
    for result in (plain, traced[0][0], traced[1][0]):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(traced[0][0]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    counts = [{name: metric["value"] for name, metric in result["metrics"].items() if metric["unit"] in EXACT_UNITS}
              for result, _ in traced]
    assert counts[0] == counts[1]
    assert plain_record["digest"] == traced[0][1]["digest"] == traced[1][1]["digest"]
