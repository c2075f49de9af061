"""Checks on the benchmark itself (about a minute).

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

The file name keeps it out of the engine's default pytest collection.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_engine()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _worker(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", "0", "--job", "0", *extra],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_same_seed_same_inputs_other_seed_other_inputs():
    first = workloads.invariants_points(7, 0, rounds=2)
    assert first == workloads.invariants_points(7, 0, rounds=2)
    assert first != workloads.invariants_points(8, 0, rounds=2)
    assert first != workloads.invariants_points(7, 1, rounds=2)


def test_corrupted_expected_value_is_a_failure():
    cases = workloads.setup("invariants", 0, 0)[:4]
    assert all(r.error is None for r in workloads.run("invariants", cases))
    cases[0] = dataclasses.replace(cases[0], decomposition=cases[1].decomposition)
    errors = [r.error for r in workloads.run("invariants", cases)]
    assert errors[0] is not None and "decompose" in errors[0]
    assert errors[1:] == [None] * 3

    count_report = workloads.CLI_JOBS["census"][2:]
    good = workloads.EXPECTED_DIGESTS["census"][2:]
    assert workloads.run("census", count_report, expected=good)[0].error is None
    bad = workloads.run("census", count_report, expected=("0" * 64,))
    assert "sha256" in bad[0].error


def test_tracing_keeps_outputs_and_counts_the_right_layers():
    calls = {}
    for workload in ("census", "fibre"):
        plain = _worker(workload)
        traced = _worker(workload, "--trace")
        assert traced["digest"] == plain["digest"]
        assert all(err is None for _s, err in plain["ops"] + traced["ops"])
        calls[workload] = traced["layers"]
        bound = {name: {mod.rsplit(".", 1)[-1] for mod, _attr in where}
                 for name, where in traced["bindings"].items()}
        assert {"exact_linalg", "decomposition", "degeneration_lab"} <= bound["exact_linalg.rank"]
        assert {"parametrizations", "orbit_poset", "degeneration_lab", "cli"} <= bound[
            "parametrizations.sw_array"]
        assert {"grid_quiver", "parametrizations", "decomposition"} <= bound[
            "grid_quiver.window_products"]
    rep = "degeneration_lab.rep_variety_count.calls"
    poset = "orbit_poset.build_poset.calls"
    assert calls["fibre"][rep] > 0 and calls["census"][rep] == 0
    assert calls["census"][poset] > 0 and calls["fibre"][poset] == 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.layer_metrics()
    ]


def test_fails_without_engine_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("traces", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "census", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
