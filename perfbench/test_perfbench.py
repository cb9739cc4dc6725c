"""Short runs of the benchmark: determinism, trace identity, the gate.

    python3 -m pytest perfbench -q

The windows here are the smallest that still hold 10k samples; the
warm-ups are the real ones, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402

SHORT = 2.5        # --seconds: the smallest windows with 10k samples


def test_repeats_of_a_seed_are_bit_identical():
    first, second = (bench.run_rep("randwrite-destage", 7, SHORT,
                                   check_ftl=False)
                     for _ in range(2))
    assert bench.sim_metrics([first]) == bench.sim_metrics([second])
    assert first["delta"] == second["delta"]
    assert first["engine"] == second["engine"]
    assert (first["done"] == second["done"]).all()


def test_a_run_pools_its_repetitions():
    out = bench.run_untraced("randwrite-destage", 7, SHORT, reps=2)
    assert out["errors"] == []
    rows = [r["rows"] for r in out["reps"]]
    assert rows == [bench.window_size("randwrite-destage", SHORT)] * 2
    assert out["attempted"] == sum(rows) == out["metrics"]["samples"]
    # Each repetition runs its own sub-seed.
    assert out["reps"][0]["delta"] != out["reps"][1]["delta"]


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_run_matches_untraced_and_accounts_for_the_window(
        workload, tmp_path):
    out = bench.run_traced(workload, 7, SHORT, spans_dir=tmp_path)
    # run_traced itself compares simulated metrics and engine batching
    # between the two repetitions and checks that the layers' self
    # times add up to the window's wall time.
    assert out["errors"] == []
    plain, traced = out["reps"]
    assert bench.sim_metrics([plain]) == bench.sim_metrics([traced])
    assert plain["delta"] == traced["delta"]
    assert plain["engine"] == traced["engine"]
    layers = out["layers"]
    total = sum(layers[name]["self_s"] for name in
                ("sim", "workloads", "cluster", "core", "ssd", "hdd"))
    assert total == pytest.approx(layers["root_s"], rel=1e-9)
    assert (tmp_path / f"spans-{workload}-seed7.npz").is_file()
    assert set(out["metrics"]) == {
        m["name"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def test_wrappers_are_removed_after_a_traced_run():
    tracer = bench.Tracer()
    stack = bench._src_stack()
    bench.wrap_stack(tracer, None, stack.caches, stack.ssds, stack.origin)
    assert "submit" in vars(stack.target)
    tracer.restore()
    for obj in [stack.target, stack.origin, *stack.ssds]:
        assert not {"submit", "submit_chunk", "submit_write_fast",
                    "submit_flush_fast"} & set(vars(obj))


def test_a_failed_check_fails_every_op(monkeypatch, capsys):
    monkeypatch.setattr(bench.InvariantSuite, "check_all",
                        lambda self: ["planted violation"])
    code = run.main(["--workload", "randwrite-destage", "--seed", "7",
                     "--seconds", str(SHORT), "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "msr-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
