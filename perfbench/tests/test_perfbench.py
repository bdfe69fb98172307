"""Tests of the benchmark itself: output format, checks, tiny runs.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from repro.core.search_space import Architecture, SearchSpace  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = list(wl.workloads(ROOT / ".perfbench"))


def _run(args, cwd=ROOT, env_extra=None):
    env = dict(os.environ, **(env_extra or {}))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    return {"REPRO_HISTORY_DIR": str(tmp_path_factory.mktemp("history"))}


# ----------------------------------------------------------------------
# output format + tiny runs of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_the_declared_metrics(workload, trace, history):
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace), "--size", "tiny"],
        env_extra=history,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert NAME.match(metric["name"]), metric["name"]
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert np.isfinite(reported["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    elif workload == "serve-open-loop":
        assert result["metrics"]["autograd.backward_calls"]["value"] == 0
        assert result["metrics"]["autograd.tape_nodes"]["value"] == 0


def test_tape_node_count_repeats_exactly(history):
    counts = []
    for __ in range(2):
        proc = _run(
            ["--workload", "candidate-train", "--seed", "5", "--seconds", "1",
             "--trace", "1", "--size", "tiny"],
            env_extra=history,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append(metrics["autograd.tape_nodes"]["value"])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("workload", ["candidate-train", "pool-sweep"])
def test_candidate_val_acc_does_not_depend_on_run_length(workload, history):
    results = []
    for seconds in ("0.1", "4"):
        proc = _run(
            ["--workload", workload, "--seed", "4", "--seconds", seconds,
             "--trace", "0", "--size", "tiny"],
            env_extra=history,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    short, long = results
    assert long["attempted"] > short["attempted"]
    assert short["metrics"]["val_acc"] == long["metrics"]["val_acc"]


def test_several_workloads_run_in_separate_processes(history):
    proc = _run(
        ["--workload", "supernet-search,candidate-train", "--seed", "2",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        env_extra=history,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [
        f"{w}:{m['name']}" for w in ("supernet-search", "candidate-train")
        for m in SPEC["end_to_end"]
    ]
    # Each child reports its own peak; a shared process would carry the
    # first workload's peak into the second.
    assert proc.stdout.count("environment (as found") == 2


# Per-layer metrics that read 0 in a healthy run. Every served request
# targets the engine's default graph, whose plans are pinned outside the
# LRU plan cache, so the LRU sees no lookups.
ZERO_WHEN_HEALTHY = {"serve.errors", "serve.deadline_exceeded", "serve.plan_cache.hit_rate"}


def test_every_per_layer_metric_is_measured_on_a_declared_workload(history):
    declared = [w["name"] for w in SPEC["workloads"]]
    proc = _run(
        ["--workload", ",".join(declared), "--seed", "6", "--seconds", "1",
         "--trace", "1", "--size", "tiny"],
        env_extra=history,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    unmeasured = [
        m["name"] for m in SPEC["per_layer"]
        if m["name"] not in ZERO_WHEN_HEALTHY
        and not any(metrics[f"{w}:{m['name']}"]["value"] for w in declared)
    ]
    assert unmeasured == []


def test_spec_names_are_well_formed():
    # pool-sweep stays runnable but out of BENCHMARK.json (README).
    assert [w["name"] for w in SPEC["workloads"]] == [
        w for w in WORKLOADS if w != "pool-sweep"
    ]
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def _session_of(pid: str) -> int | None:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return int(stat.rsplit(")", 1)[1].split()[3])


@pytest.mark.parametrize("workload", ["candidate-train", "pool-sweep"])
def test_run_leaves_no_process_behind(workload, history):
    # The pool's workers, and the resource tracker its spawn context
    # starts, must have ended (and been reaped) when the run exits.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, env=dict(os.environ, **history), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    __, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err[-2000:]
    left = [pid for pid in os.listdir("/proc")
            if pid.isdigit() and _session_of(pid) == proc.pid]
    assert left == []


def test_incomplete_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# every correctness check trips on a corrupted result
# ----------------------------------------------------------------------
def _snapshots():
    return [{"node": np.zeros((3, 11)), "skip": np.zeros((3, 2)), "layer": np.zeros((1, 3))}]


def test_search_check():
    space = SearchSpace(3)
    good = Architecture(("gcn",) * 3, ("identity",) * 3, "concat")
    assert wl.check_search(space, good, _snapshots(), [1.0, 1.1]) == []
    assert wl.check_search(space, good, _snapshots(), [1.0, float("nan")])
    bad_alpha = _snapshots()
    bad_alpha[0]["skip"][1, 0] = np.inf
    assert wl.check_search(space, good, bad_alpha, [1.0, 1.1])
    narrow = SearchSpace(3, node_ops=("gat",))
    assert wl.check_search(narrow, good, _snapshots(), [1.0, 1.1])


def test_candidate_check():
    assert wl.check_candidate(0.5, 0.6, [1.0, 0.9], 2, 2) == []
    assert wl.check_candidate(1.5, 0.6, [1.0, 0.9], 2, 2)
    assert wl.check_candidate(0.5, float("nan"), [1.0, 0.9], 2, 2)
    assert wl.check_candidate(0.5, 0.6, [1.0, float("inf")], 2, 2)
    assert wl.check_candidate(0.5, 0.6, [1.0], 1, 2)


def test_served_check():
    direct = np.arange(12.0).reshape(4, 3)
    assert wl.check_served(direct.copy(), direct) == []
    corrupted = direct.copy()
    corrupted[2, 1] = np.nextafter(corrupted[2, 1], np.inf)
    assert wl.check_served(corrupted, direct)
    assert wl.check_served(direct[:3], direct)


def test_pool_score_check():
    assert wl.check_pool_scores((0.5, 0.25), (0.5, 0.25)) == []
    assert wl.check_pool_scores((0.5, 0.25), (0.5, np.nextafter(0.25, 1.0)))


def test_stratified_design_balances_ops_and_is_seeded():
    space = SearchSpace(3)
    design = wl.stratified_design(space, seed=4, blocks=2, block=12)
    assert design == wl.stratified_design(space, seed=4, blocks=2, block=12)
    assert design != wl.stratified_design(space, seed=5, blocks=2, block=12)
    for block in (design[:12], design[12:]):
        for layer in range(3):
            counts = np.bincount([c[layer] for c in block], minlength=11)
            assert counts.min() >= 1 and counts.max() <= 2
        assert np.bincount([c[-1] for c in block]).tolist() == [4, 4, 4]
