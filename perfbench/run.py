"""Run the repository benchmark.

    python3 perfbench/run.py --workload supernet-search --seed 1 --seconds 30 --trace 0

``--workload`` takes one name, a comma-separated list, or ``all``;
several workloads run one after another, each in a process of its own,
so no workload's memory peak or warm caches carry into the next. Every
run prints the environment it found, a table of every
end-to-end metric with its unit (and, with ``--trace 1``, the
per-layer table), appends a manifest to the run ledger so ``repro runs
trend`` tracks the metrics, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics. A failed
correctness check still prints the line (``"correct": false``) and
exits 1. Run from the root of a checkout; the program is imported
from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKDIR = ROOT / ".perfbench"
# Set-up repeats until both floors are met; the median is reported, so
# bursts of machine noise shorter than the budget do not move it.
SETUPS_MIN = 5
SETUP_BUDGET_S = 4.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {ROOT / 'src' / 'repro'}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))


def load_spec() -> dict:
    """Metric name → unit for the end-to-end and per-layer lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def environment() -> dict:
    import numpy as np

    from repro.autograd import kernels
    from repro.obs.runs import git_revision
    from workloads import nproc

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds without the dict report
        blas = {}
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        **{name: os.environ.get(name, "unset") for name in THREAD_ENV},
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS", "unset")
        + f" (active: {kernels.get_backend()})",
        "git_rev": git_revision() or "unknown",
        "python": sys.version.split()[0],
    }


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def measure(workload, seed: int, seconds: float, size, trace: bool) -> dict:
    """Set up repeatedly, then run one (untraced) or two passes."""
    from layers import LayerProbe, trace_overhead

    setup_s = []
    while True:
        t0 = time.perf_counter()
        state = workload.setup(seed, size)
        setup_s.append(time.perf_counter() - t0)
        if len(setup_s) >= SETUPS_MIN and sum(setup_s) >= SETUP_BUDGET_S:
            break
        workload.teardown(state)

    try:
        if not trace:
            cpu0, t0 = _cpu_s(), time.perf_counter()
            result = workload.run(state, seconds)
            cpu_per_wall = (_cpu_s() - cpu0) / (time.perf_counter() - t0)
            return {"setup_s": setup_s, "pass": result, "cpu_per_wall": cpu_per_wall}
        # Traced mode: an untraced pass, then a traced pass on a fresh
        # set-up over the same seeded inputs; their step times give the
        # tracing overhead.
        untraced = workload.run(state, seconds / 2)
        workload.teardown(state)
        state = workload.setup(seed, size)
        with LayerProbe() as probe:
            cpu0, t0 = _cpu_s(), time.perf_counter()
            result = workload.run(state, seconds / 2)
            cpu_per_wall = (_cpu_s() - cpu0) / (time.perf_counter() - t0)
        return {
            "setup_s": setup_s, "pass": result, "cpu_per_wall": cpu_per_wall,
            "probe": probe,
            "overhead": trace_overhead(untraced.step_ms, result.step_ms),
        }
    finally:
        workload.teardown(state)


def end_to_end(measured: dict) -> dict[str, float]:
    result = measured["pass"]
    return {
        "setup_s": statistics.median(measured["setup_s"]),
        "peak_rss_mb": _peak_rss_mb(),
        "ops_ok_frac": 1.0 - result.failed / result.attempted,
        "unit_ms_p50": result.unit_ms_p50,
        "throughput_per_min": result.throughput_per_min,
        "val_acc": result.val_acc,
        "slo_attain": result.slo_attain,
    }


def per_layer(measured: dict, names: list[str]) -> dict[str, float]:
    values = dict.fromkeys(names, 0.0)
    values.update(measured["probe"].metrics(measured["pass"].steps))
    values.update(measured["pass"].layer)
    values["unit_ms_tail"] = measured["pass"].unit_ms_tail
    values["process.cpu_per_wall"] = measured["cpu_per_wall"]
    values["obs.trace_overhead_frac"] = measured["overhead"]
    return {name: float(values[name]) for name in names}


def _peak_rss_mb() -> float:
    """Peak RSS of this process, which runs one workload (``_run_each``).

    Pool workers are separate processes with peaks of their own, which
    need not coincide with this one; they are reported per layer
    (``parallel.worker_peak_rss_mb``), not added here.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _unit(name: str) -> str:
    """Unit of a workload-named metric, from its name."""
    for suffix, unit in (("bytes_moved", "B"), ("cpu_per_wall", "ratio"),
                         ("_ms", "ms"), (".ms", "ms"), ("_s", "s"), ("_rps", "1/s"),
                         ("_per_min", "1/min")):
        if name.endswith(suffix) or f"{suffix}_" in name:
            return unit
    if name.endswith(("frac", "share", "hit_rate", "utilization", "attain", "acc",
                      "acc_mean")):
        return "frac"
    return "count"


def _show(title: str, rows: list[tuple]) -> None:
    print(f"\n{title}")
    width = max((len(str(r[0])) for r in rows), default=10)
    for row in rows:
        print("  " + str(row[0]).ljust(width) + "  " + "  ".join(str(c) for c in row[1:]))


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="tiny: seconds-long runs for the tests")
    args = parser.parse_args(argv)

    _import_program()
    from layers import feeds
    from repro.obs import record_run
    from workloads import SIZES, TAIL_Q, workloads

    WORKDIR.mkdir(exist_ok=True)
    available = workloads(WORKDIR)
    names = list(available) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in available]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(available)}")
    if len(names) > 1:
        return _run_each(names, args)
    name = names[0]
    workload = available[name]
    size = SIZES[args.size]
    spec = load_spec()
    units = {**spec["end_to_end"], **spec["per_layer"]}
    env = environment()
    _show("environment (as found; thread env is recorded, never set)",
          [(k, v) for k, v in env.items()])

    measured = measure(workload, args.seed, args.seconds, size, bool(args.trace))
    result = measured["pass"]
    e2e = end_to_end(measured)
    _show(
        f"{name} — end to end (step: {workload.step}; tail = p{TAIL_Q[name]:g} "
        f"of {len(result.step_ms)} steps; throughput in {workload.throughput_unit})",
        [(m, _fmt(e2e[m]), units[m]) for m in spec["end_to_end"]]
        + [("ops_failed_frac", _fmt(result.failed / result.attempted), "frac")]
        + [(m, _fmt(v), _unit(m)) for m, v in result.named.items()],
    )
    if args.trace:
        metrics = per_layer(measured, list(spec["per_layer"]))
        _show(f"{name} — spans (count, total ms, self ms)",
              [(n, c, f"{t:.3f}", f"{s:.3f}")
               for n, c, t, s in measured["probe"].table()])
        _show(f"{name} — per layer (value, unit, end-to-end metric it feeds); "
              "kernel bytes are computed from array sizes",
              [(m, _fmt(v), units[m], feeds(m)) for m, v in metrics.items()])
    else:
        metrics = {m: e2e[m] for m in spec["end_to_end"]}
    record_run(
        f"perfbench {name}",
        {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "size": args.size},
        env={k: env[k] for k in ("nproc", "git_rev", "python")}
        | {"seed": args.seed, "kernels": env["REPRO_KERNELS"]},
        metrics={**metrics, **{f"{name}.{k}": v for k, v in result.named.items()}},
        duration_s=result.window_s,
    )

    for problem in result.failures:
        print(f"CHECK FAILED: {name}: {problem}", file=sys.stderr)
    correct = not result.failures
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


def _run_each(names: list[str], args) -> int:
    """Run each workload in a child process; merge their result lines.

    The merged metrics are keyed ``<workload>:<metric>``.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.rstrip("\n").splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"error: workload {name} exited {child.returncode} without a result")
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}:{m}": v for m, v in result["metrics"].items()}
        )
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def _stop_children() -> None:
    """Stop and reap every process the run started, before it exits.

    Pool workers are joined by the workload's teardown. A spawn-context
    pool also starts multiprocessing's resource tracker, which nothing
    waits for at interpreter exit, so it would outlive this process.
    Running multiprocessing's exit hook now finalizes every queue and
    lock (so nothing restarts the tracker afterwards) and joins any
    child left; then the tracker's pipe is closed and the tracker
    waited for.
    """
    if "multiprocessing" not in sys.modules:
        return
    from multiprocessing import resource_tracker, util

    util._exit_function()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_children()
    sys.exit(code)
