"""The four benchmark workloads over one shared pubmed-analogue graph.

Every workload has the same shape: ``setup(seed, size)`` builds what a
user would build before asking for work (dataset, searcher, server,
worker pool), ``run(state, seconds)`` drives the program for a time
budget and returns a :class:`Pass`, and ``teardown(state)`` stops what
setup started. Inputs come from the seed only; the program receives
the generated graph, candidates and requests, never the seed's
meaning.

The workloads differ in which layers they load:

* ``supernet-search`` — SANE's one-shot search: every candidate op on
  every edge, forward and backward (core, gnn, autograd, kernels);
* ``candidate-train`` — from-scratch training of discrete candidates,
  the unit cost of trial-and-error NAS (train, nas, nn.optim, single
  gnn ops over small tapes);
* ``serve-open-loop`` — Poisson arrivals against the batching server
  (serve, forward-only gnn/kernels, no tape);
* ``pool-sweep`` — the candidate-train stream fanned over a
  ``WorkerPool`` (parallel).
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np

from repro.autograd import functional as F
from repro.autograd import no_grad
from repro.core.search import SaneSearcher, SearchConfig
from repro.core.search_space import Architecture, SearchSpace
from repro.experiments.config import SCALES
from repro.gnn.common import GraphCache
from repro.graph.datasets import load_dataset
from repro.nas.encoding import sane_decision_space
from repro.nas.evaluation import ArchitectureEvaluator, train_candidate
from repro.obs import EventRecorder, MetricsRegistry, get_tracer
from repro.parallel import SearchJob, WorkerPool, derive_seed
from repro.serve import (
    InferenceEngine,
    ServeMetrics,
    ServeServer,
    export_architecture,
    load_artifact,
    save_artifact,
    nearest_rank_percentile,
)
from repro.train.trainer import TrainConfig

DATASET = "pubmed"
# The served genotype: attention + convolution + sampling layers under a
# concat JK head, the same model the repo's serving bench exports.
SERVE_GENOTYPE = Architecture(
    node_aggregators=("gat", "gcn", "sage-mean"),
    skip_connections=("identity", "identity", "identity"),
    layer_aggregator="concat",
)
SERVE_MAX_BATCH = 64
# Serving objective: the p99 of latency measured from each request's
# due time stays within SERVE_LIMIT_MS for at least SERVE_TARGET of the
# requests sent at a rate, and the queue drains within the same limit
# once arrivals stop (no growing backlog).
SERVE_LIMIT_MS = 50.0
SERVE_TARGET = 0.99
SERVE_IDS_PER_REQUEST = 8
# Per-step latency limits of the training workloads (slo_attain counts
# the share of steps within them; a failed step misses).
SEARCH_EPOCH_LIMIT_MS = 2000.0
TRAIN_EPOCH_LIMIT_MS = 1000.0
# Tail percentile per workload: the highest with at least ten samples
# beyond it. A 50-epoch search leaves ten beyond p80. The serve p99 (the
# SLO's percentile) is too unsteady run to run to gate on, so it is a
# per-layer diagnostic and slo_attain carries the p99 limit.
TAIL_Q = {
    "supernet-search": 80.0,
    "candidate-train": 90.0,
    "serve-open-loop": 90.0,
    "pool-sweep": 90.0,
}


@dataclasses.dataclass(frozen=True)
class Size:
    """Problem size. ``default`` is what the benchmark measures;
    ``tiny`` exists so the tests can run every workload in seconds."""

    dataset_scale: float
    search_epochs: int
    train_epochs: int
    export_epochs: int
    block: int  # candidates per stratified block (and per pool batch)
    quality_blocks: int  # blocks every candidate run finishes; val_acc is over them
    rates: tuple  # serve arrival rates (requests/s), ascending
    reference_rate: float  # rate whose latency is the headline
    burst: int  # requests per burst in the saturation phase
    rounds: int  # serve phases are cut into this many interleaved slices
    check_candidates: int  # candidates the pool-vs-in-process merge check compares


SIZES = {
    "default": Size(
        dataset_scale=0.8,
        # One 50-epoch search takes 24-28 s and fits a 30 s run.
        search_epochs=50,
        train_epochs=10,
        export_epochs=30,
        block=12,
        # 36 candidates take about 20 s; a much slower run goes on until
        # they are done.
        quality_blocks=3,
        rates=(50.0, 300.0, 2400.0),
        # Headline latency where the server is busy but keeps up. At
        # 50 rps its threads idle between requests, and waking them
        # took 2-3 times as long while the machine was contended.
        reference_rate=300.0,
        burst=1024,
        rounds=10,
        check_candidates=2,
    ),
    "tiny": Size(
        dataset_scale=0.2,
        search_epochs=2,
        train_epochs=2,
        export_epochs=2,
        block=4,
        quality_blocks=2,
        rates=(50.0, 200.0),
        reference_rate=50.0,
        burst=64,
        rounds=2,
        check_candidates=2,
    ),
}


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclasses.dataclass
class Pass:
    """What one measured pass of a workload produced."""

    step_ms: list  # per-step durations in order (epoch or request)
    unit_ms_p50: float
    unit_ms_tail: float
    steps: int  # steps run, including those outside step_ms
    window_s: float
    attempted: int
    failed: int
    val_acc: float
    slo_attain: float
    throughput_per_min: float
    named: dict  # the workload's own metric names (printed, ledgered)
    layer: dict = dataclasses.field(default_factory=dict)
    failures: list = dataclasses.field(default_factory=list)


class EpochClock:
    """Trace sink that keeps only ``epoch`` span durations.

    The program times every epoch with a span whether or not anything
    listens; this sink is the cheapest listener (one name compare per
    finished span), so untraced runs can read epoch times.
    """

    def __init__(self):
        self.durations_ms: list[float] = []

    def record(self, span) -> None:
        if span.name == "epoch":
            self.durations_ms.append(span.duration * 1e3)


def _finite(value) -> bool:
    return bool(np.all(np.isfinite(value)))


def _score_ok(score) -> bool:
    return isinstance(score, float) and math.isfinite(score) and 0.0 <= score <= 1.0


# ----------------------------------------------------------------------
# correctness checks (pure; the tests feed them corrupted results)
# ----------------------------------------------------------------------
def check_search(space, architecture, alpha_snapshots, losses) -> list[str]:
    """Finite losses and alphas, and a derived genotype inside the space."""
    problems = []
    if not all(math.isfinite(loss) for loss in losses):
        problems.append(f"non-finite supernet loss {losses}")
    for epoch, snapshot in enumerate(alpha_snapshots):
        if not all(_finite(alpha) for alpha in snapshot.values()):
            problems.append(f"non-finite alphas at epoch {epoch}")
            break
    if not space.contains(architecture):
        problems.append(f"derived {architecture} is outside {space}")
    return problems


def check_candidate(val_score, test_score, losses, epochs_run, budget) -> list[str]:
    """Scores in [0, 1], finite losses, and the full epoch budget run."""
    problems = []
    if not (_score_ok(val_score) and _score_ok(test_score)):
        problems.append(f"score out of [0, 1]: val={val_score} test={test_score}")
    if not all(math.isfinite(loss) for loss in losses):
        problems.append("non-finite training loss")
    if epochs_run != budget:
        problems.append(f"ran {epochs_run} epochs, budget is {budget}")
    return problems


def check_served(served, direct) -> list[str]:
    """A served response must be bit-equal to the engine's direct answer."""
    if served.shape != direct.shape or not np.array_equal(served, direct):
        return ["served response differs from engine.predict"]
    return []


def check_pool_scores(pooled, in_process) -> list[str]:
    """Pool scores must be bit-identical to the in-process scores."""
    if tuple(pooled) != tuple(in_process):
        return [f"pool scores {pooled} != in-process {in_process}"]
    return []


# ----------------------------------------------------------------------
# shared inputs
# ----------------------------------------------------------------------
def stratified_design(space, seed: int, blocks: int, block: int) -> list[tuple]:
    """Seeded candidate stream in blocks that each cover the op set.

    Within a block every node op appears equally often at every layer
    and the layer ops equally often (up to rounding); which candidate
    gets which op, and the skips, are drawn from the seed. Degenerate
    draws (all-ZERO skips) stay in. Balancing keeps the stream's cost
    per block steady across seeds without choosing candidates by cost.
    """
    rng = np.random.default_rng([seed, 7])
    num_node, num_layer = len(space.node_ops), len(space.layer_ops)
    design = []
    for __ in range(blocks):
        node_cols = [
            np.concatenate([
                rng.permutation(num_node)
                for __ in range(-(-block // num_node))
            ])[:block]
            for __ in range(space.num_layers)
        ]
        layer_col = rng.permutation(np.arange(block) % num_layer)
        skips = rng.integers(len(space.skip_ops), size=(block, space.num_layers))
        for k in range(block):
            design.append(
                tuple(int(col[k]) for col in node_cols)
                + tuple(int(s) for s in skips[k])
                + (int(layer_col[k]),)
            )
    return design


def train_config(size: Size) -> TrainConfig:
    # patience == epochs turns early stopping off: every candidate runs
    # the full budget, so the work per candidate is fixed.
    return TrainConfig(epochs=size.train_epochs, patience=size.train_epochs)


# ----------------------------------------------------------------------
# supernet-search
# ----------------------------------------------------------------------
class SupernetSearch:
    name = "supernet-search"
    step = "search epoch"
    throughput_unit = "search epochs/min"

    def setup(self, seed, size):
        data = load_dataset(DATASET, seed, size.dataset_scale)
        space = SearchSpace(3)
        config = SearchConfig(hidden_dim=32, epochs=size.search_epochs)
        searcher = SaneSearcher(space, data, config, seed)
        # Warm-up: one tape-free eval-mode forward builds the graph plans
        # the first epoch would otherwise build; it draws no random numbers.
        searcher.validation_score()
        return {
            "data": data, "space": space, "config": config, "seed": seed,
            "size": size, "searcher": searcher,
        }

    def teardown(self, state):
        pass

    def run(self, state, seconds):
        data, space, config = state["data"], state["space"], state["config"]
        clock = EpochClock()
        failures, attempted, failed = [], 0, 0
        val_acc = None
        searches = 0
        t0 = time.perf_counter()
        last = 0.0
        with get_tracer().collect(clock):
            # Whole searches only: start another one only if it should
            # end within the time budget.
            while searches == 0 or time.perf_counter() - t0 + last <= seconds:
                started = time.perf_counter()
                searcher = state["searcher"] if searches == 0 else SaneSearcher(
                    space, data, config, derive_seed(state["seed"], searches)
                )
                result = searcher.search()
                problems = check_search(
                    space, result.architecture, result.alpha_snapshots,
                    _supernet_losses(result.supernet, data),
                )
                attempted += config.epochs
                if problems:
                    failed += config.epochs
                    failures.extend(problems)
                if val_acc is None:
                    val_acc = result.history[-1][1]
                searches += 1
                last = time.perf_counter() - started
                del searcher, result
        window = time.perf_counter() - t0
        steps = clock.durations_ms
        within = sum(ms <= SEARCH_EPOCH_LIMIT_MS for ms in steps)
        per_min = len(steps) / window * 60.0
        return Pass(
            step_ms=steps, unit_ms_p50=_p(steps, 50),
            unit_ms_tail=_p(steps, TAIL_Q[self.name]),
            steps=len(steps), window_s=window,
            attempted=attempted, failed=failed, val_acc=val_acc,
            slo_attain=(within - failed) / attempted,
            throughput_per_min=per_min,
            named={
                "search_epoch_ms_p50": _p(steps, 50),
                "search_epoch_ms_p80": _p(steps, TAIL_Q[self.name]),
                "search_val_acc": val_acc,
                "search_epochs_per_min": per_min,
                "searches": searches,
            },
            failures=failures,
        )


def _supernet_losses(supernet, data) -> list[float]:
    """Train/val cross-entropy of the searched supernet, tape-free."""
    supernet.eval()
    cache = GraphCache(data)
    with no_grad():
        logits = supernet(data.features, cache)
        return [
            F.cross_entropy(logits[data.mask(split)], data.labels[data.mask(split)]).item()
            for split in ("train", "val")
        ]


# ----------------------------------------------------------------------
# candidate-train and pool-sweep share one seeded candidate stream
# ----------------------------------------------------------------------
class _CandidateStream:
    step = "train epoch"
    throughput_unit = "candidates/min"

    def _inputs(self, seed, size, blocks):
        data = load_dataset(DATASET, seed, size.dataset_scale)
        space = SearchSpace(3)
        return {
            "data": data,
            "decisions": sane_decision_space(space),
            "design": stratified_design(space, seed, blocks, size.block),
            "config": train_config(size),
            "seed": seed,
            "size": size,
        }

    def _evaluator(self, state):
        return ArchitectureEvaluator(
            state["decisions"], state["data"], state["config"],
            hidden_dim=32, dropout=0.5, seed=state["seed"],
        )

    def _start_pool(self, state) -> None:
        """Spawn a ``WorkerPool(workers=nproc)`` and warm every worker up."""
        registry = MetricsRegistry()
        pool = WorkerPool(workers=nproc(), metrics=registry)
        t0 = time.perf_counter()
        # A trivial job per worker spawns it and imports the job path, so
        # measured work starts on live workers.
        pool.run([
            SearchJob(
                job_id=i,
                fn="repro.nas.evaluation:EvaluationRecord",
                kwargs=dict(indices=(), val_score=0.0, test_score=0.0, elapsed=0.0),
            )
            for i in range(max(1, pool.workers))
        ])
        state.update(pool=pool, registry=registry,
                     spawn_ms=(time.perf_counter() - t0) * 1e3)

    def teardown(self, state):
        state["pool"].shutdown()

    def _check_sample(self, state, done: int) -> list[int]:
        """Seeded trial indices whose scores the merge check compares."""
        rng = np.random.default_rng([state["seed"], 11])
        k = min(state["size"].check_candidates, done)
        return sorted(int(t) for t in rng.choice(done, size=k, replace=False))

    def _train_args(self, state, trial: int) -> dict:
        """``train_candidate`` arguments of a trial, as ``evaluate`` builds them."""
        return dict(
            space=state["decisions"], data=state["data"],
            indices=state["design"][trial],
            build_seed=derive_seed(state["seed"], trial),
            train_config=state["config"], hidden_dim=32, dropout=0.5,
        )


class _PoolWatch:
    """Worker CPU time, threads and peak RSS around a pass over the pool.

    The pool's own gauges (busy fraction, straggler, utilization) come
    from the ``MetricsRegistry`` it was given; they are averaged over
    the batches of the pass.
    """

    def __init__(self, state):
        self.state = state
        self.workers = multiprocessing.active_children()
        self.cpu0 = {p.pid: _proc_cpu_s(p.pid) for p in self.workers}
        self.gauges: dict[str, list] = {}
        self.t0 = time.perf_counter()

    def batch_done(self) -> None:
        for name, value in self.state["registry"].scalars().items():
            self.gauges.setdefault(name, []).append(value)

    def layer(self) -> dict:
        window = time.perf_counter() - self.t0
        cpu = sum(_proc_cpu_s(p.pid) - self.cpu0[p.pid] for p in self.workers)
        threads = [_proc_status(p.pid, "Threads") for p in self.workers]
        peaks_kb = [_proc_status(p.pid, "VmHWM") for p in self.workers]
        mean = lambda name: float(np.mean(self.gauges.get(name, [0.0])))  # noqa: E731
        layer = {
            "parallel.spawn_ms": self.state["spawn_ms"],
            "parallel.utilization": mean("parallel.utilization"),
            "parallel.straggler_s": mean("parallel.straggler_s"),
            "parallel.worker_threads": float(np.mean(threads)) if threads else 0.0,
            "parallel.cpu_per_wall": cpu / window,
            "parallel.worker_peak_rss_mb": max(peaks_kb, default=0) / 1024.0,
            "parallel.pass_s": window,
        }
        for wid in range(2):
            layer[f"parallel.worker.{wid}.busy_frac"] = mean(
                f"parallel.worker.{wid}.busy_frac"
            )
        return layer


class CandidateTrain(_CandidateStream):
    """In-process training; a seeded sample then goes through the pool.

    The pooled sample checks the merge contract (scores bit-identical to
    the in-process ones) and is where this workload loads ``parallel``:
    set-up spawns the pool, so its spawn time is part of ``setup_s``.
    The pooled pass is not timed into the end-to-end metrics.
    """

    name = "candidate-train"

    def setup(self, seed, size):
        state = self._inputs(seed, size, blocks=40)
        state["evaluator"] = self._evaluator(state)
        self._start_pool(state)
        return state

    def run(self, state, seconds):
        evaluator, design = state["evaluator"], state["design"]
        budget = state["config"].epochs
        clock = EpochClock()
        failures, failed, seconds_each = [], 0, []
        quality = _quality_prefix(state["size"])
        t0 = time.perf_counter()
        with get_tracer().collect(clock), EventRecorder(label="bench") as recorder:
            while (len(evaluator.records) < quality
                   or time.perf_counter() - t0 < seconds):
                if len(evaluator.records) == len(design):
                    break
                start = len(recorder.records)
                started = time.perf_counter()
                record = evaluator.evaluate(design[len(evaluator.records)])
                seconds_each.append(time.perf_counter() - started)
                events = recorder.records[start:]
                losses = [e["data"]["train_loss"] for e in events
                          if e["event"] == "train_epoch"]
                problems = check_candidate(
                    record.val_score, record.test_score, losses, len(losses), budget
                )
                if problems:
                    failed += 1
                    failures.extend(problems)
        window = time.perf_counter() - t0
        done = evaluator.records

        # Merge contract: the pool must return bit-identical scores.
        watch = _PoolWatch(state)
        sample = self._check_sample(state, len(done))
        pooled = state["pool"].run([
            SearchJob(job_id=trial, fn="repro.nas.evaluation:train_candidate",
                      kwargs=self._train_args(state, trial), tag=f"candidate-{trial}")
            for trial in sample
        ])
        watch.batch_done()
        for trial, scores in zip(sample, pooled):
            problems = check_pool_scores(
                scores, (done[trial].val_score, done[trial].test_score)
            )
            if problems:
                failed += 1
                failures.extend(problems)

        result = _candidate_pass(
            self.name, done, clock.durations_ms, window, failed, failures,
            state["size"],
        )
        result.layer = watch.layer()
        # Same candidates, in process one after another vs. pooled side by
        # side: about nproc without oversubscription, below 1 with it.
        result.layer["parallel.speedup"] = (
            sum(seconds_each[t] for t in sample) / result.layer["parallel.pass_s"]
        )
        return result


class PoolSweep(_CandidateStream):
    """The candidate stream fanned over the pool, block by block.

    Runnable, but not in ``BENCHMARK.json``: its figures swing with the
    program's BLAS oversubscription (see ``perfbench/README.md``).
    """

    name = "pool-sweep"

    def setup(self, seed, size):
        state = self._inputs(seed, size, blocks=20)
        state["evaluator"] = self._evaluator(state)
        self._start_pool(state)
        return state

    def run(self, state, seconds):
        evaluator, design, pool = state["evaluator"], state["design"], state["pool"]
        block = state["size"].block
        clock = EpochClock()
        failures, failed = [], 0
        quality = _quality_prefix(state["size"])
        watch = _PoolWatch(state)
        t0 = time.perf_counter()
        with get_tracer().collect(clock):
            while (len(evaluator.records) < quality
                   or time.perf_counter() - t0 < seconds):
                start = len(evaluator.records)
                if start == len(design):
                    break
                records = evaluator.evaluate_batch(
                    design[start:start + block], pool=pool
                )
                for record in records:
                    # Losses and epoch counts stay in the workers; the
                    # merge check below re-trains a sample in process.
                    problems = check_candidate(
                        record.val_score, record.test_score, [], 0, 0
                    )
                    if problems:
                        failed += 1
                        failures.extend(problems)
                watch.batch_done()
        window = time.perf_counter() - t0
        layer = watch.layer()

        # Merge contract: re-train a seeded sample in process and demand
        # bit-identical scores.
        done = evaluator.records
        for trial in self._check_sample(state, len(done)):
            reference = train_candidate(**self._train_args(state, trial))
            problems = check_pool_scores(
                (done[trial].val_score, done[trial].test_score), reference
            )
            if problems:
                failed += 1
                failures.extend(problems)

        result = _candidate_pass(
            self.name, done, clock.durations_ms, window, failed, failures,
            state["size"],
        )
        result.layer = layer
        return result


def _quality_prefix(size: Size) -> int:
    """Candidates every run finishes before it may stop: val_acc's sample."""
    return size.quality_blocks * size.block


def _candidate_pass(name, records, steps, window, failed, failures, size):
    attempted = len(records)
    # Quality over the fixed prefix every run finishes, so it does not
    # depend on how fast the machine was or how many candidates followed.
    val_acc = float(np.mean([r.val_score for r in records[: _quality_prefix(size)]]))
    per_min = attempted / window * 60.0
    within = sum(ms <= TRAIN_EPOCH_LIMIT_MS for ms in steps)
    return Pass(
        step_ms=steps, unit_ms_p50=_p(steps, 50), unit_ms_tail=_p(steps, TAIL_Q[name]),
        steps=len(steps), window_s=window,
        attempted=attempted, failed=failed, val_acc=val_acc,
        slo_attain=max(0.0, within / max(1, len(steps)) - failed / attempted),
        throughput_per_min=per_min,
        named={
            "candidates_per_min": per_min,
            "candidate_val_acc_mean": val_acc,
            "train_epoch_ms_p50": _p(steps, 50),
            "train_epoch_ms_p90": _p(steps, TAIL_Q[name]),
            "candidates": attempted,
        },
        failures=failures,
    )


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_status(pid: int, field: str) -> int:
    """A numeric field of a live process's /proc/<pid>/status (0 if gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(f"{field}:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# serve-open-loop
# ----------------------------------------------------------------------
class _DepthMetrics(ServeMetrics):
    """ServeMetrics that also remembers the deepest queue it saw."""

    def __init__(self):
        super().__init__()
        self.depth_max = 0

    def observe_queue_depth(self, depth: int) -> None:
        self.depth_max = max(self.depth_max, depth)
        super().observe_queue_depth(depth)


class ServeOpenLoop:
    name = "serve-open-loop"
    step = "request (from due time)"
    throughput_unit = "requests/min, median over bursts at saturation"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed, size):
        scale = dataclasses.replace(
            SCALES["default"], dataset_scale=size.dataset_scale,
            train_epochs=size.export_epochs, train_patience=size.export_epochs,
        )
        artifact = export_architecture(SERVE_GENOTYPE, DATASET, scale, seed=seed)
        path = save_artifact(artifact, self.workdir / f"serve-{seed}.json")
        engine = InferenceEngine.from_artifact(
            load_artifact(path), metrics=_DepthMetrics()
        )
        server = ServeServer(engine, max_batch=SERVE_MAX_BATCH).start()
        return {"engine": engine, "server": server, "seed": seed, "size": size}

    def teardown(self, state):
        state["server"].stop()

    def run(self, state, seconds):
        engine, server, size = state["engine"], state["server"], state["size"]
        labels = engine.data.labels
        # Equal time for each open-loop rate and the saturation phase,
        # cut into slices that take turns, so a burst of machine noise
        # hits a slice of every phase rather than all of one phase.
        slice_s = seconds / (len(size.rates) + 1) / size.rounds
        slices = {rate: [] for rate in size.rates}
        burst_slices = []
        t0 = time.perf_counter()
        for turn in range(size.rounds):
            # Heaviest first: each turn ends at the lightest rate, which
            # read slower right after a saturated slice.
            burst_slices.append(_bursts(
                server, engine.num_targets, size.burst, slice_s,
                np.random.default_rng([state["seed"], len(size.rates), turn]),
            ))
            for index, rate in reversed(list(enumerate(size.rates))):
                slices[rate].append(_offer(
                    server, engine.num_targets, rate, slice_s,
                    np.random.default_rng([state["seed"], index, turn]),
                ))
        window = time.perf_counter() - t0
        levels = [_merge_slices(slices[rate]) for rate in size.rates]
        saturated = {
            "sent": sum(b["sent"] for b in burst_slices),
            "errors": sum(b["errors"] for b in burst_slices),
            "ok": [done for b in burst_slices for done in b["ok"]],
            "rates": [r for b in burst_slices for r in b["rates"]],
        }
        saturated["rps"] = float(np.median(saturated["rates"]))
        levels.append(saturated)

        failures, failed, attempted = [], 0, 0
        correct = total = 0
        rng = np.random.default_rng([state["seed"], 99])
        for level in levels:
            attempted += level["sent"]
            failed += level["errors"]
            for ids, value in level["ok"]:
                correct += int(np.sum(np.argmax(value, axis=1) == labels[ids]))
                total += len(ids)
        reference = next(l for l in levels if l.get("rate") == size.reference_rate)
        sample = rng.choice(len(reference["ok"]), size=min(32, len(reference["ok"])),
                            replace=False)
        for k in sample:
            ids, value = reference["ok"][int(k)]
            problems = check_served(value, engine.predict(node_ids=ids))
            if problems:
                failed += 1
                failures.extend(problems)

        open_loop = levels[:-1]
        capacity = max(
            (l["rate"] for l in open_loop if l["attain"] >= SERVE_TARGET
             and l["drain_ms"] <= SERVE_LIMIT_MS),
            default=0.0,
        )
        steps = reference["latency_ms"]
        metrics = engine.metrics
        stages = metrics.stages
        hist = metrics.registry.histogram("serve.batch_size")
        cache = engine.plan_cache.stats()
        lookups = cache["hits"] + cache["misses"]
        named = {
            "serve_latency_ms_p50": reference["p50_ms"],
            "serve_latency_ms_p90": reference["tail_ms"],
            "serve_latency_ms_p99": _p(steps, 99),
            "serve_slo_attain": reference["attain"],
            "serve_capacity_rps": capacity,
            "serve_burst_rps": saturated["rps"],
            "serve_bursts": len(saturated["rates"]),
        }
        for level in open_loop:
            tag = f"serve.rate{int(level['rate'])}"
            named[f"{tag}.p50_ms"] = level["p50_ms"]
            named[f"{tag}.p99_ms"] = _p(level["latency_ms"], 99)
            named[f"{tag}.attain"] = level["attain"]
            named[f"{tag}.drain_ms"] = level["drain_ms"]
            named[f"{tag}.lag_ms_p99"] = _p(level["lags"], 99)
        return Pass(
            step_ms=steps, unit_ms_p50=reference["p50_ms"],
            unit_ms_tail=reference["tail_ms"], steps=attempted,
            window_s=window, attempted=attempted, failed=failed,
            val_acc=correct / max(1, total),
            slo_attain=reference["attain"],
            throughput_per_min=saturated["rps"] * 60.0,
            named=named,
            layer={
                "serve.latency_ms_p99": _p(steps, 99),
                "serve.queue_wait_ms_p50": _stage(stages, "queue_wait", 50),
                "serve.queue_wait_ms_p99": _stage(stages, "queue_wait", 99),
                "serve.forward_ms_p50": _stage(stages, "forward", 50),
                "serve.batch_size_mean": hist.mean or 0.0,
                "serve.batches": metrics.registry.counter("serve.batches").value,
                "serve.queue_depth_max": float(metrics.depth_max),
                "serve.plan_cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
                "serve.errors": metrics.registry.counter("serve.errors").value,
                "serve.deadline_exceeded":
                    metrics.registry.counter("serve.deadline_exceeded").value,
                "loadgen.lag_ms_p99": _p(reference["lags"], 99),
            },
            failures=failures,
        )


def _offer(server, num_targets, rate, seconds, rng) -> dict:
    """Open loop: Poisson arrivals at ``rate`` for ``seconds``, one thread.

    Each request is timed from its due time, so a stall charges every
    request queued behind it, and the generator's own lateness is kept.
    """
    plan = []
    due = 0.0
    while True:
        due += rng.exponential(1.0 / rate)
        if due > seconds:
            break
        plan.append((due, rng.integers(0, num_targets, size=SERVE_IDS_PER_REQUEST)))
    sent, lags, errors = [], [], 0
    start = time.perf_counter()
    for offset, ids in plan:
        due_at = start + offset
        delay = due_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append((time.perf_counter() - due_at) * 1e3)
        try:
            pending = server.submit_async(
                node_ids=ids, deadline_s=SERVE_LIMIT_MS / 1e3
            )
        except RuntimeError:
            pending = None
        sent.append((due_at, ids, pending))
    last_send = time.perf_counter()
    latency_ms, ok = [], []
    last_done = last_send
    for due_at, ids, pending in sent:
        try:
            if pending is None:
                raise RuntimeError("request refused")
            value = pending.result(timeout=60.0)
        except Exception:  # a failed or refused request misses the limit
            errors += 1
            latency_ms.append(math.inf)
            continue
        latency_ms.append((pending.resolved_at - due_at) * 1e3)
        last_done = max(last_done, pending.resolved_at)
        ok.append((ids, value))
    within = sum(ms <= SERVE_LIMIT_MS for ms in latency_ms)
    return {
        # Only counts and results leave: holding every request's handle
        # and span tree would grow the heap the later rates run against.
        "rate": rate, "sent": len(sent), "ok": ok, "errors": errors,
        "latency_ms": latency_ms, "lags": lags,
        "attain": within / max(1, len(sent)),
        "drain_ms": (last_done - last_send) * 1e3,
    }


def _bursts(server, num_targets, burst, seconds, rng) -> dict:
    """Saturation: bursts of ``burst`` requests, all due at once.

    One thread queues a burst back to back and waits for all of it; the
    server drains it in full batches. The burst's completed requests
    divided by its drain time is the server's throughput at saturation.
    The median over the phase's bursts is reported, so a stall moves one
    burst, not the figure; a closed loop with a few requests outstanding
    instead swings between small and full batches.
    """
    rates, ok, errors, sent = [], [], 0, 0
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        queued = []
        for __ in range(burst):
            ids = rng.integers(0, num_targets, size=SERVE_IDS_PER_REQUEST)
            queued.append((ids, server.submit_async(node_ids=ids)))
        sent += burst
        done, last = 0, t0
        for ids, pending in queued:
            try:
                ok.append((ids, pending.result(timeout=60.0)))
            except Exception:  # a failed request is not throughput
                errors += 1
                continue
            done += 1
            last = max(last, pending.resolved_at)
        rates.append(done / (last - t0) if last > t0 else 0.0)
    return {"sent": sent, "ok": ok, "errors": errors, "rates": rates}


def _merge_slices(slices: list[dict]) -> dict:
    """One rate's slices as one level.

    Samples and counts are pooled. The latency percentiles, attainment
    and drain time are medians over the slices, so noise that hits one
    slice moves one value of several.
    """
    def median_of(value):
        return float(np.median([value(part) for part in slices]))

    return {
        "rate": slices[0]["rate"],
        "sent": sum(part["sent"] for part in slices),
        "errors": sum(part["errors"] for part in slices),
        "ok": [done for part in slices for done in part["ok"]],
        "latency_ms": [ms for part in slices for ms in part["latency_ms"]],
        "lags": [ms for part in slices for ms in part["lags"]],
        "p50_ms": median_of(lambda part: _p(part["latency_ms"], 50)),
        "tail_ms": median_of(lambda part: _p(part["latency_ms"], TAIL_Q["serve-open-loop"])),
        "attain": median_of(lambda part: part["attain"]),
        "drain_ms": median_of(lambda part: part["drain_ms"]),
    }


def _p(samples, q) -> float:
    return nearest_rank_percentile(samples, q) if samples else 0.0


def _stage(stages, name, q) -> float:
    reservoir = stages.get(name)
    return reservoir.percentile(q) * 1e3 if reservoir else 0.0


def workloads(workdir: Path) -> dict:
    """Name → workload, in the order the benchmark documents them."""
    return {
        w.name: w
        for w in (SupernetSearch(), CandidateTrain(), ServeOpenLoop(workdir), PoolSweep())
    }
