"""Autograd op profiler: tape hook, dispatch wrappers, clean uninstall."""

import numpy as np
import pytest

from repro.autograd import ops, scatter
from repro.autograd.tensor import Tensor, get_tape_hook, set_tape_hook
from repro.obs import AutogradProfiler, profile_autograd


class FakeClock:
    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def by_name(profiler):
    return {s["name"]: s for s in profiler.stats()}


class TestDisabledMode:
    def test_no_hook_installed_by_default(self):
        assert get_tape_hook() is None

    def test_ops_are_unwrapped_by_default(self):
        assert not hasattr(ops.matmul, "__obs_wrapped__")
        assert not hasattr(scatter.segment_sum, "__obs_wrapped__")


class TestInstallUninstall:
    def test_install_wraps_and_uninstall_restores_exactly(self):
        originals = {name: getattr(ops, name) for name in ops.__all__}
        profiler = AutogradProfiler()
        profiler.install()
        try:
            assert get_tape_hook() is not None
            assert ops.matmul.__obs_wrapped__
            assert scatter.segment_mean.__obs_wrapped__
        finally:
            profiler.uninstall()
        assert get_tape_hook() is None
        for name, original in originals.items():
            assert getattr(ops, name) is original

    def test_double_install_is_idempotent(self):
        profiler = AutogradProfiler()
        profiler.install()
        try:
            profiler.install()
        finally:
            profiler.uninstall()
        assert get_tape_hook() is None

    def test_second_hook_rejected_while_active(self):
        with profile_autograd():
            with pytest.raises(RuntimeError, match="hook"):
                set_tape_hook(lambda data, parents, backward_fn: backward_fn)

    def test_context_manager_uninstalls_on_error(self):
        with pytest.raises(ValueError):
            with profile_autograd():
                raise ValueError("boom")
        assert get_tape_hook() is None
        assert not hasattr(ops.matmul, "__obs_wrapped__")


class TestStats:
    def test_counts_bytes_and_backward_calls(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        with profile_autograd() as profiler:
            out = ops.matmul(a, b)
            loss = ops.sum(out)
            loss.backward()
        stats = by_name(profiler)
        assert stats["matmul"]["calls"] == 1
        assert stats["matmul"]["tape_entries"] == 1
        assert stats["matmul"]["output_bytes"] == 4 * 2 * 8  # float64
        assert stats["matmul"]["backward_calls"] == 1
        assert stats["sum"]["backward_calls"] == 1

    def test_composite_op_separates_self_from_cumulative(self):
        x = Tensor(np.ones((6, 2)), requires_grad=True)
        ids = np.array([0, 0, 1, 1, 2, 2])
        with profile_autograd() as profiler:
            scatter.gather(x, ids)
        stats = by_name(profiler)
        # gather dispatches getitem internally, so the nested time is
        # attributed to getitem and excluded from the parent's self
        # time.
        assert stats["getitem"]["calls"] == 1
        outer = stats["gather"]
        assert outer["calls"] == 1
        assert outer["forward_cum"] > outer["forward_self"]

    def test_deterministic_timing_with_injected_clock(self):
        a = Tensor(np.ones(3), requires_grad=True)
        profiler = AutogradProfiler(clock=FakeClock())
        profiler.install()
        try:
            out = ops.mul(a, a)
            ops.sum(out).backward()
        finally:
            profiler.uninstall()
        stats = by_name(profiler)
        # Every wrapper does exactly two clock reads (start/end) and the
        # FakeClock advances 1s per read, so each timed region is >= 1s
        # and an exact multiple of the step.
        assert stats["mul"]["forward_cum"] >= 1.0
        assert stats["mul"]["forward_cum"] == int(stats["mul"]["forward_cum"])
        assert stats["mul"]["backward_time"] >= 1.0

    def test_stats_sorted_by_self_plus_backward(self):
        profiler = AutogradProfiler()
        profiler.stat("slow").forward_self = 5.0
        profiler.stat("fast").forward_self = 1.0
        profiler.stat("medium").backward_time = 3.0
        names = [s["name"] for s in profiler.stats()]
        assert names == ["slow", "medium", "fast"]

    def test_stats_survive_uninstall(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with profile_autograd() as profiler:
            ops.sum(a)
        assert by_name(profiler)["sum"]["calls"] == 1


class TestCoverage:
    def test_every_taped_op_has_timed_calls(self):
        """An op that records tape entries but no wrapped calls has its
        forward time silently charged to whatever op encloses it. Every
        call site in the package must dispatch through the module
        attribute so the profiler attributes the forward."""
        from repro.core.derive import architecture_to_model
        from repro.core.search import SaneSearcher, SearchConfig
        from repro.core.search_space import Architecture, SearchSpace
        from repro.graph.datasets import load_dataset
        from repro.train.trainer import TrainConfig, fit

        data = load_dataset("cora", 0, 0.3)
        searcher = SaneSearcher(
            SearchSpace(3), data, SearchConfig(hidden_dim=8, epochs=1), 0
        )
        # A discrete model too: outside a layer context SAGE/GIN take
        # the fused gather-sum path, and GCN the cached operators.
        arch = Architecture(
            ("sage-sum", "gin", "geniepath"), ("identity",) * 3, "lstm"
        )
        model = architecture_to_model(
            arch, data.num_features, data.num_classes,
            np.random.default_rng(0), hidden_dim=8,
        )
        with profile_autograd() as profiler:
            searcher.search()
            fit(model, data, TrainConfig(epochs=1, patience=1))
        stats = by_name(profiler)
        for name in ("segment_attention_sum", "segment_softmax", "gather_sum",
                     "lstm_gate_update", "relu"):
            assert stats[name]["tape_entries"] > 0, name
        blind = sorted(
            name for name, s in stats.items()
            if s["tape_entries"] > 0 and s["calls"] == 0
        )
        assert not blind, f"taped ops with no timed forward calls: {blind}"
