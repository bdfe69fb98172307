"""Fused-vs-naive kernel equivalence, plan structure, and memo identity.

The fused CSR backend must be indistinguishable from the naive
``ufunc.at`` reference: property tests drive both backends over random
segment structures (including empty segments, isolated outputs and
zero-length inputs) and assert forward agreement within 1e-9 and
finite-difference gradients under each backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd import kernels
from repro.autograd.kernels import (
    SegmentPlan,
    peek_plan,
    plan_for,
    scatter_max,
    scatter_sum,
    use_backend,
)
from repro.autograd.scatter import (
    gather,
    gather_sum,
    segment_attention_sum,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.autograd.tensor import Tensor
from tests.helpers import check_gradient

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def segmented_values(draw, max_rows=12, max_segments=8, max_cols=4):
    """Random (values, segment_ids, num_segments); empty segments likely."""
    num_segments = draw(st.integers(1, max_segments))
    num_rows = draw(st.integers(0, max_rows))
    ids = draw(
        arrays(
            np.int64, (num_rows,), elements=st.integers(0, num_segments - 1)
        )
    )
    cols = draw(st.integers(1, max_cols))
    values = draw(arrays(np.float64, (num_rows, cols), elements=finite))
    return values, ids, num_segments


def both_backends(fn):
    """Run ``fn()`` under each backend, return {backend: result}."""
    results = {}
    for name in kernels.BACKENDS:
        with use_backend(name):
            results[name] = fn()
    return results


# ----------------------------------------------------------------------
# raw kernel equivalence
# ----------------------------------------------------------------------
@given(segmented_values())
@settings(max_examples=80, deadline=None)
def test_scatter_sum_backends_agree(case):
    values, ids, n = case
    out = both_backends(lambda: scatter_sum(values, ids, n))
    np.testing.assert_allclose(out["fused"], out["naive"], atol=1e-9, rtol=0)


@given(segmented_values())
@settings(max_examples=80, deadline=None)
def test_scatter_max_backends_agree(case):
    values, ids, n = case
    out = both_backends(lambda: scatter_max(values, ids, n))
    np.testing.assert_array_equal(out["fused"], out["naive"])


@given(segmented_values())
@settings(max_examples=40, deadline=None)
def test_scatter_sum_1d_backends_agree(case):
    values, ids, n = case
    flat = values[:, 0]
    out = both_backends(lambda: scatter_sum(flat, ids, n))
    np.testing.assert_allclose(out["fused"], out["naive"], atol=1e-9, rtol=0)


def test_scatter_sum_fused_is_bit_identical_to_naive():
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 50, size=400)
    values = rng.normal(size=(400, 16))
    out = both_backends(lambda: scatter_sum(values, ids, 50))
    # Same accumulation order per output slot => exact equality.
    np.testing.assert_array_equal(out["fused"], out["naive"])


def test_scatter_sum_rejects_out_of_range_ids():
    values = np.ones((3, 2))
    ids = np.array([0, 1, 5])
    for name in kernels.BACKENDS:
        with use_backend(name):
            with pytest.raises(IndexError):
                scatter_sum(values, ids, 3)


def test_empty_input_and_empty_segments():
    values = np.zeros((0, 3))
    ids = np.zeros(0, dtype=np.int64)
    for name in kernels.BACKENDS:
        with use_backend(name):
            total = scatter_sum(values, ids, 4)
            np.testing.assert_array_equal(total, np.zeros((4, 3)))
            peak = scatter_max(values, ids, 4)
            assert np.isneginf(peak).all()


# ----------------------------------------------------------------------
# differentiable ops agree across backends, gradcheck under both
# ----------------------------------------------------------------------
@given(segmented_values())
@settings(max_examples=40, deadline=None)
def test_segment_ops_forward_agree(case):
    values, ids, n = case
    for op in (segment_sum, segment_mean, segment_max):
        out = both_backends(lambda: op(Tensor(values), ids, n).data)
        np.testing.assert_allclose(
            out["fused"], out["naive"], atol=1e-9, rtol=0
        )


@given(segmented_values(max_rows=8, max_cols=1))
@settings(max_examples=25, deadline=None)
def test_segment_softmax_forward_agree(case):
    values, ids, n = case
    if len(values) == 0:
        return
    scores = values[:, 0]
    out = both_backends(lambda: segment_softmax(Tensor(scores), ids, n).data)
    np.testing.assert_allclose(out["fused"], out["naive"], atol=1e-9, rtol=0)


@pytest.mark.parametrize("backend", kernels.BACKENDS)
@pytest.mark.parametrize("op", [segment_sum, segment_mean, segment_max])
def test_segment_op_gradients(backend, op):
    rng = np.random.default_rng(3)
    values = rng.normal(size=(9, 3))
    ids = np.array([0, 2, 2, 1, 0, 4, 4, 4, 2])  # segment 3 empty
    weights = Tensor(rng.normal(size=(5, 3)))
    with use_backend(backend):
        check_gradient(lambda t: (op(t, ids, 5) * weights).sum(), values)


@pytest.mark.parametrize("backend", kernels.BACKENDS)
def test_gather_gradient(backend):
    rng = np.random.default_rng(4)
    values = rng.normal(size=(5, 3))
    index = np.array([0, 4, 4, 2, 0, 1])  # node 3 isolated
    weights = Tensor(rng.normal(size=(6, 3)))
    with use_backend(backend):
        check_gradient(lambda t: (gather(t, index) * weights).sum(), values)


@pytest.mark.parametrize("backend", kernels.BACKENDS)
def test_segment_softmax_gradient(backend):
    rng = np.random.default_rng(5)
    scores = rng.normal(size=8)
    ids = np.array([0, 0, 1, 1, 1, 3, 3, 3])  # segment 2 empty
    weights = Tensor(rng.normal(size=8))
    with use_backend(backend):
        check_gradient(
            lambda t: (segment_softmax(t, ids, 4) * weights).sum(), scores
        )


# ----------------------------------------------------------------------
# SegmentPlan structure and the identity-keyed memo
# ----------------------------------------------------------------------
def test_plan_structure():
    ids = np.array([2, 0, 2, 2, 4], dtype=np.int64)
    plan = SegmentPlan(ids, 5)
    np.testing.assert_array_equal(plan.counts, [1, 0, 3, 0, 1])
    np.testing.assert_array_equal(plan.indptr, [0, 1, 1, 4, 4, 5])
    np.testing.assert_array_equal(plan.present, [0, 2, 4])
    np.testing.assert_array_equal(plan.starts, [0, 1, 4])
    np.testing.assert_array_equal(ids[plan.order], np.sort(ids))
    np.testing.assert_array_equal(plan.counts_float, plan.counts)
    np.testing.assert_array_equal(
        plan.counts_clamped, np.maximum(plan.counts, 1)
    )
    assert not plan.counts_float.flags.writeable
    assert not plan.counts_clamped.flags.writeable


def test_plan_rejects_bad_ids():
    with pytest.raises(IndexError):
        SegmentPlan(np.array([0, 7], dtype=np.int64), 3)
    with pytest.raises(ValueError):
        SegmentPlan(np.zeros((2, 2), dtype=np.int64), 3)


def test_operator_is_built_once_per_plan():
    ids = np.array([1, 0, 1], dtype=np.int64)
    src = np.array([2, 2, 0], dtype=np.int64)
    plan = SegmentPlan(ids, 2)
    ones = plan.operator()
    np.testing.assert_array_equal(ones.toarray(), [[0, 1, 0], [1, 0, 1]])
    # Stored in the plan's stable order, not re-sorted.
    np.testing.assert_array_equal(ones.indices, plan.order)
    np.testing.assert_array_equal(ones.indptr, plan.indptr)
    for _ in range(3):
        scatter_sum(np.ones((3, 2)), ids, 2, plan)
    assert plan.operator() is ones
    gathered = plan.operator(src, 3)
    assert plan.operator(src, 3) is gathered
    np.testing.assert_array_equal(gathered.toarray(), [[0, 0, 1], [1, 0, 1]])
    # Weighted variants reuse the cached index arrays, data in plan order.
    weighted = plan.weighted(np.array([10.0, 20.0, 30.0]), src, 3)
    assert np.shares_memory(weighted.indices, gathered.indices)
    assert np.shares_memory(weighted.indptr, gathered.indptr)
    np.testing.assert_array_equal(weighted.data, [20.0, 10.0, 30.0])


def test_operator_validates_columns():
    plan = SegmentPlan(np.array([0, 1], dtype=np.int64), 2)
    with pytest.raises(IndexError):
        plan.operator(np.array([0, 3], dtype=np.int64), 3)
    with pytest.raises(ValueError):
        plan.operator(np.array([0], dtype=np.int64), 3)


def test_plan_for_memoises_by_identity():
    ids = np.arange(6, dtype=np.int64) % 3
    plan = plan_for(ids, 3)
    assert plan_for(ids, 3) is plan
    assert peek_plan(ids, 3) is plan
    # A distinct but equal array gets its own plan (identity keying).
    other = ids.copy()
    assert peek_plan(other, 3) is None
    assert plan_for(other, 3) is not plan
    # Different segment count on the same array is a different key.
    wider = plan_for(ids, 5)
    assert wider is not plan
    assert wider.num_segments == 5


def test_backend_switch_validates():
    with pytest.raises(ValueError):
        kernels.set_backend("vectorized")
    before = kernels.get_backend()
    with use_backend("naive"):
        assert kernels.get_backend() == "naive"
    assert kernels.get_backend() == before


# ----------------------------------------------------------------------
# CSR products: bit-identical to the naive backend
# ----------------------------------------------------------------------
def _maybe_strided(draw, array):
    """``array`` itself, or an equal non-contiguous view of it."""
    if array.ndim == 0 or not draw(st.booleans()):
        return array
    padded = np.zeros(array.shape[:-1] + (2 * array.shape[-1],))
    padded[..., ::2] = array
    view = padded[..., ::2]
    assert array.size <= 1 or not view.flags.c_contiguous
    return view


@st.composite
def message_graphs(draw, max_nodes=7, max_edges=14):
    """Random multigraph + features: duplicate edges, isolated nodes,
    zero edges, 1-3 heads, and non-contiguous feature/weight arrays."""
    num_nodes = draw(st.integers(1, max_nodes))
    num_edges = draw(st.integers(0, max_edges))
    node = st.integers(0, num_nodes - 1)
    src = draw(arrays(np.int64, (num_edges,), elements=node))
    dst = draw(arrays(np.int64, (num_edges,), elements=node))
    heads = draw(st.integers(1, 3))
    width = draw(st.integers(1, 4))
    if heads == 1 and draw(st.booleans()):
        x_shape, w_shape = (num_nodes, width), (num_edges,)
    else:
        x_shape, w_shape = (num_nodes, heads, width), (num_edges, heads)
    x = _maybe_strided(draw, draw(arrays(np.float64, x_shape, elements=finite)))
    w = _maybe_strided(draw, draw(arrays(np.float64, w_shape, elements=finite)))
    g = draw(arrays(np.float64, x_shape, elements=finite))
    return src, dst, num_nodes, x, w, g


def _attention_run(src, dst, n, x, w, g):
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = segment_attention_sum(xt, wt, src, dst, n)
    out.backward(g)
    return out.data, xt.grad, wt.grad


@given(message_graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_scatter_sum_csr_product_is_bit_identical(case, data):
    src, dst, n, x, __, __ = case
    values = _maybe_strided(data.draw, np.take(x, src, axis=0))
    out = both_backends(lambda: scatter_sum(values, dst, n))
    np.testing.assert_array_equal(out["fused"], out["naive"])


@given(message_graphs())
@settings(max_examples=120, deadline=None)
def test_segment_attention_sum_is_bit_identical(case):
    src, dst, n, x, w, g = case
    runs = both_backends(lambda: _attention_run(src, dst, n, x, w, g))
    for fused, naive in zip(runs["fused"], runs["naive"]):
        np.testing.assert_array_equal(fused, naive)


@given(message_graphs())
@settings(max_examples=80, deadline=None)
def test_gather_sum_matches_two_node_spelling(case):
    src, dst, n, x, __, g = case

    def fused_op():
        xt = Tensor(x, requires_grad=True)
        out = gather_sum(xt, src, dst, n)
        out.backward(g)
        return out.data, xt.grad

    def two_nodes():
        xt = Tensor(x, requires_grad=True)
        out = segment_sum(gather(xt, src), dst, n)
        out.backward(g)
        return out.data, xt.grad

    for backend in kernels.BACKENDS:
        with use_backend(backend):
            expected = two_nodes()
        for other in kernels.BACKENDS:
            with use_backend(other):
                actual = fused_op()
            for a, b in zip(actual, expected):
                np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "src, dst, n, heads",
    [
        ([], [], 3, 1),  # zero edges
        ([0, 0, 1], [1, 1, 1], 3, 1),  # duplicate edges, nodes 0/2 receive none
        ([2, 0, 1, 2], [0, 0, 2, 2], 4, 2),  # two heads, node 3 isolated
    ],
)
def test_segment_attention_sum_edge_cases(src, dst, n, heads):
    rng = np.random.default_rng(7)
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    x = rng.normal(size=(n, heads, 3))
    w = rng.normal(size=(len(src), heads))
    g = rng.normal(size=(n, heads, 3))
    runs = both_backends(lambda: _attention_run(src, dst, n, x, w, g))
    for fused, naive in zip(runs["fused"], runs["naive"]):
        np.testing.assert_array_equal(fused, naive)
    isolated = np.setdiff1d(np.arange(n), dst)
    assert not runs["fused"][0][isolated].any()
