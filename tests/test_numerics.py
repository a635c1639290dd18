"""Unit tests for the autodiff core and the optimizer."""

import tracemalloc
import types

import numpy as np
import pytest

from regraph.errors import NumericError, ShapeError
from regraph.graph import neighbor_sum
from regraph.numerics import (
    DiffTensor,
    SCRATCH_BLOCK,
    RmsProp,
    add,
    add_row,
    backward,
    concat,
    constant,
    gru_update,
    matmul,
    mean_all,
    mul,
    no_grad,
    parameter,
    propagate,
    relu,
    reshape,
    segment_gcn,
    sigmoid,
    softmax,
    sub,
    sum_all,
    take_rows,
    tanh,
    tape_length,
)


def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * h)
    return g


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    ident = constant(np.eye(2))
    m = constant([[5.0, 6.0], [7.0, 8.0]])
    out = matmul(ident, m)
    np.testing.assert_array_equal(out.values, m.values)


def test_matmul_hand_value():
    out = matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.values, [[11.0]])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradient_closed_form_and_fd():
    rng = np.random.default_rng(7)
    a_vals = rng.normal(size=(3, 4))
    b_vals = rng.normal(size=(4, 2))
    a = parameter(a_vals)
    b = constant(b_vals)
    loss = sum_all(matmul(a, b))
    backward(loss)

    expected = np.ones((3, 2)) @ b_vals.T
    np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    def f(x):
        with no_grad():
            return float(np.sum(x @ b_vals))

    fd = finite_diff_grad(f, a_vals.copy())
    assert rel_err(a.grad, fd) < 1e-6


# ----------------------------------------------------------- elementwise

def test_activation_fixed_points():
    assert sigmoid(constant(0.0)).values == pytest.approx(0.5)
    assert tanh(constant(0.0)).values == pytest.approx(0.0)
    assert relu(constant(-1.0)).values == pytest.approx(0.0)


def test_sigmoid_gradient_matches_fd():
    x = parameter([0.3])
    backward(sum_all(sigmoid(x)))

    def f(v):
        return float(1.0 / (1.0 + np.exp(-v[0])))

    fd = finite_diff_grad(f, np.array([0.3]))
    assert rel_err(x.grad, fd) < 1e-6


def test_sigmoid_stable_at_extremes():
    out = sigmoid(constant([-1000.0, 1000.0]))
    np.testing.assert_allclose(out.values, [0.0, 1.0], atol=1e-12)
    assert np.all(np.isfinite(out.values))


def split_by_sign_sigmoid(v):
    """1/(1+e) for v >= 0 and e/(1+e) for v < 0, with e = exp(-|v|)."""
    with np.errstate(invalid="ignore"):
        return np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                        np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))


def assert_same_bits(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


def test_sigmoid_matches_split_by_sign_formula_bit_for_bit():
    tiny = np.finfo(np.float64).tiny
    edges = np.array([0.0, -0.0, 709.8, -709.8, 800.0, -800.0, np.inf, -np.inf,
                      np.nan, -np.nan, 5e-324, -5e-324, tiny / 3, -tiny / 3,
                      tiny, -tiny, 36.0, -36.0, 37.5, -37.5, 745.2, -745.2])
    random = np.random.default_rng(29).normal(scale=8.0, size=(105, 256))
    for v in (edges, random, random[:12].T, np.array(0.0), np.array(-3.5),
              np.array(np.nan), np.zeros((0, 4))):
        assert_same_bits(sigmoid(constant(v)).values, split_by_sign_sigmoid(v))


def test_add_sub_mul_values_and_grads():
    a = parameter([1.0, 2.0, 3.0])
    b = parameter([4.0, 5.0, 6.0])
    loss = sum_all(mul(add(a, b), sub(a, b)))  # sum(a^2 - b^2)
    backward(loss)
    np.testing.assert_allclose(a.grad, 2.0 * a.values, rtol=1e-12)
    np.testing.assert_allclose(b.grad, -2.0 * b.values, rtol=1e-12)


def test_backward_keeps_leaf_gradients_and_drops_op_outputs():
    x = parameter([0.5, -1.0, 2.0])
    hidden = sigmoid(x)
    loss = sum_all(mul(hidden, hidden))
    backward(loss)
    s = 1.0 / (1.0 + np.exp(-x.values))
    np.testing.assert_allclose(x.grad, 2.0 * s * s * (1.0 - s), rtol=1e-12)
    assert hidden.grad is None and loss.grad is None


def test_backward_sums_contributions_in_tape_order_bit_for_bit():
    # x feeds two matmuls, add(x, x) and two overlapping row slices. Its
    # gradient is each contribution, zero outside a slice's rows, added up
    # in reverse tape order.
    rng = np.random.default_rng(31)
    x = parameter(rng.normal(size=(4, 3)))
    w1, w2 = rng.normal(size=(3, 5)), rng.normal(size=(3, 2))
    k1, k2, kd, ks1, ks2 = (rng.normal(size=s) for s in
                            ((4, 5), (4, 2), (4, 3), (2, 3), (3, 3)))
    outs = [matmul(x, constant(w1)), matmul(x, constant(w2)), add(x, x),
            take_rows(x, slice(0, 2)), take_rows(x, slice(1, 4))]
    total = None
    for out, k in zip(outs, (k1, k2, kd, ks1, ks2)):
        term = sum_all(mul(out, constant(k)))
        total = term if total is None else add(total, term)
    backward(total)

    ref = np.zeros((4, 3))
    ref[1:4] = ks2
    padded = np.zeros((4, 3))
    padded[0:2] = ks1
    ref = ref + padded
    ref = ref + kd
    ref = ref + kd
    ref = ref + k2 @ w2.T
    ref = ref + k1 @ w1.T
    assert_same_bits(x.grad, ref)


def test_backward_never_writes_into_an_array_an_op_returned():
    import regraph.numerics.tensor as core
    rng = np.random.default_rng(32)
    a_vals, b_vals = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    w, k = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
    a, b = parameter(a_vals), parameter(b_vals)
    s = add(a, b)                         # a and b first get one shared array
    t = concat([s, a], axis=0)            # its gradient's pieces are views
    u = reshape(take_rows(t, slice(1, 5)), (2, 8))
    loss = add(add(sum_all(mul(matmul(t, constant(w)), constant(k))), sum_all(mul(u, u))),
               sum_all(mul(a, s)))
    returned = []

    def recording(fn):
        def grad_fn(g):
            grads = fn(g)
            for x in grads:
                arr = x[1] if type(x) is tuple else x
                if arr is not None:
                    returned.append((arr, arr.copy()))
            return grads
        return grad_fn
    for entry in core._TAPE:
        entry.grad_fn = recording(entry.grad_fn)
    backward(loss)
    assert len(returned) > 10
    for arr, snapshot in returned:
        assert_same_bits(arr, snapshot)

    def f(av, bv):
        sv = av + bv
        tv = np.concatenate([sv, av])
        return float(np.sum((tv @ w) * k) + np.sum(tv[1:5] ** 2) + np.sum(av * sv))
    assert rel_err(a.grad, finite_diff_grad(lambda v: f(v, b_vals), a_vals.copy())) < 1e-8
    assert rel_err(b.grad, finite_diff_grad(lambda v: f(a_vals, v), b_vals.copy())) < 1e-8


def test_scalar_broadcast_gradient_collapses():
    s = parameter(2.0)
    x = constant([1.0, 2.0, 3.0])
    backward(sum_all(mul(s, x)))
    assert s.grad.shape == s.values.shape
    assert s.grad == pytest.approx(6.0)


def test_elementwise_incompatible_shapes():
    with pytest.raises(ShapeError):
        add(constant(np.zeros(3)), constant(np.zeros(4)))


def test_relu_gradient_mask():
    x = parameter([-2.0, -0.5, 0.5, 2.0])
    backward(sum_all(relu(x)))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])


# ---------------------------------------------------------------- concat

def test_concat_axis1_hand_value():
    out = concat([constant([[1.0], [2.0]]), constant([[3.0], [4.0]])], axis=1)
    np.testing.assert_array_equal(out.values, [[1.0, 3.0], [2.0, 4.0]])


def test_concat_single_tensor_is_identity():
    t = constant([[1.0, 2.0]])
    out = concat([t], axis=0)
    np.testing.assert_array_equal(out.values, t.values)


def test_concat_gradient_splits_by_extent():
    a = parameter(np.ones((2, 3)))
    b = parameter(np.ones((2, 5)))
    backward(sum_all(concat([a, b], axis=1)))
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, np.ones((2, 5)))


def test_concat_errors():
    with pytest.raises(ShapeError):
        concat([], axis=0)
    with pytest.raises(ShapeError):
        concat([constant(np.zeros((2, 3))), constant(np.zeros((3, 3)))], axis=1)


# --------------------------------------------------------------- add_row

def ones_column_bias(x, row):
    """x + ones(n, 1) @ row, the bias add that add_row replaces."""
    return add(x, matmul(constant(np.ones((x.shape[0], 1))), row))


@pytest.mark.parametrize("n, m", [(1, 1), (5, 3), (105, 256), (7, 1)])
def test_add_row_matches_ones_column_matmul_bit_for_bit(n, m):
    rng = np.random.default_rng(n * 1000 + m)
    x_vals, row_vals = rng.normal(size=(n, m)), rng.normal(size=(1, m))
    weights = constant(rng.normal(size=(n, m)))
    results = []
    for op in (add_row, ones_column_bias):
        x, row = parameter(x_vals), parameter(row_vals)
        out = op(x, row)
        backward(sum_all(mul(mul(out, out), weights)))
        results.append((out.values, x.grad, row.grad))
    for got, ref in zip(*results):
        assert_same_bits(got, ref)


def test_add_row_gradient_matches_fd():
    rng = np.random.default_rng(31)
    x_vals, row_vals = rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
    weights = rng.normal(size=(4, 3))
    x, row = parameter(x_vals), parameter(row_vals)
    backward(sum_all(mul(sigmoid(add_row(x, row)), constant(weights))))

    def loss(xv, rv):
        return float(np.sum(weights / (1.0 + np.exp(-(xv + rv)))))

    assert rel_err(x.grad, finite_diff_grad(lambda v: loss(v, row_vals), x_vals.copy())) < 1e-8
    assert rel_err(row.grad, finite_diff_grad(lambda v: loss(x_vals, v), row_vals.copy())) < 1e-8


def test_add_row_gradient_reaches_only_what_requires_it():
    x, row = constant(np.ones((3, 2))), parameter(np.zeros((1, 2)))
    backward(sum_all(add_row(x, row)))
    assert x.grad is None
    np.testing.assert_array_equal(row.grad, [[3.0, 3.0]])


def test_add_row_records_nothing_for_constants_or_under_no_grad():
    before = tape_length()
    add_row(constant(np.ones((3, 2))), constant(np.ones((1, 2))))
    with no_grad():
        out = add_row(parameter(np.ones((3, 2))), parameter(np.ones((1, 2))))
    assert tape_length() == before
    assert not out.requires_grad


@pytest.mark.parametrize("x_shape, row_shape", [
    ((3, 2), (2,)), ((3, 2), (1, 3)), ((3, 2), (3, 2)), ((3, 2), (2, 2)),
    ((2,), (1, 2)), ((3, 2), ()), ((2, 3, 2), (1, 2)),
])
def test_add_row_shape_errors(x_shape, row_shape):
    with pytest.raises(ShapeError, match="add_row"):
        add_row(constant(np.ones(x_shape)), constant(np.ones(row_shape)))


# ------------------------------------------------------------- take_rows

def test_take_rows_values():
    x = constant(np.arange(12, dtype=np.float64).reshape(4, 3))
    np.testing.assert_array_equal(take_rows(x, slice(1, 3)).values, x.values[1:3])
    np.testing.assert_array_equal(take_rows(x, slice(None)).values, x.values)
    assert take_rows(x, slice(2, 2)).shape == (0, 3)


def test_take_rows_records_nothing_for_constants_or_under_no_grad():
    before = tape_length()
    take_rows(constant(np.ones((3, 2))), slice(0, 2))
    with no_grad():
        out = take_rows(parameter(np.ones((3, 2))), slice(0, 2))
    assert tape_length() == before
    assert not out.requires_grad


def test_take_rows_slice_is_a_view_whose_gradient_fills_the_slice():
    x = parameter(np.arange(12, dtype=np.float64).reshape(4, 3))
    out = take_rows(x, slice(1, 3))
    assert np.shares_memory(out.values, x.values)
    np.testing.assert_array_equal(out.values, x.values[1:3])
    backward(sum_all(mul(out, constant(np.full((2, 3), 2.0)))))
    np.testing.assert_array_equal(x.grad, [[0.0] * 3, [2.0] * 3, [2.0] * 3, [0.0] * 3])


def test_take_rows_shape_errors():
    with pytest.raises(ShapeError):
        take_rows(constant(np.ones(3)), slice(0, 1))
    with pytest.raises(ShapeError):
        take_rows(constant(np.ones((3, 2))), [0])


def test_row_blocks_that_fill_a_gradient_equal_zero_padded_sums():
    # x's rows 0-1, 4-5, (twice) 2-3 and the strided 1, 3, 5 take row-only
    # gradients, and the whole of x takes two more: one the replay reaches
    # after the row blocks, and one before them that add hands to x and y
    # alike, so the row blocks are added into a copy and y keeps its own.
    rng = np.random.default_rng(33)
    x, y = parameter(rng.normal(size=(8, 3))), parameter(rng.normal(size=(8, 3)))
    spans = [slice(4, 6), slice(0, 2), slice(2, 4), slice(2, 4), slice(1, 7, 2)]
    ks = [rng.normal(size=(len(range(8)[s]), 3)) for s in spans]
    kd, ka = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    total = sum_all(mul(x, constant(kd)))
    for s, k in zip(spans, ks):
        total = add(sum_all(mul(take_rows(x, s), constant(k))), total)
    total = add(sum_all(mul(add(x, y), constant(ka))), total)
    backward(total)
    ref = ka
    for s, k in reversed(list(zip(spans, ks))):
        padded = np.zeros((8, 3))
        padded[s] = k
        ref = ref + padded
    assert_same_bits(x.grad, ref + kd)
    assert_same_bits(y.grad, ka)


def test_row_blocks_leave_unwritten_rows_zero():
    x = parameter(np.ones((6, 2)))
    out = add(take_rows(x, slice(4, 6)), take_rows(x, slice(0, 2)))
    backward(sum_all(out))
    np.testing.assert_array_equal(x.grad, [[1.0] * 2] * 2 + [[0.0] * 2] * 2 + [[1.0] * 2] * 2)


# -------------------------------------------------------------- propagate

def test_propagate_equals_a_matmul_per_block_and_matches_fd():
    rng = np.random.default_rng(41)
    op, x_vals = rng.normal(size=(4, 4)), rng.normal(size=(12, 3))
    k = rng.normal(size=(12, 3))
    x = parameter(x_vals)
    out = propagate(constant(op), x)
    for b in range(3):
        assert_same_bits(out.values[4 * b:4 * b + 4], op @ x_vals[4 * b:4 * b + 4])
    backward(sum_all(mul(tanh(out), constant(k))))

    def f(v):
        return float(np.sum(np.tanh(np.concatenate([op @ v[4 * b:4 * b + 4]
                                                    for b in range(3)])) * k))
    assert rel_err(x.grad, finite_diff_grad(f, x_vals.copy())) < 1e-8
    with pytest.raises(ShapeError, match="propagate"):
        propagate(constant(op), constant(np.ones((6, 3))))


def random_binary(n, rng, density=0.3):
    """A symmetric 0/1 matrix with zero diagonal; past 2 nodes, node 1 is isolated."""
    upper = np.triu(rng.random((n, n)) < density, k=1)
    a = (upper | upper.T).astype(np.float64)
    if n > 2:
        a[1, :] = a[:, 1] = 0.0
    return a


def as_neighbor_lists(a):
    """The CSR pair (starts, neighbors) of a dense 0/1 matrix, neighbors ascending."""
    starts = np.concatenate([[0], np.cumsum(np.count_nonzero(a, axis=1))])
    return starts, np.nonzero(a)[1]


def ascending_sums(a, x, m):
    """Per block, node i's neighbor rows added one at a time in ascending index order."""
    n = a.shape[0]
    out = np.zeros_like(x)
    for b in range(m):
        for i in range(n):
            for j in np.flatnonzero(a[i]):
                out[b * n + i] = out[b * n + i] + x[b * n + j]
    return out


# The 1-hop models' neighbor sum of their constant input, off the tape.
@pytest.mark.parametrize("n", [1, 2, 9, 40])
@pytest.mark.parametrize("m", [1, 6])
def test_propagate_over_neighbor_lists_equals_the_dense_product(n, m):
    rng = np.random.default_rng(100 * n + m)
    for density in (0.1, 0.5, 1.0):
        a = random_binary(n, rng, density)
        x = rng.normal(size=(m * n, 5))
        out = neighbor_sum(as_neighbor_lists(a), x)
        assert_same_bits(out, ascending_sums(a, x, m))
        for b in range(m):
            rows = slice(b * n, (b + 1) * n)
            dense = a @ x[rows]
            # relative to the sum of the magnitudes each entry adds up
            assert np.all(np.abs(out[rows] - dense) <= 1e-15 * (a @ np.abs(x[rows])))
        if n > 2:
            assert not out[1::n].any()  # the isolated node
    # integer-valued rows add exactly, in any order
    a = random_binary(n, rng)
    x = rng.integers(-50, 50, size=(m * n, 3)).astype(np.float64)
    dense = propagate(constant(a), x).values
    np.testing.assert_array_equal(neighbor_sum(as_neighbor_lists(a), x), dense)


# ------------------------------------------------------------ segment_gcn

# interleaved groups in node order, one of them a single node
SEGMENTS = (np.array([0, 3]), np.array([4, 1, 5]), np.array([2]))


def segment_case(rng, m=3, f=4, h=5):
    """Each group's propagated rows N_g x_g of m steps, weights, biases and an
    output weighting, then the steps and operators the rows come from."""
    n = sum(len(idx) for idx in SEGMENTS)
    ops = []
    for idx in SEGMENTS:
        a = rng.uniform(size=(len(idx), len(idx)))
        ops.append(a + a.T)
    ws = [rng.normal(size=(f, h)) for _ in SEGMENTS]
    bs = [rng.normal(size=(1, h)) for _ in SEGMENTS]
    x3 = rng.normal(size=(m * n, f)).reshape(m, n, f)
    rows = [np.matmul(a, x3[:, idx]).reshape(-1, f) for idx, a in zip(SEGMENTS, ops)]
    return rows, ws, bs, rng.normal(size=(m * n, h)), x3, ops


def test_segment_gcn_equals_the_ops_step_by_step_and_group_by_group():
    rng = np.random.default_rng(43)
    rows, ws, bs, _, x3, ops = segment_case(rng)
    out = segment_gcn(rows, SEGMENTS, [parameter(w) for w in ws],
                      [parameter(b) for b in bs])
    assert out.requires_grad
    got = out.values.reshape(3, 6, 5)
    for idx, p, w, b in zip(SEGMENTS, rows, ws, bs):
        ref = sigmoid(add_row(matmul(constant(p), constant(w)), constant(b)))
        assert_same_bits(got[:, idx], ref.values.reshape(3, len(idx), 5))
    # one step at a time: the same bits here, though BLAS may round a product
    # of |g| rows differently from one of m*|g| rows
    for step in range(3):
        for idx, a, w, b in zip(SEGMENTS, ops, ws, bs):
            ref = sigmoid(add_row(matmul(matmul(constant(a), constant(x3[step, idx])),
                                         constant(w)), constant(b)))
            assert_same_bits(got[step, idx], ref.values)


def test_segment_gcn_gradients_match_fd():
    rng = np.random.default_rng(44)
    rows, ws, bs, k, _, _ = segment_case(rng)
    w_ts, b_ts = [parameter(w) for w in ws], [parameter(b) for b in bs]
    backward(sum_all(mul(segment_gcn(rows, SEGMENTS, w_ts, b_ts), constant(k))))

    def f(wv, bv):
        out = np.empty((3, 6, 5))
        for idx, p, w, b in zip(SEGMENTS, rows, wv, bv):
            out[:, idx] = (1.0 / (1.0 + np.exp(-(p @ w + b)))).reshape(3, len(idx), 5)
        return float(np.sum(out.reshape(18, 5) * k))
    for g in range(len(SEGMENTS)):
        def f_w(v, g=g):
            return f(ws[:g] + [v] + ws[g + 1:], bs)

        def f_b(v, g=g):
            return f(ws, bs[:g] + [v] + bs[g + 1:])
        assert rel_err(w_ts[g].grad, finite_diff_grad(f_w, ws[g].copy())) < 1e-8
        assert rel_err(b_ts[g].grad, finite_diff_grad(f_b, bs[g].copy())) < 1e-8


def test_segment_gcn_shape_errors():
    rng = np.random.default_rng(45)
    rows, ws, bs, _, _, _ = segment_case(rng)
    with pytest.raises(ShapeError, match="segment_gcn"):
        segment_gcn([rows[0][:-1], *rows[1:]], SEGMENTS, ws, bs)
    with pytest.raises(ShapeError, match="segment_gcn"):
        segment_gcn(rows[::-1], SEGMENTS, ws, bs)
    with pytest.raises(ShapeError, match="segment_gcn"):
        segment_gcn([p[:, :-1] for p in rows], SEGMENTS, ws, bs)
    with pytest.raises(ShapeError, match="segment_gcn"):
        segment_gcn(rows, SEGMENTS, ws[:2], bs)
    with pytest.raises(ShapeError, match="segment_gcn"):
        segment_gcn(rows, SEGMENTS, ws, [b.T for b in bs])
    with pytest.raises(ShapeError, match="segment_gcn"):
        segment_gcn([], (), [], [])


# ------------------------------------------------------------- gru_update

def unfused_gru(gate_x, h_prev, hidden):
    """The update as the separate ops ``gru_update`` fuses, in their order."""
    xz, xr, xc = gate_x
    if h_prev is None:
        return mul(sigmoid(xz), tanh(xc))
    wz, wr, wc = hidden
    z = sigmoid(add(matmul(h_prev, wz), xz))
    r = sigmoid(add(matmul(h_prev, wr), xr))
    candidate = tanh(add(matmul(mul(h_prev, r), wc), xc))
    return add(mul(sub(1.0, z), h_prev), mul(z, candidate))


def gru_case(rng, n=5, h=4):
    gates = [rng.normal(size=(3 * n, h)) for _ in range(3)]
    return gates, rng.normal(size=(n, h)), [rng.normal(size=(h, h)) * 0.7 for _ in range(3)]


@pytest.mark.parametrize("with_state", [False, True])
def test_gru_update_equals_the_unfused_ops_bit_for_bit(with_state):
    rng = np.random.default_rng(46)
    gates, h_vals, hidden = gru_case(rng)
    k = rng.normal(size=(5, 4))
    results = []
    for fused in (True, False):
        g_ts = [parameter(v) for v in gates]
        h_t = parameter(h_vals) if with_state else None
        w_ts = [parameter(v) for v in hidden]
        if fused:
            out = gru_update(g_ts, slice(5, 10), h_t, w_ts)
        else:
            out = unfused_gru([take_rows(t, slice(5, 10)) for t in g_ts], h_t, w_ts)
        with no_grad():
            frozen = (gru_update(g_ts, slice(5, 10), h_t, w_ts) if fused else
                      unfused_gru([take_rows(t, slice(5, 10)) for t in g_ts], h_t, w_ts))
        backward(sum_all(mul(out, constant(k))))
        grads = [t.grad for t in g_ts + ([h_t] if with_state else []) + w_ts]
        results.append([out.values, frozen.values] + grads)
    if not with_state:
        # from the zero state the unfused ops never reach x_r; gru_update
        # gives it the zero gradient an explicit zero state would
        assert results[1][3] is None
        results[1][3] = np.zeros_like(gates[1])
    for got, ref in zip(*results):
        if ref is None:
            assert got is None
        else:
            assert_same_bits(got, ref)


@pytest.mark.parametrize("with_state", [False, True])
def test_gru_update_gradients_match_fd(with_state):
    rng = np.random.default_rng(47)
    gates, h_vals, hidden = gru_case(rng)
    k = rng.normal(size=(5, 4))
    g_ts = [parameter(v) for v in gates]
    h_t = parameter(h_vals) if with_state else None
    w_ts = [parameter(v) for v in hidden]
    backward(sum_all(mul(gru_update(g_ts, slice(0, 5), h_t, w_ts), constant(k))))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def f(gv, hv, wv):
        xz, xr, xc = (v[0:5] for v in gv)
        if not with_state:
            return float(np.sum(sig(xz) * np.tanh(xc) * k))
        z, r = sig(hv @ wv[0] + xz), sig(hv @ wv[1] + xr)
        c = np.tanh((hv * r) @ wv[2] + xc)
        return float(np.sum(((1.0 - z) * hv + z * c) * k))
    for i in range(3):
        fd = finite_diff_grad(lambda v: f(gates[:i] + [v] + gates[i + 1:], h_vals, hidden),
                              gates[i].copy())
        assert rel_err(g_ts[i].grad, fd) < 1e-8
        np.testing.assert_array_equal(g_ts[i].grad[5:], 0.0)
    if with_state:
        assert rel_err(h_t.grad, finite_diff_grad(lambda v: f(gates, v, hidden),
                                                  h_vals.copy())) < 1e-8
        for i in range(3):
            fd = finite_diff_grad(lambda v: f(gates, h_vals, hidden[:i] + [v] + hidden[i + 1:]),
                                  hidden[i].copy())
            assert rel_err(w_ts[i].grad, fd) < 1e-8


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("with_state", [False, True])
def test_gru_update_leaves_its_inputs_unchanged_and_shares_no_memory(with_state, frozen):
    # predict_windows hands one step's gate inputs to every window holding it
    rng = np.random.default_rng(49)
    gates, h_vals, hidden = gru_case(rng)
    g_ts = [parameter(v) for v in gates]
    h_t = parameter(h_vals) if with_state else None
    w_ts = [parameter(v) for v in hidden]
    if frozen:
        with no_grad():
            out = gru_update(g_ts, slice(5, 10), h_t, w_ts)
    else:
        out = gru_update(g_ts, slice(5, 10), h_t, w_ts)
        backward(sum_all(out))
    given = g_ts + w_ts + ([h_t] if with_state else [])
    for t, ref in zip(given, gates + hidden + [h_vals]):
        assert_same_bits(t.values, ref)
        assert not np.shares_memory(out.values, t.values)


def test_gru_update_shape_errors():
    rng = np.random.default_rng(48)
    gates, h_vals, hidden = gru_case(rng)
    g_ts = [constant(v) for v in gates]
    with pytest.raises(ShapeError, match="gru_update"):
        gru_update(g_ts, slice(0, 5), constant(h_vals[:4]), [constant(w) for w in hidden])
    with pytest.raises(ShapeError, match="gru_update"):
        gru_update(g_ts, slice(0, 5), constant(h_vals), [constant(w[:3]) for w in hidden])


@pytest.mark.parametrize("with_state", [False, True])
def test_frozen_gru_update_equals_the_taped_one_in_three_arrays(with_state):
    rng = np.random.default_rng(51)
    n, h = 128, 32
    gates, h_vals, hidden = gru_case(rng, n, h)
    g_ts = [parameter(v) for v in gates]
    h_t = parameter(h_vals) if with_state else None
    w_ts = [parameter(v) for v in hidden]
    before = tape_length()
    taped = gru_update(g_ts, slice(n, 2 * n), h_t, w_ts)
    assert tape_length() == before + 1
    with no_grad():
        tracemalloc.start()
        try:
            frozen = gru_update(g_ts, slice(n, 2 * n), h_t, w_ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert tape_length() == before + 1
    assert_same_bits(frozen.values, taped.values)
    # off the tape r, c and the update share three n x h arrays
    assert peak < 3.5 * n * h * 8, f"a frozen update peaked at {peak} bytes"


# ------------------------------------------------------ what the tape keeps

# The exported names that record nothing themselves: mean_all records through
# sum_all and mul.
NOT_RECORDING = {"DiffTensor", "backward", "clear_tape", "constant", "mean_all",
                 "no_grad", "parameter", "tape_length"}


def recording_calls():
    """Per recording op, taped calls that cover its branches."""
    rng = np.random.default_rng(52)

    def p(*shape):
        return parameter(rng.normal(size=shape))
    gates, h_vals, hidden = gru_case(rng)
    rows, ws, bs, _, _, _ = segment_case(rng)
    a = random_binary(6, rng, 0.5)
    return {
        "add": lambda: [add(p(3, 2), p(3, 2)), add(p(3, 2), 1.0)],
        "sub": lambda: [sub(p(3, 2), p(3, 2)), sub(2.0, p(3, 2))],
        "mul": lambda: [mul(p(3, 2), p(3, 2)), mul(p(3, 2), constant(2.0))],
        "matmul": lambda: [matmul(p(3, 2), p(2, 4)), matmul(constant(np.ones((3, 2))), p(2, 4)),
                           matmul(p(3, 2), constant(np.ones((2, 4))))],
        "add_row": lambda: [add_row(p(3, 2), p(1, 2))],
        "sigmoid": lambda: [sigmoid(p(3, 2))],
        "tanh": lambda: [tanh(p(3, 2))],
        "relu": lambda: [relu(p(3, 2))],
        "softmax": lambda: [softmax(p(4))],
        "concat": lambda: [concat([p(2, 2), constant(np.ones((3, 2))), p(1, 2)])],
        "take_rows": lambda: [take_rows(p(4, 2), slice(1, 3))],
        "reshape": lambda: [reshape(p(3, 2), (2, 3))],
        "sum_all": lambda: [sum_all(p(3, 2))],
        "propagate": lambda: [propagate(constant(a), p(12, 2))],
        "segment_gcn": lambda: [
            segment_gcn(rows, SEGMENTS, [parameter(w) for w in ws],
                        [parameter(b) for b in bs]),
            segment_gcn(rows, SEGMENTS, [constant(w) for w in ws],
                        [parameter(b) for b in bs])],
        "gru_update": lambda: [
            gru_update([parameter(v) for v in gates], slice(0, 5), None, None),
            gru_update([parameter(v) for v in gates], slice(5, 10), parameter(h_vals),
                       [parameter(w) for w in hidden])],
    }


def reachable(fn):
    """Every object a gradient rule holds: its closure cells and defaults,
    and through them nested functions and containers."""
    seen, stack, found = set(), [fn], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
            stack += list(obj.__defaults__ or ())
        elif isinstance(obj, dict):
            stack += list(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack += list(obj)
    return found


def test_no_gradient_rule_holds_a_tensor():
    # a tape entry points at gradient nodes, and its grad_fn at the arrays
    # its rule reads: no tensor, so no forward value the rule does not read
    import regraph.numerics.tensor as core
    calls = recording_calls()
    assert set(core.__all__) - NOT_RECORDING == set(calls)
    for name, call in calls.items():
        core.clear_tape()
        outputs = call()
        entries = list(core._TAPE)
        core.clear_tape()
        assert [e.grad_fn.__qualname__.split(".")[0] for e in entries] == \
            [name] * len(outputs)
        for entry, out in zip(entries, outputs):
            assert entry.output is out.node
            assert not any(isinstance(t, DiffTensor) for t in (entry.output, *entry.inputs))
            held = [type(obj).__name__ for obj in reachable(entry.grad_fn)
                    if isinstance(obj, DiffTensor)]
            assert held == [], name


# --------------------------------------------------------------- softmax

def test_softmax_uniform_on_constant_vector():
    for c in (-40.0, 0.0, 1e6):
        out = softmax(constant([c, c, c]))
        np.testing.assert_allclose(out.values, [1 / 3, 1 / 3, 1 / 3], rtol=1e-12)


def test_softmax_hand_value():
    out = softmax(constant(np.log([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(out.values, [1 / 6, 2 / 6, 3 / 6], rtol=1e-12)


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(11)
    v = rng.normal(size=8) * 10
    s1 = softmax(constant(v)).values
    s2 = softmax(constant(v + 123.456)).values
    assert abs(np.sum(s1) - 1.0) <= 1e-12
    np.testing.assert_allclose(s1, s2, atol=1e-12)


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        softmax(constant([0.0, np.nan, 1.0]))


def test_softmax_jacobian_matches_fd():
    rng = np.random.default_rng(3)
    v_vals = rng.normal(size=5)
    # Probe the Jacobian one output row at a time.
    for k in range(5):
        v = parameter(v_vals.copy())
        pick = np.zeros(5)
        pick[k] = 1.0
        backward(sum_all(mul(softmax(v), constant(pick))))

        def f(x, k=k):
            e = np.exp(x - np.max(x))
            return float((e / np.sum(e))[k])

        fd = finite_diff_grad(f, v_vals.copy())
        assert rel_err(v.grad, fd) < 1e-6


# -------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    x = parameter(np.arange(6, dtype=np.float64).reshape(2, 3))
    backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = parameter([1.0, -2.0, 3.0])
    backward(sum_all(mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.values, rtol=1e-12)


def test_backward_requires_scalar_loss():
    x = parameter([1.0, 2.0])
    y = add(x, x)
    with pytest.raises(ValueError):
        backward(y)


def test_backward_empty_tape():
    x = parameter([1.0])
    with pytest.raises(ValueError):
        backward(sum_all(constant([2.0])))  # records nothing: no grad inputs
    del x


def test_diamond_graph_no_double_counting():
    # x feeds two branches that rejoin; each tape node must be replayed once.
    x = parameter([1.0, 2.0])
    a = mul(x, 2.0)
    b = mul(x, 3.0)
    c = add(a, b)
    backward(sum_all(mul(c, c)))
    # d/dx sum((5x)^2) = 50x
    np.testing.assert_allclose(x.grad, 50.0 * x.values, rtol=1e-12)


def test_shared_nonlinear_subexpression():
    x = parameter([0.2, -0.4, 0.9])
    y = tanh(x)
    backward(sum_all(mul(y, y)))

    def f(v):
        t = np.tanh(v)
        return float(np.sum(t * t))

    fd = finite_diff_grad(f, x.values.copy())
    assert rel_err(x.grad, fd) < 1e-6


def test_tape_cleared_after_backward():
    x = parameter([1.0])
    backward(sum_all(mul(x, x)))
    assert tape_length() == 0


def test_no_grad_blocks_recording():
    before = tape_length()
    x = parameter([1.0, 2.0])
    with no_grad():
        y = mul(sigmoid(x), 3.0)
    assert tape_length() == before
    assert not y.requires_grad


def test_constant_only_ops_not_recorded():
    before = tape_length()
    mul(constant([1.0]), constant([2.0]))
    assert tape_length() == before


def test_reshape_and_mean_gradients():
    x = parameter(np.arange(4, dtype=np.float64))
    backward(mean_all(reshape(x, (2, 2))))
    np.testing.assert_allclose(x.grad, np.full(4, 0.25), rtol=1e-12)


def test_composed_network_gradient_matches_fd():
    rng = np.random.default_rng(19)
    w1_vals = rng.normal(size=(3, 4)) * 0.5
    w2_vals = rng.normal(size=(4, 2)) * 0.5
    x_vals = rng.normal(size=(5, 3))

    w1 = parameter(w1_vals)
    w2 = parameter(w2_vals)
    h = tanh(matmul(constant(x_vals), w1))
    out = sigmoid(matmul(h, w2))
    backward(sum_all(mul(out, out)))

    def f_w1(v):
        hh = np.tanh(x_vals @ v)
        oo = 1.0 / (1.0 + np.exp(-(hh @ w2_vals)))
        return float(np.sum(oo * oo))

    fd = finite_diff_grad(f_w1, w1_vals.copy())
    assert rel_err(w1.grad, fd) < 1e-4


# --------------------------------------------------------------- rmsprop

def test_rmsprop_rejects_a_nan_learning_rate():
    with pytest.raises(ValueError, match="learning_rate"):
        RmsProp([parameter([1.0])], learning_rate=float("nan"), weight_decay=0.0,
                decay_rate=0.99, smoothing=1e-8, clip_norm=None)


def test_rmsprop_null_step():
    p = parameter([1.0, 2.0, 3.0])
    opt = RmsProp([p], learning_rate=1e-3, weight_decay=0.0, decay_rate=0.99,
                  smoothing=1e-8, clip_norm=None)
    p.grad = np.zeros(3)
    opt.step()
    np.testing.assert_array_equal(p.values, [1.0, 2.0, 3.0])


def test_rmsprop_scalar_hand_oracle():
    # w=1, g=1, lr=1e-3, rho=0.99, wd=0:
    #   acc = 0.01, step = 1e-3 / (0.1 + 1e-8) = 9.99999900000010e-3
    p = parameter([1.0])
    opt = RmsProp([p], learning_rate=1e-3, weight_decay=0.0,
                  decay_rate=0.99, smoothing=1e-8, clip_norm=None)
    p.grad = np.array([1.0])
    opt.step()
    assert opt.sq_avg[0][0] == pytest.approx(0.01, rel=1e-12)
    expected_w = 1.0 - 1e-3 / (0.1 + 1e-8)
    assert p.values[0] == pytest.approx(expected_w, rel=1e-12)
    assert p.values[0] == pytest.approx(0.99000000099999, abs=1e-11)
    assert p.grad is None


def test_rmsprop_twin_params_stay_identical():
    rng = np.random.default_rng(4)
    a = parameter([1.5, -0.5])
    b = parameter([1.5, -0.5])
    opt = RmsProp([a, b], learning_rate=1e-2, weight_decay=1e-4, decay_rate=0.99,
                  smoothing=1e-8, clip_norm=None)
    for _ in range(25):
        g = rng.normal(size=2)
        a.grad = g.copy()
        b.grad = g.copy()
        opt.step()
    np.testing.assert_array_equal(a.values, b.values)


def test_rmsprop_weight_decay_shrinks_param_vs_undecayed_twin():
    rng = np.random.default_rng(6)
    grads = [rng.normal(size=1) * 0.1 for _ in range(20)]
    decayed = parameter([10.0])
    plain = parameter([10.0])
    opt_d = RmsProp([decayed], learning_rate=1e-2, weight_decay=1e-2, decay_rate=0.99,
                    smoothing=1e-8, clip_norm=None)
    opt_p = RmsProp([plain], learning_rate=1e-2, weight_decay=0.0, decay_rate=0.99,
                    smoothing=1e-8, clip_norm=None)
    for g in grads:
        decayed.grad = g.copy()
        plain.grad = g.copy()
        opt_d.step()
        opt_p.step()
    assert abs(decayed.values[0]) < abs(plain.values[0])


def test_rmsprop_weight_decay_on_a_dead_parameter_stays_bounded():
    # Only the decay moves a parameter whose gradient is always zero: it must
    # shrink the parameter in bounded steps, never blow it up.
    lr, rho = 1e-3, 0.99
    start = np.array([-2.0, -0.5, -0.05, 0.05, 0.5, 2.0])
    p = parameter(start)
    opt = RmsProp([p], learning_rate=lr, weight_decay=1e-4, decay_rate=rho,
                  smoothing=1e-8, clip_norm=None)
    previous = np.abs(start)
    for _ in range(200):
        p.grad = np.zeros_like(start)
        opt.step()
        assert np.all(np.isfinite(p.values))
        assert np.all(np.abs(p.values) <= previous)
        # RMSProp's step bound: |g| / sqrt(acc) <= 1 / sqrt(1 - rho)
        assert np.all(previous - np.abs(p.values) <= lr / np.sqrt(1.0 - rho) * (1 + 1e-12))
        previous = np.abs(p.values)


def test_rmsprop_without_weight_decay_is_the_plain_step():
    rng = np.random.default_rng(8)
    p = parameter(rng.normal(size=5))
    opt = RmsProp([p], learning_rate=1e-2, weight_decay=0.0, decay_rate=0.99,
                  smoothing=1e-8, clip_norm=None)
    values = p.values.copy()
    acc = np.zeros(5)
    for _ in range(10):
        g = rng.normal(size=5)
        p.grad = g.copy()
        opt.step()
        acc = acc * 0.99 + (1.0 - 0.99) * g * g
        values = values - 1e-2 * (g / (np.sqrt(acc) + 1e-8))
        np.testing.assert_array_equal(p.values, values)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_rmsprop_steps_equal_the_textbook_formula(weight_decay):
    rng = np.random.default_rng(12)
    shapes = [(7, 5), (3,)]   # the smaller one uses a prefix of the scratch arrays
    params = [parameter(rng.normal(size=s)) for s in shapes]
    opt = RmsProp(params, learning_rate=1e-2, weight_decay=weight_decay, decay_rate=0.99,
                  smoothing=1e-8, clip_norm=None)
    values = [p.values.copy() for p in params]
    accs = [np.zeros(s) for s in shapes]
    for _ in range(5):
        grads = [rng.normal(size=s) for s in shapes]
        for p, grad in zip(params, grads):
            p.grad = grad
        opt.step()
        for i, grad in enumerate(grads):
            g = grad + weight_decay * values[i] if weight_decay else grad
            accs[i] = 0.99 * accs[i] + (1.0 - 0.99) * g * g
            values[i] = values[i] - 1e-2 * (g / (np.sqrt(accs[i]) + 1e-8))
            assert_same_bits(params[i].values, values[i])
            assert_same_bits(opt.sq_avg[i], accs[i])
            assert params[i].grad is None


@pytest.mark.parametrize("clip_norm", [1e-3, 1e6], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_rmsprop_blocks_take_the_whole_array_formula_bit_for_bit(weight_decay, clip_norm):
    # an odd size over three blocks, a (rows, cols) shape across block edges, one small
    rng = np.random.default_rng(15)
    shapes = [(3 * SCRATCH_BLOCK + 7,), (129, 2 * SCRATCH_BLOCK // 129 + 5), (5, 3)]
    params = [parameter(rng.normal(size=s)) for s in shapes]
    opt = RmsProp(params, learning_rate=1e-2, weight_decay=weight_decay, decay_rate=0.99,
                  smoothing=1e-8, clip_norm=clip_norm)
    values = [p.values.copy() for p in params]
    accs = [np.zeros(s) for s in shapes]
    for _ in range(4):
        grads = [rng.normal(size=s) for s in shapes]
        for p, grad in zip(params, grads):
            p.grad = grad
        opt.step()
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        assert (norm > clip_norm) == (clip_norm == 1e-3)
        for i, grad in enumerate(grads):
            g = grad * (clip_norm / norm) if norm > clip_norm else grad
            g = g + weight_decay * values[i] if weight_decay else g
            accs[i] = 0.99 * accs[i] + (1.0 - 0.99) * g * g
            values[i] = values[i] - 1e-2 * (g / (np.sqrt(accs[i]) + 1e-8))
            assert_same_bits(params[i].values, values[i])
            assert_same_bits(opt.sq_avg[i], accs[i])


def test_rmsprop_scratch_does_not_grow_with_the_largest_parameter():
    # beside its accumulators, the optimizer holds two blocks, however large a parameter
    held = {}
    for blocks in (3, 12):
        params = [parameter(np.zeros(blocks * SCRATCH_BLOCK + 7)), parameter(np.zeros(5))]
        tracemalloc.start()
        try:
            opt = RmsProp(params, learning_rate=1e-3, weight_decay=1e-4, decay_rate=0.99,
                          smoothing=1e-8, clip_norm=5.0)
            held[blocks] = tracemalloc.get_traced_memory()[0] - sum(a.nbytes for a in opt.sq_avg)
        finally:
            tracemalloc.stop()
    for bytes_held in held.values():
        assert 2 * SCRATCH_BLOCK * 8 <= bytes_held < 2 * SCRATCH_BLOCK * 8 + 4096


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_rmsprop_step_allocates_no_parameter_sized_array(weight_decay):
    import tracemalloc
    rng = np.random.default_rng(13)
    p = parameter(rng.normal(size=200_000))
    opt = RmsProp([p], learning_rate=1e-3, weight_decay=weight_decay, decay_rate=0.99,
                  smoothing=1e-8, clip_norm=None)
    grad = rng.normal(size=200_000)
    p.grad = grad
    opt.step()
    p.grad = grad
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.values.nbytes
    assert p.grad is None


def test_rmsprop_grad_norm_sums_each_parameter_then_takes_the_root():
    rng = np.random.default_rng(14)
    params = [parameter(np.zeros(s)) for s in ((40, 30), (30,), (1, 30))]
    opt = RmsProp(params, learning_rate=1e-3, weight_decay=1e-4, decay_rate=0.99,
                  smoothing=1e-8, clip_norm=None)
    for p in params[:2]:
        p.grad = rng.normal(size=p.shape)
    grads = [p.grad.copy() for p in params[:2]]
    expected = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    assert opt.grad_norm() == expected
    for p, g in zip(params, grads):
        assert_same_bits(p.grad, g)


def test_rmsprop_missing_grad_errors():
    p = parameter([1.0])
    q = parameter([2.0])
    opt = RmsProp([p, q], learning_rate=1e-3, weight_decay=1e-4, decay_rate=0.99,
                  smoothing=1e-8, clip_norm=None)
    p.grad = np.array([1.0])
    with pytest.raises(ValueError, match="parameter 1 has no gradient"):
        opt.step()
    # the step is refused before any parameter moves
    np.testing.assert_array_equal(p.values, [1.0])
    np.testing.assert_array_equal(opt.sq_avg[0], [0.0])


def test_rmsprop_accumulators_nonnegative():
    rng = np.random.default_rng(9)
    p = parameter(rng.normal(size=6))
    opt = RmsProp([p], learning_rate=5e-3, weight_decay=1e-4, decay_rate=0.99,
                  smoothing=1e-8, clip_norm=None)
    for _ in range(10):
        p.grad = rng.normal(size=6)
        opt.step()
        assert np.all(opt.sq_avg[0] >= 0.0)


def test_deterministic_trajectory():
    def run():
        rng = np.random.default_rng(42)
        w = parameter(rng.normal(size=(3, 3)))
        opt = RmsProp([w], learning_rate=1e-3, weight_decay=1e-4, decay_rate=0.99,
                      smoothing=1e-8, clip_norm=None)
        x = constant(rng.normal(size=(4, 3)))
        for _ in range(8):
            out = tanh(matmul(x, w))
            backward(sum_all(mul(out, out)))
            opt.step()
        return w.values.copy()

    first = run()
    second = run()
    assert first.tobytes() == second.tobytes()
