"""Unit tests for the autodiff core and the optimizer."""

import numpy as np
import pytest

from regraph.errors import NumericError, ShapeError
from regraph.numerics import (
    RmsProp,
    add,
    add_row,
    backward,
    concat,
    constant,
    matmul,
    matmul_add,
    mean_all,
    mul,
    no_grad,
    parameter,
    relu,
    reshape,
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


# ------------------------------------------------------------ matmul_add

@pytest.mark.parametrize("n, k, m", [(1, 1, 1), (5, 3, 4), (105, 256, 256)])
def test_matmul_add_matches_matmul_then_add_bit_for_bit(n, k, m):
    rng = np.random.default_rng(n + k + m)
    vals = rng.normal(size=(n, k)), rng.normal(size=(k, m)), rng.normal(size=(n, m))
    weights = constant(rng.normal(size=(n, m)))
    results = []
    for op in (matmul_add, lambda a, w, c: add(matmul(a, w), c)):
        a, w, c = (parameter(v) for v in vals)
        out = op(a, w, c)
        backward(sum_all(mul(mul(out, out), weights)))
        results.append((out.values, a.grad, w.grad, c.grad))
    for got, ref in zip(*results):
        assert_same_bits(got, ref)


def test_matmul_add_gradient_matches_fd_and_skips_constants():
    rng = np.random.default_rng(37)
    a_vals, w_vals, c_vals = (rng.normal(size=s) for s in ((4, 3), (3, 2), (4, 2)))
    a, w, c = parameter(a_vals), parameter(w_vals), constant(c_vals)
    backward(sum_all(sigmoid(matmul_add(a, w, c))))

    def loss(av, wv):
        return float(np.sum(1.0 / (1.0 + np.exp(-(av @ wv + c_vals)))))

    assert rel_err(a.grad, finite_diff_grad(lambda v: loss(v, w_vals), a_vals.copy())) < 1e-8
    assert rel_err(w.grad, finite_diff_grad(lambda v: loss(a_vals, v), w_vals.copy())) < 1e-8
    assert c.grad is None
    with pytest.raises(ShapeError, match="matmul_add"):
        matmul_add(a, w, constant(np.zeros((1, 2))))
    with pytest.raises(ShapeError, match="matmul_add"):
        matmul_add(a, constant(np.zeros((2, 2))), c)


# ------------------------------------------------------------- take_rows

def test_take_rows_values():
    x = constant(np.arange(12, dtype=np.float64).reshape(4, 3))
    np.testing.assert_array_equal(take_rows(x, [2, 0, 3, 1]).values,
                                  x.values[[2, 0, 3, 1]])
    np.testing.assert_array_equal(take_rows(x, [1, 1, 3]).values,
                                  [[3.0, 4.0, 5.0], [3.0, 4.0, 5.0], [9.0, 10.0, 11.0]])
    empty = take_rows(x, np.array([], dtype=np.int64))
    assert empty.shape == (0, 3)


def test_take_rows_gradient_accumulates_repeated_rows():
    rng = np.random.default_rng(23)
    x_vals = rng.normal(size=(4, 3))
    index = np.array([2, 0, 2, 2, 3, 0])
    weights = rng.normal(size=(6, 3))
    x = parameter(x_vals)
    out = take_rows(x, index)
    backward(sum_all(mul(mul(out, out), constant(weights))))

    def f(v):
        return float(np.sum(v[index] ** 2 * weights))

    fd = finite_diff_grad(f, x_vals.copy())
    assert rel_err(x.grad, fd) < 1e-8
    assert np.all(x.grad[1] == 0.0)  # row 1 is never taken


def test_take_rows_records_nothing_for_constants_or_under_no_grad():
    before = tape_length()
    take_rows(constant(np.ones((3, 2))), [0, 2])
    with no_grad():
        out = take_rows(parameter(np.ones((3, 2))), [0, 2])
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
        take_rows(constant(np.ones(3)), [0])
    with pytest.raises(ShapeError):
        take_rows(constant(np.ones((3, 2))), [[0]])


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

def test_rmsprop_null_step():
    p = parameter([1.0, 2.0, 3.0])
    opt = RmsProp([p], learning_rate=1e-3, weight_decay=0.0)
    p.grad = np.zeros(3)
    opt.step()
    np.testing.assert_array_equal(p.values, [1.0, 2.0, 3.0])


def test_rmsprop_scalar_hand_oracle():
    # w=1, g=1, lr=1e-3, rho=0.99, wd=0:
    #   acc = 0.01, step = 1e-3 / (0.1 + 1e-8) = 9.99999900000010e-3
    p = parameter([1.0])
    opt = RmsProp([p], learning_rate=1e-3, weight_decay=0.0,
                  decay_rate=0.99, smoothing=1e-8)
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
    opt = RmsProp([a, b], learning_rate=1e-2, weight_decay=1e-4)
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
    opt_d = RmsProp([decayed], learning_rate=1e-2, weight_decay=1e-2)
    opt_p = RmsProp([plain], learning_rate=1e-2, weight_decay=0.0)
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
    opt = RmsProp([p], learning_rate=lr, weight_decay=1e-4, decay_rate=rho)
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
    opt = RmsProp([p], learning_rate=1e-2, weight_decay=0.0)
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
    opt = RmsProp(params, learning_rate=1e-2, weight_decay=weight_decay)
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


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_rmsprop_step_allocates_no_parameter_sized_array(weight_decay):
    import tracemalloc
    rng = np.random.default_rng(13)
    p = parameter(rng.normal(size=200_000))
    opt = RmsProp([p], learning_rate=1e-3, weight_decay=weight_decay)
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
    opt = RmsProp(params)
    for p in params[:2]:
        p.grad = rng.normal(size=p.shape)
    grads = [p.grad.copy() for p in params[:2]]
    expected = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    assert opt.grad_norm() == expected
    for p, g in zip(params, grads):
        assert_same_bits(p.grad, g)


def test_rmsprop_missing_grad_errors():
    p = parameter([1.0])
    opt = RmsProp([p])
    with pytest.raises(ValueError):
        opt.step()


def test_rmsprop_accumulators_nonnegative():
    rng = np.random.default_rng(9)
    p = parameter(rng.normal(size=6))
    opt = RmsProp([p], learning_rate=5e-3)
    for _ in range(10):
        p.grad = rng.normal(size=6)
        opt.step()
        assert np.all(opt.sq_avg[0] >= 0.0)


def test_deterministic_trajectory():
    def run():
        rng = np.random.default_rng(42)
        w = parameter(rng.normal(size=(3, 3)))
        opt = RmsProp([w], learning_rate=1e-3, weight_decay=1e-4)
        x = constant(rng.normal(size=(4, 3)))
        for _ in range(8):
            out = tanh(matmul(x, w))
            backward(sum_all(mul(out, out)))
            opt.step()
        return w.values.copy()

    first = run()
    second = run()
    assert first.tobytes() == second.tobytes()
