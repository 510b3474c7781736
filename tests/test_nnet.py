import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from confgen import nnet
from confgen.nnet import ShapeError, Tensor

# float64 bit patterns: -0.0, the smallest and largest subnormals of both
# signs, +-inf, a quiet NaN, negative and payload NaNs, and signalling NaNs
SPECIAL_BITS = (0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
                0x000FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
                0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8DEADBEEF0001,
                0x7FF0000000000001, 0xFFF4000000000000)


def finite_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinate by coordinate."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


def mlp_parameters(mlp):
    return [t for layer in mlp.layers for t in (layer.weight, layer.bias)]


class TestForwardPrimitives:
    def test_relu(self):
        out = nnet.matmul(Tensor([[-1.0, 0.0, 2.0]]), Tensor(np.eye(3)), relu=True)
        assert out.data.tolist() == [[0.0, 0.0, 2.0]]

    def test_matmul_identity(self):
        v = np.array([[1.0], [2.0], [3.0]])
        out = nnet.matmul(Tensor(np.eye(3)), Tensor(v))
        assert np.array_equal(out.data, v)

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            nnet.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_scatter_sum_on_path_graph(self):
        # two edges 0-1 and 1-2; the middle node collects both edge vectors
        edge_vecs = Tensor([[1.0, 2.0], [10.0, 20.0]])
        src = np.array([0, 1])
        dst = np.array([1, 2])
        agg = nnet.add(nnet.scatter_sum(edge_vecs, src, 3),
                       nnet.scatter_sum(edge_vecs, dst, 3))
        assert agg.data.tolist() == [[1.0, 2.0], [11.0, 22.0], [10.0, 20.0]]

    def test_concat_axis1(self):
        out = nnet.concat([Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 1)))], axis=1)
        assert out.data.shape == (2, 3)

    def test_clip_values_and_mask(self):
        x = nnet.param(np.array([-5.0, 0.5, 9.0]))
        out = nnet.tsum(nnet.clip(x, 0.0, 1.0))
        nnet.backward(out)
        assert out.data == pytest.approx(1.5)
        assert x.grad.tolist() == [0.0, 1.0, 0.0]


class TestBackward:
    def test_relu_sum_gradient(self):
        x = nnet.param(np.array([[-1.0, 2.0]]))
        nnet.backward(nnet.tsum(nnet.matmul(x, Tensor(np.eye(2)), relu=True)))
        assert x.grad.tolist() == [[0.0, 1.0]]

    def test_square_gradient(self):
        x = nnet.param(np.array(3.0))
        nnet.backward(nnet.square(x))
        assert x.grad == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        x = nnet.param(np.array([1.0, 2.0]))
        with pytest.raises(ShapeError):
            nnet.backward(nnet.square(x))

    def test_reused_tensor_accumulates(self):
        x = nnet.param(np.array(2.0))
        y = nnet.add(nnet.mul(x, x), x)  # x^2 + x
        nnet.backward(y)
        assert x.grad == pytest.approx(5.0)

    def test_mlp_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        mlp = nnet.Mlp((5, 7, 6, 1), rng)
        x0 = rng.normal(size=(3, 5))

        def loss_value():
            return nnet.tsum(nnet.square(mlp(Tensor(x0)))).item()

        nnet.zero_grads(mlp_parameters(mlp))
        nnet.backward(nnet.tsum(nnet.square(mlp(Tensor(x0)))))
        worst = 0.0
        for p in mlp_parameters(mlp):
            fd = finite_difference(lambda _: loss_value(), p.data)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(p.grad)), 1e-6)
            worst = max(worst, float((np.abs(fd - p.grad) / denom).max()))
        assert worst < 1e-4

    def test_backward_linearity(self):
        rng = np.random.default_rng(9)
        x = nnet.param(rng.normal(size=4))

        def grad_of(f):
            nnet.zero_grads([x])
            nnet.backward(f())
            return x.grad.copy()

        loss_a = lambda: nnet.tsum(nnet.square(x))
        loss_b = lambda: nnet.tsum(nnet.exp(x))
        combined = grad_of(lambda: nnet.add(loss_a(), loss_b()))
        assert np.allclose(combined, grad_of(loss_a) + grad_of(loss_b), atol=1e-12)

    def test_gather_scatter_roundtrip_gradient(self):
        x = nnet.param(np.arange(6.0).reshape(3, 2))
        idx = np.array([0, 0, 2])
        out = nnet.tsum(nnet.rows(x, idx))
        nnet.backward(out)
        assert x.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]


class TestSampleAxis:
    """Graph ops on a (S, rows, cols) stack act on each matrix as if alone."""

    def test_forward_matches_each_slice(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 7, 3))
        w = rng.normal(size=(3, 5))
        idx = np.array([0, 2, 2, 6, 1])
        side = rng.normal(size=(7, 2))
        out = {
            "matmul": nnet.matmul(Tensor(x), Tensor(w)).data,
            "rows": nnet.rows(Tensor(x), idx).data,
            "scatter": nnet.scatter_sum(Tensor(x[:, :5]), idx, 7).data,
            "concat": nnet.concat([Tensor(side), Tensor(x)], axis=-1).data,
        }
        for s in range(4):
            alone = {
                "matmul": nnet.matmul(Tensor(x[s]), Tensor(w)).data,
                "rows": nnet.rows(Tensor(x[s]), idx).data,
                "scatter": nnet.scatter_sum(Tensor(x[s, :5]), idx, 7).data,
                "concat": nnet.concat([Tensor(side), Tensor(x[s])], axis=-1).data,
            }
            for name, value in alone.items():
                assert out[name][s].tobytes() == value.tobytes(), name

    def test_gradients_sum_over_the_stack(self):
        rng = np.random.default_rng(1)
        x = nnet.param(rng.normal(size=(3, 4, 2)))
        w = nnet.param(rng.normal(size=(3, 2)))
        side = nnet.param(rng.normal(size=(4, 1)))
        idx = np.array([1, 3, 3, 0])

        def loss():
            h = nnet.concat([side, nnet.rows(x, idx)], axis=-1)  # (3, 4, 3)
            h = nnet.scatter_sum(nnet.matmul(h, w, relu=True), idx, 4)  # (3, 4, 2)
            return nnet.tsum(nnet.square(h))

        nnet.backward(loss())
        for t in (x, w, side):
            expected = finite_difference(lambda _: loss().item(), t.data)
            assert t.grad.shape == t.data.shape
            assert np.allclose(t.grad, expected, rtol=1e-5, atol=1e-6)

    def test_rank_checked(self):
        with pytest.raises(ShapeError):
            nnet.rows(Tensor(np.zeros(3)), [0])
        with pytest.raises(ShapeError):
            nnet.scatter_sum(Tensor(np.zeros((1, 2, 3, 4))), [0, 1, 2], 3)
        with pytest.raises(ShapeError):
            nnet.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3, 4))))

    @pytest.mark.parametrize("call", [
        lambda: nnet.rows(Tensor(np.zeros((3, 4))), [-1]),
        lambda: nnet.rows(Tensor(np.zeros((3, 4))), [0, 3]),
        lambda: nnet.rows(Tensor(np.zeros((3, 4))), [[0]]),
        lambda: nnet.scatter_sum(Tensor(np.zeros((2, 2, 4))), [0, 3], 3),
        lambda: nnet.scatter_sum(Tensor(np.zeros((2, 2, 4))), [-1, 0], 3),
    ], ids=["rows-negative", "rows-past-end", "rows-matrix-index", "scatter-past-end",
            "scatter-negative"])
    def test_row_numbers_checked(self, call):
        # rows read row -1 as the last row, and its gradient followed
        with pytest.raises(ShapeError, match="row numbers in"):
            call()


def _wide_normal(rng, shape):
    """Normal values over 16 decades, so a sum in another order changes bits."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


def _with_specials(rng, shape):
    """`_wide_normal` values, about a quarter of them replaced by +-0.0, NaN
    or +-inf."""
    x = _wide_normal(rng, shape)
    special = rng.random(shape) < 0.25
    x[special] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf], special.sum())
    return x


class TestExactOps:
    """The fused and bincount ops give their references' bits: forward values
    and every gradient, of matrices and of stacks."""

    @settings(max_examples=40, deadline=None)
    @given(stack=st.integers(0, 3), n=st.integers(1, 9), fan_in=st.integers(1, 6),
           fan_out=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_dense_matches_add_of_matmul(self, stack, n, fan_in, fan_out, seed):
        rng = np.random.default_rng(seed)
        lead = (stack,) if stack else ()
        x0 = _wide_normal(rng, lead + (n, fan_in))
        layer = nnet.Dense(fan_in, fan_out, rng)
        layer.bias.data = _wide_normal(rng, fan_out)
        weights = Tensor(_wide_normal(rng, lead + (n, fan_out)))
        x = nnet.param(x0)
        xr, wr, br = (nnet.param(a.copy()) for a in
                      (x0, layer.weight.data, layer.bias.data))
        fused, reference = layer(x), nnet.add(nnet.matmul(xr, wr), br)
        assert fused.data.tobytes() == reference.data.tobytes()
        for out in (fused, reference):
            nnet.backward(nnet.tsum(nnet.mul(out, weights)))
        for got, want in ((x, xr), (layer.weight, wr), (layer.bias, br)):
            assert got.grad.shape == want.grad.shape
            assert got.grad.tobytes() == want.grad.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(stack=st.integers(0, 3), n=st.integers(1, 6), fan_in=st.integers(1, 5),
           fan_out=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_relu_matches_where(self, stack, n, fan_in, fan_out, seed):
        """matmul(..., relu=True) against the unfused matmul: its values are
        np.where(y > 0, y, 0.0) of the unfused output y, and its gradients
        are the unfused backward's, fed the incoming gradient g * (out > 0)."""
        rng = np.random.default_rng(seed)
        lead = (stack,) if stack else ()
        arrays = [_with_specials(rng, shape) for shape in
                  (lead + (n, fan_in), (fan_in, fan_out), (fan_out,))]
        a, b, bias = (nnet.param(v.copy()) for v in arrays)
        ar, br, biasr = (nnet.param(v.copy()) for v in arrays)
        g = _wide_normal(rng, lead + (n, fan_out))
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
            out = nnet.matmul(a, b, bias, relu=True)
            y = nnet.matmul(ar, br, biasr)
            assert out.data.tobytes() == np.where(y.data > 0, y.data, 0.0).tobytes()
            nnet.backward(nnet.tsum(nnet.mul(out, Tensor(g))))
            nnet.backward(nnet.tsum(nnet.mul(y, Tensor(g * (out.data > 0.0)))))
        for got, want in ((a, ar), (b, br), (bias, biasr)):
            assert got.grad.shape == want.grad.shape
            assert got.grad.tobytes() == want.grad.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(stack=st.integers(0, 3), n=st.integers(1, 6), width=st.integers(1, 4),
           index=st.lists(st.integers(0, 5), max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_and_scatter_sum_match_add_at(self, stack, n, width, index, seed):
        rng = np.random.default_rng(seed)
        lead = (stack,) if stack else ()
        index = np.array([i % n for i in index], dtype=np.int64)
        at = (slice(None), index) if stack else index
        x = nnet.param(_wide_normal(rng, lead + (n, width)))
        e = nnet.param(_wide_normal(rng, lead + (len(index), width)))

        gathered = nnet.rows(x, index)
        assert gathered.data.tobytes() == x.data[at].tobytes()
        summed = nnet.scatter_sum(e, index, n)
        want = np.zeros(lead + (n, width))
        np.add.at(want, at, e.data)
        assert summed.data.tobytes() == want.tobytes()

        g_rows = _wide_normal(rng, gathered.shape)
        g_sum = _wide_normal(rng, summed.shape)
        nnet.backward(nnet.add(nnet.tsum(nnet.mul(gathered, Tensor(g_rows))),
                               nnet.tsum(nnet.mul(summed, Tensor(g_sum)))))
        want = np.zeros_like(x.data)
        np.add.at(want, at, g_rows)
        assert x.grad.tobytes() == want.tobytes()
        assert e.grad.tobytes() == g_sum[at].tobytes()


def recorded_tensors(out):
    """The tensors that `out`'s tape recorded (those with a backward closure),
    and the leaves it reaches that require a gradient."""
    seen, todo = {}, [out]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(t._parents)
    return ([t for t in seen.values() if t._grad_fn is not None],
            [t for t in seen.values() if t._grad_fn is None and t.requires_grad])


class TestTape:
    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["matrix", "stack"])
    def test_mlp_records_one_tensor_per_layer(self, layers, lead):
        # the ReLU is fused into its layer's op, so a hidden layer leaves one
        # buffer on the tape, not a pre-activation as well
        rng = np.random.default_rng(layers)
        mlp = nnet.Mlp((3,) + (4,) * layers, rng)
        recorded, _ = recorded_tensors(mlp(nnet.param(rng.normal(size=lead + (5, 3)))))
        assert len(recorded) == len(mlp.layers) == layers

    def test_backward_spends_the_tape(self):
        rng = np.random.default_rng(3)
        mlp = nnet.Mlp((3, 5, 5, 2), rng)
        x = nnet.param(rng.normal(size=(4, 3)))
        idx = np.array([0, 2, 2, 1])
        h = nnet.scatter_sum(mlp(nnet.rows(x, idx)), idx, 4)
        loss = nnet.tsum(nnet.square(nnet.concat([h, nnet.exp(x)], axis=-1)))
        recorded, leaves = recorded_tensors(loss)
        assert len(recorded) > 8 and set(map(id, leaves)) == \
            set(map(id, [x, *mlp_parameters(mlp)]))

        nnet.backward(loss)
        assert all(t.grad is None and t._parents == () and t._grad_fn is None
                   for t in recorded)
        grads = [t.grad.copy() for t in leaves]
        nnet.backward(loss)  # the spent tape reaches no leaf
        assert all(t.grad.tobytes() == g.tobytes() for t, g in zip(leaves, grads))

    def test_pass_through_gradients_are_not_shared(self):
        # add hands one gradient to both operands; a gradient one of them
        # adopted would be changed by the later square term of `a`
        a, b = nnet.param(np.ones(3)), nnet.param(np.ones(3))
        weights = Tensor([1.0, 2.0, 3.0])
        loss = nnet.add(nnet.tsum(nnet.square(a)),
                        nnet.tsum(nnet.mul(nnet.add(a, b), weights)))
        nnet.backward(loss)
        assert a.grad.tolist() == [3.0, 4.0, 5.0]
        assert b.grad.tolist() == [1.0, 2.0, 3.0]
        assert not np.shares_memory(a.grad, b.grad)


class TestInference:
    def test_records_no_tape(self):
        w = nnet.param(np.ones((2, 2)))
        with nnet.inference():
            out = nnet.tsum(nnet.matmul(Tensor(np.ones((3, 2))), w, relu=True))
        assert out.item() == 12.0
        assert (out.requires_grad, out._parents, out._grad_fn) == (False, (), None)
        taped = nnet.tsum(nnet.matmul(Tensor(np.ones((3, 2))), w))
        assert taped.requires_grad and taped._parents

    def test_mode_is_per_thread_and_restored(self):
        w = nnet.param(np.ones(2))
        inside, other = threading.Event(), threading.Event()
        seen = {}

        def taped_thread():
            inside.wait()
            seen["other"] = nnet.mul(w, 2.0).requires_grad
            other.set()

        worker = threading.Thread(target=taped_thread)
        worker.start()
        with nnet.inference():
            inside.set()
            other.wait()
            seen["inside"] = nnet.mul(w, 2.0).requires_grad
        worker.join()
        assert seen == {"other": True, "inside": False}
        assert nnet.mul(w, 2.0).requires_grad


def oracle_adam(start, grads, lr):
    """Adam written out per parameter, one `adam_update` each per step, with a
    zero gradient where a step's gradient is None: (weights, m, v)."""
    x = [a.copy() for a in start]
    m, v = [np.zeros_like(a) for a in start], [np.zeros_like(a) for a in start]
    for t, step in enumerate(grads, 1):
        for xi, gi, mi, vi in zip(x, step, m, v):
            nnet.adam_update(xi, np.zeros_like(xi) if gi is None else gi, mi, vi, t, lr)
    return x, m, v


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = nnet.param(np.array([1.0, -2.0]))
        before = p.data.copy()
        nnet.Adam([p]).step()  # no gradient reads as zero
        assert np.array_equal(p.data, before)

    def test_descends_on_quadratic(self):
        p = nnet.param(np.array(1.0))
        p.grad = np.asarray(2.0)
        nnet.Adam([p], lr=0.001).step()
        assert p.data < 1.0

    def test_converges_to_quadratic_minimizer(self):
        target = np.array([0.3, -1.2, 2.0])
        p = nnet.param(np.zeros(3))
        adam = nnet.Adam([p], lr=0.01)
        for _ in range(10_000):
            p.grad = 2.0 * (p.data - target)
            adam.step()
        assert np.abs(p.data - target).max() < 1e-3

    def test_state_roundtrip(self):
        p = nnet.param(np.array([1.0, 2.0]))
        adam = nnet.Adam([p], lr=0.05)
        for _ in range(3):
            p.grad = np.array([0.1, -0.2])
            adam.step()
        state = adam.state_dict()
        fresh = nnet.Adam([p], lr=0.05)
        fresh.load_state_dict(state)
        assert fresh.t == adam.t
        assert np.array_equal(fresh.m[0], adam.m[0])
        assert np.array_equal(fresh.v[0], adam.v[0])

    @settings(max_examples=40, deadline=None)
    @given(shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
                           min_size=1, max_size=4),
           steps=st.integers(3, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_steps_match_per_parameter_updates(self, shapes, steps, seed, data):
        """The flat step against one `adam_update` per parameter, bit for bit,
        straight through and resumed from `state_dict` after step `cut`; it
        returns the norm of the gradient it applied."""
        shapes = [*shapes, (0, 3)]  # a zero-size parameter
        rng = np.random.default_rng(seed)
        start = [np.array(_wide_normal(rng, shape)) for shape in shapes]
        grads = [[np.array(_wide_normal(rng, shape)) for shape in shapes]
                 for _ in range(steps)]
        grads[1][data.draw(st.integers(0, len(shapes) - 1))] = None
        want_x, want_m, want_v = oracle_adam(start, grads, lr=0.01)

        cut = data.draw(st.integers(1, steps - 1))
        for interrupted in (False, True):
            params = [nnet.param(a.copy()) for a in start]
            adam = nnet.Adam(params, lr=0.01)
            for k, step in enumerate(grads):
                if interrupted and k == cut:
                    # what `train --resume` does: fresh arrays and a fresh Adam
                    state = adam.state_dict()
                    params = [nnet.param(p.data.copy()) for p in params]
                    adam = nnet.Adam(params, lr=0.01)
                    adam.load_state_dict(state)
                for p, g in zip(params, step):
                    p.grad = g
                norm = adam.step()
                flat = np.concatenate([np.zeros(a.size) if g is None else g.ravel()
                                       for a, g in zip(start, step)])
                assert norm == pytest.approx(np.linalg.norm(flat), rel=1e-12)
            assert adam.t == steps
            for got, want in ((params, want_x), (adam.m, want_m), (adam.v, want_v)):
                got = [t.data if isinstance(t, Tensor) else t for t in got]
                assert [a.shape for a in got] == [a.shape for a in want]
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"a.weight": rng.normal(size=(3, 4)), "b.bias": rng.normal(size=5)}
        path = tmp_path / "params.json"
        nnet.save_checkpoint(path, arrays, extra={"note": 1})
        loaded, extra = nnet.load_checkpoint(path)
        assert extra == {"note": 1}
        assert json.loads(path.read_text())["version"] == 3
        assert nnet.load_checkpoint_state(path) is None
        for name, a in arrays.items():
            assert np.array_equal(loaded[name], a)

    @settings(max_examples=50, deadline=None)
    @given(arrays=st.dictionaries(
        st.text(min_size=1, max_size=8),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                max_side=4),
                   elements=st.floats(allow_nan=True, allow_infinity=True)),
        max_size=3))
    def test_codec_is_bitwise_for_any_float64(self, arrays):
        # NaN payloads, -0.0, infinities, subnormals, empty and 0-d arrays
        arrays = {**arrays, "nan": np.frombuffer(b"\x01\x00\x00\x00\x00\x00\xf8\x7f")}
        decoded = nnet.decode_arrays(json.loads(json.dumps(nnet.encode_arrays(arrays))))
        assert decoded.keys() == arrays.keys()
        for name, a in arrays.items():
            assert decoded[name].shape == a.shape and decoded[name].dtype == np.float64
            assert decoded[name].tobytes() == a.tobytes(), name
            assert decoded[name].flags.writeable

    @settings(max_examples=50, deadline=None)
    @given(bits=st.dictionaries(
        st.text(min_size=1, max_size=8),
        hnp.arrays(np.uint64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                               max_side=4),
                   elements=st.integers(0, 2**64 - 1) | st.sampled_from(SPECIAL_BITS)),
        max_size=3))
    def test_codec_keeps_every_bit_pattern(self, bits):
        """Any 64 bits read as a float64: every NaN payload and sign,
        signalling NaNs, -0.0, subnormals and infinities, in arrays with
        zero-size axes too."""
        arrays = {name: b.view(np.float64) for name, b in bits.items()}
        arrays["special"] = np.array(SPECIAL_BITS, dtype=np.uint64).view(np.float64)
        decoded = nnet.decode_arrays(json.loads(json.dumps(nnet.encode_arrays(arrays))))
        assert decoded.keys() == arrays.keys()
        for name, a in arrays.items():
            assert decoded[name].shape == a.shape, name
            assert decoded[name].view(np.uint64).tobytes() == a.view(np.uint64).tobytes()

    @pytest.mark.parametrize("entry, message", [
        ({"shape": [3], "data": "AAAAAAAAAAA="}, "cannot reshape array of size 1"),
        ({"shape": [1], "data": "AAAA"}, "multiple of element size"),
        ({"shape": [1], "data": "not base64!"}, "array 'w'"),
        # the number lists of version 1 checkpoints are not read
        ({"shape": [1], "data": [1.0]}, "not 'list'"),
        ({"data": "AAAAAAAAAAA="}, "array 'w': no 'shape'"),
        ({"shape": [1]}, "array 'w': no 'data'"),
        (5, "array 'w'"),
    ])
    def test_bad_entry_names_the_array(self, entry, message):
        with pytest.raises(ValueError, match="array 'w'") as info:
            nnet.decode_arrays({"w": entry})
        assert message in str(info.value)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1, "params": {}}')
        with pytest.raises(ValueError):
            nnet.load_checkpoint(path)
