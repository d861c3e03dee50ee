"""Engine gradients vs finite differences; architectural identities; checkpoints."""

import numpy as np
import pytest

from evokernel import container, nn
from evokernel.nn import checkpoint, engine as eg


def _fd_check(params, loss_fn, rng, n_probe=4, h=1e-6, tol=1e-6):
    """Central finite differences against reverse-mode, random entries."""
    root = loss_fn()
    eg.backward(root)
    worst = 0.0
    for p in params:
        flat = p.value.ravel()
        gflat = p.grad.ravel()
        idx = rng.choice(flat.size, size=min(n_probe, flat.size), replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            lp = float(loss_fn().value)
            flat[i] = keep - h
            lm = float(loss_fn().value)
            flat[i] = keep
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), 1e-10))
    assert worst < tol, f"gradient mismatch {worst:.2e}"


def test_mlp_identity_layer():
    w = eg.Parameter(np.eye(3))
    b = eg.Parameter(np.zeros(3))
    m = nn.Mlp([w], [b], ["identity"])
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(m.predict(x), x)


def test_relu_clamps():
    """Entries with z > 0 stay; every other entry, NaN included, becomes +0.0
    (np.maximum would keep the NaN)."""
    x = eg.Tensor(np.array([[-1.0], [2.0], [0.0], [-3.5], [np.nan], [np.inf], [-np.inf]]))
    out = eg.dense(x, np.ones((1, 1)), np.zeros(1), relu=True)
    assert np.array_equal(out.value.ravel(), [0.0, 2.0, 0.0, 0.0, 0.0, np.inf, 0.0])
    assert not np.any(np.signbit(out.value))


_SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]


def _masked_clamp(z):
    """The clamp dense applied before it used fmax, on a copy of z."""
    z = z.copy()
    np.copyto(z, 0.0, where=~(z > 0.0))
    return z


def _bits(a):
    return a.view(np.uint64)


def _with_specials(shape, rng):
    """Arrays of the shape: one special value everywhere, then each special at
    each position among random values of both signs."""
    size = int(np.prod(shape))
    for s in _SPECIALS:
        yield np.full(shape, s)
        for i in range(size):
            z = rng.standard_normal(size)
            z[i] = s
            yield z.reshape(shape)


@pytest.mark.parametrize("length", range(1, 65))
def test_relu_clamp_is_bitwise_the_masked_copy(length):
    """Across the lengths of fmax's SIMD loops and their tails, where bare
    fmax keeps a -0.0: the clamp, and dense's ReLU on inputs that carry the
    special values through its product, both equal the old masked copy."""
    rng = np.random.default_rng(length)
    for z in _with_specials((length,), rng):
        ref = _masked_clamp(z)
        mask = eg._relu(z)
        assert np.array_equal(_bits(z), _bits(ref))
        assert np.array_equal(mask, ref > 0.0)
    w, b = np.ones((1, 1)), np.zeros(1)
    for x in _with_specials((length, 1), rng):
        pre = eg.dense(x, w, b, relu=False).value
        out = eg.dense(x, w, b, relu=True).value
        assert np.array_equal(_bits(out), _bits(_masked_clamp(pre)))


@pytest.mark.parametrize("shape, view", [
    ((3, 7), np.s_[:, :]), ((4, 16), np.s_[:, :]), ((5, 19), np.s_[:, :]),
    ((6, 30), np.s_[::2, 1::3]), ((9, 40), np.s_[1::4, ::-2]),
])
def test_relu_clamp_is_bitwise_the_masked_copy_on_2d_and_strided_arrays(shape, view):
    rng = np.random.default_rng(sum(shape))
    for full in _with_specials(shape, rng):
        z = full[view]
        ref = _masked_clamp(z)
        eg._relu(z)
        assert np.array_equal(_bits(z), _bits(ref))
    x = rng.standard_normal(shape)
    x[::3, ::5] = np.nan
    x[1::3, 2::5] = -np.inf
    x = x[view]
    w, b = rng.standard_normal((11, x.shape[1])), rng.standard_normal(11)
    with np.errstate(invalid="ignore"):     # inf - inf in the product
        out = eg.dense(x, w, b, relu=True).value
        pre = eg.dense(x, w, b, relu=False).value
    assert np.array_equal(_bits(out), _bits(_masked_clamp(pre)))


def test_batch_row_consistency():
    rng = np.random.default_rng(1)
    m = nn.Mlp.build([5, 7, 4], ["relu", "identity"], rng)
    x = rng.standard_normal((6, 5))
    full = m.predict(x)
    rows = np.stack([m.predict(x[i:i + 1])[0] for i in range(6)])
    # batched GEMM may regroup sums; agreement is at rounding level
    assert np.allclose(full, rows, rtol=0, atol=1e-14)


def test_grad_linear_model_closed_form():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 4))
    y = rng.standard_normal((10, 2))
    w = eg.Parameter(rng.standard_normal((2, 4)))
    b = eg.Parameter(np.zeros(2))
    out = eg.dense(X, w, b, relu=False)
    loss = eg.squared_error(out, y, 1.0)
    eg.backward(loss)
    pred = X @ w.value.T + b.value
    expected_w = 2.0 * (pred - y).T @ X
    assert np.allclose(w.grad, expected_w, rtol=1e-12)
    assert np.allclose(b.grad, 2.0 * (pred - y).sum(axis=0), rtol=1e-12)


def test_backward_requires_scalar_root():
    x = eg.Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        eg.backward(x)


def test_dead_relu_zero_gradient():
    w = eg.Parameter(np.array([[-5.0]]))
    b = eg.Parameter(np.array([-10.0]))
    m = nn.Mlp([w], [b], ["relu"])
    x = np.array([[1.0]])
    loss = eg.squared_error(m.forward(x), 0.0, 1.0)
    eg.backward(loss)
    assert w.grad is None or np.all(w.grad == 0.0)


@pytest.mark.parametrize("builder,loss_builder", [
    ("boundary", None), ("source", None), ("source_sys", None),
])
def test_gradients_all_architectures(builder, loss_builder):
    rng = np.random.default_rng(11)
    if builder == "boundary":
        model = nn.BoundaryModel.build(12, rng, internal=9)
        B = rng.standard_normal((12, 12))
        kap = rng.uniform(0.05, 0.1, (4, 1))
        g = rng.standard_normal((4, 12))

        def loss_fn():
            phi = model.forward(kap, g)
            return eg.squared_error(eg.matmul_t(phi, B), g, 1.0 / 48)
    else:
        pts = rng.uniform(0, 1, (6, 2))
        coupled = builder == "source_sys"
        model = nn.SourceModel.build(pts, [5], [5], rng, coupled=coupled)
        width = 12 if coupled else 6
        f = rng.standard_normal((3, width))
        u = rng.standard_normal((3, width))
        kap = rng.uniform(0.05, 0.1, (3, 1))

        def loss_fn():
            pred = model.forward(kap, f)
            return eg.squared_error(pred, u, 1.0 / f.size)

    _fd_check(model.parameters(), loss_fn, rng, n_probe=5)


def test_source_exact_linearity_in_f():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, (8, 2))
    m = nn.SourceModel.build(pts, [6], [6], rng)
    f1 = rng.standard_normal((2, 8))
    f2 = rng.standard_normal((2, 8))
    a, b = 0.3, -2.0
    mixed = m.predict(0.06, a * f1 + b * f2)
    parts = a * m.predict(0.06, f1) + b * m.predict(0.06, f2)
    assert np.allclose(mixed, parts, rtol=0, atol=1e-12 * np.max(np.abs(parts)))
    assert np.max(np.abs(m.predict(0.06, np.zeros((1, 8))))) == 0.0


def test_boundary_exact_affinity_in_g():
    rng = np.random.default_rng(4)
    m = nn.BoundaryModel.build(10, rng)
    g1 = rng.standard_normal((1, 10))
    g2 = rng.standard_normal((1, 10))
    lhs = (m.predict(0.07, g1 + g2) - m.predict(0.07, g1)
           - m.predict(0.07, g2) + m.predict(0.07, np.zeros((1, 10))))
    assert np.max(np.abs(lhs)) < 1e-13


@pytest.mark.parametrize("kind", ["source", "boundary"])
def test_predict_reads_current_weights(kind):
    """predict recomputes from the parameters: an in-place weight change
    between two calls at the same kappa changes the output."""
    rng = np.random.default_rng(8)
    if kind == "source":
        m = nn.SourceModel.build(rng.uniform(0, 1, (8, 2)), [6], [6], rng)
    else:
        m = nn.BoundaryModel.build(8, rng)
    x = rng.standard_normal((2, 8))
    before = m.predict(0.07, x)
    for p in m.nn_k.parameters():
        p.value *= 2.0
    after = m.predict(0.07, x)
    assert not np.allclose(after, before)


def test_adam_contract():
    p = eg.Parameter(np.zeros(3))
    opt = eg.Adam([p], lr=1e-3)
    opt.step()  # no gradient: unchanged
    assert np.all(p.value == 0.0)
    p.grad = np.full(3, 7.7)
    opt.step()
    # first effective step from zero state has magnitude ~ lr
    assert np.allclose(np.abs(p.value), 1e-3, rtol=1e-3)


def test_checkpoint_roundtrip_bit_identity(tmp_path):
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 1, (5, 2))
    for model in (nn.SourceModel.build(pts, [4], [4], rng),
                  nn.BoundaryModel.build(8, rng)):
        path = tmp_path / "m.ckpt"
        meta = {"seed": 6, "epochs": 0}
        nn.save_checkpoint(model, path, meta)
        loaded, meta2 = nn.load_checkpoint(path)
        assert nn.checkpoint_bytes(model, meta) == nn.checkpoint_bytes(loaded, meta2)


def test_parameter_count_helper():
    rng = np.random.default_rng(7)
    m = nn.Mlp.build([3, 5, 2], ["relu", "identity"], rng)
    assert sum(p.value.size for p in m.parameters()) == 3 * 5 + 5 + 5 * 2 + 2


def _walk(root):
    """Every Tensor reachable from root."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if isinstance(node, eg.Tensor) and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def _source_batch(coupled, rng):
    pts = rng.uniform(0, 1, (10, 2))
    model = nn.SourceModel.build(pts, [7, 6], [8, 5], rng, coupled=coupled)
    n = model.n_samples
    f = rng.standard_normal((3, n))
    u = rng.standard_normal((3, n))
    kap = np.array([[0.05], [0.07], [0.1]])
    return model, kap, f, u


@pytest.mark.parametrize("coupled", [False, True])
def test_factored_source_forward_matches_dense_graph(coupled):
    """Also for a batch of one kappa, given to the factored forward as a
    single (1, 1) row (as the trainer does) and to the dense graph as a
    full column."""
    rng = np.random.default_rng(21)
    model, kap, f, u = _source_batch(coupled, rng)
    one_kappa = np.full_like(kap, 0.07)

    def dense(kap, f):
        kf = model.nn_k.forward(kap)
        return eg.matmul_t(eg.hadamard(f, kf), model.nn_g.forward(model._coords))

    for kap_factored, kap_dense in ((kap, kap), (one_kappa[:1], one_kappa)):
        results = []
        for fwd, k in ((model.forward, kap_factored), (dense, kap_dense)):
            for p in model.parameters():
                p.grad = None
            pred = fwd(k, f)
            out = pred.value          # backward consumes it
            eg.backward(eg.squared_error(pred, u, 1.0 / u.size))
            results.append((out, [p.grad.copy() for p in model.parameters()]))
        (out, grads), (out_ref, grads_ref) = results
        assert np.max(np.abs(out - out_ref)) <= 1e-13 * np.max(np.abs(out_ref))
        for g, g_ref in zip(grads, grads_ref):
            assert np.max(np.abs(g - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))


@pytest.mark.parametrize("coupled", [False, True])
def test_source_training_graph_never_forms_dense_features(coupled):
    """Also: the graph holds one node per MLP layer, plus the hadamard, the
    factored head and the loss, and nothing else."""
    rng = np.random.default_rng(22)
    model, kap, f, u = _source_batch(coupled, rng)
    dense_shape = (model._coords.shape[0], model.nn_g.dims[-1])
    loss = eg.squared_error(model.forward(kap, f), u, 1.0)
    nodes = _walk(loss)
    assert len(nodes) > 10
    assert all(node.value.shape != dense_shape for node in nodes)
    interior = [node for node in nodes if not isinstance(node, eg.Parameter)]
    # the last layer of nn_g is the factored head, not a node of its own
    layers = [(w, b) for mlp in (model.nn_k, model.nn_g)
              for w, b in zip(mlp.weights, mlp.biases)][:-1]
    assert len(interior) == len(layers) + 3
    for w, b in layers:
        users = [node for node in interior if any(p is w for p in node.parents)]
        assert len(users) == 1 and any(p is b for p in users[0].parents)
    eg.backward(loss)
    assert all(p.grad.shape != dense_shape for p in model.parameters())


def _reusing_graphs(rng):
    """(model, loss_fn) pairs whose graphs hold every node that forms a
    gradient in its own value: dense layers of equal in and out widths, the
    factored head, matmul_t, and a hadamard of two Tensors; also the source
    model's shared one-row kappa, whose weight gradients are outer products."""
    pts = rng.uniform(0, 1, (10, 2))
    kap = np.array([[0.05], [0.07], [0.1]])
    for coupled, kappa in ((False, kap), (False, kap[:1]), (True, kap[:1])):
        model = nn.SourceModel.build(pts, [6, 6], [8, 8], rng, coupled=coupled)
        f, u = (rng.standard_normal((3, model.n_samples)) for _ in range(2))
        yield model, lambda model=model, kappa=kappa, f=f, u=u: eg.squared_error(
            model.forward(kappa, f), u, 1.0 / u.size)
    model = nn.BoundaryModel.build(12, rng, internal=9)
    B, g = rng.standard_normal((12, 12)), rng.standard_normal((4, 12))
    yield model, lambda: eg.squared_error(
        eg.matmul_t(model.forward(np.full((1, 1), 0.07), g), B), g, 1.0 / 48)


def test_backward_consumes_interior_values_and_reusing_them_is_exact(monkeypatch):
    """After backward every interior node's value is None, the root and the
    parameters keep theirs, and a second sweep of the graph is refused.  The
    gradients that GEMMs form in their nodes' own values are bitwise those
    formed in fresh arrays."""
    rng = np.random.default_rng(25)
    own = eg._own
    for model, loss_fn in _reusing_graphs(rng):
        params = model.parameters()
        values = [p.value.copy() for p in params]
        runs, reused = [], []

        def own_or_fresh(value, shape):
            out = own(value, shape) if reuse else None
            reused.append(out is not None)
            return out
        monkeypatch.setattr(eg, "_own", own_or_fresh)
        for reuse in (True, False):
            for p in params:
                p.grad = None
            loss = loss_fn()
            interior = [n for n in _walk(loss) if not isinstance(n, eg.Parameter)]
            value = loss.value
            eg.backward(loss)
            assert loss.value is value
            assert all(n.value is None for n in interior if n is not loss)
            for p, v in zip(params, values):
                assert np.array_equal(p.value, v) and p.grad is not None
            with pytest.raises(ValueError, match="already ran"):
                eg.backward(loss)
            runs.append([p.grad for p in params])
        assert any(reused)
        for g, g_fresh in zip(*runs):
            assert np.array_equal(_bits(g), _bits(g_fresh))


def test_in_place_relu_masks_do_not_alias_gradients():
    """One parameter feeds two ReLU dense layers and a hadamard; the dense
    backwards mask the gradients they receive in place, which must leave
    every other gradient intact."""
    rng = np.random.default_rng(23)
    x = eg.Parameter(rng.standard_normal((4, 3)))
    layers = [(eg.Parameter(rng.standard_normal((3, 3))), eg.Parameter(rng.standard_normal(3)))
              for _ in range(2)]
    c = rng.standard_normal((4, 3))
    params = [x] + [p for layer in layers for p in layer]

    def loss_fn():
        h1, h2 = (eg.dense(x, w, b, relu=True) for w, b in layers)
        return eg.squared_error(eg.hadamard(x, eg.hadamard(h1, h2)), c, 0.5)

    _fd_check(params, loss_fn, rng, n_probe=12)
    for i, p in enumerate(params):
        assert all(not np.shares_memory(p.grad, q.grad) for q in params[i + 1:])


@pytest.mark.parametrize("bias_first", [True, False])
def test_pass_through_gradient_does_not_alias(bias_first):
    """x feeds a ReLU dense layer with an identity weight (so x and b both
    receive the incoming gradient, b summed over rows) and a second consumer;
    no gradient may be written through another, in either operand order."""
    rng = np.random.default_rng(23)
    x = eg.Parameter(rng.standard_normal((4, 3)))
    w = eg.Parameter(np.eye(3))
    b = eg.Parameter(rng.standard_normal(3))
    c = rng.standard_normal((4, 3))
    t = rng.standard_normal((4, 3))
    terms = [eg.dense(x, w, b, relu=True), eg.hadamard(x, c)]
    eg.backward(eg.squared_error(eg.hadamard(*(terms if bias_first else terms[::-1])), t, 0.5))
    u = x.value + b.value
    mask = u > 0.0
    h, v = np.where(mask, u, 0.0), x.value * c
    r = h * v - t
    gz = r * v * mask
    assert np.allclose(b.grad, gz.sum(axis=0), rtol=1e-14, atol=0)
    assert np.allclose(w.grad, gz.T @ x.value, rtol=1e-14, atol=0)
    assert np.allclose(x.grad, gz + r * h * c, rtol=1e-14, atol=0)
    params = [x, w, b]
    for i, p in enumerate(params):
        assert all(not np.shares_memory(p.grad, q.grad) for q in params[i + 1:])


def test_adam_in_place_is_bitwise_the_textbook_update():
    """Also for a 1-D parameter longer than two chunks and a 2-D one whose
    size is not a multiple of the chunk length."""
    rng = np.random.default_rng(24)
    chunk = eg._ADAM_CHUNK
    shapes = [(5, 4), (4,), (2 * chunk + 5,), (3, chunk // 2 + 7)]
    params = [eg.Parameter(rng.standard_normal(shape)) for shape in shapes]
    ref = [p.value.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = eg.Adam(params, lr=lr, betas=(b1, b2), eps=eps)
    for t in range(1, 6):
        grads = [rng.standard_normal(r.shape) for r in ref]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            ref[i] = ref[i] - lr * (m[i] / (1.0 - b1**t)) / (np.sqrt(v[i] / (1.0 - b2**t)) + eps)
        for p, r in zip(params, ref):
            assert np.array_equal(p.value, r)


def test_checkpoint_of_unknown_kind_rejected(tmp_path):
    """A well-formed file of a kind that no model class reads, such as a
    checkpoint of a removed architecture, fails with a ValueError naming it."""
    path = tmp_path / "m.ckpt"
    container.write(path, checkpoint._MAGIC,
                    {"kind": "retired", "arch": {}, "metadata": {}}, {})
    with pytest.raises(ValueError, match="unknown checkpoint kind 'retired'"):
        nn.load_checkpoint(path)
