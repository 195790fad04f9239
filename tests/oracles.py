"""Independent reference implementations used as test oracles."""

import base64
import importlib
import math
from pathlib import Path

import numpy as np
from scipy import integrate


def brute_force_lof(train, k, queries=None):
    """All-pairs LOF; quadratic and loop-based on purpose."""
    train = np.asarray(train, dtype=float)
    n = len(train)

    def dist(a, b):
        return math.sqrt(float(np.sum((a - b) ** 2)))

    def kdist_and_neighbors(p_idx=None, p=None):
        ds = []
        for j in range(n):
            if p_idx is not None and j == p_idx:
                continue
            ds.append((dist(train[j], p if p is not None else train[p_idx]), j))
        ds.sort(key=lambda t: t[0])
        kd = ds[k - 1][0]
        neigh = [j for d, j in ds if d <= kd]
        return kd, neigh

    kdist = np.empty(n)
    neighbors = []
    for i in range(n):
        kd, ne = kdist_and_neighbors(p_idx=i)
        kdist[i] = kd
        neighbors.append(ne)
    lrd = np.empty(n)
    for i in range(n):
        reach = [max(kdist[j], dist(train[i], train[j])) for j in neighbors[i]]
        lrd[i] = len(neighbors[i]) / sum(reach)
    if queries is None:
        return np.array(
            [np.mean([lrd[j] for j in neighbors[i]]) / lrd[i] for i in range(n)]
        )
    out = []
    for q in np.asarray(queries, dtype=float):
        kd, ne = kdist_and_neighbors(p=q)
        reach = [max(kdist[j], dist(q, train[j])) for j in ne]
        lrd_q = len(ne) / sum(reach)
        out.append(np.mean([lrd[j] for j in ne]) / lrd_q)
    return np.array(out)


def mc_disk_probability(region, component_std, n, generator):
    """Monte Carlo mass of a disk under independent zero-mean Gaussians."""
    u = generator.normal(0.0, component_std, n)
    v = generator.normal(0.0, component_std, n)
    inside = (u - region.center_re) ** 2 + (v - region.center_im) ** 2 <= region.radius**2
    return float(inside.mean())


def paper_disk_probability(region, std):
    """The paper's Q-function form of a disk mass, integrated over u by quad.

    For fixed u the printed factor is Q(C) - Q(D) with C, D = (b -+ w) / std
    and w = sqrt(z^2 - (u - a)^2); it is integrated against the N(0, std^2)
    density of u over [a - z, a + z]. `std` is the bare sigma of the printed
    limits, taken explicitly.
    """
    a, b, z = region.center_re, region.center_im, region.radius

    def q(t):
        return 0.5 * math.erfc(t / math.sqrt(2.0))

    def inner(u):
        w = math.sqrt(max(z * z - (u - a) ** 2, 0.0))
        density = math.exp(-0.5 * (u / std) ** 2) / (std * math.sqrt(2.0 * math.pi))
        return density * (q((b - w) / std) - q((b + w) / std))

    p, _ = integrate.quad(inner, a - z, a + z, epsabs=1e-13, epsrel=1e-12)
    return p


IFOREST_TREE_FIELDS = ("feature", "split", "left", "right", "size")


def implied_left(feature):
    """The left child of every node of one preorder tree, -1 at a leaf: an
    inner node's left child is the node after it."""
    return [j + 1 if f >= 0 else -1 for j, f in enumerate(feature)]


def iforest_fit_by_recursion(train, n_trees, subsample, rng, threshold=0.5):
    """An isolation forest grown one tree at a time by recursion, as a
    format-1 model document (per-tree node lists).

    Tree t draws choice, then integers and uniform at each split in
    preorder, from rng.substream("iforest-tree", t), so the trees are node
    for node what csiauth.detectors.iforest_fit must grow.
    """
    x = np.asarray(train, dtype=float)
    n = x.shape[0]
    height_limit = math.ceil(math.log2(subsample))

    def grow(tree, idx, depth, g):
        node = len(tree["feature"])
        tree["feature"].append(-1)
        tree["split"].append(0.0)
        tree["left"].append(-1)
        tree["right"].append(-1)
        tree["size"].append(len(idx))
        if depth >= height_limit or len(idx) <= 1:
            return node
        lo = x[idx].min(axis=0)
        hi = x[idx].max(axis=0)
        usable = np.nonzero(hi > lo)[0]
        if usable.size == 0:
            return node
        f = int(usable[g.integers(usable.size)])
        s = float(g.uniform(lo[f], hi[f]))
        mask = x[idx, f] < s
        tree["feature"][node] = f
        tree["split"][node] = s
        tree["left"][node] = grow(tree, idx[mask], depth + 1, g)
        tree["right"][node] = grow(tree, idx[~mask], depth + 1, g)
        return node

    trees = []
    for t in range(n_trees):
        g = rng.substream("iforest-tree", t).generator()
        tree = {key: [] for key in IFOREST_TREE_FIELDS}
        grow(tree, g.choice(n, size=subsample, replace=False), 0, g)
        trees.append(tree)
    return {
        "algorithm": "iforest",
        "hyperparameters": {"n_trees": n_trees, "subsample": subsample, "threshold": threshold},
        "payload": {"height_limit": height_limit, "trees": trees},
    }


def format1_document(model):
    """A detector as the document of detector file format 1, the layout
    before packed arrays: every array as nested lists of decimal numbers,
    and a forest as per-tree node lists with left children. Parsing its
    JSON text gives the reference values a format-2 file must load to."""
    from csiauth.detectors import IForestModel, LofModel, OcsvmModel

    if isinstance(model, LofModel):
        return {
            "algorithm": "lof",
            "hyperparameters": {"k": model.k, "threshold": model.threshold},
            "payload": {
                "train_points": model.train_points.tolist(),
                "kdist": model.kdist.tolist(),
                "lrd": model.lrd.tolist(),
            },
        }
    if isinstance(model, IForestModel):
        trees = []
        for end, n in zip(np.cumsum(model.n_nodes), model.n_nodes):
            tree = {key: getattr(model, key)[end - n:end].tolist() for key in ("feature", "split", "right", "size")}
            trees.append({**tree, "left": implied_left(tree["feature"])})
        return {
            "algorithm": "iforest",
            "hyperparameters": {
                "n_trees": model.n_trees,
                "subsample": model.subsample,
                "threshold": model.threshold,
            },
            "payload": {
                "height_limit": model.height_limit,
                "trees": trees,
            },
        }
    if isinstance(model, OcsvmModel):
        return {
            "algorithm": "ocsvm",
            "hyperparameters": {"nu": model.nu, "gamma": model.gamma},
            "payload": {
                "support_vectors": model.support_vectors.tolist(),
                "alphas": model.alphas.tolist(),
                "rho": model.rho,
                "kkt_residual": model.kkt_residual,
            },
        }
    raise TypeError(f"not a detector model: {type(model).__name__}")


def format1_checkpoint(net):
    """A network as the document of checkpoint format 1, the layout before
    packed arrays: every weight and bias as a decimal number, with the
    layer's dims beside them."""
    return {
        "format_version": 1,
        "layers": [
            {
                "in_dim": layer.in_dim,
                "out_dim": layer.out_dim,
                "activation": layer.activation,
                "alpha": layer.alpha,
                "weights": [float(v) for v in layer.weights.reshape(-1)],
                "biases": [float(v) for v in layer.biases],
            }
            for layer in net.layers
        ],
        "dropout": {str(i): rate for i, rate in sorted(net.dropout.items())},
    }


def pack_array(a, dtype):
    """{"dtype", "shape", "base64"} of `a` as `dtype` data, written without
    csiauth.packed."""
    data = np.ascontiguousarray(a, dtype=dtype).tobytes()
    return {"dtype": dtype, "shape": list(np.shape(a)), "base64": base64.b64encode(data).decode()}


def unpack_array(packed):
    """A writable copy of a packed array of a model file."""
    data = base64.b64decode(packed["base64"])
    return np.frombuffer(data, dtype=packed["dtype"]).reshape(packed["shape"]).copy()


def edit_packed(part, key, change):
    """Replace the packed array part[key] by change(a copy of it)."""
    part[key] = pack_array(change(unpack_array(part[key])), part[key]["dtype"])


def set_at(index, value):
    """An edit_packed change that sets one element."""
    def change(a):
        a[index] = value
        return a
    return change


def forest_from_trees(doc):
    """The IForestModel of a format-1 iForest document: its per-tree node
    lists concatenated, one tree after another. Each tree's left children
    must be the ones its preorder implies."""
    from csiauth.detectors import IForestModel

    trees = doc["payload"]["trees"]
    for t, tree in enumerate(trees):
        assert tree["left"] == implied_left(tree["feature"]), f"tree {t}: left is not implied"
    arrays = {
        key: np.array([v for tree in trees for v in tree[key]], dtype=float if key == "split" else int)
        for key in IFOREST_TREE_FIELDS if key != "left"
    }
    hp = doc["hyperparameters"]
    return IForestModel(
        n_trees=hp["n_trees"], subsample=hp["subsample"], threshold=hp["threshold"],
        height_limit=doc["payload"]["height_limit"],
        n_nodes=np.array([len(tree["feature"]) for tree in trees]), **arrays,
    )


def iforest_scores_by_walk(model_json_doc, x):
    """Isolation-forest scores from a format-1 model document, one tree at a time.

    Each tree is walked with a stack of (node, rows, depth); a leaf adds
    depth + c(size) to its rows, and the per-tree paths are summed in tree
    order, so the result is bit-for-bit what the flat-array descent must give.
    """
    euler_gamma = 0.5772156649015329

    def c(n):
        if n <= 1:
            return 0.0
        if n == 2:
            return 1.0
        return 2.0 * (math.log(n - 1) + euler_gamma) - 2.0 * (n - 1) / n

    x = np.asarray(x, dtype=float)
    trees = model_json_doc["payload"]["trees"]
    paths = np.zeros(x.shape[0])
    for tree in trees:
        out = np.zeros(x.shape[0])
        stack = [(0, np.arange(x.shape[0]), 0)]
        while stack:
            node, rows, depth = stack.pop()
            if rows.size == 0:
                continue
            f = tree["feature"][node]
            if f < 0:
                out[rows] = depth + c(tree["size"][node])
                continue
            goes_left = x[rows, f] < tree["split"][node]
            stack.append((tree["left"][node], rows[goes_left], depth + 1))
            stack.append((tree["right"][node], rows[~goes_left], depth + 1))
        paths += out
    mean_path = paths / len(trees)
    return np.exp2(-mean_path / c(model_json_doc["hyperparameters"]["subsample"]))


# ---------------------------------------------------------------------------
# The GAN training step in its first form: a separate array and Adam moment
# per parameter, leaky ReLU and its slope through np.where, the sigmoid over
# two boolean-indexed halves, a broadcasting BCE and per-epoch means over
# Python lists. csiauth.gan.train_gan must reproduce it bit for bit.

def where_leaky_relu(pre, alpha):
    return np.where(pre > 0, pre, alpha * pre)


def two_branch_sigmoid(pre):
    out = np.empty_like(pre)
    pos = pre >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-pre[pos]))
    e = np.exp(pre[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def activation_slope(pre, act, activation, alpha, act_was_masked):
    """The derivative array that the upstream gradient is multiplied by."""
    if activation == "leaky_relu":
        return np.where(pre > 0, 1.0, alpha)
    if activation == "tanh":
        t = np.tanh(pre) if act_was_masked else act
        return 1.0 - t * t
    if activation == "sigmoid":
        s = two_branch_sigmoid(pre) if act_was_masked else act
        return s * (1.0 - s)
    return np.ones_like(pre)


def broadcasting_bce(pred, target, clip=1e-7):
    p = np.atleast_1d(np.asarray(pred, dtype=float))
    t = np.broadcast_to(np.atleast_1d(np.asarray(target, dtype=float)), p.shape)
    clipped = np.clip(p, clip, 1.0 - clip)
    loss = float(np.mean(-(t * np.log(clipped) + (1.0 - t) * np.log(1.0 - clipped))))
    grad = (clipped - t) / (clipped * (1.0 - clipped)) / p.size
    return loss, np.where((p > clip) & (p < 1.0 - clip), grad, 0.0)


class _ReferenceNet:
    """Copies of an Mlp's parameters, trained with per-array Adam."""

    def __init__(self, net):
        self.params = [p.copy() for p in net.parameters()]
        self.layers = [(l.activation, l.alpha) for l in net.layers]
        self.dropout = dict(net.dropout)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def forward(self, x, dropout_gen=None):
        inputs, pres, acts, masks = [], [], [], {}
        for i, (activation, alpha) in enumerate(self.layers):
            inputs.append(x)
            pre = x @ self.params[2 * i].T + self.params[2 * i + 1]
            if activation == "leaky_relu":
                act = where_leaky_relu(pre, alpha)
            elif activation == "tanh":
                act = np.tanh(pre)
            elif activation == "sigmoid":
                act = two_branch_sigmoid(pre)
            else:
                act = pre
            rate = self.dropout.get(i)
            if rate and dropout_gen is not None:
                masks[i] = (dropout_gen.random(act.shape) >= rate) / (1.0 - rate)
                act = act * masks[i]
            pres.append(pre)
            acts.append(act)
            x = act
        return x, (inputs, pres, acts, masks)

    def backward(self, tape, g):
        inputs, pres, acts, masks = tape
        grads = [None] * len(self.params)
        for i in range(len(self.layers) - 1, -1, -1):
            if i in masks:
                g = g * masks[i]
            g = g * activation_slope(pres[i], acts[i], *self.layers[i], i in masks)
            grads[2 * i] = g.T @ inputs[i]
            grads[2 * i + 1] = g.sum(axis=0)
            g = g @ self.params[2 * i]
        return grads, g

    def adam(self, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.t += 1
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for p, gr, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * gr
            v *= b2
            v += (1.0 - b2) * np.square(gr)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def reference_train_gan(train_rows, cfg, rng):
    """train_gan's loop over the first-form step.

    Draws from the same substreams in the same order as csiauth.gan and
    starts from the same initial networks; returns the discriminator's
    parameter arrays and the report's four per-epoch lists.
    """
    from csiauth.gan import build_discriminator, build_generator

    x_real = np.asarray(train_rows, dtype=float)
    disc = _ReferenceNet(build_discriminator(rng.substream("init-d")))
    gen = _ReferenceNet(build_generator(rng.substream("init-g"), cfg.latent_dim))
    order_gen = rng.substream("batch-order").generator()
    latent_gen = rng.substream("latent").generator()
    dropout_gen = rng.substream("dropout").generator()
    report = {"d_loss": [], "g_loss": [], "d_accuracy_on_real": [], "d_accuracy_on_fake": []}
    n = x_real.shape[0]
    for _ in range(cfg.max_epochs):
        perm = order_gen.permutation(n)
        epoch = {key: [] for key in report}
        for start in range(0, n, cfg.batch):
            real = x_real[perm[start : start + cfg.batch]]
            b = real.shape[0]
            fake, _ = gen.forward(latent_gen.standard_normal((b, cfg.latent_dim)))
            pred, tape = disc.forward(np.vstack([real, fake]), dropout_gen)
            scores = pred[:, 0]
            loss, dscores = broadcasting_bce(scores, np.concatenate([np.ones(b), np.zeros(b)]))
            grads, _ = disc.backward(tape, dscores.reshape(-1, 1))
            disc.adam(grads, cfg.lr_d)
            epoch["d_loss"].append(loss)
            epoch["d_accuracy_on_real"].append(float(np.mean(scores[:b] >= 0.5)))
            epoch["d_accuracy_on_fake"].append(float(np.mean(scores[b:] < 0.5)))

            fake, tape_g = gen.forward(latent_gen.standard_normal((b, cfg.latent_dim)))
            pred, tape_d = disc.forward(fake, dropout_gen)
            loss, dscores = broadcasting_bce(pred[:, 0], np.ones(b))
            _, dfake = disc.backward(tape_d, dscores.reshape(-1, 1))
            grads_g, _ = gen.backward(tape_g, dfake)
            gen.adam(grads_g, cfg.lr_g)
            epoch["g_loss"].append(loss)
        for key, values in epoch.items():
            report[key].append(float(np.mean(values)))
    return disc.params, report


def per_matrix_threshold_test(h_hat, h_ref, z):
    """The per-element distance test on one CSI matrix: accept iff
    |h_hat - h_ref|^2 <= z^2 for every element."""
    d2 = np.abs(np.asarray(h_hat, dtype=complex) - h_ref) ** 2
    return bool(np.all(d2 <= z**2))


def read_dataset_by_lines(path, n_cells):
    """The per-line reader of a dataset CSV body: one `split` and a `float()`
    per cell, every check naming its line. Returns (x, snr, legit, source)."""
    from csiauth.datasets import ILLEGITIMATE, LEGITIMATE, DatasetFormatError

    snr, legit, source, rows = [], [], [], []
    for ln, line in enumerate(Path(path).read_text().splitlines()[1:], start=2):
        cells = line.split(",")
        if len(cells) != n_cells:
            raise DatasetFormatError(f"{path}:{ln}: expected {n_cells} cells")
        try:
            snr.append(float(cells[0]))
            rows.append([float(c) for c in cells[3:]])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{ln}: {exc}") from exc
        label = cells[1]
        if label not in (LEGITIMATE, ILLEGITIMATE):
            raise DatasetFormatError(f"{path}:{ln}: unknown label {label!r}")
        legit.append(label == LEGITIMATE)
        source.append(cells[2])
    x = np.array(rows, dtype=float).reshape(len(rows), n_cells - 3)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise DatasetFormatError(f"{path}:{bad[0] + 2}: non-finite feature value")
    return x, np.array(snr, dtype=float), np.array(legit, dtype=bool), np.array(source, dtype=str)


def write_dataset_by_rows(path, dataset):
    """The per-row writer of a dataset CSV (no manifest): the label cells
    and `"%.17g" % tuple(row)` per line, so every number is CPython's
    correctly rounded 17-digit dtoa, as format(v, ".17g") gives it."""
    from csiauth.datasets import ILLEGITIMATE, LEGITIMATE

    n_rx, m_tx = dataset.manifest.h_true.shape
    header = ["snr_db", "label", "source_id"]
    header += [f"{part}_{n}_{m}" for n in range(n_rx) for m in range(m_tx) for part in ("re", "im")]
    features = ",".join(["%.17g"] * (len(header) - 3)) + "\n"
    lines = [",".join(header) + "\n"]
    for snr, legit, source, row in zip(
        dataset.snr.tolist(), dataset.legit.tolist(), dataset.source.tolist(), dataset.x.tolist()
    ):
        label = LEGITIMATE if legit else ILLEGITIMATE
        lines.append(f"{format(snr, '.17g')},{label},{source}," + features % tuple(row))
    with open(path, "w") as fh:
        fh.write("".join(lines))


def _whole_sq_dists(a, b):
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def _whole_reach_density(d, kdist_rows, kdist, lrd=None):
    neigh = d <= kdist_rows[:, np.newaxis]
    count = neigh.sum(axis=1)
    np.maximum(d, kdist, out=d)  # reach-distances
    np.copyto(d, 0.0, where=~neigh)
    lrd_rows = count / d.sum(axis=1)
    if lrd is None:
        return lrd_rows, None
    np.copyto(d, lrd, where=neigh)
    return lrd_rows, d.sum(axis=1) / count


def whole_matrix_lof_fit(x, k, threshold=1.5):
    """LOF fit over the whole (n, n) distance matrix at once, in fresh
    temporaries; the blocked csiauth.detectors.lof_fit must match it bit
    for bit. x is the finite (n, d) float array itself: the a @ a.T of the
    distances must see one array twice, as lof_fit's does."""
    from csiauth.detectors import LofModel

    d = np.sqrt(_whole_sq_dists(x, x))
    np.fill_diagonal(d, np.inf)
    kdist = np.partition(d, k - 1, axis=1)[:, k - 1]
    lrd, _ = _whole_reach_density(d, kdist, kdist)
    return LofModel(k=k, train_points=x, threshold=threshold, kdist=kdist, lrd=lrd)


def whole_matrix_lof_scores(model, q):
    """LOF of the query rows q over the whole (len(q), n) distance matrix."""
    d = np.sqrt(_whole_sq_dists(q, model.train_points))
    kdist_q = np.partition(d, model.k - 1, axis=1)[:, model.k - 1]
    lrd_q, mean_neighbor_lrd = _whole_reach_density(d, kdist_q, model.kdist, model.lrd)
    return mean_neighbor_lrd / lrd_q


def whole_matrix_lof_train_scores(model):
    """LOF of the training rows themselves over the whole (n, n) matrix."""
    d = np.sqrt(_whole_sq_dists(model.train_points, model.train_points))
    np.fill_diagonal(d, np.inf)
    _, mean_neighbor_lrd = _whole_reach_density(d, model.kdist, model.kdist, model.lrd)
    return mean_neighbor_lrd / model.lrd


def whole_matrix_rbf(a, b, gamma):
    """The RBF kernel matrix exp(-gamma |a - b|^2) in one expression."""
    return np.exp(-gamma * _whole_sq_dists(a, b))



def column_smo_ocsvm_fit(x, nu, gamma, tol, max_iter):
    """ocsvm_fit with its SMO loop in the first form: the gradient itself,
    both masks and -grad rebuilt every iteration, and the update read from
    two strided kernel columns. csiauth.detectors.ocsvm_fit must reproduce
    it bit for bit, ConvergenceError residual included."""
    from csiauth.detectors import ConvergenceError, OcsvmModel, _kkt_residual, _rbf

    n = x.shape[0]
    cap = 1.0 / (nu * n)
    q = _rbf(x, x, gamma)
    alpha = np.full(n, 1.0 / n)
    grad = q @ alpha
    for _ in range(max_iter):
        up = alpha < cap - 1e-15
        low = alpha > 1e-15
        i = int(np.argmax(np.where(up, -grad, -np.inf)))
        j = int(np.argmin(np.where(low, -grad, np.inf)))
        violation = (-grad[i]) - (-grad[j])
        if violation <= tol:
            break
        a = q[i, i] + q[j, j] - 2.0 * q[i, j]
        if a <= 0:
            a = 1e-12
        step = (grad[j] - grad[i]) / a
        step = min(step, cap - alpha[i], alpha[j])
        alpha[i] += step
        alpha[j] -= step
        grad += step * (q[:, i] - q[:, j])
    else:
        raise ConvergenceError("no convergence", residual=float(violation))
    free = (alpha > 1e-8 * cap) & (alpha < cap * (1.0 - 1e-8))
    if np.any(free):
        rho = float(np.mean(grad[free]))
    else:
        upper = grad[alpha >= cap * (1.0 - 1e-8)]
        lower = grad[alpha <= 1e-8 * cap]
        hi = upper.max() if upper.size else -np.inf
        lo = lower.min() if lower.size else np.inf
        rho = float((hi + lo) / 2.0)
    sv = alpha > 1e-12
    return OcsvmModel(
        nu=nu, gamma=gamma, support_vectors=x[sv], alphas=alpha[sv],
        rho=rho, kkt_residual=_kkt_residual(alpha, grad, rho, cap),
    )


# The accept masks of the per-model decision adapters that csiauth.evaluate
# had before every authenticator became a score and a cut. Each compares in
# its own direction; `score >= cut` must give the same bits, NaN rows
# included.

def threshold_accepts(h_ref, thr):
    """Accept iff every element's squared distance to h_ref's is <= z**2."""
    from csiauth.channel import flatten_csi

    ref = flatten_csi(h_ref)

    def accepts(rows):
        delta = rows - ref
        return np.all(delta[:, 0::2] ** 2 + delta[:, 1::2] ** 2 <= thr.z**2, axis=1)

    return accepts


def gan_accepts(d, tau=0.5):
    from csiauth.gan import scores_batch

    return lambda rows: scores_batch(d, rows) >= tau


def lof_accepts(model):
    from csiauth.detectors import lof_scores

    return lambda rows: lof_scores(model, rows) <= model.threshold


def iforest_accepts(model):
    from csiauth.detectors import iforest_scores

    return lambda rows: iforest_scores(model, rows) <= model.threshold


def ocsvm_accepts(model):
    from csiauth.detectors import ocsvm_decision_values

    return lambda rows: ocsvm_decision_values(model, rows) >= 0.0


def evaluate_each_set(table, sets, grid):
    """`csiauth eval`'s per-set loop before the attack sets shared their
    scores: every set's slice at every SNR scored whole by `evaluate`, for
    method in sorted(table) and snr in grid. Returns {set name: matrices}."""
    # the module, which the package's `evaluate` function shadows
    ev = importlib.import_module("csiauth.evaluate")
    return {name: [ev.evaluate(table[method][snr], ds, snr, method)
                   for method in sorted(table) for snr in grid]
            for name, ds in sets.items()}
