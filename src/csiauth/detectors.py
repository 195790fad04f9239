"""One-class baselines fit on legitimate samples only: LOF, iForest, OC-SVM.

All three consume the flattened CSI feature vectors under the Euclidean
metric. LOF is the density-ratio construction of Breunig et al., iForest
the random-partition ensemble of Liu et al., and the one-class SVM the
nu-parameterized smallest-region formulation of Scholkopf et al., solved
in the dual by an SMO-style maximal-violating-pair loop.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .packed import NumberFields, finite_array, pack, read_document, scalar, unpack
from .rng import RngStream

LOF_K = 20
LOF_THRESHOLD = 1.5
IFOREST_TREES = 100
IFOREST_SUBSAMPLE = 256
IFOREST_THRESHOLD = 0.5
OCSVM_NU = 0.05
OCSVM_TOL = 1e-4
OCSVM_MAX_ITER = 400_000
DETECTOR_FORMAT_VERSION = 2

_EULER_GAMMA = 0.5772156649015329
# Distances worked on together after the whole product, in elements: 64
# rows against 700 training rows, whose block and scratch (~1 MB) stay in
# L2 cache. There 32 to 128 rows scored within 4% of 64, 16 rows 12%
# slower. A narrow matrix, such as the RBF kernel against a few dozen
# support vectors, is one block.
_DIST_BLOCK_ITEMS = 64 * 700
# Whole buffers of at least this many bytes get their own memory mapping
# (_whole_buffer); for smaller ones mapping costs more time than a heap
# block that stays resident costs memory.
_MAPPED_BYTES = 1 << 20


@dataclass(frozen=True)
class DetectorConfig(NumberFields):
    """The "detectors" section of a config file; gamma None is default_gamma."""

    lof_k: int = LOF_K
    lof_threshold: float = LOF_THRESHOLD
    iforest_trees: int = IFOREST_TREES
    iforest_subsample: int = IFOREST_SUBSAMPLE
    iforest_threshold: float = IFOREST_THRESHOLD
    ocsvm_nu: float = OCSVM_NU
    ocsvm_gamma: float | None = None


class ConvergenceError(RuntimeError):
    """SMO failed to reach the KKT tolerance within the iteration cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# Local outlier factor

@dataclass
class LofModel:
    k: int
    train_points: np.ndarray
    threshold: float
    kdist: np.ndarray  # k-distance of each train point (self excluded)
    lrd: np.ndarray  # local reachability density of each train point


def lof_fit(train, k: int = LOF_K, threshold: float = LOF_THRESHOLD) -> LofModel:
    x = _as_train_points(train, "lof")
    n = x.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < train size, got k={k}, n={n}")
    # Two passes over the same distance rows: every k-distance first, as each
    # row's reach distances read the k-distances of all the others.
    kdist = np.empty(n)
    blocks = []
    for rows, d, spare, mask in _lof_blocks(x, x, exclude_self=True):
        kdist[rows] = _kth_smallest(d, k, spare)
        blocks.append((rows, d, spare, mask))
    lrd = np.empty(n)
    for rows, d, spare, mask in blocks:
        lrd[rows], _ = _reach_density(d, kdist[rows], kdist, spare, mask)
    return LofModel(k=k, train_points=x, threshold=threshold, kdist=kdist, lrd=lrd)


def lof_scores(model: LofModel, points) -> np.ndarray:
    """LOF of query points against the training set (queries are not neighbors)."""
    q = _as_points(points)
    lrd_q, mean_neighbor_lrd = np.empty(len(q)), np.empty(len(q))
    for rows, d, spare, mask in _lof_blocks(q, model.train_points):
        kdist_q = _kth_smallest(d, model.k, spare)
        lrd_q[rows], mean_neighbor_lrd[rows] = _reach_density(
            d, kdist_q, model.kdist, spare, mask, model.lrd
        )
    return mean_neighbor_lrd / lrd_q


def lof_train_scores(model: LofModel) -> np.ndarray:
    """LOF of the training points themselves (self excluded from neighborhoods)."""
    x = model.train_points
    mean_neighbor_lrd = np.empty(len(x))
    for rows, d, spare, mask in _lof_blocks(x, x, exclude_self=True):
        _, mean_neighbor_lrd[rows] = _reach_density(
            d, model.kdist[rows], model.kdist, spare, mask, model.lrd
        )
    return mean_neighbor_lrd / model.lrd


def _lof_blocks(a, b, exclude_self=False):
    """Yield (rows, d, spare, mask) as _sq_dist_blocks does, with d holding
    the Euclidean distances from a[rows] to every row of b (inf from a row
    to itself with exclude_self, where a is b). The d blocks are views of
    one buffer and stay valid after the next step; spare and mask are
    reused."""
    _, blocks = _sq_dist_blocks(a, b)
    for rows, d, spare, mask in blocks:
        np.sqrt(d, out=d)
        if exclude_self:
            i = np.arange(len(d))
            d[i, rows.start + i] = np.inf
        yield rows, d, spare, mask


def _kth_smallest(d, k, spare):
    """The k-th smallest value of each row of d; overwrites spare."""
    np.copyto(spare, d)
    spare.partition(k - 1, axis=1)
    return spare[:, k - 1].copy()


def _reach_density(d, kdist_rows, kdist, spare, mask, lrd=None):
    """lrd of each row of distances d and, given the train lrd, its
    neighbors' mean lrd; overwrites d, spare and mask."""
    np.less_equal(d, kdist_rows[:, np.newaxis], out=mask)  # neighbors
    count = mask.sum(axis=1)
    np.maximum(d, kdist, out=d)  # reach-distances
    spare.fill(0.0)
    np.copyto(spare, d, where=mask)
    lrd_rows = count / spare.sum(axis=1)
    if lrd is None:
        return lrd_rows, None
    np.copyto(spare, lrd, where=mask)
    return lrd_rows, spare.sum(axis=1) / count


# ---------------------------------------------------------------------------
# Isolation forest

# The node arrays of a forest, as its file packs them.
_NODE_FIELDS = {"feature": "<i4", "split": "<f8", "right": "<i4", "size": "<i4"}
_ROW_BLOCK = 1024  # rows descended together; bounds the (n_trees, rows) working arrays


@dataclass
class IForestModel:
    """Trees as the node arrays a file stores: every tree's nodes in
    preorder, one tree after another, n_nodes[t] of them for tree t.
    feature -1 marks a leaf, whose right is -1; an inner node's right child
    is its index within its tree, and its left child is the node after it.
    Construction rejects a malformed forest and precomputes the tables the
    level-wise descent reads."""

    n_trees: int
    subsample: int
    threshold: float
    height_limit: int
    n_nodes: np.ndarray
    feature: np.ndarray
    split: np.ndarray
    right: np.ndarray
    size: np.ndarray

    def __post_init__(self):
        n_nodes = self.n_nodes
        if len(n_nodes) != self.n_trees or self.n_trees < 1:
            raise ValueError(
                f"iforest payload has {len(n_nodes)} trees, n_trees says {self.n_trees}"
            )
        empty = np.flatnonzero(n_nodes < 1)
        if empty.size:
            raise ValueError(f"iforest tree {empty[0]}: n_nodes is {n_nodes[empty[0]]}, must be >= 1")
        total = int(n_nodes.sum())
        for key in _NODE_FIELDS:
            if (a := getattr(self, key)).shape != (total,):
                raise ValueError(f"iforest {key} holds {len(a)} nodes, n_nodes sums to {total}")
        # Only now that it matches the node arrays may n_nodes size anything.
        # Node g of the forest is node g - first[t] of its tree t.
        first = np.cumsum(n_nodes, dtype=np.intp) - n_nodes
        tree = np.repeat(np.arange(self.n_trees), n_nodes)
        node = np.arange(total)

        def reject(bad, what):
            if bad.any():
                raise ValueError(f"iforest tree {tree[np.argmax(bad)]}: {what}")

        reject(~np.isfinite(self.split), "a split value is not finite")
        inner = self.feature >= 0
        reject(~inner & (self.right != -1), "a leaf has children")
        # The left child, node + 1, is inside the tree wherever the right one is.
        right = self.right + first[tree]
        reject(
            inner & ((right <= node) | (right >= (first + n_nodes)[tree])),
            "a child index is outside the tree or not after its parent",
        )
        # One parent for every node but the roots, so the walk below visits
        # each node once; shared children would double its frontier per level.
        parents = np.bincount(np.r_[node[inner] + 1, right[inner]], minlength=total)
        reject(parents != (node != first[tree]), "a node is not the child of exactly one inner node")
        # Depth of every reachable node, one level at a time from the roots.
        depth = np.zeros(total, dtype=np.int64)
        g, level = first, 0
        while (g := g[inner[g]]).size:
            level += 1
            if level > self.height_limit:
                raise ValueError(
                    f"iforest tree {int(tree[g].min())}: a leaf is deeper than "
                    f"height_limit {self.height_limit}"
                )
            g = np.concatenate([g + 1, right[g]])
            depth[g] = level
        # Leaves point to themselves, so extra levels leave a row where it
        # is; _child[2g] is the right child and _child[2g + 1] the left,
        # indexed by x[f] < split.
        children = np.where(inner[:, None], np.c_[right, node + 1], node[:, None])
        sizes, which = np.unique(self.size, return_inverse=True)
        avg = np.array([_avg_path(int(n)) for n in sizes])[which]
        self._child = children.astype(np.intp).ravel()
        self._feature = np.where(inner, self.feature, 0).astype(np.intp)
        self._split = self.split
        self._leaf_path = depth + avg
        self._roots = first
        self._levels = level
        self._min_columns = int(self.feature[inner].max(initial=-1)) + 1


def iforest_fit(
    train,
    n_trees: int = IFOREST_TREES,
    subsample: int = IFOREST_SUBSAMPLE,
    rng: RngStream | None = None,
    threshold: float = IFOREST_THRESHOLD,
) -> IForestModel:
    """Grow n_trees isolation trees on subsamples of the finite rows `train`,
    each of whose columns must have a finite max - min.

    Tree t draws from its own generator, rng.substream("iforest-tree", t),
    and the model bits rest on the order of those draws: first
    choice(n, subsample, replace=False) picks its rows, then the tree is
    grown in preorder (a node, its left subtree, its right subtree). A node
    is a leaf when it is at height_limit = ceil(log2(subsample)), holds at
    most one row, or no feature varies over its rows; otherwise it draws
    k = integers(n_usable) to take the k-th varying feature f in column
    order, then s = uniform(lo, hi) over f's range at the node, and rows
    with x[f] < s go left. Trees never read each other's generators, so all
    of them grow together (iforest_fit_slices): each step takes the next
    preorder node of every unfinished tree.
    """
    return iforest_fit_slices([(train, subsample, rng)], n_trees, threshold)[0]


def iforest_fit_slices(
    slices, n_trees: int = IFOREST_TREES, threshold: float = IFOREST_THRESHOLD
) -> list[IForestModel]:
    """One forest per (train, subsample, rng) of `slices`, each bit for bit
    the model iforest_fit(train, n_trees, subsample, rng, threshold) gives.
    The trees of every slice grow in one lockstep, so a step's fixed cost is
    paid once for all of them."""
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    grown = []
    for train, subsample, rng in slices:
        x = _as_train_points(train, "iforest")
        n = x.shape[0]
        if not 2 <= subsample <= n:
            raise ValueError(f"subsample must be in [2, train size], got {subsample} (n={n})")
        if rng is None:
            raise ValueError("iforest_fit requires an RngStream")
        # A split draws uniform(lo, hi) over a node's range of one column,
        # which is finite only if the column's range over all the rows is.
        with np.errstate(over="ignore"):
            wide = np.flatnonzero(~np.isfinite(x.max(axis=0) - x.min(axis=0)))
        if wide.size:
            raise ValueError(f"iforest training column {wide[0]}: max - min is not finite")
        gens = [rng.substream("iforest-tree", t).generator() for t in range(n_trees)]
        grown.append((x, gens, subsample, math.ceil(math.log2(subsample))))
    return [
        IForestModel(
            n_trees=n_trees, subsample=subsample, threshold=threshold,
            height_limit=height_limit, **nodes,
        )
        for (_, _, subsample, height_limit), nodes in zip(grown, _grow_together(grown))
    ]


def _grow_together(slices) -> list[dict]:
    """Grow one tree per generator of every (x, gens, subsample,
    height_limit) of `slices`, on that slice's finite rows x, as iforest_fit
    describes. Returns, per slice, IForestModel's n_nodes and node arrays by
    field, copied out of the working buffers, which are sized for a full
    tree of the highest limit and freed on return."""
    xs, gen_lists, subsamples, limits = zip(*slices)
    x = xs[0] if len(xs) == 1 else np.concatenate(xs)
    d = x.shape[1]
    cells = x.ravel()  # x[r, f] is cells[r * d + f], a cheaper gather
    gens = [g for slice_gens in gen_lists for g in slice_gens]
    trees = [len(slice_gens) for slice_gens in gen_lists]
    sub, limit = np.repeat(subsamples, trees), np.repeat(limits, trees)
    height_limit = int(limit.max())
    n_trees = len(gens)
    # A node's rows are a range buf[start:end] of indices into x, tree t's
    # root the t-th block of its slice's subsample entries; each split
    # partitions its node's range in place.
    first_row = np.cumsum([0] + [len(a) for a in xs])
    buf = np.concatenate([
        g.choice(len(a), size=subsample, replace=False) + row0
        for a, row0, slice_gens, subsample in zip(xs, first_row, gen_lists, subsamples)
        for g in slice_gens
    ])
    # A tree of height_limit has at most 2**height_limit - 1 splits, each
    # taking at most one word for k and one for s unless k is rejected.
    draws = _SplitDraws(gens, 2 * (2**height_limit - 1))
    # The rows of a node are distinct training rows of one slice, so a column
    # whose values are all distinct within a slice varies over every node of
    # two or more of its rows; only the columns with repeated values in some
    # slice need a min/max per node, and taking it where a column has none
    # changes nothing.
    tied = np.flatnonzero(np.any(
        [(np.diff(np.sort(a, axis=0), axis=0) == 0).any(axis=0) for a in xs], axis=0
    ))

    width = 2 ** (height_limit + 1) - 1
    feature = np.full((n_trees, width), -1, dtype=np.int32)
    split = np.zeros((n_trees, width))
    right = np.full((n_trees, width), -1, dtype=np.int32)
    size = np.zeros((n_trees, width), dtype=np.int32)
    n_nodes = np.zeros(n_trees, dtype=np.int64)
    # Pending nodes per tree as (start, end, depth, parent if a right child
    # else -1). Popping a node at depth d leaves at most d below it and a
    # split pushes two, so height_limit + 1 slots suffice.
    stack = np.empty((n_trees, height_limit + 1, 4), dtype=np.int64)
    roots = np.cumsum(sub) - sub
    stack[:, 0, 0], stack[:, 0, 1], stack[:, 0, 2], stack[:, 0, 3] = roots, roots + sub, 0, -1
    top = np.ones(n_trees, dtype=np.int64)
    while (t := np.flatnonzero(top)).size:
        slot = top[t] - 1
        top[t] = slot
        start, end, depth, parent = stack[t, slot].T
        node = n_nodes[t]
        n_nodes[t] = node + 1
        size[t, node] = end - start
        is_right = parent >= 0
        right[t[is_right], parent[is_right]] = node[is_right]
        grows = (depth < limit[t]) & (end - start > 1)
        t, start, end, depth, node, slot = (a[grows] for a in (t, start, end, depth, node, slot))
        n_usable, usable = np.full(t.size, d), None
        if tied.size and t.size:
            _, offsets, pos = _segments(start, end)
            vals = x[np.ix_(buf[pos], tied)]
            usable = np.ones((t.size, d), dtype=bool)
            usable[:, tied] = np.maximum.reduceat(vals, offsets) > np.minimum.reduceat(vals, offsets)
            keep = usable.any(axis=1)
            t, start, end, depth, node, slot, usable = (
                a[keep] for a in (t, start, end, depth, node, slot, usable)
            )
            n_usable = usable.sum(axis=1)
        if not t.size:
            continue
        k = draws.integers(t, n_usable)
        # The k-th usable column has exactly k usable columns before it.
        f = k if usable is None else (usable.cumsum(axis=1) <= k[:, None]).sum(axis=1)
        lengths, offsets, pos = _segments(start, end)
        rows = buf[pos]
        vals = cells[rows * d + np.repeat(f, lengths)]
        s = draws.uniform(
            t, np.minimum.reduceat(vals, offsets), np.maximum.reduceat(vals, offsets)
        )
        goes_left = vals < np.repeat(s, lengths)
        n_left = np.add.reduceat(goes_left, offsets)
        # Sort by (node, goes right): each node's range now lists its left rows first.
        order = np.argsort(np.repeat(2 * np.arange(t.size), lengths) + ~goes_left, kind="stable")
        buf[pos] = rows[order]
        feature[t, node] = f
        split[t, node] = s
        children = depth + 1
        stack[t, slot] = np.array([start + n_left, end, children, node]).T
        stack[t, slot + 1] = np.array([start, start + n_left, children, np.full(t.size, -1)]).T
        top[t] = slot + 2
    fields = {"feature": feature, "split": split, "right": right, "size": size}
    out, first_tree = [], np.cumsum([0] + trees)
    for lo, hi in zip(first_tree[:-1], first_tree[1:]):
        valid = np.arange(width) < n_nodes[lo:hi, None]
        out.append({"n_nodes": n_nodes[lo:hi], **{k: a[lo:hi][valid] for k, a in fields.items()}})
    return out


class _SplitDraws:
    """integers(c) and uniform(lo, hi) for each of a list of PCG64
    Generators, bit for bit what the Generators return, computed for many of
    them at once from raw words drawn ahead.

    numpy draws integers(c), c < 2**32, by Lemire's method on 32-bit values:
    c == 1 takes nothing; otherwise v = next32() until the low 32 bits of
    v * c are not below (2**32 - c) % c, and the result is v * c >> 32.
    next32() returns the upper half of the last 64-bit word if it is
    buffered (has_uint32), else takes a word, returns its lower half and
    buffers the upper. uniform(lo, hi) takes one word w and returns
    lo + (hi - lo) * ((w >> 11) * 2**-53), leaving the buffer alone.
    Reading the words ahead advances the Generators; they are spent after.
    """

    def __init__(self, gens, block: int):
        states = [g.bit_generator.state for g in gens]
        assert all(st["bit_generator"] == "PCG64" for st in states)
        self._gens, self._block = gens, block
        self._has32 = np.array([st["has_uint32"] for st in states], dtype=bool)
        self._upper = np.array([st["uinteger"] for st in states], dtype=np.uint64)
        self._pos = np.zeros(len(gens), dtype=np.int64)
        self._words = self._draw()

    def _draw(self) -> np.ndarray:
        """The next block of words of every generator, one row each."""
        words = np.empty((len(self._gens), self._block), dtype=np.uint64)
        for row, g in zip(words, self._gens):
            row[:] = g.bit_generator.random_raw(self._block)
        return words

    def _take(self, t: np.ndarray) -> np.ndarray:
        """The next word of each generator t (distinct indices)."""
        pos = self._pos[t]
        if t.size and pos.max() >= self._words.shape[1]:
            # Only a run of rejected k draws gets past the first block.
            self._words = np.concatenate([self._words, self._draw()], axis=1)
        self._pos[t] = pos + 1
        return self._words[t, pos]

    def _next32(self, t: np.ndarray) -> np.ndarray:
        empty = ~self._has32[t]
        v = self._upper[t]
        fresh = t[empty]
        w = self._take(fresh)
        v[empty] = w & 0xFFFFFFFF
        self._upper[fresh] = w >> 32
        self._has32[t] = empty
        return v

    def integers(self, t: np.ndarray, c: np.ndarray) -> np.ndarray:
        """integers(c[i]) of generator t[i], for bounds 1 <= c < 2**32."""
        k = np.zeros(t.size, dtype=np.uint64)
        draw = c > 1
        t, c = t[draw], c[draw].astype(np.uint64)
        m = self._next32(t) * c
        threshold = (2**32 - c) % c
        while (rejected := (m & 0xFFFFFFFF) < threshold).any():
            m[rejected] = self._next32(t[rejected]) * c[rejected]
        k[draw] = m >> 32
        return k.astype(np.int64)

    def uniform(self, t: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """uniform(lo[i], hi[i]) of generator t[i], for finite hi - lo."""
        return lo + (hi - lo) * ((self._take(t) >> 11) * 2.0**-53)


def _segments(start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, ...]:
    """Concatenate the ranges [start, end): their lengths, their offsets in
    the result, and the result."""
    lengths = end - start
    offsets = np.cumsum(lengths) - lengths
    return lengths, offsets, np.arange(lengths.sum()) + np.repeat(start - offsets, lengths)


def _avg_path(n: int) -> float:
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1) + _EULER_GAMMA) - 2.0 * (n - 1) / n


def _block_paths(model: IForestModel, x: np.ndarray) -> np.ndarray:
    """Sum over trees, in tree order, of each row's path length."""
    rows, d = x.shape
    flat = x.ravel()
    offset = np.arange(rows) * d
    node = np.repeat(model._roots[:, None], rows, axis=1)
    for _ in range(model._levels):
        goes_left = flat[model._feature[node] + offset] < model._split[node]
        node = model._child[2 * node + goes_left]
    paths = np.zeros(rows)
    for tree_paths in model._leaf_path[node]:
        paths += tree_paths
    return paths


def iforest_scores(model: IForestModel, points) -> np.ndarray:
    """Anomaly score 2^(-E[path]/c(subsample)), in (0, 1)."""
    x = np.ascontiguousarray(_as_points(points))
    if x.shape[1] < model._min_columns:
        raise ValueError(
            f"points have {x.shape[1]} features; the forest splits on feature "
            f"{model._min_columns - 1}"
        )
    paths = np.concatenate(
        [_block_paths(model, x[i:i + _ROW_BLOCK]) for i in range(0, x.shape[0], _ROW_BLOCK)]
    )
    mean_path = paths / model.n_trees
    return np.exp2(-mean_path / _avg_path(model.subsample))


# ---------------------------------------------------------------------------
# One-class SVM (nu-form dual, RBF kernel, SMO solver)

@dataclass
class OcsvmModel:
    nu: float
    gamma: float
    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    kkt_residual: float


def default_gamma(train) -> float:
    """1 / (n_features * feature variance), the usual RBF scale heuristic."""
    x = _as_points(train)
    var = float(x.var())
    if var <= 0:
        raise ValueError("training features have zero variance")
    return 1.0 / (x.shape[1] * var)


def ocsvm_fit(
    train,
    nu: float = OCSVM_NU,
    gamma: float | None = None,
    tol: float = OCSVM_TOL,
    max_iter: int = OCSVM_MAX_ITER,
) -> OcsvmModel:
    """Solve min 1/2 a'Qa s.t. 0 <= a_i <= 1/(nu*n), sum a = 1, Q_ij = K(x_i, x_j).

    SMO on the maximal violating pair; stops when the KKT violation drops
    below `tol`. Raises ConvergenceError (with the residual) at the
    iteration cap.

    The loop keeps ng = -grad, updated as ng -= step * (q[i] - q[j]): IEEE
    negation is exact and commutes with rounding, so ng is bit for bit the
    negation of grad += step * (q[:, i] - q[:, j]). The contiguous rows
    q[i], q[j] equal those columns because _rbf(x, x) is exactly symmetric.
    The pair is picked from two copies of ng masked by infinities, which
    the same subtraction keeps equal to ng wherever they are finite.
    """
    x = _as_train_points(train, "ocsvm")
    n = x.shape[0]
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must be in (0, 1], got {nu}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if gamma is None:
        gamma = default_gamma(x)
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    cap = 1.0 / (nu * n)
    q = _rbf(x, x, gamma)
    alpha = np.full(n, 1.0 / n)
    ng = q @ alpha
    np.negative(ng, out=ng)
    # ng where alpha may rise (else -inf) and where it may fall (else +inf),
    # updated with ng: infinities stay put under a finite change.
    rising = np.where(alpha < cap - 1e-15, ng, -np.inf)
    falling = np.where(alpha > 1e-15, ng, np.inf)
    change = np.empty(n)

    for _ in range(max_iter):
        i = int(np.argmax(rising))
        j = int(np.argmin(falling))
        violation = ng[i] - ng[j]
        if violation <= tol:
            break
        qi, qj = q[i], q[j]
        a = qi[i] + qj[j] - 2.0 * qi[j]
        if a <= 0:
            a = 1e-12
        step = min(violation / a, cap - alpha[i], alpha[j])
        alpha[i] += step
        alpha[j] -= step
        for k in (i, j):
            rising[k] = ng[k] if alpha[k] < cap - 1e-15 else -np.inf
            falling[k] = ng[k] if alpha[k] > 1e-15 else np.inf
        np.subtract(qi, qj, out=change)
        change *= step
        ng -= change
        rising -= change
        falling -= change
    else:
        raise ConvergenceError(
            f"one-class SVM did not converge within {max_iter} iterations "
            f"(KKT violation {violation:.3e} > {tol:.0e})",
            residual=float(violation),
        )

    grad = -ng
    free = (alpha > 1e-8 * cap) & (alpha < cap * (1.0 - 1e-8))
    if np.any(free):
        rho = float(np.mean(grad[free]))
    else:
        upper = grad[alpha >= cap * (1.0 - 1e-8)]
        lower = grad[alpha <= 1e-8 * cap]
        hi = upper.max() if upper.size else -np.inf
        lo = lower.min() if lower.size else np.inf
        rho = float((hi + lo) / 2.0)

    residual = _kkt_residual(alpha, grad, rho, cap)
    sv = alpha > 1e-12
    return OcsvmModel(
        nu=nu, gamma=gamma, support_vectors=x[sv], alphas=alpha[sv],
        rho=rho, kkt_residual=residual,
    )


def _kkt_residual(alpha, grad, rho, cap) -> float:
    free = (alpha > 1e-8 * cap) & (alpha < cap * (1.0 - 1e-8))
    at_zero = alpha <= 1e-8 * cap
    at_cap = alpha >= cap * (1.0 - 1e-8)
    res = 0.0
    if np.any(free):
        res = max(res, float(np.max(np.abs(grad[free] - rho))))
    if np.any(at_zero):
        res = max(res, float(np.max(rho - grad[at_zero])))
    if np.any(at_cap):
        res = max(res, float(np.max(grad[at_cap] - rho)))
    return max(res, 0.0)


def ocsvm_decision_values(model: OcsvmModel, points) -> np.ndarray:
    """f(x) = sum_i alpha_i K(x_i, x) - rho; >= 0 inside the region."""
    x = _as_points(points)
    k = _rbf(x, model.support_vectors, model.gamma)
    return k @ model.alphas - model.rho


# ---------------------------------------------------------------------------
# Serialization

def save_model(model, path) -> None:
    """Write a detector as one JSON object. Hyperparameters and scalars are
    JSON numbers; every array is packed exactly (csiauth.packed). A forest
    stores its n_nodes and node arrays as they are."""
    if isinstance(model, LofModel):
        algorithm = "lof"
        hp = {"k": model.k, "threshold": model.threshold}
        payload = {key: pack(getattr(model, key)) for key in ("train_points", "kdist", "lrd")}
    elif isinstance(model, IForestModel):
        algorithm = "iforest"
        hp = {"n_trees": model.n_trees, "subsample": model.subsample, "threshold": model.threshold}
        payload = {
            "height_limit": model.height_limit,
            "n_nodes": pack(model.n_nodes),
            **{key: pack(getattr(model, key)) for key in _NODE_FIELDS},
        }
    elif isinstance(model, OcsvmModel):
        algorithm = "ocsvm"
        hp = {"nu": model.nu, "gamma": model.gamma}
        payload = {
            "support_vectors": pack(model.support_vectors),
            "alphas": pack(model.alphas),
            "rho": model.rho,
            "kkt_residual": model.kkt_residual,
        }
    else:
        raise TypeError(f"not a detector model: {type(model).__name__}")
    doc = {
        "format_version": DETECTOR_FORMAT_VERSION,
        "algorithm": algorithm,
        "hyperparameters": hp,
        "payload": payload,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_model(path):
    """Read a detector written by save_model; a malformed file, or one of
    an older format, raises ValueError naming it."""
    return read_document(
        path, _model_from_doc, DETECTOR_FORMAT_VERSION, "detector file", "csiauth fit-detector"
    )


def _model_from_doc(doc):
    algo = doc.get("algorithm")
    hp = doc["hyperparameters"]
    payload = doc["payload"]
    if algo == "lof":
        model = LofModel(
            k=scalar(hp, "k", int), threshold=scalar(hp, "threshold", float),
            train_points=finite_array(payload, "train_points", ndim=2),
            kdist=finite_array(payload, "kdist", ndim=1),
            lrd=finite_array(payload, "lrd", ndim=1),
        )
        n = len(model.train_points)
        if not 1 <= model.k < n:
            raise ValueError(f"lof k must satisfy 1 <= k < {n} training rows, got {model.k}")
        if not len(model.kdist) == len(model.lrd) == n:
            raise ValueError(
                f"lof has {n} training rows, {len(model.kdist)} kdist and "
                f"{len(model.lrd)} lrd values"
            )
        return model
    if algo == "iforest":
        return IForestModel(
            n_trees=scalar(hp, "n_trees", int), subsample=scalar(hp, "subsample", int),
            threshold=scalar(hp, "threshold", float),
            height_limit=scalar(payload, "height_limit", int),
            n_nodes=unpack(payload, "n_nodes", "<i4", 1),
            **{key: unpack(payload, key, dtype, 1) for key, dtype in _NODE_FIELDS.items()},
        )
    if algo == "ocsvm":
        model = OcsvmModel(
            nu=scalar(hp, "nu", float), gamma=scalar(hp, "gamma", float),
            support_vectors=finite_array(payload, "support_vectors", ndim=2),
            alphas=finite_array(payload, "alphas", ndim=1),
            rho=scalar(payload, "rho", float),
            kkt_residual=scalar(payload, "kkt_residual", float),
        )
        if not 0.0 < model.nu <= 1.0:
            raise ValueError(f"ocsvm nu must be in (0, 1], got {model.nu}")
        if not model.gamma > 0.0:
            raise ValueError(f"ocsvm gamma must be > 0, got {model.gamma}")
        if len(model.alphas) != len(model.support_vectors):
            raise ValueError(
                f"ocsvm has {len(model.support_vectors)} support vectors and "
                f"{len(model.alphas)} alphas"
            )
        return model
    raise ValueError(f"unknown detector algorithm {algo!r}")


# ---------------------------------------------------------------------------
# Shared helpers

def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, d) array, got shape {x.shape}")
    return x


def _as_train_points(x, algo: str) -> np.ndarray:
    x = _as_points(x)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"{algo} training row {bad[0]} is not finite")
    return x


def _sq_dist_blocks(a: np.ndarray, b: np.ndarray):
    """Squared Euclidean distances (len(a), len(b)), clipped at 0 against
    rounding, as (buffer, blocks): iterating blocks fills the buffer a block
    of rows at a time in place, yielding (rows, block, spare, mask) with
    spare and mask float and bool scratch of the block's shape, free until
    the next step.

    The product a @ b.T is taken once, whole: BLAS may round a row block of
    it differently. Each element then gets (|a|^2 + |b|^2) - 2ab and the
    clip, the same operations in the same order for any block size, so
    the bits do not depend on it; only the working set does."""
    aa, bb = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
    out = np.matmul(a, b.T, out=_whole_buffer(len(a), len(b)))
    out *= 2.0  # exact
    step = min(len(a), max(1, _DIST_BLOCK_ITEMS // max(len(b), 1)))
    spare, mask = np.empty((step, len(b))), np.empty((step, len(b)), dtype=bool)

    def blocks():
        for start in range(0, len(a), step):
            rows = slice(start, min(start + step, len(a)))
            block, s = out[rows], spare[:rows.stop - start]
            np.add(aa[rows, np.newaxis], bb, out=s)
            np.subtract(s, block, out=block)
            np.maximum(block, 0.0, out=block)
            yield rows, block, s, mask[:len(s)]

    return out, blocks()


def _whole_buffer(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) float64 array for a call's whole distance matrix.
    From _MAPPED_BYTES up it is an anonymous mapping of its own, faulted in
    by one call where the OS has MAP_POPULATE and unmapped when the array
    is freed. The same block from malloc's heap stays resident after it is
    freed while the heap's free top is under glibc's trim threshold, and
    adds its size to the peak of whatever the process does next."""
    if 8 * rows * cols < _MAPPED_BYTES:
        return np.empty((rows, cols))
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    buf = mmap.mmap(-1, 8 * rows * cols, flags=flags)
    return np.frombuffer(buf, dtype=np.float64).reshape(rows, cols)


def _rbf(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    k, blocks = _sq_dist_blocks(a, b)
    for _, block, _, _ in blocks:
        block *= -gamma
        np.exp(block, out=block)
    return k
