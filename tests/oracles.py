"""Independent reference implementations used as test oracles."""

import math

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


def iforest_scores_by_walk(model_json_doc, x):
    """Isolation-forest scores from a saved model document, one tree at a time.

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
