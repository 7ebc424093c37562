"""Independent reference implementations shared by module and acceptance tests.

These deliberately use plain loops and breadth-first search so they share no
code path with the library they check.  The RFE and GA-fitness references
are the one-target-at-a-time and one-chromosome-at-a-time forms of the
batched kernels in ``irisfuse.gasel``; they share only the scalar
``fitness_cost`` formula with it.
"""

import numpy as np
from scipy.spatial.distance import pdist, squareform

from irisfuse.gasel import fitness_cost


def flood_fill_euler(bits):
    """BFS component/hole counting on a 0/1 grid (8-conn fg, 4-conn bg)."""
    h, w = bits.shape
    seen = np.zeros((h, w), dtype=bool)

    def flood(y0, x0, value, neighbors):
        stack = [(y0, x0)]
        seen[y0, x0] = True
        while stack:
            y, x = stack.pop()
            for dy, dx in neighbors:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and not seen[ny, nx] and bits[ny, nx] == value:
                    seen[ny, nx] = True
                    stack.append((ny, nx))

    eight = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    four = [(-1, 0), (1, 0), (0, -1), (0, 1)]

    components = 0
    for y in range(h):
        for x in range(w):
            if bits[y, x] == 1 and not seen[y, x]:
                components += 1
                flood(y, x, 1, eight)

    seen[:] = False
    # background connected to the border is the outside, not a hole
    for y in range(h):
        for x in range(w):
            if (y in (0, h - 1) or x in (0, w - 1)) and bits[y, x] == 0 and not seen[y, x]:
                flood(y, x, 0, four)
    holes = 0
    for y in range(h):
        for x in range(w):
            if bits[y, x] == 0 and not seen[y, x]:
                holes += 1
                flood(y, x, 0, four)
    return components - holes


def brute_force_eer(genuine, imposter):
    """Sweep every distinct score value, midpoint at min |FAR - FRR|."""
    genuine = np.asarray(genuine, dtype=float)
    imposter = np.asarray(imposter, dtype=float)
    best = None
    for t in np.unique(np.concatenate([genuine, imposter])):
        far = float(np.mean(imposter >= t))
        frr = float(np.mean(genuine < t))
        key = abs(far - frr)
        if best is None or key < best[0] - 1e-15:
            best = (key, (far + frr) / 2.0)
    return best[1]


def planted_problem(seed, n_features=100, n_informative=10, classes=6, per_class=6):
    """Feature-selection benchmark: class structure on a hidden subset."""
    rng = np.random.default_rng(seed)
    informative = np.sort(rng.choice(n_features, size=n_informative, replace=False))
    n = classes * per_class
    X = rng.uniform(60.0, 200.0, size=(n, n_features))
    y = np.repeat(np.arange(classes), per_class)
    for j in informative:
        mu = rng.uniform(60.0, 200.0, size=classes)
        X[:, j] = mu[y] + rng.normal(0.0, 12.0, size=n)
    return X, y, set(int(i) for i in informative)


def rank_rfe_per_target(X, y):
    """Recursive feature elimination solving one class target at a time.

    The scalar reference for ``gasel.rank_rfe``: the ridge discriminant is
    refit after each elimination with one ``np.linalg.solve`` per target.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    classes = np.unique(y)

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    Z = (X - mu) / np.where(sd > 0, sd, 1.0)

    targets = []
    if len(classes) == 2:
        targets.append(np.where(y == classes[0], 1.0, -1.0))
    else:
        for c in classes:
            targets.append(np.where(y == c, 1.0, -1.0))

    def weights(cols):
        Zc = Z[:, cols]
        gram = Zc @ Zc.T + 1.0 * np.eye(len(Zc))
        best = np.zeros(len(cols))
        for t in targets:
            alpha = np.linalg.solve(gram, t)
            best = np.maximum(best, np.abs(Zc.T @ alpha))
        return best

    active = list(range(X.shape[1]))
    eliminated = []
    while len(active) > 1:
        w = weights(np.asarray(active, dtype=np.intp))
        worst = np.flatnonzero(np.abs(w) == np.abs(w).min())
        drop_pos = int(worst.max())  # ties: drop the largest index first
        eliminated.append(active.pop(drop_pos))
    order = [active[0]] + eliminated[::-1]
    return np.asarray(order, dtype=np.intp)


class ScalarSubsetTrial:
    """The GA fitness oracle scored one chromosome at a time.

    The scalar reference for ``gasel._SubsetTrial``: one ``pdist`` per
    chromosome, RR from its square form, and FAR/FRR at the EER from a
    ``searchsorted`` sweep over every distinct similarity.
    """

    def __init__(self, X, y, pool, weights):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y)
        self.pool = np.asarray(pool.indices, dtype=np.intp)
        self.total = len(pool)
        self.weights = weights
        same = self.y[:, None] == self.y[None, :]
        iu = np.triu_indices(len(self.y), k=1)
        self._pair_same = same[iu]
        self._cache = {}
        self.evaluations = 0

    def costs(self, pop):
        return np.array([self.cost(g) for g in pop])

    def cost(self, genes):
        key = genes.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.evaluations += 1
        sel = self.pool[genes.astype(bool)]
        if len(sel) == 0:
            value = fitness_cost(0.0, 1.0, 1.0, 0, self.total, self.weights)
        else:
            dist = pdist(self.X[:, sel], "cityblock") / (len(sel) * 255.0)
            sims = 1.0 - dist
            rr = self._recognition_rate(squareform(dist))
            far, frr = self._rates_at_eer(sims)
            value = fitness_cost(rr, far, frr, int(len(sel)), self.total, self.weights)
        self._cache[key] = value
        return value

    def _recognition_rate(self, dmat):
        np.fill_diagonal(dmat, np.inf)
        nn = np.argmin(dmat, axis=1)
        return float(np.mean(self.y[nn] == self.y))

    def _rates_at_eer(self, sims):
        genuine = np.sort(sims[self._pair_same])
        imposter = np.sort(sims[~self._pair_same])
        if len(genuine) == 0 or len(imposter) == 0:
            return 1.0, 1.0
        thresholds = np.unique(sims)
        far = 1.0 - np.searchsorted(imposter, thresholds, side="left") / len(imposter)
        frr = np.searchsorted(genuine, thresholds, side="left") / len(genuine)
        i = int(np.argmin(np.abs(far - frr)))
        return float(far[i]), float(frr[i])
