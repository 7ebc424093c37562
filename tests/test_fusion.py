import struct

import numpy as np
import pytest

from irisfuse.fusion import (
    ALGORITHMS,
    FusionPolicy,
    ScoreRange,
    decide,
    fit_ranges,
    fuse,
    normalize,
    normalize_distances,
)

from oracles import trial_ranges, worst_ranges


def triple(a, b, c):
    return dict(zip(ALGORITHMS, (a, b, c)))


class TestNormalize:
    def test_divide_by_100_example(self):
        assert normalize(50.0, ScoreRange(0.0, 100.0)) == 0.5

    def test_zero_distance_is_perfect_similarity(self):
        assert normalize(0.0, ScoreRange(0.0, 1.0)) == 1.0

    def test_overrange_clamped(self):
        assert normalize(120.0, ScoreRange(0.0, 100.0)) == 0.0
        assert normalize(-20.0, ScoreRange(0.0, 100.0)) == 1.0

    def test_monotone_similarity_and_antitone_distance(self):
        r = ScoreRange(0.0, 10.0)
        sims = [normalize(v, r) for v in (9, 7, 3, 1)]
        assert sims == sorted(sims)
        assert len(set(sims)) == 4

    def test_invalid_range_rejected(self):
        for lo, hi in [(1.0, 1.0), (2.0, 1.0), (np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0)]:
            with pytest.raises(ValueError, match="finite min < max"):
                ScoreRange(lo, hi)

    def test_array_equals_elementwise_scalar_calls(self):
        rng = np.random.default_rng(17)
        raws = np.concatenate([rng.uniform(-5.0, 15.0, 200), [0.0, 10.0, -0.0, 2.5, 1e-300]])
        r = ScoreRange(0.0, 10.0)
        whole = normalize(raws, r)
        each = [normalize(float(v), r) for v in raws]
        assert whole.tobytes() == np.array(each).tobytes()

    def test_distances_map_to_flipped_similarities_per_algorithm(self):
        ranges = {a: ScoreRange(0.0, hi) for a, hi in zip(ALGORITHMS, (0.5, 4.0, 1.0))}
        raw = {"euler": np.array([0.0, 2.0, 9.0]), "zerocross": 0.25, "gasel": np.array([0.1])}
        scores = normalize_distances(raw, ranges)
        assert list(scores) == list(ALGORITHMS)
        assert scores["zerocross"] == 0.5
        assert np.array_equal(scores["euler"], [1.0, 0.5, 0.0])
        for a, s in scores.items():
            assert np.asarray(s).tobytes() == np.asarray(normalize(raw[a], ranges[a])).tobytes()


class TestFuse:
    def test_sum_average(self):
        assert fuse(triple(0.2, 0.4, 0.9), FusionPolicy("sum-average")) == pytest.approx(0.5)

    def test_min_and_max(self):
        scores = triple(0.2, 0.4, 0.9)
        assert fuse(scores, FusionPolicy("min")) == 0.2
        assert fuse(scores, FusionPolicy("max")) == 0.9

    def test_one_hot_weights_select_single_score(self):
        scores = triple(0.31, 0.62, 0.93)
        for i, algo in enumerate(ALGORITHMS):
            w = [0.0, 0.0, 0.0]
            w[i] = 1.0
            value = fuse(scores, FusionPolicy("weighted", weights=tuple(w)))
            assert value == pytest.approx(scores[algo])

    def test_order_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, c = rng.random(3)
            scores = triple(a, b, c)
            lo = fuse(scores, FusionPolicy("min"))
            mid = fuse(scores, FusionPolicy("sum-average"))
            hi = fuse(scores, FusionPolicy("max"))
            assert lo <= mid <= hi

    def test_missing_algorithm_rejected(self):
        scores = triple(0.1, 0.2, 0.3)
        del scores["gasel"]
        with pytest.raises(KeyError, match="gasel"):
            fuse(scores, FusionPolicy())

    def test_array_equals_elementwise_scalar_calls(self):
        rng = np.random.default_rng(23)
        vals = rng.random((3, 300))
        vals[:, :4] = [[0.0, 1.0, 0.5, 0.25], [0.0, 0.0, 0.5, 0.75], [1.0, 0.0, 0.5, 0.25]]
        policies = [FusionPolicy(rule) for rule in ("sum-average", "min", "max")]
        policies += [FusionPolicy("weighted", weights=(0.5, 0.2, 0.3)),
                     FusionPolicy("weighted", weights=(0.1, 0.1, 0.8))]
        for policy in policies:
            whole = fuse(triple(*vals), policy)
            each = [fuse(triple(*map(float, vals[:, p])), policy) for p in range(vals.shape[1])]
            assert whole.shape == (vals.shape[1],)
            assert whole.tobytes() == np.array(each, dtype=np.float64).tobytes()

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            FusionPolicy("weighted", weights=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            FusionPolicy("weighted")  # weights required
        with pytest.raises(ValueError):
            FusionPolicy("min", weights=(0.3, 0.3, 0.4))  # weights forbidden
        for bad in ((np.nan, 0.5, 0.5), (np.inf, 0.0, 0.0)):
            with pytest.raises(ValueError):
                FusionPolicy("weighted", weights=bad)


class TestDecide:
    def test_accept_above_threshold(self):
        d = decide(0.7, 0.6)
        assert d.accepted and d.bit == 0

    def test_boundary_inclusive(self):
        d = decide(0.6, 0.6)
        assert d.accepted and d.bit == 0

    def test_reject_below_threshold(self):
        d = decide(0.59, 0.6)
        assert not d.accepted and d.bit == 1

    def test_monotone_in_fused_score(self):
        threshold = 0.42
        accepted_at = [s for s in np.linspace(0, 1, 101) if decide(float(s), threshold).accepted]
        assert accepted_at == sorted(accepted_at)
        assert min(accepted_at) >= threshold

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            decide(0.5, 1.5)


def range_bytes(ranges):
    """Each range's bounds as little-endian f64 bytes, so -0.0 != 0.0."""
    return {a: struct.pack("<dd", r.min, r.max) for a, r in ranges.items()}


def distance_arrays(rng, n):
    """One distance array per matcher, drawn from a mix of the edge cases."""
    kind = rng.integers(5)
    if kind == 0:
        return {a: rng.random(n) for a in ALGORITHMS}
    if kind == 1:  # many exact zeros
        return {a: np.where(rng.random(n) < 0.5, 0.0, rng.random(n)) for a in ALGORITHMS}
    if kind == 2:  # all equal
        return {a: np.full(n, rng.choice([0.0, 0.25, 3.0])) for a in ALGORITHMS}
    if kind == 3:  # a few distinct values
        return {a: rng.choice([0.0, 0.5, 0.5, 2.0], n) for a in ALGORITHMS}
    return {a: rng.random(n) * 10.0 ** rng.integers(-3, 3) for a in ALGORITHMS}


def with_nans(rng, raw):
    """Incomparable pairs: NaN in zerocross and gasel, never in Euler."""
    out = dict(raw)
    for a in ("zerocross", "gasel"):
        out[a] = np.where(rng.random(len(raw[a])) < rng.choice([0.0, 0.3, 1.0]), np.nan, raw[a])
    return out


class TestFitRanges:
    SIZES = (1, 2, 3, 7, 50)

    def test_matches_the_trial_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            raw = distance_arrays(rng, int(rng.choice(self.SIZES)))
            assert range_bytes(fit_ranges(raw)) == range_bytes(trial_ranges(raw))

    def test_skips_nan_like_the_trial_oracle_without_it(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            raw = with_nans(rng, distance_arrays(rng, int(rng.choice(self.SIZES))))
            kept = {a: d[~np.isnan(d)] for a, d in raw.items()}
            if all(len(d) for d in kept.values()):
                assert range_bytes(fit_ranges(raw)) == range_bytes(trial_ranges(kept))

    def test_matches_the_gallery_oracle_with_the_genuine_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            raw = with_nans(rng, distance_arrays(rng, int(rng.choice(self.SIZES))))
            got = fit_ranges({a: np.append(d, 0.0) for a, d in raw.items()})
            assert range_bytes(got) == range_bytes(worst_ranges(raw))

    def test_single_genuine_zero_is_the_unit_range(self):
        want = {a: ScoreRange(0.0, 1.0) for a in ALGORITHMS}
        assert range_bytes(fit_ranges(dict.fromkeys(ALGORITHMS, 0.0))) == range_bytes(want)
