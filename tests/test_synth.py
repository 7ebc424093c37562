import hashlib
import math

import numpy as np
import pytest

from irisfuse.segmentation import Circle
from irisfuse.synth import (
    SynthEyeSpec,
    build_corpus,
    load_corpus,
    save_corpus,
    synth_eye,
)

from oracles import synth_eye_full_frame


def small_spec(**kw):
    defaults = dict(
        width=192,
        height=144,
        pupil=Circle(97.0, 73.0, 18.0),
        iris=Circle(96.0, 72.0, 52.0),
        texture_seed=5,
    )
    defaults.update(kw)
    return SynthEyeSpec(**defaults)


class TestSynthEye:
    def test_deterministic(self):
        spec = small_spec(noise_sigma=2.0, specular_spots=2, eyelid_coverage=0.2, noise_seed=9)
        a, _ = synth_eye(spec)
        b, _ = synth_eye(spec)
        assert np.array_equal(a.pixels, b.pixels)

    def test_pupil_darker_than_sclera_without_noise(self):
        img, truth = synth_eye(small_spec())
        ys, xs = np.mgrid[0 : img.height, 0 : img.width]
        in_pupil = np.hypot(xs - truth.pupil.cx, ys - truth.pupil.cy) <= truth.pupil.r
        in_sclera = np.hypot(xs - truth.iris.cx, ys - truth.iris.cy) > truth.iris.r + 1
        assert img.pixels[in_pupil].max() < img.pixels[in_sclera].min()

    def test_different_seeds_differ_inside_annulus(self):
        rng = np.random.default_rng(0)
        diffs = []
        for _ in range(100):
            s1, s2 = rng.integers(0, 1 << 30, size=2)
            a, truth = synth_eye(small_spec(texture_seed=int(s1)))
            b, _ = synth_eye(small_spec(texture_seed=int(s2)))
            ys, xs = np.mgrid[0 : a.height, 0 : a.width]
            d_p = np.hypot(xs - truth.pupil.cx, ys - truth.pupil.cy)
            d_i = np.hypot(xs - truth.iris.cx, ys - truth.iris.cy)
            annulus = (d_p > truth.pupil.r) & (d_i <= truth.iris.r)
            diffs.append(
                np.abs(a.pixels[annulus].astype(float) - b.pixels[annulus].astype(float)).mean()
            )
        assert min(diffs) > 10.0

    def test_speculars_saturated_and_masked(self):
        img, truth = synth_eye(small_spec(specular_spots=3, noise_seed=4))
        sat = img.pixels == 255
        assert sat.sum() > 0
        assert np.all(truth.noise_mask[sat] == 1)

    def test_ratio_bounds_enforced(self):
        with pytest.raises(ValueError):
            small_spec(pupil=Circle(96.0, 72.0, 4.0))  # ratio < 0.10
        with pytest.raises(ValueError):
            small_spec(pupil=Circle(96.0, 72.0, 45.0))  # ratio > 0.80

    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            small_spec(pupil=Circle(140.0, 72.0, 18.0))  # pupil outside iris
        with pytest.raises(ValueError):
            small_spec(iris=Circle(10.0, 72.0, 52.0))  # iris outside image

    def test_coverage_bounds(self):
        with pytest.raises(ValueError):
            small_spec(eyelid_coverage=0.5)


class TestBuildCorpus:
    def test_counts_and_distinct_seeds(self):
        corpus = build_corpus(7, 3, master_seed=11)
        assert len(corpus.records) == 21
        assert corpus.identities == 7
        seeds = {r.spec.texture_seed for r in corpus.records}
        assert len(seeds) == 7

    def test_same_seed_same_manifest(self):
        a = build_corpus(4, 2, master_seed=3)
        b = build_corpus(4, 2, master_seed=3)
        assert a.manifest() == b.manifest()
        assert all(
            np.array_equal(x.image.pixels, y.image.pixels)
            for x, y in zip(a.records, b.records)
        )

    def test_different_seed_different_manifest(self):
        assert build_corpus(4, 2, master_seed=3).manifest() != build_corpus(4, 2, master_seed=4).manifest()

    def test_samples_of_one_identity_differ(self):
        corpus = build_corpus(2, 3, master_seed=5)
        first = [r for r in corpus.records if r.identity == 0]
        for a, b in zip(first, first[1:]):
            assert np.abs(a.image.pixels.astype(int) - b.image.pixels.astype(int)).sum() > 0

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            build_corpus(0, 3, master_seed=1)


class TestCorpusRoundTrip:
    def test_save_and_load(self, tmp_path):
        corpus = build_corpus(3, 2, master_seed=9)
        save_corpus(corpus, tmp_path)
        assert (tmp_path / "manifest.txt").exists()
        loaded = load_corpus(tmp_path)
        assert len(loaded.records) == 6
        for orig, back in zip(corpus.records, loaded.records):
            assert back.identity == orig.identity
            assert np.array_equal(back.image.pixels, orig.image.pixels)
            assert back.truth.pupil == orig.truth.pupil
            assert back.truth.iris == orig.truth.iris

    def test_loaded_corpus_saves_again(self, tmp_path):
        corpus = build_corpus(3, 2, master_seed=9)
        save_corpus(corpus, tmp_path / "a")
        loaded = load_corpus(tmp_path / "a")
        save_corpus(loaded, tmp_path / "b")
        again = load_corpus(tmp_path / "b")
        for orig, back in zip(corpus.records, again.records):
            name = f"eye_{orig.identity:03d}_{orig.sample:02d}.pgm"
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
            assert (back.identity, back.truth.pupil, back.truth.iris) == (
                orig.identity, orig.truth.pupil, orig.truth.iris)
        # the texture seed is not serialized back, so it reads as unknown
        lines = [line.split() for line in (tmp_path / "b" / "manifest.txt").read_text().splitlines()]
        assert {fields[2] for fields in lines} == {"-"}
        firsts = [line.split() for line in (tmp_path / "a" / "manifest.txt").read_text().splitlines()]
        assert [f[:2] + f[3:] for f in firsts] == [f[:2] + f[3:] for f in lines]

    @pytest.mark.parametrize("line", ["eye_000_00.pgm 0 5", "a b c d e f g h i j"])
    def test_malformed_manifest_line_names_the_line(self, tmp_path, line):
        save_corpus(build_corpus(2, 1, master_seed=9), tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text() + "\n" + line + "\n")
        n = len(line.split())
        with pytest.raises(ValueError, match=f"^manifest.txt line 4: expected 9 fields, got {n}$"):
            load_corpus(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path)


def random_spec(rng) -> SynthEyeSpec:
    """A valid spec over the whole accepted range: frame sizes 120..300, an
    iris touching a frame edge one time in two, pupils offset up to nearly
    touching the iris, eyelid coverage 0..0.4 (the lower lid starts above
    0.25), 0..4 specular spots and noise sigma 0, 1 or 3."""
    w, h = (int(v) for v in rng.integers(120, 301, size=2))
    # radii on a 1/8 px grid, so an iris placed against an edge touches it exactly
    iris_r = int(rng.integers(20 * 8, 4 * (min(w, h) - 1) + 1)) / 8
    cx = rng.uniform(iris_r, w - 1 - iris_r)
    cy = rng.uniform(iris_r, h - 1 - iris_r)
    edge = int(rng.integers(0, 8))
    if edge == 1:
        cx = iris_r
    elif edge == 2:
        cx = w - 1 - iris_r
    elif edge == 3:
        cy = iris_r
    elif edge == 4:
        cx, cy = w - 1 - iris_r, h - 1 - iris_r
    pupil_r = rng.uniform(0.11, 0.79) * iris_r
    off, ang = rng.uniform(0.0, 0.99) * (iris_r - pupil_r), rng.uniform(0.0, 2.0 * math.pi)
    return SynthEyeSpec(
        width=w,
        height=h,
        pupil=Circle(cx + off * math.cos(ang), cy + off * math.sin(ang), pupil_r),
        iris=Circle(cx, cy, iris_r),
        texture_seed=int(rng.integers(0, 2**31 - 1)),
        eyelid_coverage=float(rng.uniform(0.0, 0.4)),
        specular_spots=int(rng.integers(0, 5)),
        noise_sigma=float(rng.choice([0.0, 1.0, 3.0])),
        rotation=float(rng.uniform(-math.pi, math.pi)),
        noise_seed=int(rng.integers(0, 2**31 - 1)),
    )


class TestSynthMatchesFullFrameOracle:
    @staticmethod
    def assert_same(spec):
        image, truth = synth_eye(spec)
        ref_image, ref_truth = synth_eye_full_frame(spec)
        assert np.array_equal(image.pixels, ref_image.pixels)
        assert np.array_equal(truth.noise_mask, ref_truth.noise_mask)
        assert (truth.pupil, truth.iris, truth.upper_eyelid, truth.lower_eyelid) == (
            ref_truth.pupil, ref_truth.iris, ref_truth.upper_eyelid, ref_truth.lower_eyelid)

    @pytest.mark.parametrize("args", [(6, 2, 2026), (4, 2, 7)])
    def test_corpus_records(self, args):
        for rec in build_corpus(*args).records:
            self.assert_same(rec.spec)

    def test_random_valid_specs(self):
        rng = np.random.default_rng(13)
        specs = [random_spec(rng) for _ in range(200)]
        # the generator reaches every case it is meant to cover
        assert any(s.iris.cx - s.iris.r == 0 or s.iris.cy - s.iris.r == 0 for s in specs)
        assert any(s.iris.cx + s.iris.r == s.width - 1 for s in specs)
        assert any(s.eyelid_coverage > 0.25 for s in specs)
        assert {s.specular_spots for s in specs} == {0, 1, 2, 3, 4}
        assert {s.noise_sigma for s in specs} == {0.0, 1.0, 3.0}
        assert min(s.width for s in specs) < 130 and max(s.height for s in specs) > 290
        for spec in specs:
            self.assert_same(spec)


class TestPinnedCorpus:
    # sha256 of every image and truth mask of build_corpus(4, 2, 2026), each
    # with its dtype and shape, then the manifest; a renderer change that
    # moves one pixel or one circle digit changes it
    DIGEST = "347fe4a4bc6b8863bd0dbd92443122bb3662108e52a39b0b4a7d91e333ade607"

    def test_corpus_bytes_are_unchanged(self):
        corpus = build_corpus(4, 2, 2026)
        digest = hashlib.sha256()
        for rec in corpus.records:
            for arr in (rec.image.pixels, rec.truth.noise_mask):
                digest.update(f"{arr.dtype.str} {arr.shape}\n".encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(corpus.manifest().encode())
        assert digest.hexdigest() == self.DIGEST
