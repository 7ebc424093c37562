import dataclasses
import hashlib
import os

import numpy as np
import pytest

from irisfuse import pipeline, store
from irisfuse.euler import common_mask
from irisfuse.imaging import GrayImage
from irisfuse.normalization import POLAR_HEIGHT, POLAR_WIDTH
from irisfuse.pipeline import process_image, process_images
from irisfuse.segmentation import SegmentationConfig, SegmentationError, build_noise_mask
from irisfuse.synth import build_corpus
from irisfuse.zerocross import encode, shifted

from oracles import noise_image


def test_process_images_skips_failures_and_reports_kept_indices():
    good = [r.image for r in build_corpus(1, 2, master_seed=5).records]
    blank = GrayImage(np.full((192, 256), 127, dtype=np.uint8))
    tiny = GrayImage(np.zeros((3, 3), dtype=np.uint8))
    cfg = SegmentationConfig()
    features, kept = process_images([blank, good[0], tiny, good[1]], cfg)
    assert kept == [1, 3]
    for f, img in zip(features, good):
        assert np.array_equal(f.template.bits, process_image(img, cfg).template.bits)
    assert process_images([blank, tiny], cfg) == ([], [])


class TestPinnedPipeline:
    # sha256 of every array process_image hands to the matchers: the polar
    # image and mask, the template bits and the block values and validity,
    # each with its dtype and shape, or of the error an image fails with.  A
    # segmentation kernel that moves one mask pixel moves a polar sample and
    # changes it.  Re-pinned when the pupil radii were bounded by the dark
    # region's: the two noise images now fail, and the digest of the corpus
    # images alone, CORPUS_DIGEST, stayed.
    CORPUS_DIGEST = "c67f6831ebd6fff86794bc880afed0dc5ceb7d48248223ee2ea1fa316a6cb01c"
    DIGEST = "af846499860f50e32856243b27e8f973f32f3d4d102fb54e4deb37c36b1068f2"

    @staticmethod
    def update(digest, img, cfg):
        try:
            f = process_image(img, cfg)
        except SegmentationError as exc:
            digest.update(f"error: {exc}\n".encode())
            return
        for arr in (f.polar, f.mask, f.template.bits, f.raw.values, f.raw.valid):
            digest.update(f"{arr.dtype.str} {arr.shape}\n".encode())
            digest.update(np.ascontiguousarray(arr).tobytes())

    def test_process_image_outputs_are_unchanged(self):
        cfg = SegmentationConfig()
        digest = hashlib.sha256()
        for rec in build_corpus(4, 2, 2026).records:
            self.update(digest, rec.image, cfg)
        assert digest.hexdigest() == self.CORPUS_DIGEST
        for seed in (0, 1):
            self.update(digest, noise_image(seed), cfg)
        assert digest.hexdigest() == self.DIGEST


def test_masks_are_read_only_uint8_zero_one_arrays(tmp_path):
    records = build_corpus(2, 2, 2026).records
    cfg = SegmentationConfig()
    features = [process_image(r.image, cfg) for r in records]
    f, img = features[0], records[0].image
    seg = f.segmentation
    gallery = store.empty_gallery()
    for ident in range(2):
        gallery = store.enroll(gallery, f"person-{ident}",
                               [r.image for r in records if r.identity == ident], cfg)
    store.save(gallery, tmp_path / "gallery.irf")
    loaded = store.load(tmp_path / "gallery.irf")
    polar = (POLAR_HEIGHT, POLAR_WIDTH)
    masks = [
        (build_noise_mask(img, seg.pupil, seg.iris, (seg.upper_eyelid, seg.lower_eyelid)),
         img.pixels.shape),
        (seg.noise_mask, img.pixels.shape),
        (f.mask, polar),
        (encode(f.enhanced, f.mask).mask, polar),
        (shifted(f.template, 5).mask, polar),
        (common_mask(f.mask, features[2].mask), polar),
    ] + [(rec.template.mask, polar) for rec in loaded.records]
    for mask, shape in masks:
        assert mask.dtype == np.uint8 and mask.shape == shape
        assert set(np.unique(mask).tolist()) <= {0, 1}
        with pytest.raises(ValueError):
            mask[0, 0] = 0
    assert f.mask[:4].all() and f.mask[-4:].all()  # the guard rows
    assert not f.mask.all()
    for a, b in zip(gallery.records, loaded.records):
        assert np.array_equal(a.template.mask, b.template.mask)


@pytest.mark.parametrize("source", ["process_image", "worker"])
def test_polar_arrays_are_read_only_uint8_with_one_mask(source):
    images = [r.image for r in build_corpus(4, 2, 2026).records]
    if source == "process_image":
        f = process_image(images[0], SegmentationConfig())
    else:
        # the last of 8 images comes back pickled from a worker where the
        # host has 2 CPUs; pickling drops numpy's write flag
        f = process_images(images, SegmentationConfig())[0][-1]
    for arr in (f.polar, f.enhanced, f.mask, f.template.mask):
        assert arr.dtype == np.uint8 and arr.shape == (POLAR_HEIGHT, POLAR_WIDTH) == (96, 448)
        assert not arr.flags.writeable
    for arr in (f.segmentation.noise_mask, f.raw.values, f.raw.valid, f.own_code, f.template.bits):
        assert not arr.flags.writeable
    assert f.template.mask is f.mask
    assert f.mask[:4].all() and f.mask[-4:].all()  # the 4 guard rows


def fields_of(value):
    """Every field of a result, nested: arrays as dtype, shape and bytes,
    everything else (circles, eyelids, floats) as its exact repr."""
    if dataclasses.is_dataclass(value):
        return [(f.name, fields_of(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the split needs 2 CPUs in the affinity mask")


class TestSplitEqualsInProcess:
    @pytest.fixture(scope="class")
    def images(self):
        # 8 images: where 2 processes share them, the caller runs 0-3 and a
        # worker 4-7; one blank image (no pupil-sized dark region) in each
        images = [r.image for r in build_corpus(3, 2, 2026).records]
        blank = GrayImage(np.full((192, 256), 127, dtype=np.uint8))
        images.insert(1, blank)
        images.insert(6, blank)
        return images

    @pytest.fixture(scope="class")
    def expected(self, images):
        kept, features = [], []
        for k, img in enumerate(images):
            try:
                features.append(fields_of(process_image(img, SegmentationConfig())))
            except SegmentationError as exc:
                assert "no pupil-sized dark region" in str(exc)
                continue
            kept.append(k)
        assert kept == [0, 2, 3, 4, 5, 7]
        return features, kept

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker counts of the pools process_images starts."""
        started = []

        class Recording(pipeline.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", Recording)
        return started

    @needs_two_cpus
    def test_split(self, images, expected, pools):
        features, kept = process_images(images, SegmentationConfig())
        assert pools == [1]
        assert ([fields_of(f) for f in features], kept) == expected

    def test_one_cpu_runs_in_process(self, images, expected, pools, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        features, kept = process_images(images, SegmentationConfig())
        assert pools == []
        assert ([fields_of(f) for f in features], kept) == expected

    @needs_two_cpus
    def test_other_errors_in_a_worker_propagate(self, images, pools):
        with pytest.raises(AttributeError) as in_process:
            process_image(None, SegmentationConfig())
        with pytest.raises(AttributeError) as split:
            process_images(images[:7] + [None], SegmentationConfig())
        assert pools == [1]
        assert str(split.value) == str(in_process.value)
