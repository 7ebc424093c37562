import hashlib

import numpy as np

from irisfuse.imaging import GrayImage
from irisfuse.pipeline import PipelineConfig, process_image, process_images
from irisfuse.synth import build_corpus


def test_process_images_skips_failures_and_reports_kept_indices():
    good = [r.image for r in build_corpus(1, 2, master_seed=5).records]
    blank = GrayImage(np.full((192, 256), 127, dtype=np.uint8))
    tiny = GrayImage(np.zeros((3, 3), dtype=np.uint8))
    cfg = PipelineConfig()
    features, kept = process_images([blank, good[0], tiny, good[1]], cfg)
    assert kept == [1, 3]
    for f, img in zip(features, good):
        assert np.array_equal(f.template.bits, process_image(img, cfg).template.bits)
    assert process_images([blank, tiny], cfg) == ([], [])


class TestPinnedPipeline:
    # sha256 of every array process_image hands to the matchers: the polar
    # image and mask, the template bits and the block values and validity,
    # each with its dtype and shape.  A segmentation kernel that moves one
    # mask pixel moves a polar sample and changes it.
    DIGEST = "83b258372153a572d774564d94c177f774bf3b78cba70a6cf20e1f3217a99a10"

    def test_process_image_outputs_are_unchanged(self):
        images = [rec.image for rec in build_corpus(4, 2, 2026).records]
        images += [GrayImage(np.random.default_rng(seed).integers(0, 256, (192, 256), dtype=np.uint8))
                   for seed in (0, 1)]
        cfg = PipelineConfig()
        digest = hashlib.sha256()
        for img in images:
            f = process_image(img, cfg)
            for arr in (f.polar.intensities, f.polar.mask.bits, f.template.bits,
                        f.raw.values, f.raw.valid):
                digest.update(f"{arr.dtype.str} {arr.shape}\n".encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
        assert digest.hexdigest() == self.DIGEST
