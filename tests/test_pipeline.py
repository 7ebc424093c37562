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
