"""End-to-end per-image processing shared by enrollment, verification, and
the evaluation harness: segment, unwrap, enhance, and extract all three
feature representations.

Two robustness choices live here rather than in the feature modules.  The
outermost polar rows sample within about a pixel of the detected circle
boundaries, where 1 px Hough quantization lets pupil or sclera intensities
leak in, so ``GUARD_ROWS`` rows at each edge are masked after unwrapping.
And the Euler path consumes the un-equalized polar image: histogram
equalization redistributes intensities across all bit levels, which
scrambles the topology of the lower MSB planes without adding structure.

Images share no state, so ``process_images`` splits a corpus into contiguous
shares over the CPUs in the affinity mask: the calling process runs the first
share and forked workers the rest.  Each process gets at least
``MIN_IMAGES_PER_PROCESS`` images; below that the fork pool's start-up costs
about as much as it saves (2-CPU host: 2 images took 36.9 ms in-process and
36.6 ms split, 8 images 155 ms and 103 ms).  Workers are forked, not
spawned: a spawned worker would import numpy, scipy and this package again
(about 0.6 s), more than the split saves on a corpus of a hundred images.
Where the ``fork`` start method or the affinity mask is missing, every image
runs in the calling process.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .euler import euler_code
from .gasel import RawFeatureVector, extract_raw
from .imaging import GrayImage, freeze
from .normalization import enhance, rubber_sheet
from .segmentation import SegmentationConfig, SegmentationError, SegmentationResult, segment
from .zerocross import ZeroCrossTemplate, encode

GUARD_ROWS = 4
MIN_IMAGES_PER_PROCESS = 4
CHUNKS_PER_WORKER = 4     # a worker's share goes out in this many parts, so
                          # results come back while the caller runs its own


@dataclass(frozen=True)
class IrisFeatures:
    """Everything matching needs from one eye image; the polar arrays are
    read-only (96, 448) uint8."""

    segmentation: SegmentationResult
    polar: np.ndarray                 # un-equalized polar intensities (Euler path)
    enhanced: np.ndarray              # equalized variant (wavelet + block features)
    mask: np.ndarray                  # polar mask with the guard rows, 1 = invalid
    template: ZeroCrossTemplate
    own_code: np.ndarray              # Euler code under the image's own mask
    raw: RawFeatureVector


def _guard_rows(mask: np.ndarray) -> np.ndarray:
    mask = mask.copy()
    mask[:GUARD_ROWS, :] = 1
    mask[-GUARD_ROWS:, :] = 1
    return freeze(mask)


def process_image(img: GrayImage, cfg: SegmentationConfig) -> IrisFeatures:
    """Run the full feature pipeline on one image.

    Raises SegmentationError when boundary detection fails.
    """
    seg = segment(img, cfg)
    polar, mask = rubber_sheet(img, seg)
    mask = _guard_rows(mask)
    enhanced = enhance(polar, mask)
    return IrisFeatures(
        segmentation=seg,
        polar=polar,
        enhanced=enhanced,
        mask=mask,
        template=encode(enhanced, mask),
        own_code=euler_code(polar, mask),
        raw=extract_raw(enhanced, mask),
    )


def _process_share(images, cfg: SegmentationConfig) -> list[IrisFeatures | None]:
    """``process_image`` of each image, None where segmentation fails."""
    results = []
    for img in images:
        try:
            results.append(process_image(img, cfg))
        except SegmentationError:
            results.append(None)
    return results


def _read_only(f: IrisFeatures | None) -> IrisFeatures | None:
    """A worker's result with the write flags that pickling dropped put back;
    pickling keeps ``template.mask is mask``."""
    if f is not None:
        for arr in (f.segmentation.noise_mask, f.polar, f.enhanced, f.mask,
                    f.template.bits, f.own_code, f.raw.values, f.raw.valid):
            freeze(arr)
    return f


def _process_count(n_images: int) -> int:
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(len(os.sched_getaffinity(0)), n_images // MIN_IMAGES_PER_PROCESS)


def process_images(images, cfg: SegmentationConfig) -> tuple[list[IrisFeatures], list[int]]:
    """Features of every image that segments, and the indices of those images.

    An image whose boundary detection fails is skipped.  With more than one
    process (see the module docstring) the caller runs the first contiguous
    share and forked workers the rest; the results are the same either way.
    """
    images = list(images)
    processes = _process_count(len(images))
    if processes <= 1:
        results = _process_share(images, cfg)
    else:
        share = -(-len(images) // processes)
        rest = images[share:]
        chunk = -(-len(rest) // (CHUNKS_PER_WORKER * (processes - 1)))
        with ProcessPoolExecutor(processes - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_process_share, rest[i:i + chunk], cfg)
                       for i in range(0, len(rest), chunk)]
            results = _process_share(images[:share], cfg)
            for future in futures:
                results += map(_read_only, future.result())
    kept = [k for k, f in enumerate(results) if f is not None]
    return [results[k] for k in kept], kept
