"""End-to-end per-image processing shared by enrollment, verification, and
the evaluation harness: segment, unwrap, enhance, and extract all three
feature representations.

``process_image`` returns one image's ``IrisFeatures``; ``process_images``
returns one ``FeatureTable``, a row per image that segments, whose columns
the trials, enrollment, the gallery file and GA training all read.

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

from .euler import MSB_PLANES, euler_code
from .gasel import FEATURE_COUNT, extract_raw
from .imaging import GrayImage, freeze
from .normalization import POLAR_HEIGHT, POLAR_WIDTH, enhance, rubber_sheet
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
    values: np.ndarray                # (672,) block means
    valid: np.ndarray                 # (672,) block validity


_ROW_SHAPES = {"euler": (np.int64, (MSB_PLANES,)), "values": (np.float64, (FEATURE_COUNT,)),
               "valid": (bool, (FEATURE_COUNT,)), "polar": (np.uint8, (POLAR_HEIGHT, POLAR_WIDTH))}


@dataclass(frozen=True)
class FeatureTable:
    """One row per image: ``euler`` (N, 4) int64 own-mask codes, ``values``
    (N, 672) float64 block means, ``valid`` (N, 672) bool, ``polar`` (N, 96,
    448) uint8 or None.  The constructor stacks each column from rows (zero
    rows too) and freezes every array it holds, each template's bits and
    mask too, so a table pickled back from a worker is frozen."""

    templates: tuple[ZeroCrossTemplate, ...]
    euler: np.ndarray
    values: np.ndarray
    valid: np.ndarray
    polar: np.ndarray | None = None   # read only by the union-mask Euler codes of run_trials

    def __post_init__(self):
        for name, (dtype, row) in _ROW_SHAPES.items():
            if (column := getattr(self, name)) is not None:
                object.__setattr__(self, name, freeze(np.asarray(column, dtype).reshape(-1, *row)))
        for t in self.templates:
            freeze(t.bits)
            freeze(t.mask)

    def __len__(self) -> int:
        return len(self.templates)


def concat(tables) -> FeatureTable:
    """The rows of ``tables`` in order; with polar images only if every table has them."""
    columns = {name: None if any(getattr(t, name) is None for t in tables)
               else np.concatenate([getattr(t, name) for t in tables]) for name in _ROW_SHAPES}
    return FeatureTable(sum((t.templates for t in tables), ()), **columns)


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
    return IrisFeatures(seg, polar, enhanced, mask, encode(enhanced, mask), euler_code(polar, mask),
                        *extract_raw(enhanced, mask))


def _process_share(images, cfg: SegmentationConfig, start: int = 0) -> tuple[FeatureTable, list[int]]:
    """The table of the images that segment, and their indices counted from ``start``."""
    features, kept = [], []
    for k, img in enumerate(images, start):
        try:
            features.append(process_image(img, cfg))
        except SegmentationError:
            continue
        kept.append(k)
    table = FeatureTable(tuple(f.template for f in features), [f.own_code for f in features],
                         [f.values for f in features], [f.valid for f in features],
                         [f.polar for f in features])
    return table, kept


def _process_count(n_images: int) -> int:
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(len(os.sched_getaffinity(0)), n_images // MIN_IMAGES_PER_PROCESS)


def process_images(images, cfg: SegmentationConfig) -> tuple[FeatureTable, list[int]]:
    """The table of every image that segments, and the indices of those images.

    An image whose boundary detection fails is skipped.  With more than one
    process (see the module docstring) the caller runs the first contiguous
    share and forked workers the rest, one table per chunk; the result is
    the same either way.
    """
    images = list(images)
    processes = _process_count(len(images))
    if processes <= 1:
        return _process_share(images, cfg)
    share = -(-len(images) // processes)
    rest = images[share:]
    chunk = -(-len(rest) // (CHUNKS_PER_WORKER * (processes - 1)))
    with ProcessPoolExecutor(processes - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_process_share, rest[i:i + chunk], cfg, share + i)
                   for i in range(0, len(rest), chunk)]
        shares = [_process_share(images[:share], cfg)] + [f.result() for f in futures]
    tables, kept = zip(*shares)
    return concat(tables), [k for chunk_kept in kept for k in chunk_kept]
