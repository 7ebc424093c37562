"""Span recording around the public functions of the irisfuse modules.

The traced run installs a ``Tracer``: it replaces each listed function, in
every loaded ``irisfuse`` module that holds a reference to it, with a wrapper
that records one span per call.  The program itself is unchanged, so the
traced run executes exactly the calls of the untraced run, in the same order.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field

PROCESS_IMAGE = "pipeline.process_image"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str                     # client operation, e.g. "verify:eye_003->eye_004"
    image: int | None           # per-run index of the enclosing process_image call
    pair: int | None            # per-run index of the scored pair (see Tracer._wrap)
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _eyelids_found(result) -> dict:
    return {"eyelids_found": sum(lid is not None for lid in result)}


# (module, function, counter derived from the return value)
TRACED = [
    ("pipeline", "process_image", None),
    ("segmentation", "segment", None),
    ("segmentation", "edge_map", lambda r: {"edge_points": len(r)}),
    ("segmentation", "locate_pupil_and_iris", None),
    ("segmentation", "circular_hough", None),
    ("segmentation", "detect_eyelids", _eyelids_found),
    ("segmentation", "parabolic_hough", None),
    ("segmentation", "build_noise_mask", None),
    ("normalization", "rubber_sheet", None),
    ("normalization", "enhance", None),
    ("zerocross", "encode", None),
    ("zerocross", "match", None),
    ("euler", "euler_code", None),
    ("euler", "common_mask", None),
    ("euler", "mahalanobis", None),
    ("euler", "calibrated_covariance", None),
    ("gasel", "extract_raw", None),
    ("gasel", "match_subset", None),
    ("gasel", "rank_entropy", None),
    ("gasel", "rank_tstat", None),
    ("gasel", "rank_knn", None),
    ("gasel", "rank_rfe", None),
    ("gasel", "build_pool", None),
    ("gasel", "ga_select", None),
    ("fusion", "normalize", None),
    ("fusion", "fuse", None),
    ("fusion", "decide", None),
    ("evaluation", "run_trials", None),
    ("evaluation", "compute_metrics", None),
    ("evaluation", "report_csv", None),
    ("store", "load", None),
    ("store", "save", None),
    ("store", "enroll", None),
    ("store", "verify", None),
]


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[Span] = []
        self._images = 0
        self._pairs = 0
        self._pair_of: dict[int | None, int] = {}   # parent span id -> current pair
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == "irisfuse" or name.startswith("irisfuse.")]
        for module_name, func_name, counter in TRACED:
            original = getattr(sys.modules[f"irisfuse.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, original, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            parent_id = parent.id if parent else None
            image = parent.image if parent else None
            if name == PROCESS_IMAGE:
                image = self._images
                self._images += 1
            # pair scoring (run_trials, enroll's recalibration) starts each
            # pair with a zerocross match; its siblings until the next one
            # belong to the same pair
            if name == "zerocross.match" and image is None:
                self._pair_of[parent_id] = self._pairs
                self._pairs += 1
            pair = parent.pair if parent else None
            if image is None and parent_id in self._pair_of:
                pair = self._pair_of[parent_id]
            span = Span(len(self.spans), name, 0.0, 0.0, parent_id, self.op, image, pair)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON object per span, with its self time added."""
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = asdict(span)
                record["self"] = own[span.id]
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Calls run on one thread, so children never overlap and their durations
    simply add up.
    """
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own
