"""Per-layer metrics derived from the traced run's spans.

Timings are medians over calls (inclusive of child spans) unless the name
says otherwise; ``<module>.self_s`` sums the self time of the module's spans
over the traced job.  A layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from spans import PROCESS_IMAGE, Span, self_times

SELF_MODULES = ("segmentation", "normalization", "zerocross", "euler", "gasel",
                "fusion", "evaluation", "store", "pipeline")

# (metric, unit, span name, scale to unit)
MEDIAN_CALL = [
    ("segmentation.edge_map_ms", "ms", "segmentation.edge_map", 1e3),
    ("segmentation.circles_ms", "ms", "segmentation.locate_pupil_and_iris", 1e3),
    ("segmentation.iris_hough_ms", "ms", "segmentation.circular_hough", 1e3),
    ("segmentation.eyelids_ms", "ms", "segmentation.detect_eyelids", 1e3),
    ("segmentation.parabolic_hough_ms", "ms", "segmentation.parabolic_hough", 1e3),
    ("segmentation.noise_mask_ms", "ms", "segmentation.build_noise_mask", 1e3),
    ("normalization.rubber_sheet_ms", "ms", "normalization.rubber_sheet", 1e3),
    ("normalization.enhance_ms", "ms", "normalization.enhance", 1e3),
    ("zerocross.encode_ms", "ms", "zerocross.encode", 1e3),
    ("gasel.extract_raw_ms", "ms", "gasel.extract_raw", 1e3),
    ("pipeline.process_image_ms", "ms", PROCESS_IMAGE, 1e3),
    ("zerocross.match_ms", "ms", "zerocross.match", 1e3),
    ("euler.mahalanobis_us", "us", "euler.mahalanobis", 1e6),
    ("gasel.match_us", "us", "gasel.match_subset", 1e6),
    ("store.load_ms", "ms", "store.load", 1e3),
    ("store.save_ms", "ms", "store.save", 1e3),
    ("store.enroll_ms", "ms", "store.enroll", 1e3),
    ("store.verify_ms", "ms", "store.verify", 1e3),
    ("evaluation.compute_metrics_ms", "ms", "evaluation.compute_metrics", 1e3),
    ("gasel.rank_entropy_s", "s", "gasel.rank_entropy", 1.0),
    ("gasel.rank_tstat_s", "s", "gasel.rank_tstat", 1.0),
    ("gasel.rank_knn_s", "s", "gasel.rank_knn", 1.0),
    ("gasel.rank_rfe_s", "s", "gasel.rank_rfe", 1.0),
    ("gasel.build_pool_ms", "ms", "gasel.build_pool", 1e3),
    ("gasel.ga_s", "s", "gasel.ga_select", 1.0),
]

COUNTS = ["store.gallery_bytes", "evaluation.pairs_genuine", "evaluation.pairs_imposter",
          "gasel.ga_evaluations", "gasel.ga_generations", "gasel.ga_fresh_ratio"]

COUNT_UNITS = {"store.gallery_bytes": "bytes", "gasel.ga_fresh_ratio": "ratio"}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(spans: list[Span], counts: dict[str, float], build_corpus_s: float,
              overhead_pct: float) -> dict[str, tuple[float, str]]:
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)
    in_image = [s.parent is not None and spans[s.parent].name == PROCESS_IMAGE for s in spans]

    out: dict[str, tuple[float, str]] = {}
    for metric, unit, name, scale in MEDIAN_CALL:
        out[metric] = (_median(s.seconds for s in by_name.get(name, ())) * scale, unit)

    circles = by_name.get("segmentation.locate_pupil_and_iris", ())
    # locate_pupil_and_iris minus its edge maps and iris Hough: the pupil Hough
    out["segmentation.circles_self_ms"] = (_median(own[s.id] for s in circles) * 1e3, "ms")
    edges = by_name.get("segmentation.edge_map", ())
    out["segmentation.edge_points"] = (_median(s.counts["edge_points"] for s in edges if s.counts), "count")
    out["segmentation.eyelids_found"] = (
        sum(s.counts.get("eyelids_found", 0) for s in by_name.get("segmentation.detect_eyelids", ())),
        "count")
    out["segmentation.failures"] = (
        sum(s.error is not None for s in by_name.get("segmentation.segment", ())), "count")

    codes = by_name.get("euler.euler_code", ())
    out["euler.code_ms"] = (_median(s.seconds for s in codes if in_image[s.id]) * 1e3, "ms")
    out["euler.pair_code_ms"] = (_median(_pair_code_seconds(spans, in_image)) * 1e3, "ms")

    fuses = by_name.get("fusion.fuse", ())
    normalize_fuse = sum(s.seconds for s in by_name.get("fusion.normalize", ()))
    normalize_fuse += sum(s.seconds for s in fuses)
    out["fusion.normalize_fuse_us"] = (normalize_fuse / len(fuses) * 1e6 if fuses else 0.0, "us")

    for metric in COUNTS:
        out[metric] = (counts.get(metric, 0), COUNT_UNITS.get(metric, "count"))
    evaluations = counts.get("gasel.ga_evaluations", 0)
    ga = sum(s.seconds for s in by_name.get("gasel.ga_select", ()))
    out["gasel.ga_eval_us"] = (ga / evaluations * 1e6 if evaluations else 0.0, "us")

    out["synth.build_corpus_s"] = (build_corpus_s, "s")
    for module in SELF_MODULES:
        total = sum(own[s.id] for s in spans if s.name.startswith(module + "."))
        out[f"{module}.self_s"] = (total, "s")
    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def _pair_code_seconds(spans: list[Span], in_image: list[bool]) -> list[float]:
    """Euler codes under a pair's common mask: each common_mask call plus the
    euler_code calls that follow it under the same parent."""
    groups: dict[int | None, float] = {}
    totals = []
    for s in spans:
        if in_image[s.id]:
            continue
        if s.name == "euler.common_mask":
            if s.parent in groups:
                totals.append(groups[s.parent])
            groups[s.parent] = s.seconds
        elif s.name == "euler.euler_code" and s.parent in groups:
            groups[s.parent] += s.seconds
    return totals + list(groups.values())
