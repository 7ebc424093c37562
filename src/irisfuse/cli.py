"""Command-line entry point.

Subcommands: synth, segment, enroll, verify, train-ga, evaluate.
Exit codes follow a stable scripting contract: 0 = success / accept, 1 =
domain-negative outcome (reject, segmentation failure, incomparable
templates), 2 = operational error (bad arguments, unreadable files, unknown
identities).  Every command is deterministic given its configuration and seed.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import store
from .config import RunConfig, load_config
from .evaluation import compute_metrics, error_rates, report_csv, roc_pgm, run_trials
from .fusion import ALGORITHMS
from .gasel import (
    build_pool,
    ga_select,
    rank_entropy,
    rank_knn,
    rank_rfe,
    rank_tstat,
)
from .imaging import load_pgm, save_pgm
from .normalization import IncomparableError, polar_debug_images
from .pipeline import process_image, process_images
from .segmentation import SegmentationError, circles_sidecar, segmentation_overlay
from .synth import build_corpus, load_corpus, save_corpus

ENV_CONFIG = "IRISFUSE_CONFIG"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_ERROR = 2


def _resolve_config(args) -> RunConfig:
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        return load_config(path)
    return RunConfig()


def _apply_seed(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    return cfg


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def cmd_synth(args) -> int:
    cfg = _apply_seed(_resolve_config(args), args)
    if args.identities < 1 or args.samples < 1:
        print("error: --identities and --samples must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    out = Path(args.out)
    corpus = build_corpus(args.identities, args.samples, cfg.rng_seed)
    save_corpus(corpus, out)
    (out / "effective_config.txt").write_text(cfg.to_text())
    print(f"wrote {len(corpus.records)} images for {corpus.identities} identities to {out}")
    return EXIT_OK


def cmd_segment(args) -> int:
    cfg = _resolve_config(args)
    src = Path(args.image)
    img = load_pgm(src.read_bytes())
    try:
        feats = process_image(img, cfg.pipeline())
    except SegmentationError as exc:
        print(f"segmentation failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    pupil, iris = feats.segmentation.pupil, feats.segmentation.iris
    out_dir = Path(args.out) if args.out else src.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    overlay = segmentation_overlay(img, pupil, iris)
    _atomic_write(out_dir / f"{src.stem}_overlay.pgm", save_pgm(overlay))
    (out_dir / f"{src.stem}_circles.txt").write_text(circles_sidecar(pupil, iris))
    if args.polar:
        polar_img, mask_img = polar_debug_images(feats.enhanced)
        _atomic_write(out_dir / f"{src.stem}_polar.pgm", save_pgm(polar_img))
        _atomic_write(out_dir / f"{src.stem}_polar_mask.pgm", save_pgm(mask_img))
    print(circles_sidecar(pupil, iris), end="")
    return EXIT_OK


def _check_output_dir(path: Path) -> Path:
    """Raise unless ``path`` is, or can be made, a writable directory.

    Commands check their output directory before any work but create it only
    when they write, so a run that fails leaves nothing behind.
    """
    existing = path
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "not a directory", str(existing))
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, "output directory is not writable", str(existing))
    return path


def _load_or_create_gallery(path: Path):
    if path.exists():
        return store.load(path)
    return store.empty_gallery()


def cmd_enroll(args) -> int:
    cfg = _resolve_config(args)
    path = Path(args.gallery)
    gallery = _load_or_create_gallery(path)
    samples = [load_pgm(Path(p).read_bytes()) for p in args.images]
    try:
        gallery = store.enroll(gallery, args.id, samples, cfg.pipeline())
    except SegmentationError as exc:
        print(f"enrollment failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _atomic_write(path, store.to_bytes(gallery))
    print(f"enrolled {args.id!r}; gallery now holds {len(gallery.records)} identities")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    gallery = store.load(Path(args.gallery))
    probe = load_pgm(Path(args.image).read_bytes())
    try:
        decision, raw, fused = store.verify(
            gallery, args.id, probe, cfg.fusion_policy(), cfg.pipeline()
        )
    except (SegmentationError, IncomparableError) as exc:
        print(f"verification impossible: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    for algo in ALGORITHMS:
        print(f"{algo} distance: {raw[algo]:.6f}")
    print(f"fused similarity: {fused:.6f}")
    print("ACCEPT" if decision.accepted else "REJECT")
    return EXIT_OK if decision.accepted else EXIT_DOMAIN


def cmd_train_ga(args) -> int:
    cfg = _apply_seed(_resolve_config(args), args)
    if args.generations is not None:
        cfg = replace(cfg, ga_max_generations=args.generations)
    gallery_path = Path(args.gallery)
    out_dir = _check_output_dir(Path(args.out) if args.out else gallery_path.parent)
    corpus = load_corpus(Path(args.corpus))

    features, kept = process_images([r.image for r in corpus.records], cfg.pipeline())
    y = np.asarray([corpus.records[k].identity for k in kept])
    if len(set(y)) < 2:
        print("error: training corpus needs at least 2 segmentable identities", file=sys.stderr)
        return EXIT_ERROR
    totals = Counter(r.identity for r in corpus.records)
    segmented = Counter(y.tolist())
    short = [f"{i} ({segmented[i]} of {totals[i]} segmented)"
             for i in sorted(totals) if segmented[i] < 2]
    if short:
        print("error: every identity needs at least 2 segmented samples; too few for identity "
              + ", ".join(short), file=sys.stderr)
        return EXIT_ERROR
    X = np.vstack([f.raw.values for f in features])

    rankings = [rank_entropy(X, y), rank_tstat(X, y), rank_knn(X, y), rank_rfe(X, y)]
    top_k = min(cfg.ga_top_k, X.shape[1])
    pool = build_pool(rankings, top_k=top_k)
    result = ga_select(pool, X, y, cfg.ga())

    gallery = store.with_selection(_load_or_create_gallery(gallery_path), pool, result.best,
                                   cfg.pipeline())
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(gallery_path, store.to_bytes(gallery))

    history_lines = ["generation,best_cost"] + [
        f"{g},{c:.9f}" for g, c in enumerate(result.history)
    ]
    (out_dir / "ga_history.csv").write_text("\n".join(history_lines) + "\n")
    (out_dir / "effective_config.txt").write_text(cfg.to_text())
    selected = int(result.best.genes.sum())
    print(
        f"pool {len(pool)} features, selected {selected}, "
        f"best cost {result.history[-1]:.6f} after {len(result.history) - 1} generations "
        f"({result.evaluations} evaluations)"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _apply_seed(_resolve_config(args), args)
    if not args.corpus and args.identities < 2:
        print("error: need at least 2 identities to evaluate", file=sys.stderr)
        return EXIT_ERROR
    out = _check_output_dir(Path(args.out))
    if args.corpus:
        # the seed samples the imposter pairs, as it does for a built corpus
        corpus = replace(load_corpus(Path(args.corpus)), master_seed=cfg.rng_seed)
    else:
        corpus = build_corpus(args.identities, args.samples, cfg.rng_seed)

    selection = None
    if args.gallery:
        gallery = store.load(Path(args.gallery))
        selection = (gallery.pool, gallery.chromosome)

    policy = cfg.fusion_policy()
    outcome = run_trials(corpus, cfg.pipeline(), policy, selection)

    out.mkdir(parents=True, exist_ok=True)
    summary = []
    streams = {**outcome.per_algorithm, "fused": outcome.fused}
    for name, trials in streams.items():
        report = compute_metrics(trials)
        (out / f"{name}.csv").write_text(report_csv(report))
        _atomic_write(out / f"roc_{name}.pgm", save_pgm(roc_pgm(report)))
        far, frr = error_rates(trials, policy.threshold)
        summary.append(f"{name} EER {report.eer:.6f} at threshold {report.eer_threshold:.6f}; "
                       f"FAR {far:.6f} FRR {frr:.6f} at fusion_threshold {policy.threshold:.6f}")
    summary.append(f"failures {outcome.failures} of {len(corpus.records)} images")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    (out / "effective_config.txt").write_text(cfg.to_text())
    for line in summary:
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irisfuse",
        description="Multi-algorithm iris verification: synthesis, enrollment, "
        "verification, GA feature selection, and evaluation.",
    )
    parser.add_argument("--config", help=f"config file path (fallback: ${ENV_CONFIG})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic eye corpus")
    p.add_argument("--identities", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("segment", help="detect circles and write debug overlays")
    p.add_argument("image")
    p.add_argument("--out", default=None)
    p.add_argument("--polar", action="store_true", help="also dump the unwrapped polar image")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("enroll", help="add an identity to a gallery")
    p.add_argument("--gallery", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("images", nargs="+")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("verify", help="verify a probe image against a claimed identity")
    p.add_argument("--gallery", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("image")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train-ga", help="rank features, build the pool, and evolve a subset")
    p.add_argument("--corpus", required=True, help="labeled corpus directory (from synth)")
    p.add_argument("--gallery", required=True)
    p.add_argument("--generations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_ga)

    p = sub.add_parser("evaluate", help="run verification trials and report FAR/FRR/EER")
    p.add_argument("--corpus", default=None, help="corpus directory; omit to synthesize")
    p.add_argument("--identities", type=int, default=50)
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--gallery", default=None, help="use this gallery's GA selection")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
