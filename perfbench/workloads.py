"""The three benchmark workloads: evaluate, gallery and train-ga.

Each workload builds its inputs from the seed in ``setup`` and runs one
client job in ``job``.  A job calls the library the way the matching
``irisfuse`` command does, in this process, so interpreter start-up stays out
of the numbers.  Every library call goes through a module attribute
(``store.verify``, not a local name), so the traced run's wrappers see it.

Sizes: ``full`` is the acceptance scale (``build_corpus(50, 4)``, a 50-identity
gallery, the 200x672 GA problem).  The default bench scale keeps the same
mix of work per image and per pair at a smaller count, so that one job fits
in a run of a few tens of seconds.
"""

from __future__ import annotations

import math
import os
import shutil
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from irisfuse import config, evaluation, gasel, imaging, store, synth
from irisfuse.segmentation import SegmentationError
from oracles import planted_problem

# acceptance-corpus EERs at seed 2026, full scale (4 dp)
ACCEPTANCE_SEED = 2026
ACCEPTANCE_EERS = {"zerocross": 0.0028, "euler": 0.1810, "gasel": 0.0945, "fused": 0.0035}

VERIFIES = 100            # read-phase size: enough samples for a p90
GA_FEATURES = 672         # block features per image in the acceptance corpus
GA_INFORMATIVE = 20


@dataclass
class JobResult:
    seconds: float                  # the workload's batch time (job_s)
    latencies: list[float]          # client operation latencies, seconds
    attempted: int
    failed: int
    output: bytes                   # canonical bytes of everything the program returned
    named: dict[str, tuple[float, str]] = field(default_factory=dict)   # per-workload metrics
    counts: dict[str, float] = field(default_factory=dict)             # per-layer counts
    problems: list[str] = field(default_factory=list)


def _f64(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def warm_up() -> None:
    """Exercise the image pipeline, the matchers and the metrics once.

    This fills lazy state (the Hough ring-offset cache, scipy's first-call
    set-up, wavelet kernels) so that set-up pays for it, not the first job.
    The tiny corpus has a fixed seed on which all four images segment.
    """
    tiny = synth.build_corpus(2, 2, ACCEPTANCE_SEED)
    outcome = evaluation.run_trials(tiny)
    evaluation.compute_metrics(outcome.fused)


class Workload:
    def mark(self, label: str) -> None:
        """Names the client operation that starts now (the traced run's span ids)."""


class Evaluate(Workload):
    """A researcher's FAR/FRR/EER run: `irisfuse evaluate` without file output."""

    name = "evaluate"
    samples = 4

    def __init__(self, seed: int, full: bool, workdir: Path):
        self.seed = seed
        self.full = full
        self.identities = 50 if full else 30

    def setup(self) -> dict[str, float]:
        t = time.perf_counter()
        self.corpus = synth.build_corpus(self.identities, self.samples, self.seed)
        built = time.perf_counter() - t
        warm_up()
        return {"build_corpus_s": built}

    def job(self) -> JobResult:
        self.mark("evaluate")
        cfg = config.RunConfig(rng_seed=self.seed)
        t0 = time.perf_counter()
        outcome = evaluation.run_trials(self.corpus, cfg.pipeline(), cfg.fusion_policy())
        streams = {**outcome.per_algorithm, "fused": outcome.fused}
        reports = {name: evaluation.compute_metrics(trials) for name, trials in streams.items()}
        csvs = {name: evaluation.report_csv(report) for name, report in reports.items()}
        seconds = time.perf_counter() - t0

        genuine, imposter = len(outcome.fused.genuine), len(outcome.fused.imposter)
        output = b"".join(
            csvs[name].encode() + _f64(trials.genuine) + _f64(trials.imposter)
            for name, trials in streams.items()
        )
        images = len(self.corpus.records)
        result = JobResult(
            seconds=seconds,
            latencies=[seconds],
            attempted=images + genuine + imposter,
            failed=outcome.failures,
            output=output,
            named={"evaluate_s": (seconds, "s")} | {
                f"eer_{name}": (report.eer, "ratio") for name, report in reports.items()
            },
            counts={"evaluation.pairs_genuine": genuine, "evaluation.pairs_imposter": imposter},
        )

        # an image that fails segmentation is a counted failure, not a wrong
        # output; it removes its pairs from the trials
        if outcome.processed + outcome.failures != images:
            result.problems.append(f"{outcome.processed} processed + {outcome.failures} "
                                   f"failed images != {images}")
        want_genuine = self.identities * math.comb(self.samples, 2)
        if outcome.failures == 0 and genuine != want_genuine:
            result.problems.append(f"expected {want_genuine} genuine trials, got {genuine}")
        if imposter != evaluation.IMPOSTER_CAP_FACTOR * genuine:
            result.problems.append(f"expected {evaluation.IMPOSTER_CAP_FACTOR}x as many "
                                   f"imposter as genuine trials, got {imposter} and {genuine}")
        for name, trials in streams.items():
            scores = np.concatenate([trials.genuine, trials.imposter])
            if not (np.all(np.isfinite(scores)) and scores.min() >= 0.0 and scores.max() <= 1.0):
                result.problems.append(f"{name} similarities leave [0, 1]")
            if not trials.genuine.mean() > trials.imposter.mean():
                result.problems.append(f"{name} genuine scores do not exceed imposter scores")
        if self.full and self.seed == ACCEPTANCE_SEED:
            for name, want in ACCEPTANCE_EERS.items():
                got = round(reports[name].eer, 4)
                if got != want:
                    result.problems.append(f"{name} EER {got:.4f} != acceptance {want:.4f}")
        return result


class Gallery(Workload):
    """One closed-loop client: enroll every identity, then verify claims.

    Each operation repeats what `irisfuse enroll` / `irisfuse verify` do:
    read the gallery file and the PGM bytes, call the library, and (enroll)
    replace the gallery file atomically.
    """

    name = "gallery"
    samples = 3

    def __init__(self, seed: int, full: bool, workdir: Path):
        self.seed = seed
        self.identities = 50 if full else 25
        self.workdir = workdir

    def setup(self) -> dict[str, float]:
        t = time.perf_counter()
        corpus = synth.build_corpus(self.identities, self.samples, self.seed)
        built = time.perf_counter() - t
        corpus_dir = self.workdir / "corpus"
        shutil.rmtree(corpus_dir, ignore_errors=True)
        synth.save_corpus(corpus, corpus_dir)
        self.files = {
            i: [corpus_dir / f"eye_{i:03d}_{s:02d}.pgm" for s in range(self.samples)]
            for i in range(self.identities)
        }
        warm_up()
        empty = self.workdir / "empty.irf"
        store.save(store.empty_gallery(), empty)
        store.load(empty)
        return {"build_corpus_s": built}

    def _claims(self) -> list[tuple[int, int]]:
        per_probe = max(1, VERIFIES // self.identities)
        return [(probe, (probe + d) % self.identities)
                for probe in range(self.identities) for d in range(per_probe)]

    def job(self) -> JobResult:
        path = self.workdir / "gallery.irf"
        path.unlink(missing_ok=True)
        attempted = failed = 0
        problems = []
        enrolled = set()

        t0 = time.perf_counter()
        for ident in range(self.identities):
            self.mark(f"enroll:eye_{ident:03d}")
            attempted += 1
            try:
                cfg = config.RunConfig()
                gallery = store.load(path) if path.exists() else store.empty_gallery()
                samples = [imaging.load_pgm(p.read_bytes()) for p in self.files[ident][:2]]
                gallery = store.enroll(gallery, f"eye_{ident:03d}", samples, cfg.pipeline())
                tmp = path.with_suffix(".irf.tmp")
                store.save(gallery, tmp)
                os.replace(tmp, path)
                enrolled.add(ident)
            except SegmentationError:
                failed += 1   # no sample segmented: a counted failure, as in `irisfuse enroll`
            except Exception as exc:  # anything else is a defect: count it and report it
                failed += 1
                problems.append(f"enroll eye_{ident:03d}: {type(exc).__name__}: {exc}")
        enroll_s = time.perf_counter() - t0

        latencies, outcomes = [], bytearray()
        accepted = {True: [], False: []}   # genuine claim? -> accept flags
        for probe, claim in self._claims():
            self.mark(f"verify:eye_{probe:03d}->eye_{claim:03d}")
            attempted += 1
            if claim not in enrolled:
                failed += 1   # follows from that identity's failed enrollment
                continue
            t = time.perf_counter()
            try:
                cfg = config.RunConfig()
                gallery = store.load(path)
                image = imaging.load_pgm(self.files[probe][2].read_bytes())
                decision, raw, fused = store.verify(
                    gallery, f"eye_{claim:03d}", image, cfg.fusion_policy(), cfg.pipeline()
                )
            except SegmentationError:
                failed += 1
                continue
            except Exception as exc:
                failed += 1
                problems.append(f"verify eye_{probe:03d} as eye_{claim:03d}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t)
            values = [raw[a] for a in sorted(raw)] + [fused]
            if not all(math.isfinite(v) for v in values) or not 0.0 <= fused <= 1.0:
                problems.append(f"verify eye_{probe:03d}: non-finite or out-of-range score")
            outcomes += struct.pack("<?4d", decision.accepted, *values)
            accepted[probe == claim].append(decision.accepted)
        read_s = time.perf_counter() - t0 - enroll_s

        data = path.read_bytes() if path.exists() else b""
        copy = self.workdir / "roundtrip.irf"
        if data:
            store.save(store.load(path), copy)
            if copy.read_bytes() != data:
                problems.append("gallery save -> load -> save is not byte-identical")
        else:
            problems.append("no gallery file was written")

        far = float(np.mean(accepted[False])) if accepted[False] else 1.0
        frr = 1.0 - float(np.mean(accepted[True])) if accepted[True] else 1.0
        return JobResult(
            seconds=enroll_s + read_s,
            latencies=latencies,
            attempted=attempted,
            failed=failed,
            output=data + bytes(outcomes),
            named={
                "enroll_s": (enroll_s, "s"),
                "verify_s": (read_s, "s"),
                "verify_far": (far, "ratio"),
                "verify_frr": (frr, "ratio"),
            },
            counts={"store.gallery_bytes": len(data)},
            problems=problems,
        )


class TrainGa(Workload):
    """`irisfuse train-ga` on a planted feature-selection problem.

    The problem has the acceptance corpus's feature width (672 block
    features) with 20 informative features; it involves no segmentation.
    The GA runs all of its generations (see ``job``).
    """

    name = "train-ga"
    per_class = 4

    def __init__(self, seed: int, full: bool, workdir: Path):
        self.seed = seed
        self.classes = 50 if full else 40

    def setup(self) -> dict[str, float]:
        self.X, self.y, self.informative = planted_problem(
            self.seed, n_features=GA_FEATURES, n_informative=GA_INFORMATIVE,
            classes=self.classes, per_class=self.per_class,
        )
        X, y, _ = planted_problem(ACCEPTANCE_SEED, n_features=40, n_informative=4,
                                  classes=4, per_class=4)
        rankings = [gasel.rank_entropy(X, y), gasel.rank_tstat(X, y),
                    gasel.rank_knn(X, y), gasel.rank_rfe(X, y)]
        pool = gasel.build_pool(rankings, top_k=8)
        gasel.ga_select(pool, X, y, gasel.GaConfig(max_generations=1))
        return {}

    def job(self) -> JobResult:
        self.mark("train-ga")
        # RunConfig's GA defaults without the stall criterion: with it, the
        # generation count (112-200) and so the job time depend on the seed
        cfg = replace(config.RunConfig(rng_seed=self.seed), ga_stall_generations=0)
        X, y = self.X, self.y
        t0 = time.perf_counter()
        rankings = [gasel.rank_entropy(X, y), gasel.rank_tstat(X, y),
                    gasel.rank_knn(X, y), gasel.rank_rfe(X, y)]
        pool = gasel.build_pool(rankings, top_k=min(cfg.ga_top_k, X.shape[1]))
        result = gasel.ga_select(pool, X, y, cfg.ga())
        seconds = time.perf_counter() - t0

        chosen = {int(i) for i in result.best.selected(pool)}
        generations = len(result.history) - 1
        problems = []
        if np.any(np.diff(result.history) > 0):
            problems.append("GA best-cost history increases")
        if not chosen:
            problems.append("GA selected no features")
        output = b"".join(np.asarray(r, dtype="<i8").tobytes() for r in rankings)
        output += np.asarray(pool.indices, dtype="<i8").tobytes()
        output += result.best.genes.tobytes() + _f64(result.history)
        return JobResult(
            seconds=seconds,
            latencies=[seconds],
            attempted=len(rankings) + 2,
            failed=0,
            output=output,
            named={
                "train_ga_s": (seconds, "s"),
                "ga_planted_recall": (len(chosen & self.informative) / GA_INFORMATIVE, "ratio"),
            },
            counts={
                "gasel.ga_evaluations": result.evaluations,
                "gasel.ga_generations": generations,
                "gasel.ga_fresh_ratio":
                    result.evaluations / (cfg.ga_population * (generations + 1)),
            },
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (Evaluate, Gallery, TrainGa)}
