"""Deterministic synthetic eye images with exact ground truth.

The generator exists because no eye-image dataset ships with this package;
it renders a dark pupil disk, a textured iris annulus, a bright sclera,
optional parabolic eyelid occlusions and saturated specular dots, plus
clipped Gaussian noise.  The iris texture is a sum of six radial-angular
sinusoids parameterized in normalized annulus coordinates, so two samples
of the same identity carry the same unwrapped pattern regardless of circle
jitter, rotation, or scale.  Each step renders only the pixels it can
change: the pupil and iris tests run in the iris bounding box, the inverse
rubber-sheet map and the texture on the annulus pixels alone, each specular
dot in its own box, and the eyelids and the noise over the whole frame.
Every image is a pure function of its spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .imaging import GrayImage, load_pgm, save_pgm
from .segmentation import Circle, Parabola, SegmentationResult, _span, build_noise_mask

PUPIL_LEVEL = 30
IRIS_BASE = 120
SCLERA_LEVEL = 220
EYELID_LEVEL = 200
SPECULAR_LEVEL = 255

TEXTURE_WAVES = 6

# Default corpus geometry (kept modest so Hough voting stays fast).
CORPUS_WIDTH = 256
CORPUS_HEIGHT = 192


@dataclass(frozen=True)
class SynthEyeSpec:
    width: int
    height: int
    pupil: Circle
    iris: Circle
    texture_seed: int
    eyelid_coverage: float = 0.0
    specular_spots: int = 0
    noise_sigma: float = 0.0
    rotation: float = 0.0  # radians, texture rotation about the pupil center
    noise_seed: int = 0

    def __post_init__(self):
        ratio = self.pupil.r / self.iris.r
        if not 0.10 <= ratio <= 0.80:
            raise ValueError(f"pupil/iris diameter ratio {ratio:.3f} outside [0.10, 0.80]")
        if not self.iris.encloses(self.pupil):
            raise ValueError("pupil circle must lie inside the iris circle")
        if (
            self.iris.cx - self.iris.r < 0
            or self.iris.cy - self.iris.r < 0
            or self.iris.cx + self.iris.r > self.width - 1
            or self.iris.cy + self.iris.r > self.height - 1
        ):
            raise ValueError("iris circle must lie inside the image")
        if not 0.0 <= self.eyelid_coverage <= 0.4:
            raise ValueError(f"eyelid coverage {self.eyelid_coverage} outside [0, 0.4]")
        if self.specular_spots < 0 or self.noise_sigma < 0:
            raise ValueError("specular spot count and noise sigma must be nonnegative")


@dataclass(frozen=True)
class CorpusRecord:
    identity: int
    sample: int
    spec: SynthEyeSpec | None
    image: GrayImage
    truth: SegmentationResult | None


@dataclass(frozen=True)
class Corpus:
    master_seed: int
    records: tuple[CorpusRecord, ...]

    @property
    def identities(self) -> int:
        return len({r.identity for r in self.records})

    def manifest(self) -> str:
        lines = []
        for r in self.records:
            p, i = r.truth.pupil, r.truth.iris
            seed = "-" if r.spec is None else r.spec.texture_seed
            lines.append(
                f"eye_{r.identity:03d}_{r.sample:02d}.pgm {r.identity} {seed} "
                f"{p.cx!r} {p.cy!r} {p.r!r} {i.cx!r} {i.cy!r} {i.r!r}"
            )
        return "\n".join(lines) + "\n"


def _texture_params(seed: int):
    rng = np.random.default_rng(seed)
    # dominant blob lattice: a separable angular x radial wave whose blob
    # count tracks the identity's frequencies, giving each identity a
    # distinctive level-set topology; five weaker waves decorate it
    lattice = (
        int(rng.integers(4, 21)),                       # angular blob count
        rng.uniform(1.0, 6.0),                          # radial blob count
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(22.0, 28.0),                        # lattice amplitude
    )
    waves = (
        rng.integers(2, 11, size=TEXTURE_WAVES - 1),    # angular cycles (integer: wraps cleanly)
        rng.uniform(0.5, 3.0, size=TEXTURE_WAVES - 1),  # radial cycles across the annulus
        rng.uniform(0.0, 2.0 * math.pi, size=TEXTURE_WAVES - 1),
        rng.uniform(4.0, 6.0, size=TEXTURE_WAVES - 1),  # amplitudes, intensity levels
    )
    return lattice, waves


def _eyelids_for(spec: SynthEyeSpec) -> tuple[Parabola | None, Parabola | None]:
    cov = spec.eyelid_coverage
    iris = spec.iris
    upper = lower = None
    if cov > 0.02:
        upper = Parabola(
            h=iris.cx,
            k=iris.cy - iris.r + 2.0 * cov * iris.r,
            a=-0.8 / iris.r,
            theta=0.0,
        )
    if cov > 0.25:
        lower = Parabola(
            h=iris.cx,
            k=iris.cy + iris.r * (1.0 - cov),
            a=0.8 / iris.r,
            theta=0.0,
        )
    return upper, lower


def synth_eye(spec: SynthEyeSpec) -> tuple[GrayImage, SegmentationResult]:
    """Render the eye described by ``spec`` and its exact ground truth."""
    h, w = spec.height, spec.width
    ys, xs = np.arange(h, dtype=np.float64)[:, None], np.arange(w, dtype=np.float64)
    pupil, iris = spec.pupil, spec.iris

    img = np.full((h, w), float(SCLERA_LEVEL))

    # both disks lie inside the iris box, so only its pixels are tested
    rows, cols = _span(iris.cy, iris.r, h), _span(iris.cx, iris.r, w)
    box = img[rows, cols]
    in_pupil = np.hypot(xs[cols] - pupil.cx, ys[rows] - pupil.cy) <= pupil.r
    annulus = (np.hypot(xs[cols] - iris.cx, ys[rows] - iris.cy) <= iris.r) & ~in_pupil
    box[in_pupil] = PUPIL_LEVEL
    ay, ax = np.nonzero(annulus)
    ya, xa = ys[rows][ay, 0], xs[cols][ax]

    # normalized annulus coordinates: the exact inverse of the rubber-sheet
    # map q = c(r) + R(r)*u(theta) with c(r) the blended center and R(r) the
    # blended radius, solved by fixed-point iteration; identity texture lives
    # in this frame so it survives circle jitter and non-concentric centers
    r_norm = np.zeros(len(ya))
    dcx, dcy, dr = iris.cx - pupil.cx, iris.cy - pupil.cy, iris.r - pupil.r
    for _ in range(4):
        cx_r = pupil.cx + r_norm * dcx
        cy_r = pupil.cy + r_norm * dcy
        r_norm = np.clip((np.hypot(xa - cx_r, ya - cy_r) - pupil.r) / max(dr, 1e-9), 0.0, 1.0)
    theta = np.arctan2(ya - cy_r, xa - cx_r)

    (ln, lf, lph, lps, la), (n_ang, f_rad, phases, amps) = _texture_params(spec.texture_seed)
    t_ang = theta - spec.rotation
    tex = la * np.sin(ln * t_ang + lph) * np.cos(2.0 * math.pi * lf * r_norm + lps)
    for m in range(TEXTURE_WAVES - 1):
        tex += amps[m] * np.sin(n_ang[m] * t_ang + 2.0 * math.pi * f_rad[m] * r_norm + phases[m])
    box[annulus] = IRIS_BASE + tex

    upper, lower = _eyelids_for(spec)
    for lid in (upper, lower):
        if lid is not None:
            img[lid.side(xs, ys) > 0] = EYELID_LEVEL

    rng = np.random.default_rng((spec.noise_seed, spec.texture_seed))
    if spec.noise_sigma > 0:
        img += rng.normal(0.0, spec.noise_sigma, size=(h, w))

    for _ in range(spec.specular_spots):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(0.25, 0.75)
        spot_r = rng.uniform(1.5, 2.5)
        sx = pupil.cx + (pupil.r + rad * (iris.r - pupil.r)) * math.cos(ang)
        sy = pupil.cy + (pupil.r + rad * (iris.r - pupil.r)) * math.sin(ang)
        rows, cols = _span(sy, spot_r, h), _span(sx, spot_r, w)
        img[rows, cols][np.hypot(xs[cols] - sx, ys[rows] - sy) <= spot_r] = SPECULAR_LEVEL

    gray = GrayImage(np.clip(np.rint(img), 0, 255).astype(np.uint8))
    mask = build_noise_mask(gray, pupil, iris, (upper, lower), specular_threshold=240)
    return gray, SegmentationResult(pupil, iris, upper, lower, mask)


def build_corpus(identities: int, samples_per_identity: int, master_seed: int) -> Corpus:
    """Deterministic multi-identity corpus with per-sample nuisance variation.

    Each identity keeps one texture seed and a stable eye geometry; samples
    vary rotation (up to +/-5 degrees), circle positions and radii (up to
    2 px), eyelid coverage, specular spots, and noise realization.
    """
    if identities < 1 or samples_per_identity < 1:
        raise ValueError("identity and sample counts must be >= 1")
    rng = np.random.default_rng(master_seed)
    texture_seeds = rng.integers(0, 2**31 - 1, size=identities)

    records = []
    for ident in range(identities):
        iris_r0 = rng.uniform(64.0, 74.0)
        ratio0 = rng.uniform(0.28, 0.58)
        lid0 = rng.uniform(0.05, 0.28)
        for sample in range(samples_per_identity):
            cx = CORPUS_WIDTH / 2 + rng.uniform(-3.0, 3.0)
            cy = CORPUS_HEIGHT / 2 + rng.uniform(-3.0, 3.0)
            iris_r = iris_r0 + rng.uniform(-2.0, 2.0)
            pupil_r = np.clip(ratio0 + rng.uniform(-0.02, 0.02), 0.10, 0.80) * iris_r
            off_ang = rng.uniform(0.0, 2.0 * math.pi)
            off_mag = rng.uniform(0.0, 2.0)
            spec = SynthEyeSpec(
                width=CORPUS_WIDTH,
                height=CORPUS_HEIGHT,
                pupil=Circle(cx + off_mag * math.cos(off_ang),
                             cy + off_mag * math.sin(off_ang), pupil_r),
                iris=Circle(cx, cy, iris_r),
                texture_seed=int(texture_seeds[ident]),
                eyelid_coverage=float(np.clip(lid0 + rng.uniform(-0.05, 0.05), 0.0, 0.4)),
                specular_spots=int(rng.integers(0, 3)),
                noise_sigma=1.0,
                rotation=math.radians(rng.uniform(-5.0, 5.0)),
                noise_seed=int(rng.integers(0, 2**31 - 1)),
            )
            image, truth = synth_eye(spec)
            records.append(CorpusRecord(ident, sample, spec, image, truth))
    return Corpus(master_seed, tuple(records))


def save_corpus(corpus: Corpus, out_dir) -> None:
    """Write one PGM per record plus the line-oriented manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for r in corpus.records:
        (out / f"eye_{r.identity:03d}_{r.sample:02d}.pgm").write_bytes(save_pgm(r.image))
    (out / "manifest.txt").write_text(corpus.manifest())


def load_corpus(in_dir) -> Corpus:
    """Read a corpus back from disk.

    The manifest records identities and ground-truth circles; rendering
    specs and occlusion truth are not serialized, so loaded records carry
    the circles inside a minimal truth (full annulus mask, no eyelids).
    """
    root = Path(in_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.txt under {root}")
    records = []
    counters: dict[int, int] = {}
    for n, line in enumerate(manifest.read_text().splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 9:
            raise ValueError(f"manifest.txt line {n}: expected 9 fields, got {len(fields)}")
        name, ident, _seed, pcx, pcy, pr, icx, icy, ir = fields
        image = load_pgm((root / name).read_bytes())
        pupil = Circle(float(pcx), float(pcy), float(pr))
        iris = Circle(float(icx), float(icy), float(ir))
        mask = build_noise_mask(image, pupil, iris)
        truth = SegmentationResult(pupil, iris, None, None, mask)
        ident = int(ident)
        sample = counters.get(ident, 0)
        counters[ident] = sample + 1
        records.append(CorpusRecord(ident, sample, None, image, truth))
    return Corpus(0, tuple(records))


def rotated(spec: SynthEyeSpec, delta_radians: float) -> SynthEyeSpec:
    """Same eye with the iris texture rotated by an extra angle."""
    return replace(spec, rotation=spec.rotation + delta_radians)
