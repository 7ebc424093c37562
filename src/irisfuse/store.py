"""Enrollment gallery: in-memory model plus a bit-exact binary file format.

File layout, little-endian throughout (all packed bit fields use numpy's
big-bit-first byte packing):

    magic "IRF1" | version u8 | record count u32
    covariance block: 16 x f64 (row-major S) + f64 epsilon
    GA block: pool size u16, pool indices u16 each, packed chromosome bits
    score ranges: 3 x { algo id u8, min f64, max f64 }
    per record:
        id length u8 + UTF-8 id
        zero-crossing section: scale count u8, packed bit tensor, packed mask
        Euler section: 4 x i32
        feature vector: 672 x f32 + packed validity bits
    trailing CRC-32 (u32) over every preceding byte

Loading verifies magic, version, and checksum and rejects truncated or
oversized payloads, so a corrupted gallery always fails loudly.  The
in-memory gallery is immutable; enroll returns a new instance, and verify
never mutates anything.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .euler import (CovarianceModel, EulerCode, calibrated_covariance, common_mask, euler_code,
                    mahalanobis, mahalanobis_rows)
from .fusion import (ALGORITHMS, Decision, FusionPolicy, ScoreRange, decide, fit_ranges, fuse,
                     normalize_distances)
from .gasel import (FEATURE_COUNT, Chromosome, FeaturePool, RawFeatureVector, default_selection,
                    match_pairs, match_subset)
from .imaging import BinaryImage, GrayImage
from .normalization import POLAR_HEIGHT, POLAR_WIDTH
from .pipeline import PipelineConfig, process_image, process_images
from .segmentation import SegmentationError
from .zerocross import DEFAULT_MAX_SHIFT, ZeroCrossTemplate, match as zc_match, match_pairs as zc_pairs

MAGIC = b"IRF1"
FORMAT_VERSION = 1
MAX_ID_BYTES = 64

_PLANE_BYTES = POLAR_HEIGHT * POLAR_WIDTH // 8
_ALGO_IDS = {name: i for i, name in enumerate(ALGORITHMS)}


class GalleryFormatError(ValueError):
    """Raised for unreadable, corrupted, or unsupported gallery files."""


@dataclass(frozen=True)
class EnrollmentRecord:
    identity: str
    template: ZeroCrossTemplate
    euler: EulerCode
    features: RawFeatureVector

    def __post_init__(self):
        if len(self.identity.encode("utf-8")) > MAX_ID_BYTES:
            raise ValueError(f"identity id exceeds {MAX_ID_BYTES} UTF-8 bytes")


@dataclass(frozen=True)
class Gallery:
    records: tuple[EnrollmentRecord, ...]
    covariance: CovarianceModel
    pool: FeaturePool
    chromosome: Chromosome
    score_ranges: dict[str, ScoreRange]

    def __post_init__(self):
        ids = [r.identity for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("identity ids must be unique within a gallery")
        if set(self.score_ranges) != set(ALGORITHMS):
            raise ValueError("score ranges must cover exactly the three algorithms")
        self.covariance.cholesky  # positive-definite gallery invariant

    def lookup(self, identity: str) -> EnrollmentRecord:
        for r in self.records:
            if r.identity == identity:
                return r
        raise KeyError(f"identity {identity!r} is not enrolled")

    def has(self, identity: str) -> bool:
        return any(r.identity == identity for r in self.records)


def empty_gallery() -> Gallery:
    pool, chromosome = default_selection()
    covariance, ranges = _recalibrate((), pool, chromosome, DEFAULT_MAX_SHIFT)
    return Gallery((), covariance, pool, chromosome, ranges)


_RANGE_PAIR_CAP = 300


def _recalibrate(
    records: tuple[EnrollmentRecord, ...], pool: FeaturePool, chromosome: Chromosome, max_shift: int
) -> tuple[CovarianceModel, dict[str, ScoreRange]]:
    """Covariance, and ``fit_ranges`` over strided cross-identity pairs plus the genuine 0.

    A genuine trial against a record's one stored template is a self-match;
    zerocross runs at the shift budget verification uses.
    """
    if len(records) < 2:
        return CovarianceModel(np.eye(4), 1.0), fit_ranges(dict.fromkeys(ALGORITHMS, 0.0))
    model = calibrated_covariance([r.euler for r in records])

    first, second = np.triu_indices(len(records), k=1)
    stride = -(-len(first) // _RANGE_PAIR_CAP)  # 1 up to the cap
    first, second = first[::stride], second[::stride]
    codes = np.array([r.euler.e for r in records], dtype=np.float64)
    raw = {
        "zerocross": zc_pairs([r.template for r in records], first, second, max_shift),
        "euler": mahalanobis_rows(codes[first] - codes[second], model),
        "gasel": match_pairs([r.features for r in records], first, second, chromosome, pool),
    }
    return model, fit_ranges({algo: np.append(d, 0.0) for algo, d in raw.items()})


def enroll(
    gallery: Gallery,
    identity: str,
    samples,
    pipeline: PipelineConfig | None = None,
) -> Gallery:
    """Add one identity from its eye-image samples; returns the new gallery.

    The stored template set comes from the first sample that segments
    successfully; the feature vector is the per-identity mean over all
    successful samples.  Covariance and score ranges are recomputed over
    the grown population.
    """
    if gallery.has(identity):
        raise ValueError(f"identity {identity!r} is already enrolled")
    pipeline = pipeline or PipelineConfig()

    processed, _ = process_images(samples, pipeline)
    if not processed:
        raise SegmentationError(f"no sample of {identity!r} segmented successfully")

    values = np.stack([f.raw.values for f in processed])
    valids = np.stack([f.raw.valid for f in processed])
    counts = valids.sum(axis=0)
    mean_values = np.where(counts > 0, (values * valids).sum(axis=0) / np.maximum(counts, 1), 0.0)
    # rounded to the f32 precision of the gallery file, so a save/load round
    # trip reproduces the record exactly
    mean_values = mean_values.astype(np.float32).astype(np.float64)
    record = EnrollmentRecord(
        identity=identity,
        template=processed[0].template,
        euler=processed[0].own_code,
        features=RawFeatureVector(mean_values, counts > 0),
    )
    records = gallery.records + (record,)
    covariance, ranges = _recalibrate(records, gallery.pool, gallery.chromosome, pipeline.max_shift)
    return replace(gallery, records=records, covariance=covariance, score_ranges=ranges)


def with_selection(
    gallery: Gallery,
    pool: FeaturePool,
    chromosome: Chromosome,
    pipeline: PipelineConfig | None = None,
) -> Gallery:
    """The gallery with a new GA feature selection and its ranges refitted.

    The gasel range is the worst distance under the selection, so a new
    pool or chromosome refits every range over the enrolled records, at the
    shift budget verification uses.
    """
    pipeline = pipeline or PipelineConfig()
    covariance, ranges = _recalibrate(gallery.records, pool, chromosome, pipeline.max_shift)
    return replace(gallery, covariance=covariance, pool=pool, chromosome=chromosome,
                   score_ranges=ranges)


def verify(
    gallery: Gallery,
    claimed_id: str,
    probe: GrayImage,
    policy: FusionPolicy,
    pipeline: PipelineConfig | None = None,
) -> tuple[Decision, dict[str, float], float]:
    """Match a probe image against the claimed identity's record.

    Returns the decision, the raw per-algorithm distances, and the fused
    similarity.  The probe's Euler code is computed under the union of the
    probe mask and the enrolled template's mask, but the stored code was
    fixed at enrollment under the record's own mask.  ``run_trials`` computes
    both codes of a pair under their union mask instead: on all pairs of
    ``build_corpus(30, 4, 2026)`` its Euler EER is 0.132, this matcher's
    0.179, and 0.186 with own masks on both sides.
    """
    record = gallery.lookup(claimed_id)
    pipeline = pipeline or PipelineConfig()
    feats = process_image(probe, pipeline)

    cm = common_mask(feats.polar.mask, record.template.mask)
    raw = {
        "zerocross": zc_match(feats.template, record.template, pipeline.max_shift),
        "euler": mahalanobis(euler_code(feats.polar, cm), record.euler, gallery.covariance),
        "gasel": match_subset(feats.raw, record.features, gallery.chromosome, gallery.pool),
    }
    fused = fuse(normalize_distances(raw, gallery.score_ranges), policy)
    return decide(fused, policy.threshold), raw, fused


def _pack_bits(arr: np.ndarray) -> bytes:
    return np.packbits(arr.astype(np.uint8).ravel()).tobytes()


def _unpack_bits(data: bytes, count: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)


def to_bytes(gallery: Gallery) -> bytes:
    """Serialize to the canonical byte layout (same gallery, same bytes)."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<BI", FORMAT_VERSION, len(gallery.records))
    out += gallery.covariance.S.astype("<f8").tobytes()
    out += struct.pack("<d", gallery.covariance.epsilon)

    out += struct.pack("<H", len(gallery.pool))
    out += np.asarray(gallery.pool.indices, dtype="<u2").tobytes()
    out += _pack_bits(gallery.chromosome.genes)

    for algo in ALGORITHMS:
        r = gallery.score_ranges[algo]
        out += struct.pack("<Bdd", _ALGO_IDS[algo], r.min, r.max)

    for rec in gallery.records:
        ident = rec.identity.encode("utf-8")
        out += struct.pack("<B", len(ident)) + ident
        out += struct.pack("<B", rec.template.scale_count)
        out += _pack_bits(rec.template.bits)
        out += _pack_bits(rec.template.mask.bits)
        out += np.asarray(rec.euler.e, dtype="<i4").tobytes()
        out += rec.features.values.astype("<f4").tobytes()
        out += _pack_bits(rec.features.valid)

    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    return bytes(out)


def save(gallery: Gallery, path) -> None:
    """Write the gallery's canonical bytes to ``path``."""
    with open(path, "wb") as fh:
        fh.write(to_bytes(gallery))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise GalleryFormatError("gallery file is truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load(path) -> Gallery:
    """Read and validate a gallery file.

    Every rejected payload raises ``GalleryFormatError``, including one whose
    checksum holds but whose contents break a gallery invariant.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 4:
        raise GalleryFormatError("gallery file is truncated")
    if data[: len(MAGIC)] != MAGIC:
        raise GalleryFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    actual_crc = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise GalleryFormatError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )
    try:
        return _parse(_Reader(data[len(MAGIC) : -4]))
    except GalleryFormatError:
        raise
    except ValueError as exc:  # includes UnicodeDecodeError
        raise GalleryFormatError(f"invalid gallery contents: {exc}") from None


def _parse(r: _Reader) -> Gallery:
    version, count = r.unpack("<BI")
    if version != FORMAT_VERSION:
        raise GalleryFormatError(f"unsupported gallery format version {version}")

    S = np.frombuffer(r.take(16 * 8), dtype="<f8").reshape(4, 4)
    (epsilon,) = r.unpack("<d")
    covariance = CovarianceModel(S.copy(), epsilon)

    (pool_size,) = r.unpack("<H")
    indices = np.frombuffer(r.take(pool_size * 2), dtype="<u2")
    genes = _unpack_bits(r.take((pool_size + 7) // 8), pool_size)
    try:
        pool = FeaturePool(tuple(int(i) for i in indices))
        chromosome = Chromosome(genes)
    except ValueError as exc:
        raise GalleryFormatError(f"invalid feature selection: {exc}") from None

    ranges = {}
    for _ in ALGORITHMS:
        algo_id, lo, hi = r.unpack("<Bdd")
        try:
            algo = ALGORITHMS[algo_id]
        except IndexError:
            raise GalleryFormatError(f"unknown algorithm id {algo_id}") from None
        ranges[algo] = ScoreRange(lo, hi)

    records = []
    for _ in range(count):
        (id_len,) = r.unpack("<B")
        identity = r.take(id_len).decode("utf-8")
        (scale_count,) = r.unpack("<B")
        bits = _unpack_bits(
            r.take(scale_count * _PLANE_BYTES), scale_count * POLAR_HEIGHT * POLAR_WIDTH
        ).reshape(scale_count, POLAR_HEIGHT, POLAR_WIDTH)
        mask = _unpack_bits(r.take(_PLANE_BYTES), POLAR_HEIGHT * POLAR_WIDTH).reshape(
            POLAR_HEIGHT, POLAR_WIDTH
        )
        euler = EulerCode(tuple(int(v) for v in np.frombuffer(r.take(16), dtype="<i4")))
        values = np.frombuffer(r.take(FEATURE_COUNT * 4), dtype="<f4").astype(np.float64)
        valid = _unpack_bits(r.take((FEATURE_COUNT + 7) // 8), FEATURE_COUNT).astype(bool)
        records.append(
            EnrollmentRecord(
                identity=identity,
                template=ZeroCrossTemplate(bits, BinaryImage(mask)),
                euler=euler,
                features=RawFeatureVector(values, valid),
            )
        )
    if r.pos != len(r.data):
        raise GalleryFormatError(f"{len(r.data) - r.pos} unexpected trailing bytes")

    return Gallery(
        records=tuple(records),
        covariance=covariance,
        pool=pool,
        chromosome=chromosome,
        score_ranges=ranges,
    )
