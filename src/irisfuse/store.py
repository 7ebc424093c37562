"""Enrollment gallery: in-memory model plus a bit-exact binary file format.

File layout, little-endian throughout (all packed bit fields use numpy's
big-bit-first byte packing):

    magic "IRF1" | version u8 | record count u32
    covariance block: 16 x f64 (row-major S) + f64 epsilon
    GA block: pool size u16, pool indices u16 each, packed chromosome bits
    score ranges: 3 x { algo id u8, min f64, max f64 }
    per record:
        id length u8 + UTF-8 id
        zero-crossing section: scale count u8 (len(zerocross.DEFAULT_SCALES)),
                               packed bit tensor, packed mask
        Euler section: 4 x i32
        feature vector: 672 x f32 + packed validity bits
    trailing CRC-32 (u32) over every preceding byte

Loading verifies magic, version, and checksum and rejects truncated or
oversized payloads and any scale count other than the encoder's, so a
corrupted gallery always fails loudly; so do non-finite feature values.
In memory, record k is row k of one ``FeatureTable``.  The gallery is
immutable; enroll returns a new instance, and verify never mutates anything.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .euler import CovarianceModel, calibrated_covariance, mahalanobis, mahalanobis_rows
from .fusion import (ALGORITHMS, Decision, FusionPolicy, ScoreRange, decide, fit_ranges, fuse,
                     normalize_distances)
from .gasel import FEATURE_COUNT, Chromosome, FeaturePool, default_selection, match_pairs, match_subset
from .imaging import GrayImage
from .normalization import POLAR_HEIGHT, POLAR_WIDTH
from .pipeline import FeatureTable, concat, process_image, process_images
from .segmentation import SegmentationConfig, SegmentationError
from .zerocross import DEFAULT_SCALES, ZeroCrossTemplate, match as zc_match, match_pairs as zc_pairs

MAGIC = b"IRF1"
FORMAT_VERSION = 1
MAX_ID_BYTES = 64

_PLANE_BYTES = POLAR_HEIGHT * POLAR_WIDTH // 8
_ALGO_IDS = {name: i for i, name in enumerate(ALGORITHMS)}


class GalleryFormatError(ValueError):
    """Raised for unreadable, corrupted, or unsupported gallery files."""


@dataclass(frozen=True)
class Gallery:
    """The enrolled identities and their features, row k of ``table`` for
    ``identities[k]``; the table holds no polar images."""

    identities: tuple[str, ...]
    table: FeatureTable
    covariance: CovarianceModel
    pool: FeaturePool
    chromosome: Chromosome
    score_ranges: dict[str, ScoreRange]

    def __post_init__(self):
        if len(self.identities) != len(self.table):
            raise ValueError(f"{len(self.identities)} identities for {len(self.table)} feature rows")
        if len(set(self.identities)) != len(self.identities):
            raise ValueError("identity ids must be unique within a gallery")
        if any(len(i.encode("utf-8")) > MAX_ID_BYTES for i in self.identities):
            raise ValueError(f"identity id exceeds {MAX_ID_BYTES} UTF-8 bytes")
        if set(self.score_ranges) != set(ALGORITHMS):
            raise ValueError("score ranges must cover exactly the three algorithms")
        self.covariance.cholesky  # positive-definite gallery invariant

    def row(self, identity: str) -> int:
        """The table row of an enrolled identity; KeyError if it is not enrolled."""
        if identity not in self.identities:
            raise KeyError(f"identity {identity!r} is not enrolled")
        return self.identities.index(identity)


def empty_gallery() -> Gallery:
    pool, chromosome = default_selection()
    table = FeatureTable((), (), (), ())
    covariance, ranges = _recalibrate(table, pool, chromosome)
    return Gallery((), table, covariance, pool, chromosome, ranges)


_RANGE_PAIR_CAP = 300


def _recalibrate(
    table: FeatureTable, pool: FeaturePool, chromosome: Chromosome
) -> tuple[CovarianceModel, dict[str, ScoreRange]]:
    """Covariance, and ``fit_ranges`` over strided cross-identity pairs plus the genuine 0.

    A genuine trial against a row's one stored template is a self-match.
    """
    if len(table) < 2:
        return CovarianceModel(np.eye(4), 1.0), fit_ranges(dict.fromkeys(ALGORITHMS, 0.0))
    codes = table.euler.astype(np.float64)
    model = calibrated_covariance(codes)

    first, second = np.triu_indices(len(table), k=1)
    stride = -(-len(first) // _RANGE_PAIR_CAP)  # 1 up to the cap
    first, second = first[::stride], second[::stride]
    raw = {
        "zerocross": zc_pairs(table.templates, first, second),
        "euler": mahalanobis_rows(codes[first] - codes[second], model),
        "gasel": match_pairs(table.values, table.valid, first, second, chromosome, pool),
    }
    return model, fit_ranges({algo: np.append(d, 0.0) for algo, d in raw.items()})


def enroll(
    gallery: Gallery,
    identity: str,
    samples,
    segmentation: SegmentationConfig | None = None,
) -> Gallery:
    """Add one identity from its eye-image samples; returns the new gallery.

    The stored template set comes from the first sample that segments
    successfully; the feature vector is the per-identity mean over all
    successful samples.  Covariance and score ranges are recomputed over
    the grown population.
    """
    if identity in gallery.identities:
        raise ValueError(f"identity {identity!r} is already enrolled")
    processed, _ = process_images(samples, segmentation or SegmentationConfig())
    if not processed:
        raise SegmentationError(f"no sample of {identity!r} segmented successfully")

    counts = processed.valid.sum(axis=0)
    mean_values = np.where(counts > 0, (processed.values * processed.valid).sum(axis=0)
                           / np.maximum(counts, 1), 0.0)
    # rounded to the f32 precision of the gallery file, so a save/load round
    # trip reproduces the row exactly
    mean_values = mean_values.astype(np.float32).astype(np.float64)
    table = concat([gallery.table, FeatureTable(processed.templates[:1], processed.euler[:1],
                                                mean_values, counts > 0)])
    covariance, ranges = _recalibrate(table, gallery.pool, gallery.chromosome)
    return replace(gallery, identities=gallery.identities + (identity,), table=table,
                   covariance=covariance, score_ranges=ranges)


def with_selection(gallery: Gallery, pool: FeaturePool, chromosome: Chromosome) -> Gallery:
    """The gallery with a new GA feature selection and its ranges refitted.

    The gasel range is the worst distance under the selection, so a new
    pool or chromosome refits every range over the enrolled rows.
    """
    covariance, ranges = _recalibrate(gallery.table, pool, chromosome)
    return replace(gallery, covariance=covariance, pool=pool, chromosome=chromosome,
                   score_ranges=ranges)


def verify(
    gallery: Gallery,
    claimed_id: str,
    probe: GrayImage,
    policy: FusionPolicy,
    segmentation: SegmentationConfig | None = None,
) -> tuple[Decision, dict[str, float], float]:
    """Match a probe image against the claimed identity's row.

    Returns the decision, the raw per-algorithm distances, and the fused
    similarity.  Each distance is the one the gallery's covariance and
    ranges were fitted on: the Euler codes of probe and row are both
    taken under their own image's mask.
    """
    k, table = gallery.row(claimed_id), gallery.table
    feats = process_image(probe, segmentation or SegmentationConfig())
    raw = {
        "zerocross": zc_match(feats.template, table.templates[k]),
        "euler": mahalanobis(feats.own_code, table.euler[k], gallery.covariance),
        "gasel": match_subset(np.stack([feats.values, table.values[k]]),
                              np.stack([feats.valid, table.valid[k]]),
                              gallery.chromosome, gallery.pool),
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
    out += struct.pack("<BI", FORMAT_VERSION, len(gallery.identities))
    out += gallery.covariance.S.astype("<f8").tobytes()
    out += struct.pack("<d", gallery.covariance.epsilon)

    out += struct.pack("<H", len(gallery.pool))
    out += np.asarray(gallery.pool.indices, dtype="<u2").tobytes()
    out += _pack_bits(gallery.chromosome.genes)

    for algo in ALGORITHMS:
        r = gallery.score_ranges[algo]
        out += struct.pack("<Bdd", _ALGO_IDS[algo], r.min, r.max)

    t = gallery.table
    for k, identity in enumerate(gallery.identities):
        ident = identity.encode("utf-8")
        out += struct.pack("<B", len(ident)) + ident
        out += struct.pack("<B", t.templates[k].scale_count)
        out += _pack_bits(t.templates[k].bits)
        out += _pack_bits(t.templates[k].mask)
        out += t.euler[k].astype("<i4").tobytes()
        out += t.values[k].astype("<f4").tobytes()
        out += _pack_bits(t.valid[k])

    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    return bytes(out)


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` that then replaces it.

    A failed write leaves the previous file intact and removes the
    temporary file.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save(gallery: Gallery, path) -> None:
    """Write the gallery's canonical bytes to ``path`` with ``write_atomic``."""
    write_atomic(path, to_bytes(gallery))


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
        # a written range is [0, worst distance]; zerocross and gasel distances are fractions
        if lo != 0.0 or (algo != "euler" and hi > 1.0):
            raise ValueError(f"{algo} score range [{lo}, {hi}] is not [0, worst distance]")

    identities, templates, euler, values, valid = [], [], [], [], []
    for _ in range(count):
        (id_len,) = r.unpack("<B")
        identity = r.take(id_len).decode("utf-8")
        (scale_count,) = r.unpack("<B")
        if scale_count != len(DEFAULT_SCALES):
            raise ValueError(f"record {identity!r}: {scale_count} scales (need {len(DEFAULT_SCALES)})")
        bits = _unpack_bits(
            r.take(scale_count * _PLANE_BYTES), scale_count * POLAR_HEIGHT * POLAR_WIDTH
        ).reshape(scale_count, POLAR_HEIGHT, POLAR_WIDTH)
        mask = _unpack_bits(r.take(_PLANE_BYTES), POLAR_HEIGHT * POLAR_WIDTH).reshape(
            POLAR_HEIGHT, POLAR_WIDTH
        )
        identities.append(identity)
        templates.append(ZeroCrossTemplate(bits, mask))
        euler.append(np.frombuffer(r.take(16), dtype="<i4"))
        values.append(np.frombuffer(r.take(FEATURE_COUNT * 4), dtype="<f4"))
        if not np.all(np.isfinite(values[-1])):
            raise ValueError(f"record {identity!r}: feature values must be finite")
        valid.append(_unpack_bits(r.take((FEATURE_COUNT + 7) // 8), FEATURE_COUNT))
    if r.pos != len(r.data):
        raise GalleryFormatError(f"{len(r.data) - r.pos} unexpected trailing bytes")

    table = FeatureTable(tuple(templates), euler, values, valid)
    return Gallery(tuple(identities), table, covariance, pool, chromosome, ranges)
