import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irisfuse.euler import EulerCode, mahalanobis
from irisfuse.fusion import FUSION_RULES, FusionPolicy, ScoreRange, decide, fuse, normalize_distances
from irisfuse.gasel import Chromosome, FeaturePool, RawFeatureVector, match_subset
from irisfuse.segmentation import SegmentationError
from irisfuse.imaging import BinaryImage, GrayImage
from irisfuse.pipeline import PipelineConfig
from irisfuse.store import (
    _RANGE_PAIR_CAP,
    EnrollmentRecord,
    Gallery,
    GalleryFormatError,
    empty_gallery,
    enroll,
    load,
    save,
    to_bytes,
    verify,
    with_selection,
)
from irisfuse.synth import build_corpus
from irisfuse.zerocross import ZeroCrossTemplate, match as zc_match, shifted

from oracles import recalibrate_worst


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(4, 3, master_seed=77)


@pytest.fixture(scope="module")
def gallery(corpus):
    g = empty_gallery()
    for ident in range(4):
        samples = [r.image for r in corpus.records if r.identity == ident]
        g = enroll(g, f"person-{ident}", samples)
    return g


@pytest.fixture(scope="module")
def two_identity_file(gallery, tmp_path_factory):
    """A saved two-identity gallery: its path, its payload without the CRC,
    and the length of the header plus the first record's id and scale count."""
    small = replace(gallery, records=gallery.records[:2])
    path = tmp_path_factory.mktemp("fuzz") / "two.irf"
    save(small, path)
    header = len(to_bytes(replace(small, records=()))) - 4
    return path, path.read_bytes()[:-4], header + 2 + len(small.records[0].identity.encode())


def with_crc(payload) -> bytes:
    """The payload followed by its valid CRC-32 trailer."""
    return bytes(payload) + struct.pack("<I", zlib.crc32(bytes(payload)) & 0xFFFFFFFF)


class TestEnroll:
    def test_round_trip_lookup(self, gallery):
        rec = gallery.lookup("person-2")
        assert rec.identity == "person-2"
        assert rec.template.bits.shape[0] == 2

    def test_duplicate_id_rejected_and_gallery_unchanged(self, gallery, corpus):
        samples = [r.image for r in corpus.records if r.identity == 0]
        with pytest.raises(ValueError, match="already enrolled"):
            enroll(gallery, "person-0", samples)
        assert len(gallery.records) == 4

    def test_second_identity_enables_covariance(self, corpus):
        g = empty_gallery()
        samples0 = [r.image for r in corpus.records if r.identity == 0]
        g1 = enroll(g, "a", samples0)
        assert np.allclose(g1.covariance.S, np.eye(4))  # placeholder until 2 codes exist
        samples1 = [r.image for r in corpus.records if r.identity == 1]
        g2 = enroll(g1, "b", samples1)
        assert not np.allclose(g2.covariance.S, np.eye(4))
        np.linalg.cholesky(g2.covariance.S)

    def test_all_samples_failing_rejected(self):
        blank = GrayImage(np.full((192, 256), 127, dtype=np.uint8))
        with pytest.raises(SegmentationError):
            enroll(empty_gallery(), "ghost", [blank])

    def test_unknown_lookup(self, gallery):
        with pytest.raises(KeyError):
            gallery.lookup("nobody")

    def test_zerocross_range_uses_the_pipeline_shift_budget(self, corpus):
        for max_shift in (0, 16):
            pipeline = PipelineConfig(max_shift=max_shift)
            g = empty_gallery()
            for ident in range(4):
                samples = [r.image for r in corpus.records if r.identity == ident][:1]
                g = enroll(g, f"person-{ident}", samples, pipeline)
            worst = max(
                zc_match(a.template, b.template, max_shift)
                for i, a in enumerate(g.records) for b in g.records[i + 1:]
            )
            assert g.score_ranges["zerocross"].max == worst

    def test_euler_and_gasel_ranges_are_the_worst_one_pair_distances(self, gallery):
        pairs = [(a, b) for i, a in enumerate(gallery.records) for b in gallery.records[i + 1:]]
        euler = max(mahalanobis(a.euler, b.euler, gallery.covariance) for a, b in pairs)
        gasel = max(match_subset(a.features, b.features, gallery.chromosome, gallery.pool)
                    for a, b in pairs)
        assert gallery.score_ranges["euler"].max == euler
        assert gallery.score_ranges["gasel"].max == gasel

    def test_gasel_range_skips_pairs_with_nothing_jointly_valid(self, gallery):
        first, *rest = gallery.records
        assert all(r.features.valid[0] for r in rest)
        valid = first.features.valid.copy()
        valid[0] = False
        first = replace(first, features=RawFeatureVector(first.features.values, valid))
        g = with_selection(replace(gallery, records=(first, *rest)), FeaturePool((0,)),
                           Chromosome(np.ones(1, dtype=np.uint8)))
        gasel = max(match_subset(a.features, b.features, g.chromosome, g.pool)
                    for i, a in enumerate(rest) for b in rest[i + 1:])
        assert g.score_ranges["gasel"].max == gasel

    def test_mismatched_template_shapes_are_not_skipped(self, gallery, corpus):
        # only incomparable masks are calibration noise; a gallery that mixes
        # scale counts is an error, as it is for verify
        samples = [r.image for r in corpus.records if r.identity == 0][:1]
        with pytest.raises(ValueError, match="template shapes differ"):
            enroll(gallery, "one-scale", samples, PipelineConfig(scales=(2,)))


def range_bytes(ranges):
    return {a: struct.pack("<dd", r.min, r.max) for a, r in ranges.items()}


def assert_oracle_fit(g: Gallery, max_shift: int = PipelineConfig().max_shift):
    model, ranges = recalibrate_worst(g.records, g.pool, g.chromosome, max_shift)
    assert range_bytes(g.score_ranges) == range_bytes(ranges)
    assert np.array_equal(g.covariance.S, model.S) and g.covariance.epsilon == model.epsilon


class TestRangesMatchTheFormerFit:
    """``_recalibrate`` through ``fit_ranges`` against the former per-pair fit."""

    @pytest.fixture(scope="class")
    def galleries(self):
        corpus = build_corpus(6, 2, master_seed=2026)
        out = [empty_gallery()]
        for ident in range(6):
            samples = [r.image for r in corpus.records if r.identity == ident]
            out.append(enroll(out[-1], f"person-{ident}", samples))
        return out

    def test_every_enrollment(self, galleries):
        assert [len(g.records) for g in galleries] == list(range(7))
        for g in galleries:
            assert_oracle_fit(g)

    def test_after_with_selection(self, galleries):
        rng = np.random.default_rng(5)
        pool = FeaturePool(tuple(sorted(rng.choice(672, 60, replace=False).tolist())))
        chromosome = Chromosome((rng.random(60) < 0.3).astype(np.uint8))
        for g in galleries:
            assert_oracle_fit(with_selection(g, pool, chromosome))
            assert_oracle_fit(with_selection(g, pool, chromosome, PipelineConfig(max_shift=2)), 2)

    def test_strided_pairs_of_a_large_gallery(self, galleries):
        # 30 records give 435 cross pairs, past the 300-pair cap, so every
        # second pair is fitted; each record is a base record with a shifted
        # template, a rolled feature vector and an offset Euler code
        base = galleries[-1].records
        records = []
        for i in range(30):
            rec = base[i % len(base)]
            lap = i // len(base)
            records.append(EnrollmentRecord(
                f"copy-{i}", shifted(rec.template, 3 * lap),
                EulerCode(tuple(e + lap * (k + 1) for k, e in enumerate(rec.euler.e))),
                RawFeatureVector(np.roll(rec.features.values, 5 * i), np.roll(rec.features.valid, 5 * i))))
        g = replace(galleries[-1], records=tuple(records))
        assert len(records) * (len(records) - 1) // 2 > _RANGE_PAIR_CAP
        for selection in [(g.pool, g.chromosome), (FeaturePool((3, 9, 40)), Chromosome(np.ones(3, np.uint8)))]:
            assert_oracle_fit(with_selection(g, *selection))
            assert_oracle_fit(with_selection(g, *selection, PipelineConfig(max_shift=2)), 2)

    def test_incomparable_templates_and_features(self, galleries):
        # a fully masked template and a record with one valid feature make
        # zerocross and gasel pairs with nothing jointly valid
        first, second, *rest = galleries[-1].records
        full = np.ones_like(first.template.mask.bits)
        first = replace(first, template=ZeroCrossTemplate(first.template.bits, BinaryImage(full)))
        valid = np.zeros_like(second.features.valid)
        valid[0] = True
        second = replace(second, features=RawFeatureVector(second.features.values, valid))
        g = replace(galleries[-1], records=(first, second, *rest))
        for selection in [(g.pool, g.chromosome), (FeaturePool((1, 2)), Chromosome(np.ones(2, np.uint8)))]:
            assert_oracle_fit(with_selection(g, *selection))
        pair = with_selection(replace(g, records=(first, second)), FeaturePool((1,)),
                              Chromosome(np.ones(1, np.uint8)))
        assert_oracle_fit(pair)
        for algo in ("zerocross", "gasel"):  # no comparable imposter pair
            assert pair.score_ranges[algo] == ScoreRange(0.0, 1.0)


class TestPersistence:
    def test_save_load_field_identical(self, gallery, tmp_path):
        path = tmp_path / "gallery.irf"
        save(gallery, path)
        back = load(path)
        assert len(back.records) == len(gallery.records)
        for a, b in zip(gallery.records, back.records):
            assert a.identity == b.identity
            assert np.array_equal(a.template.bits, b.template.bits)
            assert np.array_equal(a.template.mask.bits, b.template.mask.bits)
            assert a.euler.e == b.euler.e
            assert np.array_equal(a.features.values, b.features.values)
            assert np.array_equal(a.features.valid, b.features.valid)
        assert np.array_equal(back.covariance.S, gallery.covariance.S)
        assert back.covariance.epsilon == gallery.covariance.epsilon
        assert back.pool.indices == gallery.pool.indices
        assert np.array_equal(back.chromosome.genes, gallery.chromosome.genes)
        for algo in gallery.score_ranges:
            assert back.score_ranges[algo] == gallery.score_ranges[algo]

    def test_resave_byte_identical(self, gallery, tmp_path):
        p1 = tmp_path / "g1.irf"
        p2 = tmp_path / "g2.irf"
        save(gallery, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, gallery, tmp_path):
        path = tmp_path / "bad.irf"
        save(gallery, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(GalleryFormatError, match="magic"):
            load(path)

    def test_single_byte_corruption_detected(self, gallery, tmp_path):
        path = tmp_path / "flip.irf"
        save(gallery, path)
        data = bytearray(path.read_bytes())
        rng = np.random.default_rng(3)
        for _ in range(5):
            pos = int(rng.integers(4, len(data) - 4))
            orig = data[pos]
            data[pos] ^= 0x40
            path.write_bytes(bytes(data))
            with pytest.raises(GalleryFormatError, match="checksum"):
                load(path)
            data[pos] = orig

    def test_truncation_detected(self, gallery, tmp_path):
        path = tmp_path / "short.irf"
        save(gallery, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(GalleryFormatError):
            load(path)

    def test_unsupported_version_rejected(self, gallery, tmp_path):
        import struct
        import zlib

        path = tmp_path / "vers.irf"
        save(gallery, path)
        data = bytearray(path.read_bytes())[:-4]
        data[4] = 9  # version byte follows the magic
        data += struct.pack("<I", zlib.crc32(bytes(data)) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(GalleryFormatError, match="version"):
            load(path)


    @pytest.mark.parametrize("mutation", ["out of range", "duplicate"])
    def test_invalid_pool_index_is_format_error(self, gallery, tmp_path, mutation):
        import struct
        import zlib

        path = tmp_path / "pool.irf"
        save(gallery, path)
        data = bytearray(path.read_bytes())[:-4]
        # magic, version u8, count u32, 16 f64 covariance, f64 epsilon, pool size u16
        first = 4 + struct.calcsize("<BI") + 17 * 8 + 2
        index = 9999 if mutation == "out of range" else data[first + 2] | data[first + 3] << 8
        data[first:first + 2] = struct.pack("<H", index)
        data += struct.pack("<I", zlib.crc32(bytes(data)) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(GalleryFormatError, match="feature selection"):
            load(path)


    @pytest.mark.parametrize("mutation", ["non-PD covariance", "NaN epsilon", "NaN range",
                                          "[0, inf] range", "[-inf, 1] range", "bad UTF-8 id",
                                          "duplicate id"])
    def test_invalid_contents_are_format_errors(self, gallery, tmp_path, mutation):
        path = tmp_path / "bad.irf"
        data = bytearray(to_bytes(gallery)[:-4])
        # magic, version u8, count u32, 16 f64 covariance, f64 epsilon, pool size u16,
        # pool indices u16, packed genes, then the three score ranges {u8, f64, f64}
        covariance = 4 + struct.calcsize("<BI")
        pool = len(gallery.pool)
        ranges = covariance + 17 * 8 + 2 + 2 * pool + (pool + 7) // 8
        if mutation == "non-PD covariance":
            data[covariance:covariance + 8] = struct.pack("<d", -5.0)  # S[0, 0]
        elif mutation == "NaN epsilon":
            data[covariance + 16 * 8:covariance + 17 * 8] = struct.pack("<d", float("nan"))
        elif mutation == "NaN range":
            data[ranges + 1:ranges + 9] = struct.pack("<d", float("nan"))
        elif mutation == "[0, inf] range":
            data[ranges + 1:ranges + 17] = struct.pack("<dd", 0.0, float("inf"))
        elif mutation == "[-inf, 1] range":
            data[ranges + 1:ranges + 17] = struct.pack("<dd", float("-inf"), 1.0)
        elif mutation == "bad UTF-8 id":
            data[data.find(b"person-0")] = 0xFF
        else:
            at = data.find(b"person-1")
            data[at:at + 8] = b"person-0"
        path.write_bytes(with_crc(data))
        with pytest.raises(GalleryFormatError, match="invalid gallery contents"):
            load(path)

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(data=st.data())
    def test_mutated_payload_loads_or_raises_format_error(self, two_identity_file, data):
        """Any payload with a valid CRC gives a gallery or a GalleryFormatError."""
        path, payload, hot = two_identity_file
        mutated = bytearray(payload)
        # positions are drawn mostly from the header and first record head, where
        # every byte is structural, and sometimes from anywhere in the payload
        anywhere = st.integers(0, len(payload) - 1)
        position = st.integers(0, hot - 1) | st.integers(0, hot - 1) | anywhere
        for pos, value in data.draw(st.lists(st.tuples(position, st.integers(0, 255)),
                                             min_size=1, max_size=3)):
            mutated[pos] = value
        path.write_bytes(with_crc(mutated))
        try:
            load(path)
        except GalleryFormatError:
            pass


class TestVerify:
    def test_genuine_probes_accept(self, gallery, corpus):
        for r in corpus.records:
            decision, raw, fused = verify(gallery, f"person-{r.identity}", r.image, FusionPolicy())
            assert decision.accepted
            assert decision.bit == 0
            assert set(raw) == {"zerocross", "euler", "gasel"}

    def test_imposter_probes_reject(self, gallery, corpus):
        outcomes = []
        for r in corpus.records:
            for ident in range(4):
                if ident == r.identity:
                    continue
                decision, _, _ = verify(gallery, f"person-{ident}", r.image, FusionPolicy())
                outcomes.append(decision.accepted)
        assert np.mean(outcomes) <= 0.05  # >= 95% of imposter claims rejected

    @pytest.mark.parametrize("rule", FUSION_RULES)
    def test_fused_score_is_the_fusion_of_the_returned_distances(self, gallery, corpus, rule):
        policy = FusionPolicy(rule, weights=(0.5, 0.25, 0.25) if rule == "weighted" else None)
        for r in corpus.records[::4]:
            for ident in range(4):
                decision, raw, fused = verify(gallery, f"person-{ident}", r.image, policy)
                want = fuse(normalize_distances(raw, gallery.score_ranges), policy)
                assert np.float64(fused).tobytes() == np.float64(want).tobytes()
                assert decision == decide(want, policy.threshold)

    def test_unknown_id_rejected(self, gallery, corpus):
        with pytest.raises(KeyError):
            verify(gallery, "person-9", corpus.records[0].image, FusionPolicy())

    def test_verify_does_not_mutate_gallery(self, gallery, corpus, tmp_path):
        p1 = tmp_path / "before.irf"
        p2 = tmp_path / "after.irf"
        save(gallery, p1)
        verify(gallery, "person-0", corpus.records[5].image, FusionPolicy())
        save(gallery, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_genuine_separation_across_gallery(self, gallery, corpus):
        policy = FusionPolicy()
        genuine, imposter = [], []
        for r in corpus.records:
            for ident in range(4):
                _, _, fused = verify(gallery, f"person-{ident}", r.image, policy)
                (genuine if ident == r.identity else imposter).append(fused)
        assert np.mean(genuine) > np.mean(imposter)


class TestGalleryInvariants:
    def test_unique_ids_enforced(self, gallery):
        rec = gallery.records[0]
        with pytest.raises(ValueError, match="unique"):
            Gallery(
                records=(rec, rec),
                covariance=gallery.covariance,
                pool=gallery.pool,
                chromosome=gallery.chromosome,
                score_ranges=gallery.score_ranges,
            )

    def test_identity_length_capped(self, gallery):
        rec = gallery.records[0]
        with pytest.raises(ValueError, match="UTF-8"):
            EnrollmentRecord("x" * 65, rec.template, rec.euler, rec.features)
