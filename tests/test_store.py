import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irisfuse.euler import mahalanobis
from irisfuse.fusion import FUSION_RULES, FusionPolicy, ScoreRange, decide, fuse, normalize_distances
from irisfuse.gasel import Chromosome, FeaturePool, match_subset
from irisfuse.segmentation import SegmentationConfig, SegmentationError
from irisfuse.imaging import GrayImage
from irisfuse.pipeline import process_image
from irisfuse.store import (
    _RANGE_PAIR_CAP,
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
from irisfuse.zerocross import DEFAULT_MAX_SHIFT, ZeroCrossTemplate, encode, match as zc_match, shifted

from oracles import gallery_rows, gallery_with_rows, recalibrate_worst


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
    small = gallery_rows(gallery, range(2))
    path = tmp_path_factory.mktemp("fuzz") / "two.irf"
    save(small, path)
    header = len(to_bytes(gallery_rows(small, []))) - 4
    return path, path.read_bytes()[:-4], header + 2 + len(small.identities[0].encode())


def with_crc(payload) -> bytes:
    """The payload followed by its valid CRC-32 trailer."""
    return bytes(payload) + struct.pack("<I", zlib.crc32(bytes(payload)) & 0xFFFFFFFF)


class TestEnroll:
    def test_round_trip_lookup(self, gallery):
        row = gallery.row("person-2")
        assert gallery.identities[row] == "person-2"
        assert gallery.table.templates[row].bits.shape[0] == 2

    def test_duplicate_id_rejected_and_gallery_unchanged(self, gallery, corpus):
        samples = [r.image for r in corpus.records if r.identity == 0]
        with pytest.raises(ValueError, match="already enrolled"):
            enroll(gallery, "person-0", samples)
        assert len(gallery.identities) == len(gallery.table) == 4

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
            gallery.row("nobody")

    def test_zerocross_range_uses_the_pipeline_shift_budget(self, corpus):
        g = empty_gallery()
        for ident in range(4):
            samples = [r.image for r in corpus.records if r.identity == ident][:1]
            g = enroll(g, f"person-{ident}", samples)
        templates = g.table.templates
        worst = max(
            zc_match(a, b, DEFAULT_MAX_SHIFT)
            for i, a in enumerate(templates) for b in templates[i + 1:]
        )
        assert g.score_ranges["zerocross"].max == worst

    def test_euler_and_gasel_ranges_are_the_worst_one_pair_distances(self, gallery):
        t = gallery.table
        pairs = [[i, j] for i in range(len(t)) for j in range(i + 1, len(t))]
        euler = max(mahalanobis(t.euler[i], t.euler[j], gallery.covariance) for i, j in pairs)
        gasel = max(match_subset(t.values[pair], t.valid[pair], gallery.chromosome, gallery.pool)
                    for pair in pairs)
        assert gallery.score_ranges["euler"].max == euler
        assert gallery.score_ranges["gasel"].max == gasel

    def test_gasel_range_skips_pairs_with_nothing_jointly_valid(self, gallery):
        t = gallery.table
        assert t.valid[1:, 0].all()
        valid = t.valid.copy()
        valid[0, 0] = False
        g = with_selection(replace(gallery, table=replace(t, valid=valid)), FeaturePool((0,)),
                           Chromosome(np.ones(1, dtype=np.uint8)))
        gasel = max(match_subset(t.values[[i, j]], t.valid[[i, j]], g.chromosome, g.pool)
                    for i in range(1, len(t)) for j in range(i + 1, len(t)))
        assert g.score_ranges["gasel"].max == gasel

    def test_mismatched_template_shapes_are_not_skipped(self, gallery, corpus):
        # only incomparable masks are calibration noise; a gallery that mixes
        # scale counts is an error, as it is for verify
        f = process_image(corpus.records[0].image, SegmentationConfig())
        t = gallery.table
        mixed = gallery_with_rows(gallery, (*gallery.identities, "one-scale"),
                                  (*t.templates, encode(f.enhanced, f.mask, scales=(2,))),
                                  t.euler[[*range(len(t)), 0]], t.values[[*range(len(t)), 0]],
                                  t.valid[[*range(len(t)), 0]])
        with pytest.raises(ValueError, match="template shapes differ"):
            with_selection(mixed, gallery.pool, gallery.chromosome)


def range_bytes(ranges):
    return {a: struct.pack("<dd", r.min, r.max) for a, r in ranges.items()}


def assert_oracle_fit(g: Gallery):
    model, ranges = recalibrate_worst(g.table, g.pool, g.chromosome, DEFAULT_MAX_SHIFT)
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
        assert [len(g.table) for g in galleries] == list(range(7))
        for g in galleries:
            assert_oracle_fit(g)

    def test_after_with_selection(self, galleries):
        rng = np.random.default_rng(5)
        pool = FeaturePool(tuple(sorted(rng.choice(672, 60, replace=False).tolist())))
        chromosome = Chromosome((rng.random(60) < 0.3).astype(np.uint8))
        for g in galleries:
            assert_oracle_fit(with_selection(g, pool, chromosome))

    def test_strided_pairs_of_a_large_gallery(self, galleries):
        # 30 records give 435 cross pairs, past the 300-pair cap, so every
        # second pair is fitted; each row is a base row with a shifted
        # template, a rolled feature vector and an offset Euler code
        base = galleries[-1].table
        rows = []
        for i in range(30):
            k = i % len(base)
            lap = i // len(base)
            rows.append((f"copy-{i}", shifted(base.templates[k], 3 * lap),
                         base.euler[k] + lap * np.arange(1, 5),
                         np.roll(base.values[k], 5 * i), np.roll(base.valid[k], 5 * i)))
        g = gallery_with_rows(galleries[-1], *zip(*rows))
        assert len(rows) * (len(rows) - 1) // 2 > _RANGE_PAIR_CAP
        for selection in [(g.pool, g.chromosome), (FeaturePool((3, 9, 40)), Chromosome(np.ones(3, np.uint8)))]:
            assert_oracle_fit(with_selection(g, *selection))

    def test_incomparable_templates_and_features(self, galleries):
        # a fully masked template and a record with one valid feature make
        # zerocross and gasel pairs with nothing jointly valid
        t = galleries[-1].table
        first, *rest = t.templates
        full = np.ones_like(first.mask)
        valid = t.valid.copy()
        valid[1] = False
        valid[1, 0] = True
        table = replace(t, templates=(ZeroCrossTemplate(first.bits, full), *rest), valid=valid)
        g = replace(galleries[-1], table=table)
        for selection in [(g.pool, g.chromosome), (FeaturePool((1, 2)), Chromosome(np.ones(2, np.uint8)))]:
            assert_oracle_fit(with_selection(g, *selection))
        pair = with_selection(gallery_rows(g, range(2)), FeaturePool((1,)),
                              Chromosome(np.ones(1, np.uint8)))
        assert_oracle_fit(pair)
        for algo in ("zerocross", "gasel"):  # no comparable imposter pair
            assert pair.score_ranges[algo] == ScoreRange(0.0, 1.0)


class TestPersistence:
    def test_save_load_field_identical(self, gallery, tmp_path):
        path = tmp_path / "gallery.irf"
        save(gallery, path)
        back = load(path)
        assert len(back.table) == len(gallery.table)
        assert back.identities == gallery.identities
        for a, b in zip(gallery.table.templates, back.table.templates):
            assert np.array_equal(a.bits, b.bits)
            assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(gallery.table.euler, back.table.euler)
        for codes in (gallery.table.euler, back.table.euler):  # enrolled and loaded codes are read-only
            assert codes.dtype == np.int64 and codes.shape == (len(gallery.table), 4)
            with pytest.raises(ValueError):
                codes[0, 0] = 99
        assert np.array_equal(gallery.table.values, back.table.values)
        assert np.array_equal(gallery.table.valid, back.table.valid)
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

    def test_failed_save_leaves_the_previous_file(self, gallery, tmp_path, monkeypatch):
        path = tmp_path / "gallery.irf"
        save(gallery_rows(gallery, range(1)), path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr("irisfuse.store.os.replace", crash)
        with pytest.raises(OSError, match="disk went away"):
            save(gallery, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no gallery.irf.tmp left behind

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
                                          "[0, inf] range", "[-inf, 1] range",
                                          "zerocross [0, 1e300]", "zerocross [0.4, 0.5]",
                                          "gasel [0, 2]", "zero-scale record",
                                          "mixed scale counts", "uniform one-scale records",
                                          "bad UTF-8 id", "duplicate id", "65-byte id",
                                          "NaN feature value"])
    def test_invalid_contents_are_format_errors(self, gallery, tmp_path, mutation):
        path = tmp_path / "bad.irf"
        data = bytearray(to_bytes(gallery)[:-4])
        # magic, version u8, count u32, 16 f64 covariance, f64 epsilon, pool size u16,
        # pool indices u16, packed genes, then the three score ranges {u8, f64, f64}
        # (zerocross, euler, gasel), then the records
        covariance = 4 + struct.calcsize("<BI")
        pool = len(gallery.pool)
        ranges = covariance + 17 * 8 + 2 + 2 * pool + (pool + 7) // 8
        # the first record: id length u8, id, scale count u8, one packed plane per scale
        scales = ranges + 3 * 17 + 1 + len(gallery.identities[0].encode())
        plane = gallery.table.templates[0].bits[0].size // 8
        assert data[scales] == 2
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
        elif mutation == "zerocross [0, 1e300]":
            data[ranges + 1:ranges + 17] = struct.pack("<dd", 0.0, 1e300)
        elif mutation == "zerocross [0.4, 0.5]":
            data[ranges + 1:ranges + 17] = struct.pack("<dd", 0.4, 0.5)
        elif mutation == "gasel [0, 2]":
            data[ranges + 35:ranges + 51] = struct.pack("<dd", 0.0, 2.0)
        elif mutation == "zero-scale record":
            data[scales] = 0
            del data[scales + 1:scales + 1 + 2 * plane]
        elif mutation == "mixed scale counts":  # the first record keeps one of its two scales
            data[scales] = 1
            del data[scales + 1 + plane:scales + 1 + 2 * plane]
        elif mutation == "uniform one-scale records":  # every record keeps its first scale
            templates = tuple(ZeroCrossTemplate(t.bits[:1], t.mask) for t in gallery.table.templates)
            table = replace(gallery.table, templates=templates)
            data = bytearray(to_bytes(replace(gallery, table=table))[:-4])
        elif mutation == "bad UTF-8 id":
            data[data.find(b"person-0")] = 0xFF
        elif mutation == "65-byte id":
            at = data.find(b"person-0")
            data[at - 1] = 65
            data[at:at + 8] = b"x" * 65
        elif mutation == "NaN feature value":
            # past the two bit planes, the mask plane and the 4 x i32 Euler code
            values = scales + 1 + 3 * plane + 16
            data[values:values + 4] = struct.pack("<f", float("nan"))
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

    def test_euler_distance_is_between_own_mask_codes(self, gallery, corpus):
        # the gallery fits its covariance and Euler range on own-mask codes
        for r in corpus.records[::3]:
            probe = process_image(r.image, SegmentationConfig()).own_code
            for identity, code in zip(gallery.identities, gallery.table.euler):
                _, raw, _ = verify(gallery, identity, r.image, FusionPolicy())
                assert raw["euler"] == mahalanobis(probe, code, gallery.covariance)

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
        with pytest.raises(ValueError, match="unique"):
            Gallery(
                identities=("person-0", "person-0"),
                table=gallery_rows(gallery, [0, 0]).table,
                covariance=gallery.covariance,
                pool=gallery.pool,
                chromosome=gallery.chromosome,
                score_ranges=gallery.score_ranges,
            )

    def test_identity_length_capped(self, gallery):
        with pytest.raises(ValueError, match="UTF-8"):
            replace(gallery_rows(gallery, [0]), identities=("x" * 65,))
