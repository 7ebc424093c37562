import numpy as np
import pytest

from irisfuse.fusion import FusionPolicy
from irisfuse.segmentation import SegmentationError
from irisfuse.imaging import GrayImage
from irisfuse.store import (
    EnrollmentRecord,
    Gallery,
    GalleryFormatError,
    empty_gallery,
    enroll,
    load,
    save,
    verify,
)
from irisfuse.synth import build_corpus


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
