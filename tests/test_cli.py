import hashlib
import re
import shutil
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from irisfuse import cli, store
from irisfuse.cli import main
from irisfuse.config import RunConfig
from irisfuse.imaging import BinaryImage, GrayImage, save_pgm
from irisfuse.segmentation import Circle
from irisfuse.synth import SynthEyeSpec, synth_eye
from irisfuse.zerocross import ZeroCrossTemplate


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["synth", "--identities", "4", "--samples", "3", "--seed", "7", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def gallery_path(tmp_path_factory, corpus_dir):
    path = tmp_path_factory.mktemp("gallery") / "gallery.irf"
    manifest = (corpus_dir / "manifest.txt").read_text().splitlines()
    by_identity = {}
    for line in manifest:
        name, ident = line.split()[:2]
        by_identity.setdefault(ident, []).append(str(corpus_dir / name))
    for ident, images in sorted(by_identity.items()):
        rc = main(["enroll", "--gallery", str(path), "--id", f"person-{ident}", *images])
        assert rc == 0
    return path


class TestSynth:
    def test_creates_images_and_manifest(self, corpus_dir):
        pgms = sorted(corpus_dir.glob("*.pgm"))
        assert len(pgms) == 12
        assert (corpus_dir / "manifest.txt").exists()
        assert (corpus_dir / "effective_config.txt").exists()

    def test_same_seed_same_manifest_hash(self, corpus_dir, tmp_path):
        rc = main(["synth", "--identities", "4", "--samples", "3", "--seed", "7",
                   "--out", str(tmp_path)])
        assert rc == 0
        h1 = hashlib.sha256((corpus_dir / "manifest.txt").read_bytes()).hexdigest()
        h2 = hashlib.sha256((tmp_path / "manifest.txt").read_bytes()).hexdigest()
        assert h1 == h2

    def test_zero_identities_is_usage_error(self, tmp_path):
        rc = main(["synth", "--identities", "0", "--samples", "2", "--out", str(tmp_path)])
        assert rc == 2


class TestSegment:
    def test_circles_match_manifest(self, corpus_dir, tmp_path):
        line = (corpus_dir / "manifest.txt").read_text().splitlines()[0]
        parts = line.split()
        image = corpus_dir / parts[0]
        truth = [float(v) for v in parts[3:]]
        rc = main(["segment", str(image), "--out", str(tmp_path)])
        assert rc == 0
        sidecar = (tmp_path / f"{image.stem}_circles.txt").read_text().splitlines()
        pupil = [float(v) for v in sidecar[0].split()[1:]]
        iris = [float(v) for v in sidecar[1].split()[1:]]
        for got, want in zip(pupil + iris, truth):
            assert abs(got - want) <= 2.0
        assert (tmp_path / f"{image.stem}_overlay.pgm").exists()

    def test_blank_image_exits_1(self, tmp_path):
        blank = tmp_path / "blank.pgm"
        blank.write_bytes(save_pgm(GrayImage(np.full((192, 256), 127, dtype=np.uint8))))
        assert main(["segment", str(blank), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("size", [1, 3, 4])
    def test_tiny_image_exits_1(self, tmp_path, size):
        tiny = tmp_path / "tiny.pgm"
        tiny.write_bytes(save_pgm(GrayImage(np.full((size, size), 90, dtype=np.uint8))))
        assert main(["segment", str(tiny), "--out", str(tmp_path)]) == 1

    def test_malformed_pgm_exits_2(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6 2 2 255 junk")
        assert main(["segment", str(bad), "--out", str(tmp_path)]) == 2

    def test_sample_above_maxval_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "over.pgm"
        bad.write_bytes(b"P5\n2 1\n100\n" + bytes([200, 50]))
        assert main(["segment", str(bad), "--out", str(tmp_path)]) == 2
        assert "sample value 200 exceeds maxval 100" in capsys.readouterr().err

    # Eye 57 (identity 14, sample 1) of build_corpus(30, 4, 7).  Its iris
    # radius lies below iris_r_min, so the pupil search finds a circle of
    # radius 62 that the iris circle does not contain; the pipeline rejects it.
    UNNESTED_EYE = SynthEyeSpec(
        width=256, height=192,
        pupil=Circle(129.11347581558422, 96.09942195442457, 26.434792820468655),
        iris=Circle(130.36094514356725, 97.00993177702622, 62.34851706815059),
        texture_seed=1073283950, eyelid_coverage=0.05885532171278299, specular_spots=0,
        noise_sigma=1.0, rotation=0.06740411825200884, noise_seed=2047316442,
    )

    @pytest.mark.parametrize("polar", [[], ["--polar"]])
    def test_fails_exactly_when_the_pipeline_does(self, tmp_path, capsys, polar):
        image = tmp_path / "eye.pgm"
        image.write_bytes(save_pgm(synth_eye(self.UNNESTED_EYE)[0]))
        rc = main(["segment", str(image), "--out", str(tmp_path / "out"), *polar])
        assert rc == 1
        assert "pupil circle not contained in iris circle" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [image]


class TestEnrollVerify:
    def test_gallery_contents(self, gallery_path):
        gallery = store.load(gallery_path)
        assert len(gallery.records) == 4

    def test_duplicate_enroll_exits_2(self, gallery_path, corpus_dir):
        image = str(next(corpus_dir.glob("eye_000_*.pgm")))
        rc = main(["enroll", "--gallery", str(gallery_path), "--id", "person-0", image])
        assert rc == 2

    def test_verify_genuine_accepts(self, gallery_path, corpus_dir, capsys):
        image = str(sorted(corpus_dir.glob("eye_002_*.pgm"))[1])
        rc = main(["verify", "--gallery", str(gallery_path), "--id", "person-2", image])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ACCEPT" in out
        assert "fused similarity" in out

    def test_verify_genuine_accept_rate(self, gallery_path, corpus_dir, capsys):
        outcomes = []
        for ident in range(4):
            for image in sorted(corpus_dir.glob(f"eye_{ident:03d}_*.pgm")):
                rc = main(["verify", "--gallery", str(gallery_path),
                           "--id", f"person-{ident}", str(image)])
                outcomes.append(rc == 0)
        capsys.readouterr()
        assert np.mean(outcomes) >= 0.9

    def test_verify_imposter_rejects(self, gallery_path, corpus_dir, capsys):
        image = str(sorted(corpus_dir.glob("eye_002_*.pgm"))[0])
        rc = main(["verify", "--gallery", str(gallery_path), "--id", "person-0", image])
        assert rc == 1
        assert "REJECT" in capsys.readouterr().out

    def test_verify_against_an_infinite_range_exits_2(self, gallery_path, corpus_dir, tmp_path, capsys):
        # a zerocross range of [0, inf] maps every zerocross distance to
        # similarity 1, which lifts this imposter claim from fused 0.198 to 0.529
        image = str(sorted(corpus_dir.glob("eye_001_*.pgm"))[0])
        assert main(["verify", "--gallery", str(gallery_path), "--id", "person-0", image]) == 1
        r = store.load(gallery_path).score_ranges["zerocross"]
        data = gallery_path.read_bytes()[:-4]
        old = struct.pack("<Bdd", 0, r.min, r.max)
        assert data.count(old) == 1
        data = data.replace(old, struct.pack("<Bdd", 0, 0.0, float("inf")))
        path = tmp_path / "infinite.irf"
        path.write_bytes(data + struct.pack("<I", zlib.crc32(data) & 0xFFFFFFFF))
        capsys.readouterr()
        rc = main(["verify", "--gallery", str(path), "--id", "person-0", image])
        assert rc == 2
        captured = capsys.readouterr()
        assert "invalid gallery contents: score range needs finite min < max" in captured.err
        assert "ACCEPT" not in captured.out

    def test_verify_with_nothing_jointly_valid_exits_1(self, gallery_path, corpus_dir, tmp_path, capsys):
        gallery = store.load(gallery_path)
        records = []
        for rec in gallery.records:
            masked = np.ones_like(rec.template.mask.bits)
            records.append(replace(rec, template=ZeroCrossTemplate(rec.template.bits, BinaryImage(masked))))
        path = tmp_path / "masked.irf"
        path.write_bytes(store.to_bytes(replace(gallery, records=tuple(records))))
        image = str(sorted(corpus_dir.glob("eye_002_*.pgm"))[1])
        rc = main(["verify", "--gallery", str(path), "--id", "person-2", image])
        assert rc == 1
        assert "verification impossible" in capsys.readouterr().err

    def test_verify_unknown_id_exits_2(self, gallery_path, corpus_dir):
        image = str(next(corpus_dir.glob("*.pgm")))
        rc = main(["verify", "--gallery", str(gallery_path), "--id", "nobody", image])
        assert rc == 2


class TestTrainGa:
    def test_trains_and_persists(self, corpus_dir, tmp_path, capsys):
        gallery = tmp_path / "g.irf"
        rc = main(["train-ga", "--corpus", str(corpus_dir), "--gallery", str(gallery),
                   "--generations", "3", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        loaded = store.load(gallery)
        assert 0 < len(loaded.pool) <= 672
        history = (tmp_path / "ga_history.csv").read_text().splitlines()
        assert history[0] == "generation,best_cost"
        assert len(history) >= 2

    def test_deterministic_given_seed(self, corpus_dir, tmp_path):
        chromos = []
        for sub in ("a", "b"):
            gal = tmp_path / f"{sub}.irf"
            rc = main(["train-ga", "--corpus", str(corpus_dir), "--gallery", str(gal),
                       "--generations", "2", "--seed", "9", "--out", str(tmp_path / sub)])
            assert rc == 0
            chromos.append(store.load(gal).chromosome.genes)
        assert np.array_equal(chromos[0], chromos[1])

    def test_score_ranges_refitted_for_the_new_selection(self, corpus_dir, gallery_path, tmp_path):
        gal = tmp_path / "trained.irf"
        gal.write_bytes(gallery_path.read_bytes())
        before = store.load(gal)
        rc = main(["train-ga", "--corpus", str(corpus_dir), "--gallery", str(gal),
                   "--generations", "2", "--seed", "5", "--out", str(tmp_path / "ga")])
        assert rc == 0
        after = store.load(gal)
        assert [r.identity for r in after.records] == [r.identity for r in before.records]
        assert not np.array_equal(after.chromosome.genes, before.chromosome.genes)
        _, refit = store._recalibrate(after.records, after.pool, after.chromosome,
                                      RunConfig().pipeline().max_shift)
        assert after.score_ranges == refit
        assert after.score_ranges["gasel"] != before.score_ranges["gasel"]

    def test_zero_generations_persists_initial_best(self, corpus_dir, tmp_path):
        gal = tmp_path / "zero.irf"
        rc = main(["train-ga", "--corpus", str(corpus_dir), "--gallery", str(gal),
                   "--generations", "0", "--seed", "3", "--out", str(tmp_path / "zero")])
        assert rc == 0
        history = (tmp_path / "zero" / "ga_history.csv").read_text().splitlines()
        assert len(history) == 2  # header + initial generation only


    def test_identity_with_one_segmented_sample_is_named(self, gallery_path, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--identities", "3", "--samples", "2", "--seed", "2026",
                     "--out", str(corpus)]) == 0
        (corpus / "eye_001_01.pgm").write_bytes(save_pgm(GrayImage(np.full((192, 256), 128, np.uint8))))
        gallery = tmp_path / "g.irf"
        gallery.write_bytes(gallery_path.read_bytes())
        out = tmp_path / "ga"
        capsys.readouterr()
        rc = main(["train-ga", "--corpus", str(corpus), "--gallery", str(gallery),
                   "--generations", "0", "--seed", "7", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: every identity needs at least 2 segmented samples; "
            "too few for identity 1 (1 of 2 segmented)\n")
        assert gallery.read_bytes() == gallery_path.read_bytes()
        assert not out.exists()

    def test_identity_with_no_segmented_sample_is_named(self, gallery_path, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--identities", "3", "--samples", "2", "--seed", "2026",
                     "--out", str(corpus)]) == 0
        for sample in ("00", "01"):
            (corpus / f"eye_001_{sample}.pgm").write_bytes(
                save_pgm(GrayImage(np.full((192, 256), 128, np.uint8))))
        gallery = tmp_path / "g.irf"
        gallery.write_bytes(gallery_path.read_bytes())
        out = tmp_path / "ga"
        capsys.readouterr()
        rc = main(["train-ga", "--corpus", str(corpus), "--gallery", str(gallery),
                   "--generations", "0", "--seed", "7", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: every identity needs at least 2 segmented samples; "
            "too few for identity 1 (0 of 2 segmented)\n")
        assert gallery.read_bytes() == gallery_path.read_bytes()
        assert not out.exists()


class TestEvaluate:
    def test_writes_reports_and_summary(self, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--identities", "3", "--samples", "3", "--seed", "11",
                   "--out", str(out)])
        assert rc == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert len(summary) == 5  # three algorithms + fused, then the failure count
        for name, line in zip(("zerocross", "euler", "gasel", "fused"), summary):
            assert re.fullmatch(rf"{name} EER \d\.\d{{6}} at threshold \d\.\d{{6}}; "
                                r"FAR \d\.\d{6} FRR \d\.\d{6} at fusion_threshold 0\.420000", line), line
        assert summary[-1] == "failures 0 of 9 images"
        assert capsys.readouterr().out.splitlines() == summary
        for name in ("zerocross", "euler", "gasel", "fused"):
            assert (out / f"{name}.csv").exists()
            assert (out / f"roc_{name}.pgm").exists()

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            rc = main(["evaluate", "--identities", "3", "--samples", "3", "--seed", "11",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for name in ("zerocross", "euler", "gasel", "fused"):
            assert (outs[0] / f"{name}.csv").read_bytes() == (outs[1] / f"{name}.csv").read_bytes()
        assert (outs[0] / "summary.txt").read_bytes() == (outs[1] / "summary.txt").read_bytes()

    def test_failure_count_names_the_uniform_image(self, tmp_path, capsys):
        # 1 of 6 images fails, under the 20% limit that aborts a run
        corpus = tmp_path / "corpus"
        assert main(["synth", "--identities", "3", "--samples", "2", "--seed", "2026",
                     "--out", str(corpus)]) == 0
        (corpus / "eye_002_01.pgm").write_bytes(save_pgm(GrayImage(np.full((192, 256), 128, np.uint8))))
        capsys.readouterr()
        assert main(["evaluate", "--corpus", str(corpus), "--out", str(tmp_path / "e")]) == 0
        summary = (tmp_path / "e" / "summary.txt").read_text().splitlines()
        assert summary[-1] == "failures 1 of 6 images"
        assert capsys.readouterr().out.splitlines()[-1] == "failures 1 of 6 images"

    def test_too_few_identities_exits_2(self, tmp_path):
        rc = main(["evaluate", "--identities", "1", "--samples", "2", "--out", str(tmp_path)])
        assert rc == 2

    def test_no_genuine_pair_exits_2(self, tmp_path, capsys):
        rc = main(["evaluate", "--identities", "3", "--samples", "1", "--out", str(tmp_path / "e")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: no genuine pair")
        assert not (tmp_path / "e").exists()

    def test_corpus_route_samples_imposters_with_the_seed(self, tmp_path):
        # 45 images: 2700 cross pairs, so the 450 imposter pairs are a seeded sample
        corpus = tmp_path / "corpus"
        assert main(["synth", "--identities", "15", "--samples", "3", "--seed", "7",
                     "--out", str(corpus)]) == 0
        assert main(["evaluate", "--corpus", str(corpus), "--seed", "7",
                     "--out", str(tmp_path / "loaded")]) == 0
        assert main(["evaluate", "--identities", "15", "--samples", "3", "--seed", "7",
                     "--out", str(tmp_path / "built")]) == 0
        summary = [(tmp_path / sub / "summary.txt").read_text() for sub in ("loaded", "built")]
        assert summary[0] == summary[1]


def assert_operational_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


class TestOsErrorsExit2:
    """A path that is a directory where a file belongs, or a file where a
    directory belongs, is an operational error, not a REJECT."""

    def test_verify_gallery_is_a_directory(self, corpus_dir, tmp_path, capsys):
        probe = str(sorted(corpus_dir.glob("*.pgm"))[0])
        rc = main(["verify", "--gallery", str(tmp_path), "--id", "person-0", probe])
        assert_operational_error(rc, capsys)

    @pytest.mark.parametrize("where", ["gallery", "image"])
    def test_enroll_path_is_a_directory(self, corpus_dir, tmp_path, capsys, where):
        image = str(sorted(corpus_dir.glob("*.pgm"))[0])
        gallery = str(tmp_path / "g.irf")
        if where == "gallery":
            gallery = str(tmp_path)
        else:
            image = str(tmp_path)
        rc = main(["enroll", "--gallery", gallery, "--id", "person-x", image])
        assert_operational_error(rc, capsys)
        assert not any(tmp_path.iterdir())  # nothing written

    def test_evaluate_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("x")
        rc = main(["evaluate", "--identities", "2", "--samples", "2", "--out", str(out)])
        assert_operational_error(rc, capsys)
        assert out.read_text() == "x"

    def test_evaluate_out_checked_before_any_image(self, tmp_path, capsys, monkeypatch):
        def run_trials(*args, **kwargs):
            pytest.fail("evaluate processed images before it checked --out")

        monkeypatch.setattr(cli, "run_trials", run_trials)
        out = tmp_path / "taken"
        out.write_text("x")
        rc = main(["evaluate", "--identities", "2", "--samples", "2", "--out", str(out)])
        assert_operational_error(rc, capsys)
        assert out.read_text() == "x"

    def test_train_ga_out_is_a_file_leaves_gallery(self, corpus_dir, gallery_path, tmp_path,
                                                   capsys, monkeypatch):
        def process_images(*args, **kwargs):
            pytest.fail("train-ga processed images before it checked --out")

        monkeypatch.setattr(cli, "process_images", process_images)
        gallery = tmp_path / "g.irf"
        gallery.write_bytes(gallery_path.read_bytes())
        out = tmp_path / "taken"
        out.write_text("x")
        rc = main(["train-ga", "--corpus", str(corpus_dir), "--gallery", str(gallery),
                   "--generations", "0", "--seed", "7", "--out", str(out)])
        assert_operational_error(rc, capsys)
        assert gallery.read_bytes() == gallery_path.read_bytes()
        assert out.read_text() == "x"

    def test_synth_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("x")
        rc = main(["synth", "--identities", "1", "--samples", "1", "--out", str(out)])
        assert_operational_error(rc, capsys)
        assert out.read_text() == "x"


class TestMalformedManifestExit2:
    """A manifest line without its nine fields is named in the error, and
    the command exits 2 before it reads the line's image."""

    @pytest.mark.parametrize("command", ["evaluate", "train-ga"])
    def test_short_line(self, corpus_dir, tmp_path, capsys, command):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        lines = (corpus / "manifest.txt").read_text().splitlines()
        lines[1] = " ".join(lines[1].split()[:3])
        (corpus / "manifest.txt").write_text("\n".join(lines) + "\n")
        if command == "evaluate":
            argv = ["evaluate", "--corpus", str(corpus), "--out", str(tmp_path / "out")]
        else:
            argv = ["train-ga", "--corpus", str(corpus), "--gallery", str(tmp_path / "g.irf"),
                    "--generations", "0"]
        rc = main(argv)
        assert rc == 2
        assert capsys.readouterr().err == "error: manifest.txt line 2: expected 9 fields, got 3\n"
        assert not (tmp_path / "out").exists() and not (tmp_path / "g.irf").exists()


class TestConfigIntegration:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rng_seed = 13\n")
        monkeypatch.setenv("IRISFUSE_CONFIG", str(cfg))
        out = tmp_path / "corpus"
        rc = main(["synth", "--identities", "2", "--samples", "2", "--out", str(out)])
        assert rc == 0
        assert "rng_seed = 13" in (out / "effective_config.txt").read_text()

    def test_evaluate_under_the_weighted_rule(self, tmp_path):
        cfg = tmp_path / "weighted.cfg"
        cfg.write_text("fusion_rule = weighted\nfusion_weights = 0.5,0.25,0.25\n")
        out = tmp_path / "eval"
        rc = main(["--config", str(cfg), "evaluate", "--identities", "3", "--samples", "3",
                   "--seed", "11", "--out", str(out)])
        assert rc == 0
        effective = (out / "effective_config.txt").read_text().splitlines()
        assert "fusion_rule = weighted" in effective
        assert "fusion_weights = 0.5,0.25,0.25" in effective
        assert (out / "fused.csv").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n")
        rc = main(["--config", str(cfg), "synth", "--identities", "2", "--samples", "2",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
