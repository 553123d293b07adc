"""CLI contract: exit codes, artifacts, reproducibility, env overrides."""
import json
import shutil
import subprocess

import numpy as np
import pytest

from ssfx.cli import main
from ssfx.io import read_feature_matrix, write_pgm
from ssfx.nn import load_checkpoint


def make_pgm(path, h=8, w=8, categories=3, seed=0):
    rng = np.random.default_rng(seed)
    write_pgm(path, rng.integers(0, categories + 1, size=(h, w)))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small benchmark dataset shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--samples", "6", "--noise", "0.05",
                 "--seed", "3"]) == 0
    return out


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["extract", "--bogus"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_step2_without_checkpoint_is_usage_error(self, tmp_path, capsys):
        rc = main(["train", "--stage", "step2", "--manifest", str(tmp_path / "m"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--from-checkpoint" in capsys.readouterr().err

    def test_extract_without_sources_is_usage_error(self, capsys):
        assert main(["extract"]) == 2
        assert "nothing to extract" in capsys.readouterr().err

    def test_extract_bare_file_without_L_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "m.pgm"
        make_pgm(p)
        assert main(["extract", str(p), "--out", str(tmp_path)]) == 2
        assert "--L is required" in capsys.readouterr().err

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        rc = main(["eval", "--manifest", str(tmp_path / "none.manifest"),
                   "--checkpoint", str(tmp_path / "none.ssfc")])
        assert rc == 1

    @pytest.mark.parametrize("header,field", [
        ({"num_categories": 3}, "num_classes"),
        ({"num_classes": 2, "num_categories": "3"}, "num_categories"),
        ({"num_classes": 2, "num_categories": 0}, "num_categories"),
        ({"num_classes": 2, "num_categories": 3, "void_value": "x"}, "void_value"),
        ({"num_classes": 2, "num_categories": 3, "void_value": False}, "void_value"),
    ], ids=["no-num-classes", "string-categories", "zero-categories", "string-void",
            "bool-void"])
    def test_bad_manifest_header_is_one_line_data_error(self, tmp_path, capsys, header, field):
        path = tmp_path / "dataset.manifest"
        path.write_text(json.dumps({"kind": "ssfx-manifest", "version": 1, **header}) + "\n")
        rc = main(["train", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and field in err

    def test_manifest_entry_not_an_object_is_one_line_data_error(self, synth_dir, tmp_path,
                                                                 capsys):
        broken_dir = tmp_path / "broken_set"
        shutil.copytree(synth_dir, broken_dir)
        lines = (broken_dir / "dataset.manifest").read_text().splitlines()
        path = broken_dir / "broken.manifest"
        path.write_text("\n".join(lines[:2] + ["[1, 2]"]) + "\n")
        rc = main(["extract", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "broken.manifest:3: entry must be a JSON object" in err

    def test_corrupt_checkpoint_sidecar_is_one_line_data_error(self, synth_dir, tmp_path,
                                                               capsys):
        run = tmp_path / "run"
        assert main(["train", "--manifest", str(synth_dir / "dataset.manifest"),
                     "--head", "nn", "--epochs", "1", "--out", str(run)]) == 0
        (run / "model.ssfc.meta.json").write_text("{truncated")
        capsys.readouterr()
        rc = main(["eval", "--manifest", str(synth_dir / "dataset.manifest"),
                   "--checkpoint", str(run / "model.ssfc")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "model.ssfc.meta.json: unreadable metadata sidecar" in err

    def test_learning_rate_times_decay_at_one_exits_1_without_checkpoint(self, synth_dir,
                                                                        tmp_path, capsys):
        run = tmp_path / "run"
        rc = main(["train", "--manifest", str(synth_dir / "dataset.manifest"),
                   "--head", "nn", "--epochs", "1", "--lr", "1e9", "--out", str(run)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "shrink" in err
        assert not (run / "model.ssfc").exists()

    def test_help_exits_zero_and_names_flags(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--manifest", "--stage", "--head", "--subset", "--seed", "--epochs",
                     "--batch", "--lr", "--weight-decay", "--from-checkpoint", "--out"):
            assert flag in text


class TestExtract:
    def test_single_pgm_yields_L_row_csv(self, tmp_path, capsys):
        p = tmp_path / "room.pgm"
        make_pgm(p, categories=3)
        out = tmp_path / "features"
        assert main(["extract", str(p), "--L", "40", "--out", str(out)]) == 0
        lines = (out / "room.csv").read_text().strip().splitlines()
        assert lines[0] == "category,pc,mu_x,mu_y,sigma_x,sigma_y"
        assert len(lines) == 41  # header + one row per category
        assert "extracted 1 of 1" in capsys.readouterr().out

    def test_same_input_twice_is_byte_identical(self, tmp_path):
        p = tmp_path / "m.pgm"
        make_pgm(p, categories=4, seed=5)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["extract", str(p), "--L", "4", "--out", str(out1)]) == 0
        assert main(["extract", str(p), "--L", "4", "--out", str(out2)]) == 0
        assert (out1 / "m.csv").read_bytes() == (out2 / "m.csv").read_bytes()

    def test_binary_format_round_trips(self, tmp_path):
        p = tmp_path / "m.pgm"
        make_pgm(p, categories=4, seed=1)
        out = tmp_path / "f"
        assert main(["extract", str(p), "--L", "4", "--format", "bin",
                     "--out", str(out)]) == 0
        matrix = read_feature_matrix(out / "m.ssff")
        assert matrix.shape == (4, 5)

    def test_manifest_with_one_corrupt_mask_partial_failure(self, synth_dir, tmp_path,
                                                            capsys, monkeypatch):
        corrupt_dir = tmp_path / "corrupt_set"
        shutil.copytree(synth_dir, corrupt_dir)
        victim = corrupt_dir / "masks" / "c0_s0001.ssfm"
        victim.write_bytes(b"SSFM\x01\x00garbage")
        out = tmp_path / "features"
        rc = main(["extract", "--manifest", str(corrupt_dir / "dataset.manifest"),
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "c0_s0001" in captured.err
        written = list(out.glob("*.csv"))
        assert len(written) == 36 - 1  # every healthy mask still extracted
        assert "extracted 35 of 36" in captured.out

    def test_threaded_extraction_matches_serial(self, synth_dir, tmp_path):
        serial, threaded = tmp_path / "s", tmp_path / "t"
        manifest = str(synth_dir / "dataset.manifest")
        assert main(["extract", "--manifest", manifest, "--out", str(serial)]) == 0
        assert main(["extract", "--manifest", manifest, "--out", str(threaded),
                     "--threads", "4"]) == 0
        for f in sorted(serial.glob("*.csv")):
            assert f.read_bytes() == (threaded / f.name).read_bytes()


class TestSynthTrainEval:
    def test_synth_writes_manifest_and_record(self, synth_dir):
        assert (synth_dir / "dataset.manifest").exists()
        record = json.loads((synth_dir / "run_record.json").read_text())
        assert record["command"] == "synth"
        assert record["config"]["samples"] == 6
        assert record["config"]["seed"] == 3
        assert "version" in record
        assert not any("time" in k.lower() or "date" in k.lower() for k in record)

    def test_synth_is_reproducible(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--samples", "6", "--noise", "0.05",
                     "--seed", "3"]) == 0
        for mask in sorted((synth_dir / "masks").glob("*.ssfm")):
            assert mask.read_bytes() == (again / "masks" / mask.name).read_bytes()
        assert ((synth_dir / "dataset.manifest").read_bytes()
                == (again / "dataset.manifest").read_bytes())

    def test_train_then_eval(self, synth_dir, tmp_path, capsys):
        run = tmp_path / "run"
        rc = main(["train", "--manifest", str(synth_dir / "dataset.manifest"),
                   "--head", "nn", "--epochs", "3", "--lr", "0.001",
                   "--seed", "0", "--out", str(run)])
        assert rc == 0
        assert (run / "model.ssfc").exists()
        assert (run / "model.ssfc.meta.json").exists()
        metrics = [json.loads(ln) for ln in (run / "metrics.jsonl").read_text().splitlines()]
        assert len(metrics) == 6
        record = json.loads((run / "run_record.json").read_text())
        assert record["config"]["head"] == "nn"
        assert record["config"]["subset"] == "pc,ap,sd"

        capsys.readouterr()
        rc = main(["eval", "--manifest", str(synth_dir / "dataset.manifest"),
                   "--checkpoint", str(run / "model.ssfc"), "--out", str(tmp_path / "ev")])
        assert rc == 0
        assert "accuracy:" in capsys.readouterr().out
        report = json.loads((tmp_path / "ev" / "report.json").read_text())
        assert report["total"] == 12  # 6 classes x 2 test samples
        assert (tmp_path / "ev" / "confusion.csv").read_text().startswith("true\\pred,")

    def test_training_is_bit_reproducible(self, synth_dir, tmp_path):
        args = ["train", "--manifest", str(synth_dir / "dataset.manifest"),
                "--head", "nn", "--epochs", "2", "--seed", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ca, cb = load_checkpoint(a / "model.ssfc"), load_checkpoint(b / "model.ssfc")
        assert ca.block_hashes() == cb.block_hashes()
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()

    def test_two_step_flow_freezes_global_branch(self, tmp_path, capsys):
        data_dir = tmp_path / "si"
        assert main(["synth", "--out", str(data_dir), "--variant", "split-info",
                     "--samples", "6", "--noise", "0.05", "--seed", "5"]) == 0
        manifest = str(data_dir / "dataset.manifest")

        step1 = tmp_path / "step1"
        assert main(["train", "--manifest", manifest, "--stage", "step1",
                     "--epochs", "3", "--lr", "0.001", "--out", str(step1)]) == 0
        ck1 = load_checkpoint(step1 / "model.ssfc")
        assert ck1.descriptor["model"] == "global"

        step2 = tmp_path / "step2"
        assert main(["train", "--manifest", manifest, "--stage", "step2", "--head", "nn",
                     "--epochs", "3", "--lr", "0.001",
                     "--from-checkpoint", str(step1 / "model.ssfc"),
                     "--out", str(step2)]) == 0
        ck2 = load_checkpoint(step2 / "model.ssfc")
        assert ck2.descriptor["model"] == "fusion"
        h1, h2 = ck1.block_hashes(), ck2.block_hashes()
        assert h2["global_fc1.weight"] == h1["global_fc1.weight"]
        assert h2["global_fc1.bias"] == h1["global_fc1.bias"]
        assert ck2.metadata["frozen"] == ["global_fc1.bias", "global_fc1.weight"]


class TestAblateCommand:
    def test_emits_14_rows_and_json(self, tmp_path, capsys):
        data_dir = tmp_path / "tiny"
        assert main(["synth", "--out", str(data_dir), "--samples", "4",
                     "--noise", "0.05", "--seed", "2", "--height", "16",
                     "--width", "16"]) == 0
        capsys.readouterr()
        out = tmp_path / "grid"
        rc = main(["ablate", "--manifest", str(data_dir / "dataset.manifest"),
                   "--epochs", "1", "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        rows = [ln for ln in table.splitlines() if ln and not ln.startswith("features")]
        assert len(rows) == 14
        grid = json.loads((out / "ablation.json").read_text())
        assert len(grid["cells"]) == 14
        networks = {c["network"] for c in grid["cells"]}
        assert networks == {"cnn", "nn"}


class TestGradcheckCommand:
    def test_small_nn_model_passes(self, capsys):
        rc = main(["gradcheck", "--model", "ssf-nn", "--L", "4", "--classes", "3",
                   "--sample-per-block", "8"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_negative_control_must_fail(self, capsys):
        rc = main(["gradcheck", "--model", "ssf-nn", "--L", "4", "--classes", "3",
                   "--sample-per-block", "8", "--negative-control"])
        assert rc == 0
        assert "failed as required" in capsys.readouterr().out

    def test_fusion_model_passes(self, capsys):
        rc = main(["gradcheck", "--model", "fusion", "--L", "4", "--classes", "3",
                   "--sample-per-block", "8"])
        assert rc == 0


class TestBenchCommand:
    def test_report_and_json(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--model", "ssf-nn", "--L", "6", "--classes", "3",
                   "--iters", "1000", "--warmup", "10", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "parameters:" in text and "throughput:" in text
        data = json.loads((out / "bench.json").read_text())
        assert data["model"] == "ssf-nn"
        assert data["mac_count"] * 2 == data["flops"]

    def test_extraction_timing_flag(self, tmp_path, capsys):
        rc = main(["bench", "--model", "ssf-nn", "--L", "6", "--classes", "3",
                   "--iters", "1000", "--warmup", "10", "--extract", "--runs", "20",
                   "--out", str(tmp_path / "b")])
        assert rc == 0
        assert "extraction median" in capsys.readouterr().out
        data = json.loads((tmp_path / "b" / "bench.json").read_text())
        assert data["extract_median_seconds"] > 0


class TestEnvOverrides:
    def test_env_sets_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SSFX_SEED", "9")
        out = tmp_path / "env"
        assert main(["synth", "--out", str(out), "--samples", "4", "--noise", "0.0"]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert record["config"]["seed"] == 9

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SSFX_SEED", "9")
        out = tmp_path / "env"
        assert main(["synth", "--out", str(out), "--samples", "4", "--noise", "0.0",
                     "--seed", "3"]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert record["config"]["seed"] == 3

    def test_invalid_env_value_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("SSFX_EPOCHS", "many")
        with pytest.raises(SystemExit) as err:
            main(["synth", "--out", "/tmp/x"])
        assert err.value.code == 2

    def test_invalid_env_choice_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("SSFX_FORMAT", "xml")
        with pytest.raises(SystemExit) as err:
            main(["extract"])
        assert err.value.code == 2


class TestConsoleScript:
    def test_installed_entry_point_reports_version(self):
        exe = shutil.which("ssfx")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "ssfx" in proc.stdout
