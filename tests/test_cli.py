"""CLI contract: exit codes, artifacts, run records, reproducibility."""
import importlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ssfx
import ssfx.cli as cli_module
import ssfx.data as data_module
from ssfx.cli import main
from ssfx.io import read_feature_matrix, write_feature_vector, write_pgm
from ssfx.nn import Checkpoint, load_checkpoint, save_checkpoint


def make_pgm(path, h=8, w=8, categories=3, seed=0):
    rng = np.random.default_rng(seed)
    write_pgm(path, rng.integers(0, categories + 1, size=(h, w)))


def assert_environment(record):
    """The run record names the numpy build, the CPUs and the thread variables."""
    env = record["environment"]
    assert env["numpy"] == np.__version__
    assert isinstance(env["blas"], str) and env["blas"]
    assert env["cpu_count"] == os.cpu_count()
    assert env["usable_cpus"] == len(os.sched_getaffinity(0)) >= 1
    assert env["thread_variables"] == {k: os.environ.get(k) for k in
                                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}


def read_record(out_dir, command):
    """A record of a run that succeeded, with the same keys as every record."""
    record = json.loads((out_dir / "run_record.json").read_text())
    assert set(record) == {"command", "config", "version", "environment", "exit_code", "error"}
    assert record["command"] == command
    assert record["exit_code"] == 0 and record["error"] is None
    assert_environment(record)
    return record


def derived_manifest(src_dir, dst_dir, keep, **header):
    """Copy a synthetic dataset to ``dst_dir`` and rewrite its manifest to hold
    only the entries ``keep`` accepts, with ``header``'s fields replaced."""
    shutil.copytree(src_dir, dst_dir)
    path = dst_dir / "dataset.manifest"
    lines = path.read_text().splitlines()
    entries = [ln for ln in lines[1:] if keep(json.loads(ln))]
    path.write_text("\n".join([json.dumps({**json.loads(lines[0]), **header})] + entries) + "\n")
    return path


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small benchmark dataset shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--samples", "6", "--noise", "0.05",
                 "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def narrow_global(tmp_path_factory):
    """A step-1 checkpoint trained on 16-wide global vectors, and the manifest
    of a split-information dataset whose global vectors are 8 wide."""
    root = tmp_path_factory.mktemp("narrow")
    for name, width in (("wide", "16"), ("narrow", "8")):
        assert main(["synth", "--out", str(root / name), "--variant", "split-info",
                     "--samples", "3", "--global-width", width]) == 0
    assert main(["train", "--manifest", str(root / "wide" / "dataset.manifest"), "--stage",
                 "step1", "--epochs", "1", "--out", str(root / "step1")]) == 0
    return str(root / "step1" / "model.ssfc"), str(root / "narrow" / "dataset.manifest")


@pytest.fixture(scope="module")
def large_dir(tmp_path_factory):
    """Thirteen 256x256 masks, large enough to be read on two threads."""
    out = tmp_path_factory.mktemp("large")
    assert main(["synth", "--out", str(out), "--samples", "3", "--height", "256",
                 "--width", "256", "--seed", "4"]) == 0
    lines = (out / "dataset.manifest").read_text().splitlines()
    (out / "dataset.manifest").write_text("\n".join(lines[:14]) + "\n")
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

    @pytest.mark.parametrize("descriptor,key", [
        ({"model": "semantic", "head": "nn"}, "subset"),
        ({"model": "global", "global_input_width": 16, "num_classes": 6, "global_width": "x"},
         "global_width"),
    ], ids=["missing-subset", "global-width-str"])
    def test_bad_checkpoint_descriptor_is_one_line_data_error(self, synth_dir, tmp_path, capsys,
                                                              descriptor, key):
        path = tmp_path / "model.ssfc"
        save_checkpoint(Checkpoint(descriptor, {}), path)
        capsys.readouterr()
        rc = main(["eval", "--manifest", str(synth_dir / "dataset.manifest"),
                   "--checkpoint", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and repr(key) in err

    def test_descriptor_too_large_to_allocate_is_one_line_data_error(self, synth_dir, tmp_path,
                                                                      capsys):
        path = tmp_path / "model.ssfc"
        save_checkpoint(Checkpoint({"model": "global", "global_input_width": 1000000,
                                    "num_classes": 3, "global_width": 1000000}, {}), path)
        capsys.readouterr()
        rc = main(["eval", "--manifest", str(synth_dir / "dataset.manifest"),
                   "--checkpoint", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "too large to allocate" in err and "'global_width': 1000000" in err

    def test_step2_on_bad_base_descriptor_is_one_line_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--variant", "split-info",
                     "--samples", "3"]) == 0
        base = tmp_path / "step1.ssfc"
        save_checkpoint(Checkpoint({"model": "global", "global_input_width": 16,
                                    "num_classes": 6, "global_width": "x"}, {}), base)
        capsys.readouterr()
        rc = main(["train", "--manifest", str(data / "dataset.manifest"), "--stage", "step2",
                   "--head", "nn", "--from-checkpoint", str(base), "--epochs", "1",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "'global_width'" in err

    @pytest.mark.parametrize("command", ["eval", "step2"])
    def test_non_finite_checkpoint_is_one_line_data_error(self, tmp_path, capsys, command):
        # ReLU maps NaN to 0, so NaN weights can still give finite logits;
        # the check is on the parameters as they are loaded.
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--variant", "split-info",
                     "--samples", "6"]) == 0
        manifest = str(data / "dataset.manifest")
        assert main(["train", "--manifest", manifest, "--stage", "step1", "--epochs", "1",
                     "--out", str(tmp_path / "step1")]) == 0
        ckpt = load_checkpoint(tmp_path / "step1" / "model.ssfc")
        ckpt.params["global_fc1.weight"][0, 0] = np.nan
        save_checkpoint(ckpt, tmp_path / "nan.ssfc")
        capsys.readouterr()
        if command == "eval":
            argv = ["eval", "--manifest", manifest, "--checkpoint", str(tmp_path / "nan.ssfc")]
        else:
            argv = ["train", "--manifest", manifest, "--stage", "step2", "--head", "nn",
                    "--from-checkpoint", str(tmp_path / "nan.ssfc"), "--epochs", "1",
                    "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'nan.ssfc'}: "
                       f"parameter 'global_fc1.weight' is not finite\n")

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_step2_on_global_vectors_that_overflow_the_frozen_branch(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--variant", "split-info",
                     "--samples", "3"]) == 0
        manifest = data / "dataset.manifest"
        assert main(["train", "--manifest", str(manifest), "--stage", "step1", "--epochs", "1",
                     "--out", str(tmp_path / "step1")]) == 0
        # Finite vectors whose products with the step-1 weights overflow.
        for line in manifest.read_text().splitlines()[1:]:
            path = data / json.loads(line)["global"]
            write_feature_vector(path, np.full(len(read_feature_matrix(path)[0]), 1e308))
        capsys.readouterr()
        run = tmp_path / "run"
        rc = main(["train", "--manifest", str(manifest), "--stage", "step2", "--head", "nn",
                   "--from-checkpoint", str(tmp_path / "step1" / "model.ssfc"),
                   "--epochs", "1", "--out", str(run)])
        assert rc == 1
        assert capsys.readouterr().err == "error: fuse_concat inputs must be finite\n"
        assert sorted(p.name for p in run.iterdir()) == ["run_record.json"]

    def test_eval_of_narrower_global_vectors_is_one_line_data_error(self, narrow_global,
                                                                    capsys):
        base, manifest = narrow_global
        assert main(["eval", "--manifest", manifest, "--checkpoint", base]) == 1
        assert capsys.readouterr().err == (f"error: {base}: global_input_width=16 does not match "
                                           f"the manifest's global vectors of width 8\n")

    def test_step2_on_base_of_another_global_width_names_the_checkpoint(self, narrow_global,
                                                                        tmp_path, capsys):
        base, manifest = narrow_global
        assert main(["train", "--manifest", manifest, "--stage", "step2", "--head", "nn",
                     "--from-checkpoint", base, "--epochs", "1",
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (f"error: {base}: step-1 checkpoint "
                                           f"global_input_width=16 does not match fusion config 8\n")

    @pytest.mark.parametrize("options,key", [
        ({"num_categories": 0}, "num_categories"),
        ({"head": "cnn", "head_width": 0}, "head_width"),
        ({"head": "pc1d", "subset": "pc", "head_width": -3}, "head_width"),
        ({"hidden": [512, 0]}, "hidden"),
        ({"head": "pc1d", "subset": "pc", "pc_channels": [-1, 4]}, "pc_channels"),
        ({"model": "global", "global_input_width": 0}, "global_input_width"),
        ({"model": "fusion", "global_width": -1}, "global_width"),
        ({"model": "fusion", "semantic_width": 0}, "semantic_width"),
        ({"model": "fusion", "fc3_width": 0}, "fc3_width"),
    ], ids=["categories", "cnn-head-width", "pc1d-head-width", "hidden-entry",
            "pc-channels-entry", "global-input-width", "global-width", "semantic-width",
            "fc3-width"])
    def test_non_positive_descriptor_width_is_one_line_data_error(self, synth_dir, tmp_path,
                                                                  capsys, options, key):
        descriptor = {"model": "semantic", "head": "nn", "subset": "pc,ap,sd",
                      "num_categories": 8, "num_classes": 6, "global_input_width": 16,
                      **options}
        path = tmp_path / "model.ssfc"
        save_checkpoint(Checkpoint(descriptor, {}), path)
        capsys.readouterr()
        rc = main(["eval", "--manifest", str(synth_dir / "dataset.manifest"),
                   "--checkpoint", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"{key} must be positive" in err

    def test_manifest_not_utf8_is_one_line_data_error(self, synth_dir, tmp_path, capsys):
        path = tmp_path / "dataset.manifest"
        text = (synth_dir / "dataset.manifest").read_bytes()
        path.write_bytes(text.replace(b'"train"', b'"tr\xe4in"', 1))
        rc = main(["train", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"{path}: manifest is not UTF-8 text" in err

    def test_directory_in_place_of_a_file_is_one_line_data_error(self, synth_dir, tmp_path,
                                                                 capsys):
        for argv in (["train", "--manifest", str(tmp_path), "--out", str(tmp_path / "o")],
                     ["eval", "--manifest", str(synth_dir / "dataset.manifest"),
                      "--checkpoint", str(tmp_path)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            assert "Is a directory" in err

    @pytest.mark.parametrize("command", ["train", "extract"])
    def test_manifest_too_large_to_allocate_is_one_line_data_error(self, synth_dir, tmp_path,
                                                                   capsys, command):
        # 10^9 categories: each 32x32 mask's histograms would take 238 GiB.
        big_dir = tmp_path / "big_set"
        shutil.copytree(synth_dir, big_dir)
        lines = (big_dir / "dataset.manifest").read_text().splitlines()
        header = {**json.loads(lines[0]), "num_categories": 1_000_000_000}
        path = big_dir / "big.manifest"
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        rc = main([command, "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: out of memory: ")
        assert not (tmp_path / "o" / "model.ssfc").exists()

    def test_learning_rate_times_decay_at_one_exits_1_without_checkpoint(self, synth_dir,
                                                                        tmp_path, capsys):
        run = tmp_path / "run"
        rc = main(["train", "--manifest", str(synth_dir / "dataset.manifest"),
                   "--head", "nn", "--epochs", "1", "--lr", "1e9", "--out", str(run)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "shrink" in err
        assert not (run / "model.ssfc").exists()

    @pytest.mark.parametrize("flags", [["--lr", "nan"], ["--lr", "inf", "--weight-decay", "0"],
                                       ["--weight-decay", "nan"], ["--weight-decay", "inf"]],
                             ids=["lr-nan", "lr-inf", "decay-nan", "decay-inf"])
    def test_non_finite_optimizer_setting_exits_1_without_checkpoint(self, synth_dir, tmp_path,
                                                                     capsys, flags):
        run = tmp_path / "run"
        rc = main(["train", "--manifest", str(synth_dir / "dataset.manifest"),
                   "--head", "nn", "--epochs", "1", *flags, "--out", str(run)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "finite" in err
        assert not (run / "model.ssfc").exists()

    @pytest.mark.parametrize("argv,message", [
        (["train", "--seed", "-1"], "seed must be >= 0"),
        (["ablate", "--seed", "-1"], "seed must be >= 0"),
        (["synth", "--seed", "-1"], "seed must be >= 0"),
        (["bench", "--seed", "-1"], "seed must be >= 0"),
        (["gradcheck", "--seed", "-1"], "seed must be >= 0"),
        (["gradcheck", "--batch", "-1"], "batch must be >= 1"),
    ], ids=["train", "ablate", "synth", "bench", "gradcheck", "gradcheck-batch"])
    def test_negative_seed_or_batch_is_one_line_data_error(self, synth_dir, tmp_path, capsys,
                                                           argv, message):
        manifest = ["--manifest", str(synth_dir / "dataset.manifest")]
        command = argv[0]
        rc = main([*argv, *(manifest if command in ("train", "ablate") else []),
                   *(["--out", str(tmp_path / "out")] if command != "gradcheck" else [])])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
        assert not (tmp_path / "out" / "model.ssfc").exists()

    def test_eval_of_another_class_count_is_one_line_data_error(self, synth_dir, tmp_path,
                                                                capsys):
        run = tmp_path / "run"
        assert main(["train", "--manifest", str(synth_dir / "dataset.manifest"),
                     "--head", "cnn", "--epochs", "1", "--out", str(run)]) == 0
        two = derived_manifest(synth_dir, tmp_path / "two", lambda e: e["label"] < 2,
                               num_classes=2)
        capsys.readouterr()
        rc = main(["eval", "--manifest", str(two), "--checkpoint", str(run / "model.ssfc"),
                   "--split", "train", "--out", str(tmp_path / "ev")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: model has 6 classes but the dataset has 2\n"
        assert not (tmp_path / "ev" / "report.json").exists()

    @pytest.mark.parametrize("command,split", [("train", "train"), ("train", "test"),
                                               ("ablate", "train"), ("ablate", "test")])
    def test_empty_split_is_one_line_data_error(self, synth_dir, tmp_path, capsys, command,
                                                split):
        manifest = derived_manifest(synth_dir, tmp_path / "set", lambda e: e["split"] != split)
        out = tmp_path / "out"
        rc = main([command, "--manifest", str(manifest), "--epochs", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: split '{split}' is empty\n"
        assert sorted(p.name for p in out.iterdir()) == ["run_record.json"]

    @pytest.mark.parametrize("argv,message", [
        (["bench", "--warmup", "-5"], "warmup must be >= 0, got -5"),
        (["gradcheck", "--tol", "nan"], "tolerance must be positive and finite, got nan"),
        (["gradcheck", "--tol", "0"], "tolerance must be positive and finite, got 0.0"),
    ], ids=["bench-warmup", "gradcheck-tol-nan", "gradcheck-tol-zero"])
    def test_bad_measurement_option_is_one_line_data_error(self, capsys, argv, message):
        rc = main([argv[0], "--model", "ssf-nn", "--L", "4", "--classes", "3", *argv[1:]])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "FAIL" not in captured.out and "throughput" not in captured.out

    @pytest.mark.parametrize("flags,message", [
        (["--global-width", "-1"], "global_width must be >= 0"),
        (["--global-sigma", "nan"], "global_sigma must be non-negative and finite"),
        (["--global-sigma", "-0.5"], "global_sigma must be non-negative and finite"),
    ], ids=["width", "sigma-nan", "sigma-negative"])
    def test_bad_synth_global_option_writes_no_masks(self, tmp_path, capsys, flags, message):
        out = tmp_path / "data"
        rc = main(["synth", "--out", str(out), "--variant", "split-info", "--samples", "2",
                   *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
        assert sorted(p.name for p in out.iterdir()) == ["run_record.json"]

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
        record = json.loads((out / "run_record.json").read_text())
        assert record["exit_code"] == 1 and record["error"] is None

    def test_threaded_extraction_matches_serial(self, large_dir, tmp_path, monkeypatch):
        manifest = str(large_dir / "dataset.manifest")
        for fmt in ("csv", "bin"):
            outputs = []
            for cpus in (1, 2):
                monkeypatch.setattr(data_module.os, "sched_getaffinity",
                                    lambda pid, n=cpus: set(range(n)))
                out = tmp_path / f"{fmt}{cpus}"
                assert main(["extract", "--manifest", manifest, "--format", fmt,
                             "--out", str(out)]) == 0
                outputs.append({f.name: f.read_bytes() for f in out.iterdir()
                                if f.name != "run_record.json"})
            assert len(outputs[0]) == 13 and outputs[0] == outputs[1]

    def test_two_worker_extraction_lists_failures_in_input_order(self, large_dir, tmp_path,
                                                                 capsys, monkeypatch):
        monkeypatch.setattr(data_module.os, "sched_getaffinity", lambda pid: {0, 1})
        corrupt_dir = tmp_path / "corrupt_set"
        shutil.copytree(large_dir, corrupt_dir)
        # Of the twelve entries after the first, 1-6 are the calling thread's
        # half and 7-12 the helper's.
        ids = [json.loads(line)["id"] for line in
               (corrupt_dir / "dataset.manifest").read_text().splitlines()[1:]]
        for i in (3, 8, 11):
            (corrupt_dir / "masks" / f"{ids[i]}.ssfm").write_bytes(b"SSFM\x01\x00garbage")
        before = threading.active_count()
        rc = main(["extract", "--manifest", str(corrupt_dir / "dataset.manifest"),
                   "--out", str(tmp_path / "features")])
        assert rc == 1 and threading.active_count() == before
        captured = capsys.readouterr()
        listed = [line.split(":")[1].strip() for line in captured.err.splitlines()[:-1]]
        assert listed == [ids[3], ids[8], ids[11]]
        assert captured.err.splitlines()[-1] == "3 mask(s) failed"
        assert len(list((tmp_path / "features").glob("*.csv"))) == 13 - 3
        assert "extracted 10 of 13" in captured.out


class TestSynthTrainEval:
    def test_synth_writes_manifest_and_record(self, synth_dir):
        assert (synth_dir / "dataset.manifest").exists()
        record = read_record(synth_dir, "synth")
        assert record["config"]["samples"] == 6
        assert record["config"]["seed"] == 3
        assert "version" in record
        assert not any("time" in k.lower() or "date" in k.lower() for k in record)

    def test_record_names_no_blas_when_numpy_cannot_say(self, tmp_path, monkeypatch):
        def old_show_config(mode="stdout"):
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")

        monkeypatch.setattr(np, "show_config", old_show_config)
        assert main(["synth", "--out", str(tmp_path), "--samples", "2"]) == 0
        record = json.loads((tmp_path / "run_record.json").read_text())
        assert record["environment"]["blas"] is None
        assert record["environment"]["numpy"] == np.__version__

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
        assert [m["split"] for m in metrics] == ["train", "test"] * 3
        assert all(np.isfinite(m["seconds"]) and m["seconds"] > 0 for m in metrics)
        record = read_record(run, "train")
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
        assert read_record(tmp_path / "ev", "eval")["config"]["split"] == "test"

    def test_training_is_bit_reproducible(self, synth_dir, tmp_path):
        args = ["train", "--manifest", str(synth_dir / "dataset.manifest"),
                "--head", "nn", "--epochs", "2", "--seed", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ca, cb = load_checkpoint(a / "model.ssfc"), load_checkpoint(b / "model.ssfc")
        assert ca.block_hashes() == cb.block_hashes()

        def without_seconds(run):
            return [{k: v for k, v in json.loads(line).items() if k != "seconds"}
                    for line in (run / "metrics.jsonl").read_text().splitlines()]

        assert without_seconds(a) == without_seconds(b)

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
        assert read_record(out, "ablate")["config"]["epochs"] == 1

    @pytest.mark.parametrize("flag", ["--epochs", "--batch"])
    def test_invalid_plan_is_one_error_line_and_no_grid(self, synth_dir, tmp_path, capsys,
                                                        flag):
        out = tmp_path / "grid"
        rc = main(["ablate", "--manifest", str(synth_dir / "dataset.manifest"), flag, "0",
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: epochs and batch_size must be positive\n"
        assert sorted(p.name for p in out.iterdir()) == ["run_record.json"]


    def test_rates_refused_by_adam_are_one_error_line_and_no_grid(self, synth_dir, tmp_path,
                                                                  capsys):
        out = tmp_path / "grid"
        rc = main(["ablate", "--manifest", str(synth_dir / "dataset.manifest"), "--lr", "1e9",
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: learning rate x weight decay must be below 1")
        assert sorted(p.name for p in out.iterdir()) == ["run_record.json"]

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
        assert read_record(out, "bench")["config"]["warmup"] == 10

    def test_extraction_timing_flag(self, tmp_path, capsys):
        rc = main(["bench", "--model", "ssf-nn", "--L", "6", "--classes", "3",
                   "--iters", "1000", "--warmup", "10", "--extract", "--runs", "20",
                   "--out", str(tmp_path / "b")])
        assert rc == 0
        assert "extraction median" in capsys.readouterr().out
        data = json.loads((tmp_path / "b" / "bench.json").read_text())
        assert data["extract_median_seconds"] > 0


class TestFlagsOnly:
    """Options come from flags alone; SSFX_* variables are ordinary environment."""

    def test_environment_value_outside_another_commands_choices_is_ignored(self, monkeypatch):
        monkeypatch.setenv("SSFX_MODEL", "fusion")
        assert main(["gradcheck", "--model", "fusion", "--L", "4", "--classes", "3",
                     "--sample-per-block", "8"]) == 0

    def test_environment_sets_no_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SSFX_FORMAT", "xml")
        monkeypatch.setenv("SSFX_SEED", "9")
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), "--samples", "2"]) == 0
        assert read_record(out, "synth")["config"]["seed"] == 7


class TestRunRecord:
    def test_failed_train_records_its_error_and_writes_no_checkpoint(self, synth_dir,
                                                                    tmp_path, capsys):
        run = tmp_path / "run"
        rc = main(["train", "--manifest", str(synth_dir / "dataset.manifest"),
                   "--head", "nn", "--epochs", "1", "--lr", "1e9", "--out", str(run)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert sorted(p.name for p in run.iterdir()) == ["run_record.json"]
        record = json.loads((run / "run_record.json").read_text())
        assert record["exit_code"] == 1 and record["error"] == err.rstrip("\n")
        assert record["command"] == "train" and record["config"]["lr"] == 1e9
        assert_environment(record)

    def test_failed_train_leaves_no_output_of_an_earlier_run(self, synth_dir, tmp_path,
                                                             capsys):
        run = tmp_path / "run"
        argv = ["train", "--manifest", str(synth_dir / "dataset.manifest"), "--head", "nn",
                "--epochs", "1", "--out", str(run)]
        assert main(argv) == 0
        assert (run / "model.ssfc").exists() and (run / "metrics.jsonl").exists()
        assert main([*argv, "--lr", "1e9"]) == 1
        assert sorted(p.name for p in run.iterdir()) == ["run_record.json"]
        assert json.loads((run / "run_record.json").read_text())["exit_code"] == 1

    def test_interrupted_run_records_exit_130_and_raises_again(self, synth_dir, tmp_path,
                                                               monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli_module, "train", interrupt)
        run = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            main(["train", "--manifest", str(synth_dir / "dataset.manifest"), "--head", "nn",
                  "--epochs", "1", "--out", str(run)])
        assert sorted(p.name for p in run.iterdir()) == ["run_record.json"]
        record = json.loads((run / "run_record.json").read_text())
        assert record["exit_code"] == 130 and record["error"] == "error: interrupted"
        assert record["command"] == "train"
        assert_environment(record)

    def test_step2_may_write_over_the_step1_checkpoint_it_builds_on(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--variant", "split-info",
                     "--samples", "3"]) == 0
        run = tmp_path / "run"
        common = ["train", "--manifest", str(data / "dataset.manifest"), "--epochs", "1",
                  "--out", str(run)]
        assert main([*common, "--stage", "step1"]) == 0
        step1 = load_checkpoint(run / "model.ssfc").block_hashes()
        assert main([*common, "--stage", "step2", "--head", "nn",
                     "--from-checkpoint", str(run / "model.ssfc")]) == 0
        step2 = load_checkpoint(run / "model.ssfc")
        assert step2.descriptor["model"] == "fusion"
        assert step2.block_hashes()["global_fc1.weight"] == step1["global_fc1.weight"]

    @pytest.mark.parametrize("command", ["train", "extract"])
    def test_out_naming_a_file_is_one_line_error_and_writes_nothing(self, synth_dir, tmp_path,
                                                                     capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        rc = main([command, "--manifest", str(synth_dir / "dataset.manifest"),
                   "--out", str(taken)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert str(taken) in captured.err
        assert taken.read_text() == "not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_usage_error_writes_no_record(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["train", "--stage", "step2", "--manifest", str(tmp_path / "m"),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_gradcheck_has_no_out_and_writes_no_record(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gradcheck", "--model", "ssf-nn", "--L", "4", "--classes", "3",
                     "--sample-per-block", "8"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestConsoleScript:
    @staticmethod
    def run_module(*argv):
        """Run ``python -m ssfx.cli`` in a fresh process with this checkout's sources."""
        env = {**os.environ, "PYTHONPATH": str(Path(ssfx.__file__).resolve().parents[1])}
        return subprocess.run([sys.executable, "-m", "ssfx.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=120)

    def test_module_entry_point_reports_version(self):
        proc = self.run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout == f"ssfx {ssfx.__version__}\n"

    def test_module_entry_point_usage_error_exits_2(self, tmp_path):
        proc = self.run_module("train", "--stage", "step2", "--manifest", str(tmp_path / "m"),
                               "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("usage error: ")
        assert not (tmp_path / "o").exists()

    def test_console_script_names_main(self):
        """``[project.scripts]`` points ``ssfx`` at ``ssfx.cli.main``, checked without an install."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(ssfx.__file__).resolve().parents[2] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ssfx"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is cli_module.main

    def test_installed_entry_point_reports_version(self):
        exe = shutil.which("ssfx")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "ssfx" in proc.stdout
