"""Manifest handling, batching, and the synthetic benchmark generator."""
import hashlib
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import ssfx.data as data_module
import ssfx.nn.helper as helper_module
from ssfx.cli import main
from ssfx.data import (
    TWO_WORKER_PIXELS,
    BlobSpec,
    ClassRecipe,
    DatasetManifest,
    ManifestEntry,
    SynthSpec,
    benchmark_recipes,
    benchmark_spec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    map_masks,
    recipe_targets,
    save_manifest,
    shuffled_batches,
    split_information_spec,
)
from ssfx.features import extract_ssf
from ssfx.io import FormatError, load_mask, save_mask, write_feature_vector
from ssfx.mask import ValidationError

from conftest import usable_cpus


def tiny_spec(**overrides):
    defaults = dict(
        num_classes=2,
        num_categories=3,
        height=20,
        width=20,
        recipes=(
            ClassRecipe((BlobSpec(1, 0.25, 0.30, 0.15, 0.20),)),
            ClassRecipe((BlobSpec(1, 0.65, 0.30, 0.15, 0.20),)),
        ),
        samples_per_class=10,
        noise=0.0,
        seed=11,
    )
    defaults.update(overrides)
    return SynthSpec(**defaults)


def write_manifest_text(tmp_path, entry_lines, header=None):
    header = header or {"kind": "ssfx-manifest", "version": 1, "num_classes": 2,
                        "num_categories": 3, "void_value": 0, "global_source": None}
    path = tmp_path / "dataset.manifest"
    path.write_text("\n".join([json.dumps(header)] + entry_lines) + "\n")
    return path


def place_mask(tmp_path, rel="m0.ssfm"):
    save_mask(tmp_path / rel, np.array([[1, 2], [0, 1]], dtype=np.uint16))
    return rel


class TestManifestRoundTrip:
    def test_entries_survive_in_order(self, tmp_path):
        rels = [place_mask(tmp_path, f"m{i}.ssfm") for i in range(3)]
        manifest = DatasetManifest(
            num_classes=2, num_categories=3, void_value=0,
            entries=[
                ManifestEntry("a", rels[0], 0, "train"),
                ManifestEntry("b", rels[1], 1, "train"),
                ManifestEntry("c", rels[2], 1, "test"),
            ],
            root=tmp_path)
        save_manifest(manifest, tmp_path / "dataset.manifest")
        back = load_manifest(tmp_path / "dataset.manifest")
        assert [e.id for e in back.entries] == ["a", "b", "c"]
        assert [e.label for e in back.entries] == [0, 1, 1]
        assert [e.split for e in back.entries] == ["train", "train", "test"]
        assert back.num_classes == 2 and back.num_categories == 3
        assert back.void_value == 0

    def test_split_indices(self, tmp_path):
        rel = place_mask(tmp_path)
        manifest = DatasetManifest(
            num_classes=2, num_categories=3, void_value=0,
            entries=[ManifestEntry("a", rel, 0, "train"),
                     ManifestEntry("b", rel, 1, "test"),
                     ManifestEntry("c", rel, 0, "train")],
            root=tmp_path)
        np.testing.assert_array_equal(manifest.split_indices("train"), [0, 2])
        np.testing.assert_array_equal(manifest.split_indices("test"), [1])
        with pytest.raises(ValidationError, match="unknown split"):
            manifest.split_indices("validation")


class TestManifestValidation:
    def test_duplicate_id_names_the_id(self, tmp_path):
        rel = place_mask(tmp_path)
        lines = [json.dumps({"id": "dup", "mask": rel, "global": None, "label": 0, "split": "train"})] * 2
        with pytest.raises(ValidationError, match="duplicate entry id 'dup'"):
            load_manifest(write_manifest_text(tmp_path, lines))

    def test_label_equal_to_num_classes_is_range_error(self, tmp_path):
        rel = place_mask(tmp_path)
        lines = [json.dumps({"id": "a", "mask": rel, "global": None, "label": 2, "split": "train"})]
        with pytest.raises(ValidationError, match=r"label 2 out of range \[0, 2\)"):
            load_manifest(write_manifest_text(tmp_path, lines))

    @pytest.mark.parametrize("label", [True, False, 1.0, "1", None])
    def test_label_that_is_not_an_integer_is_rejected(self, tmp_path, label):
        rel = place_mask(tmp_path)
        lines = [json.dumps({"id": "a", "mask": rel, "global": None, "label": label,
                             "split": "train"})]
        with pytest.raises(ValidationError, match=f"label must be an integer, got {label!r}"):
            load_manifest(write_manifest_text(tmp_path, lines))

    @pytest.mark.parametrize("path", [5, ["g.ssff"], {"path": "g.ssff"}])
    def test_global_path_that_is_not_a_string_is_rejected(self, tmp_path, path):
        rel = place_mask(tmp_path)
        lines = [json.dumps({"id": "a", "mask": rel, "global": path, "label": 0,
                             "split": "train"})]
        with pytest.raises(ValidationError, match="missing global feature file"):
            load_manifest(write_manifest_text(tmp_path, lines))

    def test_integer_past_the_digit_limit_is_unreadable(self, tmp_path):
        rel = place_mask(tmp_path)
        entry = json.dumps({"id": "a", "mask": rel, "global": None, "label": 0, "split": "train"})
        path = write_manifest_text(tmp_path, [entry.replace('"label": 0', '"label": ' + "1" * 5000)])
        with pytest.raises(ValidationError, match="dataset.manifest:2: unreadable entry"):
            load_manifest(path)
        path.write_text('{"kind": "ssfx-manifest", "version": ' + "1" * 5000 + "}\n" + entry + "\n")
        with pytest.raises(ValidationError, match="unreadable manifest header"):
            load_manifest(path)

    def test_manifest_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "dataset.manifest"
        path.write_bytes(b'{"kind": "ssfx-manifest\xff"}\n')
        with pytest.raises(ValidationError, match="dataset.manifest: manifest is not UTF-8"):
            load_manifest(path)

    def test_unknown_split_rejected(self, tmp_path):
        rel = place_mask(tmp_path)
        lines = [json.dumps({"id": "a", "mask": rel, "global": None, "label": 0, "split": "val"})]
        with pytest.raises(ValidationError, match="split 'val'"):
            load_manifest(write_manifest_text(tmp_path, lines))

    def test_missing_mask_file_rejected(self, tmp_path):
        lines = [json.dumps({"id": "a", "mask": "gone.ssfm", "global": None, "label": 0,
                             "split": "train"})]
        with pytest.raises(ValidationError, match="missing mask file 'gone.ssfm'"):
            load_manifest(write_manifest_text(tmp_path, lines))

    def test_mixed_global_presence_rejected(self, tmp_path):
        rel = place_mask(tmp_path)
        gl = "g.ssff"
        from ssfx.io import write_feature_vector
        write_feature_vector(tmp_path / gl, np.zeros(4))
        lines = [
            json.dumps({"id": "a", "mask": rel, "global": gl, "label": 0, "split": "train"}),
            json.dumps({"id": "b", "mask": rel, "global": None, "label": 0, "split": "train"}),
        ]
        with pytest.raises(ValidationError, match="all entries or none"):
            load_manifest(write_manifest_text(tmp_path, lines))

    def test_wrong_kind_rejected(self, tmp_path):
        rel = place_mask(tmp_path)
        lines = [json.dumps({"id": "a", "mask": rel, "global": None, "label": 0, "split": "train"})]
        header = {"kind": "something-else", "version": 1, "num_classes": 2,
                  "num_categories": 3, "void_value": 0}
        with pytest.raises(ValidationError, match="not a dataset manifest"):
            load_manifest(write_manifest_text(tmp_path, lines, header))

    @pytest.mark.parametrize("field,value,message", [
        ("num_classes", None, "lacks num_classes"),
        ("num_categories", None, "lacks num_categories"),
        ("num_classes", "2", "num_classes must be an integer, got '2'"),
        ("num_categories", 3.0, "num_categories must be an integer, got 3.0"),
        ("num_categories", True, "num_categories must be an integer, got True"),
        ("num_classes", 1, "num_classes must be >= 2, got 1"),
        ("num_categories", 0, "num_categories must be >= 1, got 0"),
        ("num_categories", -4, "num_categories must be >= 1, got -4"),
        ("void_value", "x", "void_value must be an integer or null, got 'x'"),
        ("void_value", 1.5, "void_value must be an integer or null, got 1.5"),
        ("void_value", True, "void_value must be an integer or null, got True"),
    ])
    def test_bad_header_field_named(self, tmp_path, field, value, message):
        rel = place_mask(tmp_path)
        lines = [json.dumps({"id": "a", "mask": rel, "global": None, "label": 0, "split": "train"})]
        header = {"kind": "ssfx-manifest", "version": 1, "num_classes": 2,
                  "num_categories": 3, "void_value": 0}
        if value is None:
            del header[field]
        else:
            header[field] = value
        with pytest.raises(ValidationError, match=message):
            load_manifest(write_manifest_text(tmp_path, lines, header))

    @pytest.mark.parametrize("value", [None, 0, 255])
    def test_void_value_int_or_null_accepted(self, tmp_path, value):
        rel = place_mask(tmp_path)
        lines = [json.dumps({"id": "a", "mask": rel, "global": None, "label": 0, "split": "train"})]
        header = {"kind": "ssfx-manifest", "version": 1, "num_classes": 2,
                  "num_categories": 3, "void_value": value}
        assert load_manifest(write_manifest_text(tmp_path, lines, header)).void_value == value

    @pytest.mark.parametrize("line", ["[1, 2]", '"entry"', "7", "null"])
    def test_entry_not_an_object_names_the_line(self, tmp_path, line):
        rel = place_mask(tmp_path)
        lines = [json.dumps({"id": "a", "mask": rel, "global": None, "label": 0, "split": "train"}),
                 line]
        with pytest.raises(ValidationError, match=r"dataset.manifest:3: entry must be a JSON object"):
            load_manifest(write_manifest_text(tmp_path, lines))

    def test_header_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "dataset.manifest"
        path.write_text('["ssfx-manifest", 1]\n')
        with pytest.raises(ValidationError, match="header must be a JSON object"):
            load_manifest(path)

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "absent.manifest")

    def test_entryless_manifest_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no entries"):
            load_manifest(write_manifest_text(tmp_path, []))


class TestBatching:
    def test_seventy_samples_batch_32_gives_32_32_6(self):
        batches = shuffled_batches(np.arange(70), 32, seed=0, epoch=0)
        assert [len(b) for b in batches] == [32, 32, 6]
        assert sorted(np.concatenate(batches)) == list(range(70))

    def test_same_seed_same_order_different_seed_differs(self):
        a = np.concatenate(shuffled_batches(np.arange(100), 32, seed=5, epoch=0))
        b = np.concatenate(shuffled_batches(np.arange(100), 32, seed=5, epoch=0))
        c = np.concatenate(shuffled_batches(np.arange(100), 32, seed=6, epoch=0))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_epochs_reshuffle(self):
        a = np.concatenate(shuffled_batches(np.arange(100), 32, seed=5, epoch=0))
        b = np.concatenate(shuffled_batches(np.arange(100), 32, seed=5, epoch=1))
        assert not np.array_equal(a, b)


class TestGenerator:
    def test_same_seed_identical_directory_bytes(self, tmp_path):
        spec = tiny_spec(noise=0.3, global_width=4)

        def tree_hash(root: Path) -> dict:
            return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        generate_synthetic(spec, tmp_path / "one")
        generate_synthetic(spec, tmp_path / "two")
        assert tree_hash(tmp_path / "one") == tree_hash(tmp_path / "two")

    def test_600_entries_split_70_30_per_class(self, tmp_path):
        spec = benchmark_spec(samples_per_class=100, noise=0.1)
        manifest = load_manifest(generate_synthetic(spec, tmp_path / "bench"))
        assert len(manifest.entries) == 600
        for cls in range(6):
            train = [e for e in manifest.entries if e.label == cls and e.split == "train"]
            test = [e for e in manifest.entries if e.label == cls and e.split == "test"]
            assert len(train) == 70 and len(test) == 30
        train_ids = {e.id for e in manifest.entries if e.split == "train"}
        test_ids = {e.id for e in manifest.entries if e.split == "test"}
        assert not train_ids & test_ids

    def test_masks_round_trip_as_segmentation_masks(self, tmp_path):
        spec = tiny_spec(noise=0.2)
        manifest = load_manifest(generate_synthetic(spec, tmp_path / "d"))
        entry = manifest.entries[0]
        mask = load_mask(manifest.root / entry.mask_path, spec.num_categories, 0)
        assert mask.data.shape == (20, 20)
        assert mask.num_categories == 3

    def test_noise_zero_means_match_recipe_targets(self, tmp_path):
        spec = benchmark_spec(samples_per_class=3, noise=0.0, height=40, width=40)
        manifest = load_manifest(generate_synthetic(spec, tmp_path / "d"))
        data = load_dataset(manifest)
        targets = recipe_targets(spec)
        tol = 2.0 / min(spec.height, spec.width)
        for cls in range(spec.num_classes):
            rows = data.ssf[data.labels == cls]
            np.testing.assert_allclose(rows.mean(axis=0), targets[cls], atol=tol)

    def test_depth1_rule_separates_mu_shifted_classes(self, tmp_path):
        # both classes paint category 1; class 1's blob is shifted +0.4 in x
        spec = SynthSpec(
            num_classes=2, num_categories=1, height=24, width=24,
            recipes=(ClassRecipe((BlobSpec(1, 0.28, 0.5, 0.12, 0.12),)),
                     ClassRecipe((BlobSpec(1, 0.68, 0.5, 0.12, 0.12),))),
            samples_per_class=12, noise=0.0, seed=3)
        manifest = load_manifest(generate_synthetic(spec, tmp_path / "d"))
        data = load_dataset(manifest)
        mu_x = data.ssf[:, 0, 1]
        threshold = 0.48  # midpoint of the two recipe centers
        predicted = (mu_x > threshold).astype(int)
        np.testing.assert_array_equal(predicted, data.labels)

    def test_global_vectors_written_and_loaded(self, tmp_path):
        spec = tiny_spec(global_width=6, global_groups=(0, 3))
        manifest = load_manifest(generate_synthetic(spec, tmp_path / "d"))
        data = load_dataset(manifest)
        assert data.global_vecs.shape == (20, 6)
        # class-conditioned means: strongest coordinate identifies the group
        for i, label in enumerate(data.labels):
            assert np.argmax(data.global_vecs[i]) == (0 if label == 0 else 3)


class TestSynthSpecValidation:
    def test_blob_exceeding_image_rejected(self):
        with pytest.raises(ValidationError, match="exceeds the image"):
            tiny_spec(recipes=(ClassRecipe((BlobSpec(1, 0.95, 0.5, 0.15, 0.2),)),
                               ClassRecipe((BlobSpec(1, 0.5, 0.5, 0.15, 0.2),))))

    def test_invisible_blob_rejected(self):
        with pytest.raises(ValidationError, match="paints no pixels"):
            tiny_spec(recipes=(ClassRecipe((BlobSpec(1, 0.5, 0.5, 0.01, 0.2),)),
                               ClassRecipe((BlobSpec(1, 0.5, 0.5, 0.15, 0.2),))))

    def test_overlapping_blobs_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            tiny_spec(recipes=(ClassRecipe((BlobSpec(1, 0.4, 0.5, 0.2, 0.2),
                                            BlobSpec(2, 0.5, 0.5, 0.2, 0.2))),
                               ClassRecipe((BlobSpec(1, 0.5, 0.5, 0.15, 0.2),))))

    def test_category_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            tiny_spec(recipes=(ClassRecipe((BlobSpec(9, 0.5, 0.5, 0.15, 0.2),)),
                               ClassRecipe((BlobSpec(1, 0.5, 0.5, 0.15, 0.2),))))

    def test_identical_recipes_without_groups_rejected(self):
        recipe = ClassRecipe((BlobSpec(1, 0.5, 0.5, 0.15, 0.2),))
        with pytest.raises(ValidationError, match="share both layout"):
            tiny_spec(recipes=(recipe, recipe))

    def test_identical_recipes_with_distinct_groups_allowed(self):
        recipe = ClassRecipe((BlobSpec(1, 0.5, 0.5, 0.15, 0.2),))
        spec = tiny_spec(recipes=(recipe, recipe), global_width=4, global_groups=(0, 1))
        assert spec.global_groups == (0, 1)

    def test_noise_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="noise"):
            tiny_spec(noise=1.0)

    def test_group_exceeding_width_rejected(self):
        with pytest.raises(ValidationError, match="group index"):
            tiny_spec(global_width=2, global_groups=(0, 2))

    def test_negative_global_width_rejected(self):
        with pytest.raises(ValidationError, match="global_width must be >= 0, got -1"):
            tiny_spec(global_width=-1)

    @pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_global_sigma_rejected(self, sigma):
        with pytest.raises(ValidationError, match="global_sigma must be non-negative and finite"):
            tiny_spec(global_width=4, global_sigma=sigma)


class TestRecipeTargets:
    def test_closed_form_for_hand_built_blob(self):
        spec = tiny_spec(recipes=(ClassRecipe((BlobSpec(2, 0.3, 0.6, 0.1, 0.2),)),
                                  ClassRecipe((BlobSpec(1, 0.5, 0.5, 0.15, 0.2),))))
        t = recipe_targets(spec)
        np.testing.assert_allclose(
            t[0, 1], [4 * 0.1 * 0.2, 0.3, 0.6, 0.1 / np.sqrt(3), 0.2 / np.sqrt(3)])
        assert t[0, 0].sum() == 0 and t[0, 2].sum() == 0  # unpainted categories

    def test_benchmark_ambiguity_structure(self):
        spec = benchmark_spec(samples_per_class=2)
        t = recipe_targets(spec)
        pc, mu, sd = t[..., 0], t[..., 1:3], t[..., 3:5]
        # classes 0/1: counts and spreads identical, positions differ
        np.testing.assert_array_equal(pc[0], pc[1])
        np.testing.assert_array_equal(sd[0], sd[1])
        assert not np.array_equal(mu[0], mu[1])
        # classes 2/3: positions identical, counts and spreads differ
        np.testing.assert_array_equal(mu[2], mu[3])
        assert not np.array_equal(pc[2], pc[3])
        assert not np.array_equal(sd[2], sd[3])
        # classes 4/5: counts identical, positions and spreads differ
        np.testing.assert_array_equal(pc[4], pc[5])
        assert not np.array_equal(mu[4], mu[5])
        assert not np.array_equal(sd[4], sd[5])

    def test_split_information_recipes_repeat_layouts(self):
        spec = split_information_spec(samples_per_class=2)
        assert spec.recipes[0] == spec.recipes[3]
        assert spec.recipes[1] == spec.recipes[4]
        assert spec.recipes[2] == spec.recipes[5]
        assert spec.global_groups == (0, 0, 0, 1, 1, 1)


# --- two workers over manifest halves -----------------------------------------

SIDE = 256  # a 256x256 mask has exactly TWO_WORKER_PIXELS pixels


def large_manifest(root, n=7, side=SIDE):
    """``n`` masks of ``side`` x ``side``, PGM and SSFM in turn, with global vectors."""
    rng = np.random.default_rng(5)
    entries = []
    for i in range(n):
        mask_rel = f"m{i}.pgm" if i % 2 else f"m{i}.ssfm"
        save_mask(root / mask_rel, rng.integers(0, 6, size=(side, side)))
        write_feature_vector(root / f"g{i}.ssff", rng.standard_normal(4))
        entries.append(ManifestEntry(id=f"e{i}", mask_path=mask_rel, label=i % 2,
                                     split="train" if i < n - 2 else "test",
                                     global_path=f"g{i}.ssff"))
    save_manifest(DatasetManifest(num_classes=2, num_categories=5, void_value=0,
                                  entries=entries, root=root), root / "d.manifest")
    return load_manifest(root / "d.manifest")


def spoil(manifest, index, value):
    """Give entry ``index`` a pixel outside the manifest's categories."""
    path = manifest.root / manifest.entries[index].mask_path
    grid = load_mask(path, manifest.num_categories).data.copy()
    grid[3, index] = value
    save_mask(path, grid)


class TestTwoWorkers:
    def test_two_workers_match_one_bit_for_bit(self, tmp_path, monkeypatch, helpers_started):
        assert SIDE * SIDE == TWO_WORKER_PIXELS
        manifest = large_manifest(tmp_path)
        usable_cpus(monkeypatch, 1)
        one = load_dataset(manifest)
        assert helpers_started == []
        usable_cpus(monkeypatch, 2)
        before = threading.active_count()
        two = load_dataset(manifest)
        assert len(helpers_started) == 1 and not helpers_started[0].is_alive()
        assert threading.active_count() == before
        for name in ("ssf", "global_vecs", "labels", "train_idx", "test_idx"):
            a, b = getattr(one, name), getattr(two, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert one.global_vecs.shape == (7, 4)

    def test_masks_below_the_pixel_count_use_one_thread(self, tmp_path, monkeypatch,
                                                        helpers_started):
        usable_cpus(monkeypatch, 2)
        load_dataset(large_manifest(tmp_path, side=32))
        assert helpers_started == []
        monkeypatch.setattr(data_module, "TWO_WORKER_PIXELS", 32 * 32)
        load_dataset(large_manifest(tmp_path, side=32))
        assert len(helpers_started) == 1

    def test_one_usable_cpu_uses_one_thread(self, tmp_path, monkeypatch, helpers_started):
        usable_cpus(monkeypatch, 1)
        load_dataset(large_manifest(tmp_path))
        assert helpers_started == []

    @pytest.mark.parametrize("bad", [(2, 5), (5,), (2,), (1, 4)])
    def test_earliest_failing_entry_raises_the_one_worker_error(self, tmp_path, monkeypatch,
                                                                helpers_started, bad):
        # Of the six entries after the first, 1-3 are the calling thread's half
        # and 4-6 the helper's.
        manifest = large_manifest(tmp_path)
        for index in bad:
            spoil(manifest, index, 6 + index)
        usable_cpus(monkeypatch, 1)
        with pytest.raises(ValidationError) as one:
            load_dataset(manifest)
        assert f"invalid category value {6 + bad[0]}" in str(one.value)
        usable_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(ValidationError) as two:
            load_dataset(manifest)
        assert str(two.value) == str(one.value)
        assert len(helpers_started) == 1
        assert threading.active_count() == before

    def test_unreadable_mask_keeps_its_error_type(self, tmp_path, monkeypatch):
        manifest = large_manifest(tmp_path)
        (manifest.root / manifest.entries[5].mask_path).write_bytes(b"XXXXnot a mask")
        spoil(manifest, 6, 9)
        usable_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(FormatError, match="unrecognized mask format"):
            load_dataset(manifest)
        assert threading.active_count() == before

    def test_memory_error_in_the_second_half_is_one_line(self, tmp_path, monkeypatch, capsys):
        manifest = large_manifest(tmp_path)
        usable_cpus(monkeypatch, 2)
        victim = load_mask(manifest.root / manifest.entries[5].mask_path, 5).data
        extract = data_module.extract_ssf

        def extract_or_fail(mask):
            if np.array_equal(mask.data, victim):
                raise MemoryError("Unable to allocate 1.00 TiB")
            return extract(mask)

        monkeypatch.setattr(data_module, "extract_ssf", extract_or_fail)
        before = threading.active_count()
        rc = main(["train", "--manifest", str(tmp_path / "d.manifest"), "--head", "nn",
                   "--epochs", "1", "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 1.00 TiB\n"
        assert threading.active_count() == before
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["run_record.json"]
        record = json.loads((tmp_path / "run" / "run_record.json").read_text())
        assert record["exit_code"] == 1 and record["error"] == err.rstrip("\n")

    def test_helper_stops_once_the_first_half_fails(self, monkeypatch):
        self.check_helper_stops(monkeypatch, KeyError)

    def test_helper_stops_once_the_first_half_is_interrupted(self, monkeypatch):
        self.check_helper_stops(monkeypatch, KeyboardInterrupt)

    @staticmethod
    def check_helper_stops(monkeypatch, error):
        # Items 1-3 are the calling thread's, 4-6 the helper's. Item 1 raises
        # ``error`` while the helper is inside item 4; the helper starts no other item.
        ran, inside = [], threading.Event()

        def work(item):
            ran.append(item)
            if item == 4:
                inside.set()
                time.sleep(0.2)
            if item == 1:
                assert inside.wait(10)
                raise error("item 1")
            return item, TWO_WORKER_PIXELS

        usable_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(error, match="item 1"):
            map_masks(work, list(range(7)))
        assert threading.active_count() == before
        assert sorted(ran) == [0, 1, 4]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_errstate_holds_on_both_halves(self, monkeypatch, cpus):
        # Item 5 is in the helper's half on two CPUs.
        def work(item):
            return np.float64(1.0) / np.float64(item != 5), TWO_WORKER_PIXELS

        usable_cpus(monkeypatch, cpus)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            map_masks(work, list(range(7)))

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        assert helper_module.usable_cpus() == len(helper_module.os.sched_getaffinity(0))
        monkeypatch.delattr(helper_module.os, "sched_getaffinity")
        assert helper_module.usable_cpus() == (helper_module.os.cpu_count() or 1)

    def test_results_keep_item_order(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        for n in range(1, 9):
            assert map_masks(lambda i: (i, TWO_WORKER_PIXELS), list(range(n))) == list(range(n))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for _ in range(20):
                items = list(range(2001))
                assert map_masks(lambda i: ([i] * 3, TWO_WORKER_PIXELS), items) == [
                    [i] * 3 for i in items]
        finally:
            sys.setswitchinterval(interval)
