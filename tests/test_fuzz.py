"""Seeded fuzzing of every file reader: a truncated or bit-flipped file is
refused with the domain error of its reader, never with another exception."""
import numpy as np
import pytest

from ssfx.data import DatasetManifest, ManifestEntry, load_manifest, save_manifest
from ssfx.features import FeatureSubset
from ssfx.io import FormatError, load_mask, read_feature_vector, save_mask, write_feature_vector
from ssfx.mask import ValidationError
from ssfx.models import build_semantic_classifier, load_model
from ssfx.nn import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint

DOMAIN_ERRORS = (FormatError, CheckpointError, ValidationError)
TRUNCATIONS = 64
BIT_FLIPS = 256
L = 4


def mutations(data: bytes, seed: int):
    """Seeded truncations and single-bit flips of ``data``, each with a label."""
    rng = np.random.default_rng(seed)
    for cut in sorted({0, len(data) - 1, *rng.integers(0, len(data), TRUNCATIONS).tolist()}):
        yield f"truncated to {cut} bytes", data[:cut]
    for pos, bit in zip(rng.integers(0, len(data), BIT_FLIPS).tolist(),
                        rng.integers(0, 8, BIT_FLIPS).tolist()):
        flipped = bytearray(data)
        flipped[pos] ^= 1 << bit
        yield f"bit {bit} of byte {pos} flipped", bytes(flipped)


def write_inputs(root):
    """One file of every kind the program reads; returns their paths."""
    grid = np.array([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 1, 0, 2, 2]], dtype=np.uint16)
    save_mask(root / "mask.pgm", grid)
    save_mask(root / "mask.ssfm", grid)
    write_feature_vector(root / "vec.ssff", np.array([0.5, -1.25, 3.0, 0.0]))
    model = build_semantic_classifier("nn", FeatureSubset.parse("pc,ap"), L, 2,
                                      np.random.default_rng(0), hidden=(3,))
    save_checkpoint(Checkpoint(model.descriptor(), model.state_arrays(),
                               {"stage": "semantic_only", "seed": 0, "epochs": 1}),
                    root / "model.ssfc")
    entries = [ManifestEntry(id=f"s{i}", mask_path=mask, label=i % 2, split=split,
                             global_path="vec.ssff")
               for i, (mask, split) in enumerate([("mask.pgm", "train"), ("mask.ssfm", "test")])]
    save_manifest(DatasetManifest(num_classes=2, num_categories=L, void_value=0,
                                  entries=entries, root=root, global_source="fuzz"),
                  root / "dataset.manifest")


# file to mutate, file the reader opens, reader
READERS = {
    "pgm": ("mask.pgm", "mask.pgm", lambda p: load_mask(p, L, 0)),
    "ssfm": ("mask.ssfm", "mask.ssfm", lambda p: load_mask(p, L, 0)),
    "ssff": ("vec.ssff", "vec.ssff", read_feature_vector),
    "ssfc": ("model.ssfc", "model.ssfc", lambda p: load_model(load_checkpoint(p))),
    "sidecar": ("model.ssfc.meta.json", "model.ssfc", load_checkpoint),
    "manifest": ("dataset.manifest", "dataset.manifest", load_manifest),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_only_domain_errors_escape_a_mutated_file(kind, tmp_path):
    write_inputs(tmp_path)
    target, opened, read = READERS[kind]
    read(tmp_path / opened)  # the unmutated file loads
    original = (tmp_path / target).read_bytes()
    escapes, refused = [], 0
    for label, data in mutations(original, seed=sorted(READERS).index(kind)):
        (tmp_path / target).write_bytes(data)
        try:
            read(tmp_path / opened)
        except DOMAIN_ERRORS:
            refused += 1
        except Exception as exc:  # noqa: BLE001 - any other exception is the failure
            escapes.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not escapes, f"{len(escapes)} mutations escaped: {escapes[:5]}"
    assert refused > 0
