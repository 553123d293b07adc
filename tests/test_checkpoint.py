"""Checkpoint container: byte-exact round trips and malformed-file rejection."""
import json
import struct

import numpy as np
import pytest

from ssfx.nn import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint


def sample_checkpoint():
    rng = np.random.default_rng(3)
    return Checkpoint(
        descriptor={"model": "semantic", "head": "nn", "num_classes": 4},
        params={
            "head.fc1.weight": rng.standard_normal((8, 20)),
            "head.fc1.bias": rng.standard_normal(8),
            "classifier.weight": np.array([[1e300, -3e-17], [0.0, 2.0**-1022]]),
        },
        metadata={"seed": 7, "epochs": 3},
    )


class TestRoundTrip:
    def test_params_survive_bit_exactly(self, tmp_path):
        ckpt = sample_checkpoint()
        path = tmp_path / "model.ssfc"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert set(back.params) == set(ckpt.params)
        for name, arr in ckpt.params.items():
            assert back.params[name].dtype == np.float64
            assert back.params[name].shape == arr.shape
            assert back.params[name].tobytes() == np.asarray(arr, np.float64).tobytes()

    def test_descriptor_and_metadata_survive(self, tmp_path):
        ckpt = sample_checkpoint()
        path = tmp_path / "model.ssfc"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.descriptor == ckpt.descriptor
        assert back.metadata == ckpt.metadata

    def test_sidecar_is_readable_json(self, tmp_path):
        path = tmp_path / "model.ssfc"
        save_checkpoint(sample_checkpoint(), path)
        sidecar = tmp_path / "model.ssfc.meta.json"
        assert sidecar.exists()
        assert json.loads(sidecar.read_text()) == {"seed": 7, "epochs": 3}

    def test_missing_sidecar_gives_empty_metadata(self, tmp_path):
        path = tmp_path / "model.ssfc"
        save_checkpoint(sample_checkpoint(), path)
        (tmp_path / "model.ssfc.meta.json").unlink()
        assert load_checkpoint(path).metadata == {}

    def test_scalar_block_round_trips(self, tmp_path):
        ckpt = Checkpoint(descriptor={}, params={"t": np.array(2.5)})
        path = tmp_path / "s.ssfc"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.params["t"].shape == ()
        assert back.params["t"] == 2.5


class TestBlockHashes:
    def test_hashes_are_stable_and_sensitive(self, tmp_path):
        ckpt = sample_checkpoint()
        h1 = ckpt.block_hashes()
        path = tmp_path / "model.ssfc"
        save_checkpoint(ckpt, path)
        assert load_checkpoint(path).block_hashes() == h1

        ckpt.params["head.fc1.bias"] = np.nextafter(ckpt.params["head.fc1.bias"], np.inf)
        h2 = ckpt.block_hashes()
        assert h2["head.fc1.bias"] != h1["head.fc1.bias"]
        assert h2["head.fc1.weight"] == h1["head.fc1.weight"]

    def test_hash_ignores_memory_layout(self):
        arr = np.arange(12.0).reshape(3, 4)
        a = Checkpoint({}, {"w": arr}).block_hashes()
        b = Checkpoint({}, {"w": np.asfortranarray(arr)}).block_hashes()
        assert a == b


class TestMalformedFiles:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ssfc"
        p.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(p)

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "x.ssfc"
        p.write_bytes(struct.pack("<4sHH", b"SSFC", 9, 0) + struct.pack("<I", 2) + b"{}"
                      + struct.pack("<I", 0))
        with pytest.raises(CheckpointError, match="version 9"):
            load_checkpoint(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "x.ssfc"
        save_checkpoint(sample_checkpoint(), p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "x.ssfc"
        save_checkpoint(sample_checkpoint(), p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_checkpoint(p)

    def test_duplicate_block_name(self, tmp_path):
        block = (struct.pack("<H", 1) + b"w" + struct.pack("<B", 1)
                 + struct.pack("<I", 1) + struct.pack("<d", 1.0))
        p = tmp_path / "x.ssfc"
        p.write_bytes(struct.pack("<4sHH", b"SSFC", 1, 0) + struct.pack("<I", 2) + b"{}"
                      + struct.pack("<I", 2) + block + block)
        with pytest.raises(CheckpointError, match="duplicate parameter block"):
            load_checkpoint(p)

    def test_descriptor_not_json(self, tmp_path):
        p = tmp_path / "x.ssfc"
        p.write_bytes(struct.pack("<4sHH", b"SSFC", 1, 0) + struct.pack("<I", 3) + b"???"
                      + struct.pack("<I", 0))
        with pytest.raises(CheckpointError, match="descriptor"):
            load_checkpoint(p)

    def test_block_name_not_utf8(self, tmp_path):
        block = (struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<B", 1)
                 + struct.pack("<I", 1) + struct.pack("<d", 1.0))
        p = tmp_path / "x.ssfc"
        p.write_bytes(struct.pack("<4sHH", b"SSFC", 1, 0) + struct.pack("<I", 2) + b"{}"
                      + struct.pack("<I", 1) + block)
        with pytest.raises(CheckpointError, match=r"x\.ssfc: block name is not UTF-8"):
            load_checkpoint(p)

    def test_descriptor_not_an_object(self, tmp_path):
        p = tmp_path / "x.ssfc"
        p.write_bytes(struct.pack("<4sHH", b"SSFC", 1, 0) + struct.pack("<I", 2) + b"[]"
                      + struct.pack("<I", 0))
        with pytest.raises(CheckpointError, match=r"x\.ssfc: .*must be a JSON object, got list"):
            load_checkpoint(p)

    @pytest.mark.parametrize("sidecar,message", [
        (b"{not json", "unreadable metadata sidecar"),
        (b"\xff\xfe{}", "unreadable metadata sidecar"),
        (b"[1, 2]", "metadata sidecar must be a JSON object, got list"),
    ], ids=["not-json", "not-utf8", "not-an-object"])
    def test_corrupt_sidecar(self, tmp_path, sidecar, message):
        p = tmp_path / "x.ssfc"
        save_checkpoint(sample_checkpoint(), p)
        (tmp_path / "x.ssfc.meta.json").write_bytes(sidecar)
        with pytest.raises(CheckpointError, match=r"x\.ssfc\.meta\.json: " + message):
            load_checkpoint(p)
