"""Checkpoint container: byte-exact round trips, atomic writes and malformed-file rejection."""
import errno
import hashlib
import json
import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import ssfx.nn.checkpoint as checkpoint_module
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

    def test_empty_block_round_trips(self, tmp_path):
        ckpt = Checkpoint(descriptor={}, params={"e": np.zeros((0, 5)), "t": np.array(1.0)})
        path = tmp_path / "e.ssfc"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.params["e"].shape == (0, 5)
        assert back.params["t"] == 1.0

    def test_bytes_on_disk_are_pinned(self, tmp_path):
        # The SSFC format fixes these bytes; a change to the writer must keep them.
        path = tmp_path / "model.ssfc"
        save_checkpoint(sample_checkpoint(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "73b995028f0ba309ce5ffd79d3a2fe4d6f44ee5a5a0c9734bec00e6c981e4eb8")
        assert hashlib.sha256((tmp_path / "model.ssfc.meta.json").read_bytes()).hexdigest() == (
            "4a9a2a3b5c7efed2ed8951937bd71f7c48c5ea270497d522efe97e7b9ab27bf5")

    def test_loaded_blocks_own_aligned_memory(self, tmp_path):
        path = tmp_path / "model.ssfc"
        save_checkpoint(sample_checkpoint(), path)
        for arr in load_checkpoint(path).params.values():
            assert arr.flags.owndata and arr.flags.c_contiguous and arr.flags.aligned
            assert arr.flags.writeable


class _FailingFile:
    """A file whose ``fail_at``-th write raises ENOSPC."""

    def __init__(self, f, fail_at):
        self.f = f
        self.fail_at = fail_at
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


class TestAtomicWrites:
    def test_failed_write_leaves_old_files_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ssfc"
        save_checkpoint(sample_checkpoint(), path)
        old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        # Writes: the file header, then each block's header and payload; the
        # fifth is the second block's payload.
        monkeypatch.setattr(checkpoint_module, "open",
                            lambda p, mode: _FailingFile(open(p, mode), fail_at=5), raising=False)
        ckpt = sample_checkpoint()
        ckpt.params = {k: v + 1 for k, v in ckpt.params.items()}
        ckpt.metadata = {"seed": 8}
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(ckpt, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old

    def test_new_file_gets_the_umask_mode(self, tmp_path):
        previous = os.umask(0o027)
        try:
            with open(tmp_path / "plain", "wb"):
                pass
            save_checkpoint(sample_checkpoint(), tmp_path / "model.ssfc")
        finally:
            os.umask(previous)
        want = (tmp_path / "plain").stat().st_mode
        assert want & 0o777 == 0o640
        assert (tmp_path / "model.ssfc").stat().st_mode == want
        assert (tmp_path / "model.ssfc.meta.json").stat().st_mode == want

    def test_save_replaces_an_existing_checkpoint(self, tmp_path):
        path = tmp_path / "model.ssfc"
        save_checkpoint(sample_checkpoint(), path)
        save_checkpoint(Checkpoint({"model": "x"}, {"w": np.ones(3)}, {"seed": 1}), path)
        back = load_checkpoint(path)
        assert back.descriptor == {"model": "x"} and back.metadata == {"seed": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ssfc", "model.ssfc.meta.json"]


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

    def test_descriptor_int_past_digit_limit(self, tmp_path):
        desc = b'{"num_classes": ' + b"1" * 5000 + b"}"
        p = tmp_path / "x.ssfc"
        p.write_bytes(struct.pack("<4sHH", b"SSFC", 1, 0) + struct.pack("<I", len(desc)) + desc
                      + struct.pack("<I", 0))
        with pytest.raises(CheckpointError, match=r"x\.ssfc: unreadable architecture descriptor"):
            load_checkpoint(p)

    @pytest.mark.parametrize("sidecar,message", [
        (b"{not json", "unreadable metadata sidecar"),
        (b"\xff\xfe{}", "unreadable metadata sidecar"),
        (b"[1, 2]", "metadata sidecar must be a JSON object, got list"),
        (b'{"seed": ' + b"1" * 5000 + b"}", "unreadable metadata sidecar"),
    ], ids=["not-json", "not-utf8", "not-an-object", "int-past-digit-limit"])
    def test_corrupt_sidecar(self, tmp_path, sidecar, message):
        p = tmp_path / "x.ssfc"
        save_checkpoint(sample_checkpoint(), p)
        (tmp_path / "x.ssfc.meta.json").write_bytes(sidecar)
        with pytest.raises(CheckpointError, match=r"x\.ssfc\.meta\.json: " + message):
            load_checkpoint(p)

    @pytest.mark.parametrize("dims", [(2**32 - 1,) * 4, (2**17, 2**10)], ids=["u32-max", "1GiB"])
    def test_block_larger_than_file_is_refused_before_allocating(self, tmp_path, dims):
        block = (struct.pack("<H", 1) + b"w" + struct.pack("<B", len(dims))
                 + struct.pack(f"<{len(dims)}I", *dims) + struct.pack("<d", 1.0))
        p = tmp_path / "x.ssfc"
        p.write_bytes(struct.pack("<4sHH", b"SSFC", 1, 0) + struct.pack("<I", 2) + b"{}"
                      + struct.pack("<I", 1) + block)
        assert p.stat().st_size < 100
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_file_shrinking_after_stat_is_truncated(self, tmp_path, monkeypatch):
        p = tmp_path / "x.ssfc"
        save_checkpoint(sample_checkpoint(), p)
        full = p.stat().st_size
        p.write_bytes(p.read_bytes()[:-5])
        with monkeypatch.context() as m, pytest.raises(CheckpointError, match="truncated"):
            # The size taken when the file was opened, before it lost its last bytes.
            m.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=full))
            load_checkpoint(p)
