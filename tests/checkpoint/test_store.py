"""The chunk store's fail-closed and crash-atomicity contracts.

The truncate-fuzzing classes simulate ``kill -9`` at every byte
boundary of a manifest or pointer write: whatever prefix survives, the
loader must open the *previous* checkpoint or fail closed — it must
never hand back torn state.
"""

import json
import os

import pytest

from repro.checkpoint.store import (
    CheckpointError,
    CheckpointStore,
    ChunkStore,
    MemoryChunkStore,
    atomic_write,
)


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(str(tmp_path / "ck"))


class TestChunkStore:
    def test_put_get_roundtrip(self, tmp_path):
        cs = ChunkStore(str(tmp_path))
        digest = cs.put(b"some page bytes")
        assert cs.has(digest)
        assert cs.get(digest) == b"some page bytes"

    def test_put_is_deduplicating(self, tmp_path):
        cs = ChunkStore(str(tmp_path))
        first = cs.put(b"x" * 4096)
        second = cs.put(b"x" * 4096)
        assert first == second
        assert cs.chunks_written == 1
        assert cs.chunks_deduped == 1

    def test_get_missing_fails_closed(self, tmp_path):
        cs = ChunkStore(str(tmp_path))
        with pytest.raises(CheckpointError):
            cs.get("0" * 64)

    def test_get_corrupt_fails_closed(self, tmp_path):
        cs = ChunkStore(str(tmp_path))
        digest = cs.put(b"good bytes")
        path = cs._path(digest)
        os.chmod(path, 0o644)
        with open(path, "wb") as fh:
            fh.write(b"evil bytes")
        with pytest.raises(CheckpointError, match="corrupt"):
            cs.get(digest)

    def test_memory_twin_same_contract(self):
        cs = MemoryChunkStore()
        digest = cs.put(b"data")
        assert cs.has(digest)
        assert cs.get(digest) == b"data"
        with pytest.raises(CheckpointError):
            cs.get("0" * 64)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "f")
        atomic_write(path, b"payload")
        assert open(path, "rb").read() == b"payload"
        assert os.listdir(str(tmp_path)) == ["f"]


class TestCommitAndLatest:
    def test_empty_store_has_no_latest(self, store):
        assert store.latest() is None
        with pytest.raises(CheckpointError):
            store.require_latest()

    def test_commit_then_latest(self, store):
        store.commit({"schema": "s", "kind": "k"})
        manifest = store.require_latest()
        assert manifest["kind"] == "k"
        assert manifest["sequence"] == 0

    def test_sequences_increase(self, store):
        store.commit({"n": 1})
        store.commit({"n": 2})
        manifest = store.require_latest()
        assert manifest["n"] == 2
        assert manifest["sequence"] == 1
        assert len(store.manifest_names()) == 2

    def test_pointer_ignored_when_manifest_tampered(self, store):
        store.commit({"n": 1})
        name = store.commit({"n": 2})
        path = os.path.join(store._manifests, name)
        payload = json.loads(open(path, "rb").read().decode())
        payload["n"] = 3
        with open(path, "w") as fh:
            json.dump(payload, fh)
        # pointer hash mismatch -> fall back to the previous manifest
        manifest = store.require_latest()
        assert manifest["n"] == 1


def _truncate(path, nbytes):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:nbytes])
    return len(data)


class TestTruncateFuzzing:
    """kill -9 at every byte boundary: previous checkpoint or fail closed."""

    def test_torn_manifest_every_prefix(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        store.commit({"generation": "old"})
        name = store.commit({"generation": "new"})
        path = os.path.join(store._manifests, name)
        full = open(path, "rb").read()
        for cut in range(len(full)):
            with open(path, "wb") as fh:
                fh.write(full[:cut])
            manifest = store.latest()
            assert manifest is not None
            assert manifest["generation"] == "old", "cut=%d" % cut
        # restored in full, the new generation is visible again
        with open(path, "wb") as fh:
            fh.write(full)
        assert store.latest()["generation"] == "new"

    def test_torn_pointer_every_prefix(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        store.commit({"generation": "old"})
        store.commit({"generation": "new"})
        pointer_path = os.path.join(store.root, "LATEST")
        full = open(pointer_path, "rb").read()
        for cut in range(len(full)):
            with open(pointer_path, "wb") as fh:
                fh.write(full[:cut])
            # torn pointer: the scan still finds the newest manifest,
            # which is intact on disk
            manifest = store.latest()
            assert manifest is not None
            assert manifest["generation"] == "new", "cut=%d" % cut

    def test_torn_pointer_and_manifest_together(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        store.commit({"generation": "old"})
        name = store.commit({"generation": "new"})
        manifest_path = os.path.join(store._manifests, name)
        pointer_path = os.path.join(store.root, "LATEST")
        manifest_full = open(manifest_path, "rb").read()
        pointer_full = open(pointer_path, "rb").read()
        for cut in (0, 1, len(pointer_full) // 2, len(pointer_full) - 1):
            with open(pointer_path, "wb") as fh:
                fh.write(pointer_full[:cut])
            with open(manifest_path, "wb") as fh:
                fh.write(manifest_full[: len(manifest_full) // 2])
            manifest = store.latest()
            assert manifest["generation"] == "old"

    def test_single_checkpoint_torn_fails_closed(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        name = store.commit({"generation": "only"})
        path = os.path.join(store._manifests, name)
        full = open(path, "rb").read()
        for cut in range(0, len(full), 7):
            with open(path, "wb") as fh:
                fh.write(full[:cut])
            assert store.latest() is None, "cut=%d" % cut
            with pytest.raises(CheckpointError):
                store.require_latest()

