"""The content-addressed chunk store and its crash-safe commit protocol.

On-disk layout of one checkpoint directory::

    objects/ab/abcdef...        one immutable chunk, named by SHA-256
    manifests/ckpt-000007-1a2b3c4d.json
    LATEST                      self-validating pointer to one manifest

Chunks are immutable and deduplicated: ``put`` of bytes already present
writes nothing, which is what makes periodic checkpoints of a mostly
idle fleet cheap — only the pages that changed since the last
checkpoint cost new disk.

**Atomicity protocol** (the ``kill -9`` contract): every file becomes
visible only through ``os.replace`` of a fully written, fsynced
temporary in the same directory, followed by an fsync of the directory
itself.  A reader therefore only ever sees absent-or-complete files.
The ``LATEST`` pointer carries the manifest's name *and* its SHA-256,
so even a torn pointer (impossible under the protocol, simulated by
the truncate-fuzzing tests) is detected and ignored; the loader then
falls back to scanning ``manifests/`` for the highest-sequence manifest
that verifies, and **fails closed** if none does.  Torn state is never
loaded.

Wall-clock never enters any modelled quantity here: sequence numbers,
not timestamps, order manifests.
"""

import hashlib
import json
import os

from repro.common.errors import ReproError


class CheckpointError(ReproError):
    """A checkpoint could not be written, found, or verified."""


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _fsync_dir(path):
    # POSIX requires the directory fsync for the rename to be durable;
    # platforms that refuse O_RDONLY fsync on directories lose only
    # durability, never atomicity.
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path, data):
    """Write ``data`` to ``path`` so a crash leaves old-or-new, never torn."""
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, ".tmp.%d.%s" % (os.getpid(),
                                                  os.path.basename(path)))
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(directory)


class ChunkStore:
    """Content-addressed immutable chunks under ``<root>/objects``."""

    def __init__(self, root):
        self.root = root
        self._objects = os.path.join(root, "objects")
        os.makedirs(self._objects, exist_ok=True)
        #: dedup tallies (the restore-equivalence oracle reports them)
        self.chunks_written = 0
        self.chunks_deduped = 0

    def _path(self, digest):
        return os.path.join(self._objects, digest[:2], digest)

    def put(self, data):
        """Store ``data``; returns its SHA-256 hex digest."""
        data = bytes(data)
        digest = _sha256(data)
        path = self._path(digest)
        if os.path.exists(path):
            self.chunks_deduped += 1
            return digest
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write(path, data)
        self.chunks_written += 1
        return digest

    def has(self, digest):
        return os.path.exists(self._path(digest))

    def get(self, digest):
        """The chunk's bytes; fails closed on absence or corruption."""
        try:
            with open(self._path(digest), "rb") as handle:
                data = handle.read()
        except OSError:
            raise CheckpointError("missing chunk %s" % digest)
        if _sha256(data) != digest:
            raise CheckpointError("corrupt chunk %s" % digest)
        return data


class MemoryChunkStore:
    """Dict-backed :class:`ChunkStore` twin for tests and the oracle.

    Same interface and fail-closed semantics, no filesystem — so the
    restore-equivalence harness can run inside sharded work units
    without touching disk.
    """

    def __init__(self):
        self._chunks = {}
        self.chunks_written = 0
        self.chunks_deduped = 0

    def put(self, data):
        data = bytes(data)
        digest = _sha256(data)
        if digest in self._chunks:
            self.chunks_deduped += 1
            return digest
        self._chunks[digest] = data
        self.chunks_written += 1
        return digest

    def has(self, digest):
        return digest in self._chunks

    def get(self, digest):
        data = self._chunks.get(digest)
        if data is None:
            raise CheckpointError("missing chunk %s" % digest)
        return data


#: LATEST pointer format: one line, schema-tagged and self-validating.
_LATEST_SCHEMA = "fidelius-checkpoint-latest/1"


class CheckpointStore(ChunkStore):
    """A chunk store plus sequence-numbered manifests and ``LATEST``."""

    def __init__(self, root):
        super().__init__(root)
        self._manifests = os.path.join(root, "manifests")
        os.makedirs(self._manifests, exist_ok=True)

    # -- commit ------------------------------------------------------------------

    def _next_sequence(self):
        highest = -1
        for name in os.listdir(self._manifests):
            parsed = self._parse_name(name)
            if parsed is not None:
                highest = max(highest, parsed)
        return highest + 1

    @staticmethod
    def _parse_name(name):
        # ckpt-<seq:06d>-<sha256 prefix>.json
        if not (name.startswith("ckpt-") and name.endswith(".json")):
            return None
        fields = name[:-len(".json")].split("-")
        if len(fields) != 3:
            return None
        try:
            return int(fields[1], 10)
        except ValueError:
            return None

    def commit(self, manifest):
        """Atomically persist ``manifest`` and repoint ``LATEST`` at it.

        The manifest document is canonical JSON (sorted keys); its file
        name embeds the sequence number and a payload-hash prefix, and
        the ``LATEST`` pointer records the full payload hash so torn or
        tampered manifests are detected before use.  Returns the
        manifest file name.
        """
        sequence = self._next_sequence()
        manifest = dict(manifest, sequence=sequence)
        payload = (json.dumps(manifest, sort_keys=True, indent=1)
                   + "\n").encode()
        digest = _sha256(payload)
        name = "ckpt-%06d-%s.json" % (sequence, digest[:8])
        atomic_write(os.path.join(self._manifests, name), payload)
        pointer = "%s %d %s %s\n" % (_LATEST_SCHEMA, sequence, name, digest)
        atomic_write(os.path.join(self.root, "LATEST"), pointer.encode())
        return name

    # -- load --------------------------------------------------------------------

    def manifest_names(self):
        """Well-formed manifest names, ascending sequence order."""
        names = [n for n in os.listdir(self._manifests)
                 if self._parse_name(n) is not None]
        return sorted(names, key=self._parse_name)

    def load_manifest(self, name):
        """Parse + verify one manifest by file name; fails closed."""
        try:
            with open(os.path.join(self._manifests, name), "rb") as handle:
                payload = handle.read()
        except OSError:
            raise CheckpointError("missing manifest %s" % name)
        return self._verify_payload(name, payload)

    @staticmethod
    def _verify_payload(name, payload, expect_digest=None):
        digest = _sha256(payload)
        if expect_digest is not None and digest != expect_digest:
            raise CheckpointError("manifest %s does not match its "
                                  "LATEST pointer hash" % name)
        if not name.startswith("ckpt-") or digest[:8] not in name:
            raise CheckpointError("manifest %s does not match its own "
                                  "content hash" % name)
        try:
            manifest = json.loads(payload.decode())
        except (UnicodeDecodeError, ValueError):
            raise CheckpointError("manifest %s is not valid JSON" % name)
        if not isinstance(manifest, dict):
            raise CheckpointError("manifest %s is not an object" % name)
        return manifest

    def _latest_from_pointer(self):
        try:
            with open(os.path.join(self.root, "LATEST"), "rb") as handle:
                pointer = handle.read()
        except OSError:
            return None
        fields = pointer.decode("utf-8", "replace").split()
        if len(fields) != 4 or fields[0] != _LATEST_SCHEMA:
            return None
        _, _seq, name, digest = fields
        try:
            with open(os.path.join(self._manifests, name), "rb") as handle:
                payload = handle.read()
            return self._verify_payload(name, payload, expect_digest=digest)
        except (OSError, CheckpointError):
            return None

    def latest(self):
        """The newest verifiable manifest, or None for an empty store.

        A valid ``LATEST`` pointer is authoritative; otherwise (absent,
        torn, or pointing at a torn manifest) the loader degrades to
        the newest manifest in ``manifests/`` that verifies — i.e. the
        previous checkpoint.  It never returns torn state.
        """
        manifest = self._latest_from_pointer()
        if manifest is not None:
            return manifest
        for name in reversed(self.manifest_names()):
            try:
                return self.load_manifest(name)
            except CheckpointError:
                continue
        return None

    def require_latest(self):
        manifest = self.latest()
        if manifest is None:
            raise CheckpointError(
                "no verifiable checkpoint under %s" % self.root)
        return manifest
