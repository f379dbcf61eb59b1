"""Physical memory and the physical-frame allocator.

The memory stores *exactly the bytes on the DRAM bus*: when the memory
controller encrypts a line, the ciphertext is what lives here.  The
``dump`` method therefore is the cold-boot / bus-snooping attack surface
of Section 6.1 — it returns whatever an attacker with physical access
would see.
"""

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.common.errors import PhysicalMemoryError
from repro.common.types import page_offset, pfn_of


class PhysicalMemory:
    """``frames`` pages of byte-addressable physical memory."""

    def __init__(self, frames):
        if frames <= 0:
            raise ValueError("need at least one physical frame")
        self.frames = frames
        #: total bytes; precomputed — the bounds checks run per access
        self.size = frames * PAGE_SIZE
        self._data = {}

    def _frame(self, pfn):
        if not 0 <= pfn < self.frames:
            raise PhysicalMemoryError("pfn %#x out of range" % pfn)
        frame = self._data.get(pfn)
        if frame is None:
            frame = bytearray(PAGE_SIZE)
            self._data[pfn] = frame
        return frame

    def read(self, pa, length):
        """Raw read of ``length`` bytes at physical address ``pa``."""
        if length < 0:
            raise ValueError("negative length")
        if pa < 0 or pa + length > self.size:
            raise PhysicalMemoryError(
                "read [%#x, %#x) outside physical memory" % (pa, pa + length)
            )
        off = pa & (PAGE_SIZE - 1)
        if off + length <= PAGE_SIZE:
            # Dominant case — a cache line never crosses a page boundary.
            frame = self._data.get(pa >> PAGE_SHIFT)
            if frame is None:
                frame = self._frame(pa >> PAGE_SHIFT)
            return bytes(frame[off:off + length])
        # Across frames: one copy, out of views of each frame's part.
        parts = []
        end = pa + length
        while pa < end:
            frame = self._frame(pa >> PAGE_SHIFT)
            off = pa & (PAGE_SIZE - 1)
            take = min(end - pa, PAGE_SIZE - off)
            parts.append(memoryview(frame)[off:off + take])
            pa += take
        return b"".join(parts)

    def write(self, pa, data):
        """Raw write of ``data`` at physical address ``pa``."""
        length = len(data)
        if pa < 0 or pa + length > self.size:
            raise PhysicalMemoryError(
                "write [%#x, %#x) outside physical memory" % (pa, pa + length)
            )
        off = pa & (PAGE_SIZE - 1)
        if off + length <= PAGE_SIZE:
            frame = self._data.get(pa >> PAGE_SHIFT)
            if frame is None:
                frame = self._frame(pa >> PAGE_SHIFT)
            frame[off:off + length] = data
            return
        view = memoryview(data)
        while view.nbytes:
            frame = self._frame(pfn_of(pa))
            off = page_offset(pa)
            take = min(view.nbytes, PAGE_SIZE - off)
            frame[off:off + take] = view[:take]
            pa += take
            view = view[take:]

    def read_frame(self, pfn):
        return bytes(self._frame(pfn))

    def write_frame(self, pfn, data):
        if len(data) != PAGE_SIZE:
            raise ValueError("frame writes must be exactly one page")
        self._frame(pfn)[:] = data

    def zero_frame(self, pfn):
        self._frame(pfn)[:] = bytes(PAGE_SIZE)

    def read_u64(self, pa):
        return int.from_bytes(self.read(pa, 8), "little")

    def write_u64(self, pa, value):
        self.write(pa, (value & (2 ** 64 - 1)).to_bytes(8, "little"))

    def dump(self):
        """Cold-boot snapshot: the raw contents of every touched frame."""
        return {pfn: bytes(frame) for pfn, frame in self._data.items()}


class FrameAllocator:
    """A trivially simple free-list allocator over physical frames.

    The low ``reserved`` frames are never handed out (they hold boot
    structures placed at fixed addresses).  Ownership semantics live in
    the Fidelius page information table, not here: real Xen's allocator
    is equally oblivious, which is exactly why the PIT is needed.
    """

    def __init__(self, frames, reserved=0):
        if reserved >= frames:
            raise ValueError("reserving more frames than exist")
        self._free = list(range(frames - 1, reserved - 1, -1))
        self._allocated = set()
        self.reserved = reserved

    @property
    def free_count(self):
        return len(self._free)

    def alloc(self):
        if not self._free:
            raise PhysicalMemoryError("out of physical frames")
        pfn = self._free.pop()
        self._allocated.add(pfn)
        return pfn

    def alloc_many(self, count):
        return [self.alloc() for _ in range(count)]

    def free(self, pfn):
        if pfn not in self._allocated:
            raise PhysicalMemoryError("freeing frame %#x not allocated" % pfn)
        self._allocated.remove(pfn)
        self._free.append(pfn)

    def is_allocated(self, pfn):
        return pfn in self._allocated
