"""The grant information table (paper Sections 4.3.7 and 5.2).

Before a protected guest offers memory through the grant mechanism, it
declares the sharing context to Fidelius with the ``pre_sharing_op``
hypercall: target domain, shared address, number of frames, and whether
the share is read-only.  Fidelius records the declaration here — in
frames of its own, read-only to the hypervisor — and later checks every
hypervisor-performed grant-table update for consistency: the untrusted
host can no longer widen permissions or redirect a grant to an
accomplice domain.

Entry layout (32 bytes):
  [0:4)   initiator domain id
  [4:8)   target domain id
  [8:16)  first shared guest frame number
  [16:24) number of frames
  [24:25) flags — bit 0 VALID, bit 1 READONLY
  [25:32) reserved
"""

from dataclasses import dataclass

from repro.common.constants import PAGE_SIZE
from repro.common.errors import ReproError
from repro.common.types import frame_addr

ENTRY_SIZE = 32
ENTRIES_PER_PAGE = PAGE_SIZE // ENTRY_SIZE

_F_VALID = 1 << 0
_F_READONLY = 1 << 1


@dataclass(frozen=True)
class GitEntry:
    initiator_domid: int
    target_domid: int
    first_gfn: int
    nframes: int
    readonly: bool

    def pack(self):
        flags = _F_VALID | (_F_READONLY if self.readonly else 0)
        return (
            self.initiator_domid.to_bytes(4, "little")
            + self.target_domid.to_bytes(4, "little")
            + self.first_gfn.to_bytes(8, "little")
            + self.nframes.to_bytes(8, "little")
            + bytes([flags])
            + bytes(7)
        )

    @classmethod
    def unpack(cls, raw):
        flags = raw[24]
        if not flags & _F_VALID:
            return None
        return cls(
            initiator_domid=int.from_bytes(raw[0:4], "little"),
            target_domid=int.from_bytes(raw[4:8], "little"),
            first_gfn=int.from_bytes(raw[8:16], "little"),
            nframes=int.from_bytes(raw[16:24], "little"),
            readonly=bool(flags & _F_READONLY),
        )

    def covers(self, gfn):
        return self.first_gfn <= gfn < self.first_gfn + self.nframes


class GrantInfoTable:
    """The GIT, backed by Fidelius-owned frames."""

    def __init__(self, machine, alloc_frame, pages=2):
        self._memory = machine.memory
        self.table_pfns = set()
        self._frames = []
        for _ in range(pages):
            pfn = alloc_frame()
            # fidelint: ignore[FID001] -- boot-time construction of
            # Fidelius-owned GIT frames, before protection is sealed.
            machine.memory.zero_frame(pfn)
            self.table_pfns.add(pfn)
            self._frames.append(pfn)
        self.capacity = pages * ENTRIES_PER_PAGE

    def _entry_pa(self, index):
        if not 0 <= index < self.capacity:
            raise ReproError("GIT index %r out of range" % (index,))
        frame = self._frames[index // ENTRIES_PER_PAGE]
        return frame_addr(frame) + (index % ENTRIES_PER_PAGE) * ENTRY_SIZE

    def read(self, index):
        return GitEntry.unpack(self._memory.read(self._entry_pa(index), ENTRY_SIZE))

    def slots(self):
        """``(index, entry or None)`` for every slot in index order, each
        table frame read from DRAM in one piece when the walk reaches
        it.  A caller may rewrite a slot the walk has passed."""
        index = 0
        for pfn in self._frames:
            raw = self._memory.read(frame_addr(pfn), PAGE_SIZE)
            for offset in range(0, PAGE_SIZE, ENTRY_SIZE):
                yield index, GitEntry.unpack(raw[offset:offset + ENTRY_SIZE])
                index += 1

    def record(self, entry):
        """Store a declaration (Fidelius-context write); returns its index."""
        for index, held in self.slots():
            if held is None:
                self._memory.write(self._entry_pa(index), entry.pack())
                return index
        raise ReproError("GIT full")

    def remove(self, index):
        self._memory.write(self._entry_pa(index), bytes(ENTRY_SIZE))

    def remove_for_domain(self, domid):
        removed = 0
        for index, entry in self.slots():
            if entry and (entry.initiator_domid == domid
                          or entry.target_domid == domid):
                self.remove(index)
                removed += 1
        return removed

    def entries_for(self, initiator_domid):
        return [entry for _, entry in self.slots()
                if entry and entry.initiator_domid == initiator_domid]

    def find_match(self, initiator_domid, target_domid, gfn):
        """The declaration covering (initiator, target, gfn), if any."""
        for entry in self.entries_for(initiator_domid):
            if entry.target_domid == target_domid and entry.covers(gfn):
                return entry
        return None
