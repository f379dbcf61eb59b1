"""The virtual machine control block.

The VMCB is *the* central unencrypted attack surface of pre-SEV-ES
hardware (paper Section 2.2): it holds the guest instruction pointer,
control registers and the exit/entry control vectors, and the hypervisor
reads and writes it freely.  Fidelius responds by shadowing it across
every exit and verifying the hypervisor's edits against exit-reason
policies before VMRUN (Sections 4.2.1 and 5.1).

We model it as a structured record.  Byte-level attacks on the VMCB are
uninteresting to the paper (the hypervisor legitimately owns the bytes);
what matters is which *fields* change between exit and entry, so the
record exposes exactly field-level reads, writes, copies and diffs.
"""

from repro.common.types import ExitReason

#: Guest state saved/loaded by the hardware world switch.
SAVE_FIELDS = (
    "rip",
    "rsp",
    "rax",
    "cr0",
    "cr2",
    "cr3",
    "cr4",
    "efer",
    "rflags",
    "gdtr_base",
    "idtr_base",
)

#: Control fields owned by the hypervisor (entry/exit behaviour).
CONTROL_FIELDS = (
    "asid",
    "np_enable",
    "nested_cr3",
    "intercepts",
    "exitcode",
    "exitinfo1",
    "exitinfo2",
    "event_injection",
)

ALL_FIELDS = SAVE_FIELDS + CONTROL_FIELDS


class Vmcb:
    """One VMCB; each virtual CPU of a guest owns one."""

    def __init__(self, asid=0, nested_cr3=0):
        self._fields = {name: 0 for name in ALL_FIELDS}
        self._fields["asid"] = asid
        self._fields["nested_cr3"] = nested_cr3
        self._fields["np_enable"] = 1
        self._fields["intercepts"] = frozenset(
            {ExitReason.CPUID, ExitReason.HYPERCALL, ExitReason.IOIO,
             ExitReason.MSR, ExitReason.HLT}
        )
        #: Guest general-purpose registers other than rax.  Real hardware
        #: leaves these live in the CPU across an exit — that exposure is
        #: the register-stealing attack — but we also keep the storage
        #: here so VMRUN can reload a consistent guest context.
        self.guest_gprs = {}

    def read(self, name):
        if name not in self._fields:
            raise KeyError("no VMCB field %r" % name)
        return self._fields[name]

    # fidelint: ignore[FID004] -- priced at VMRUN/VMEXIT sites
    def write(self, name, value):
        if name not in self._fields:
            raise KeyError("no VMCB field %r" % name)
        self._fields[name] = value

    def fields(self):
        return dict(self._fields)

    def copy(self):
        twin = Vmcb.__new__(Vmcb)
        twin._fields = dict(self._fields)
        twin.guest_gprs = dict(self.guest_gprs)
        return twin

    def diff(self, other):
        """Names of fields whose values differ from ``other``."""
        return {
            name
            for name in ALL_FIELDS
            if self._fields[name] != other._fields[name]
        }

    # fidelint: ignore[FID004] -- priced at VMRUN/VMEXIT sites
    def restore_from(self, other, fields=None):
        names = fields if fields is not None else ALL_FIELDS
        for name in names:
            self._fields[name] = other._fields[name]

    # fidelint: ignore[FID004] -- priced at VMRUN/VMEXIT sites
    def mask_fields(self, names, fill=0):
        """Zero the given fields (Fidelius masking before handing to Xen)."""
        for name in names:
            if name == "intercepts":
                self._fields[name] = frozenset()
            else:
                self._fields[name] = fill

    @property
    def exit_reason(self):
        return self._fields["exitcode"]

    # fidelint: ignore[FID004] -- priced at VMRUN/VMEXIT sites
    def set_exit(self, reason, info1=0, info2=0):
        self._fields["exitcode"] = reason
        self._fields["exitinfo1"] = info1
        self._fields["exitinfo2"] = info2
