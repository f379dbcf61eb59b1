"""FID001: the raw-memory capability (static twin of invariant I3).

Only the hardware layer (``repro.hw``) and the adversary simulations
(``repro.attacks``, which model exactly the accesses Fidelius must
defeat) may touch physical frames directly.  Everything else must go
through the memory controller / CPU paths, where encryption and cycle
accounting live.  The sanctioned exceptions in core (the binary scanner,
the integrity measurer, boot-time construction of PIT/GIT/NPT frames)
carry inline ``fidelint: ignore`` justifications.
"""

import ast

from repro.analysis.astutil import dotted_name, receiver_token
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule

RAW_METHODS = frozenset({"read_frame", "write_frame", "zero_frame", "dump"})
MEMORY_TOKENS = frozenset({"memory", "_memory"})
ALLOWED_SUBPACKAGES = frozenset({"hw", "attacks"})


@rule("FID001", "raw-memory", Severity.ERROR,
      "Raw physical-frame access (read_frame/write_frame/zero_frame/dump "
      "or PhysicalMemory._data) outside repro.hw and repro.attacks.",
      example="""
      # BAD (in repro.xen.*): bypasses the memory controller entirely
      data = memory.read_frame(pfn)
      # GOOD: go through the controller, which enforces the C-bit
      data = machine.memctrl.read(pfn << 12, 4096)
      """)
def check(module, project):
    if module.subpackage in ALLOWED_SUBPACKAGES or module.subpackage == "":
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in RAW_METHODS and \
                receiver_token(node.func) in MEMORY_TOKENS:
            yield Finding(
                "FID001", "raw-memory", Severity.ERROR, module.name,
                module.rel_path, node.lineno,
                "raw frame access %s.%s() outside repro.hw/repro.attacks"
                % (receiver_token(node.func), node.func.attr))
        elif isinstance(node, ast.Attribute) and node.attr == "_data":
            chain = dotted_name(node.value) or ""
            last = chain.split(".")[-1] if chain else ""
            if last in MEMORY_TOKENS:
                yield Finding(
                    "FID001", "raw-memory", Severity.ERROR, module.name,
                    module.rel_path, node.lineno,
                    "direct index into physical memory backing store "
                    "(%s._data)" % chain)
