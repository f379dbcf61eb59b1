"""Finding and severity types shared by the fidelint rules and engine."""

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad an unsuppressed finding is.

    ``ERROR`` findings fail the default CLI run; ``WARNING`` findings
    fail only under ``--strict`` (CI runs strict).
    """

    ERROR = "error"
    WARNING = "warning"

    @property
    def rank(self):
        return 0 if self is Severity.ERROR else 1


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    rule_name: str
    severity: Severity
    module: str          # dotted module name, e.g. "repro.xen.npt"
    path: str            # path relative to the analysis root
    line: int            # 1-based source line
    message: str
    suppressed: bool = field(default=False, compare=False)

    def to_dict(self):
        return {
            "rule": self.rule_id,
            "name": self.rule_name,
            "severity": self.severity.value,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
        }

    def render(self):
        return "%s:%d: %s [%s] %s (%s)" % (
            self.path, self.line, self.rule_id, self.severity.value,
            self.message, self.rule_name)
