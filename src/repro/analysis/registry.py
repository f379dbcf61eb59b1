"""The fidelint rule registry.

A rule is a callable ``check(module, project)`` yielding
:class:`~repro.analysis.findings.Finding` objects, registered with the
:func:`rule` decorator.  Registration order is the stable report order;
each rule carries an id (``FIDnnn``), a short kebab-case name, a default
severity, a one-paragraph description used by ``--list-rules``, an
optional *fixed example* shown by ``--explain``, and a
``needs_dataflow`` flag that ``--explain`` shows as ``[dataflow]``.
The shared per-run CFG/summary cache is built on a rule's first use,
so a purely syntactic run never pays for it.
"""

from dataclasses import dataclass, field

from repro.analysis.findings import Severity

_REGISTRY = {}


@dataclass(frozen=True)
class Rule:
    rule_id: str
    name: str
    severity: Severity
    description: str
    check: object
    needs_dataflow: bool = False
    example: str = ""
    module: str = field(default="")    # defining module, for --explain

    def run(self, module, project):
        return self.check(module, project)


def rule(rule_id, name, severity, description, needs_dataflow=False,
         example=""):
    """Class-less rule registration decorator."""
    def register(func):
        if rule_id in _REGISTRY:
            raise ValueError("duplicate rule id %s" % rule_id)
        _REGISTRY[rule_id] = Rule(rule_id, name, severity, description,
                                  func, needs_dataflow=needs_dataflow,
                                  example=example,
                                  module=func.__module__)
        return func
    return register


def all_rules():
    """Registered rules, in registration (= report) order."""
    import repro.analysis.rules  # noqa: F401  -- triggers registration
    return list(_REGISTRY.values())


def get_rule(rule_id):
    import repro.analysis.rules  # noqa: F401
    return _REGISTRY[rule_id]
