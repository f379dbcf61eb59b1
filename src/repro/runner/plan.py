"""The unit of parallel work.

A :class:`WorkUnit` names one independent piece of work — a soak seed,
an eval benchmark, an attack case, a sensitivity sweep point — as a
picklable ``(key, fn, args, kwargs)`` tuple.  A run is a plain list of
units: the executor dispatches each one on its own, retries it on a
crash or timeout, and merges the results back into submission order,
keyed by ``key``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkUnit:
    """One independent, picklable piece of work.

    ``key`` must be unique within a run, hashable, and stable across
    runs — it is the merge key.  ``fn`` must be a module-level callable
    (so worker processes can import it); ``kwargs`` is stored as a
    sorted tuple of pairs to keep the unit hashable and its pickled
    form byte-stable.
    """

    key: object
    fn: object
    args: tuple = ()
    kwargs: tuple = ()

    @classmethod
    def of(cls, key, fn, *args, **kwargs):
        return cls(key, fn, tuple(args), tuple(sorted(kwargs.items())))

    def call(self):
        return self.fn(*self.args, **dict(self.kwargs))
