"""Report objects shared by the verification entry points."""

from __future__ import annotations

from typing import Any

__all__ = ['CheckReport']


def _deferred(private: str) -> property:
    """A report field that renders the report's deferred fields first."""
    def read(report):
        report._rendered()
        return getattr(report, private)

    def write(report, value):
        report._rendered()
        setattr(report, private, value)

    return property(read, write)


class CheckReport:
    """Outcome of one verification run.

    `witness` holds machine-readable evidence: for passes, the realized
    permutation and similar data; for failures, the first offending
    column, entry, or pair.  `signs` maps a class label to the constant
    sign on that class, when the check establishes one.  `timing` is
    wall-clock seconds; it is reported as null in structured output so
    identical runs stay byte-identical.

    A plain slotted class: every report gets its own `witness` dict and
    `failures` list when none is given, and two reports are equal when
    their classes and all their fields are.

    Deferred fields.  A verifier that decides on positions may leave the
    labels to be rendered: it passes `render=(fn, *args)`, a module-level
    function and its plain arguments, and fn(*args) returns `ordering`,
    `signs` and the entries to add to `witness`.  The first read of any
    of those three fields (so also `==`, `repr`, pickling and `record()`)
    renders them, once; a report then compares, prints and pickles as
    one built with them.  `passed`, `failures`, `shape`, `timing` and
    `_witness`, the witness as given, are kept at once: a text line reads
    only those, so it never renders.  Rendering may replace an entry of
    the witness as given: thm4's chain is given as its record's shared
    tuples and renders as fresh lists, and a text line reads either form.
    """

    __slots__ = ('theorem', 'passed', 'shape', '_ordering', '_witness',
                 '_signs', 'failures', 'timing', '_render')
    _FIELDS = ('theorem', 'passed', 'shape', 'ordering', 'witness', 'signs',
               'failures', 'timing')
    __hash__ = None  # mutable and compared by value

    def __init__(self, theorem: str, passed: bool,
                 shape: tuple[int, ...] | None = None,
                 ordering: tuple[str, ...] | None = None,
                 witness: dict[str, Any] | None = None,
                 signs: dict[str, int] | None = None,
                 failures: list[str] | None = None,
                 timing: float | None = None, *,
                 render: tuple | None = None):
        self.theorem = theorem
        self.passed = passed
        self.shape = shape
        self._ordering = ordering
        self._witness = {} if witness is None else witness
        self._signs = signs
        self.failures = [] if failures is None else failures
        self.timing = timing
        self._render = render

    def _rendered(self) -> None:
        if self._render is not None:
            fn, *args = self._render
            self._render = None
            self._ordering, self._signs, entries = fn(*args)
            self._witness.update(entries)

    ordering = _deferred('_ordering')
    witness = _deferred('_witness')
    signs = _deferred('_signs')

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ', '.join(f'{name}={value!r}'
                         for name, value in zip(self._FIELDS, self._fields()))
        return f'{self.__class__.__qualname__}({body})'

    def __reduce__(self):
        return self.__class__, self._fields()

    def record(self) -> dict[str, Any]:
        """JSON-ready dict with the interface field names."""
        return {
            'theorem': self.theorem,
            'shape': list(self.shape) if self.shape is not None else None,
            'ordering': list(self.ordering) if self.ordering is not None else None,
            'passed': self.passed,
            'witness': self.witness,
            'signs': self.signs,
            'failures': self.failures,
            'timing': None,
        }
