"""Report objects shared by the verification entry points."""

from __future__ import annotations

from typing import Any

__all__ = ['CheckReport']


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
    """

    __slots__ = ('theorem', 'passed', 'shape', 'ordering', 'witness',
                 'signs', 'failures', 'timing')
    __hash__ = None  # mutable and compared by value

    def __init__(self, theorem: str, passed: bool,
                 shape: tuple[int, ...] | None = None,
                 ordering: tuple[str, ...] | None = None,
                 witness: dict[str, Any] | None = None,
                 signs: dict[str, int] | None = None,
                 failures: list[str] | None = None,
                 timing: float | None = None):
        self.theorem = theorem
        self.passed = passed
        self.shape = shape
        self.ordering = ordering
        self.witness = {} if witness is None else witness
        self.signs = signs
        self.failures = [] if failures is None else failures
        self.timing = timing

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ', '.join(f'{name}={value!r}'
                         for name, value in zip(self.__slots__, self._fields()))
        return f'{self.__class__.__qualname__}({body})'

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
