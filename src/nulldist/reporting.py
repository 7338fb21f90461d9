"""Small report/verdict containers used by the validation-style operations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(frozen=True)
class Violation:
    """One violated invariant with the witnessing indices."""

    kind: str
    where: tuple
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.kind} at {self.where}"
        return f"{msg}: {self.detail}" if self.detail else msg


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: tuple, detail: str = "") -> None:
        self.violations.append(Violation(kind, tuple(where), detail))

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class Verdict:
    """Pass/fail outcome with an optional witness for the failure."""

    passed: bool
    witness: Any = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


@dataclass
class GuaranteeReport:
    """Outcome of checking a family of inequalities on computed data.

    `worst` maps a named inequality to its worst signed margin (negative
    margins are violations); `violations` lists the offending entries.
    """

    worst: dict[str, float] = field(default_factory=dict)
    violations: dict[str, list] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(len(v) == 0 for v in self.violations.values())

    def record(self, name: str, margin: float, witness: Optional[Any]) -> None:
        prev = self.worst.get(name)
        if prev is None or margin < prev:
            self.worst[name] = float(margin)
        if witness is not None:
            self.violations.setdefault(name, []).append(witness)
        else:
            self.violations.setdefault(name, [])

    def merge(self, other: "GuaranteeReport") -> None:
        """Fold in a report on further entries as if its records had
        followed this report's: per inequality the lower worst margin (the
        earlier one on ties), violations and notes appended in order."""
        for name, margin in other.worst.items():
            prev = self.worst.get(name)
            if prev is None or margin < prev:
                self.worst[name] = margin
        for name, found in other.violations.items():
            self.violations.setdefault(name, []).extend(found)
        self.notes.extend(other.notes)
