"""Shared verdict records for lemma/theorem checkers.

A check never passes vacuously: when its hypotheses fail it reports
INAPPLICABLE. FAIL verdicts must carry enough detail to replay the
violation. CONDITIONAL marks conclusions that hold for everything
explored under a budget-limited quantifier. A verdict is frozen, since
the lemma suite appends one verdict for every coloring of a renaming
class. A report encodes each distinct verdict once, so its verdict
dicts are shared within the report and are read-only too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
INAPPLICABLE = "INAPPLICABLE"
UNKNOWN = "UNKNOWN"
CONDITIONAL = "CONDITIONAL"


@dataclass(frozen=True)
class Verdict:
    check: str
    status: str
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_json(self) -> dict:
        return {"check": self.check, "status": self.status, "detail": self.detail}


def passed(check: str, **detail) -> Verdict:
    return Verdict(check, PASS, detail)


def failed(check: str, **detail) -> Verdict:
    return Verdict(check, FAIL, detail)


def inapplicable(check: str, reason: str, **detail) -> Verdict:
    return Verdict(check, INAPPLICABLE, {"reason": reason, **detail})


def unknown(check: str, reason: str, **detail) -> Verdict:
    return Verdict(check, UNKNOWN, {"reason": reason, **detail})


def conditional(check: str, reason: str, **detail) -> Verdict:
    return Verdict(check, CONDITIONAL, {"reason": reason, **detail})
