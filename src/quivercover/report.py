"""Structured verdict objects emitted by every theorem verifier."""

from __future__ import annotations

from dataclasses import dataclass, field

CLAIM_IDS = (
    "Main1",
    "Main2",
    "DILemma",
    "Corres",
    "PnPushdown",
    "BonGab",
    "SelfinjCriteria",
    "ZGpEquivalence",
    "ModPushdown",
    "TiltingPushdown",
    "TiltingFinite",
)

NOT_APPLICABLE = "not-applicable"
INDETERMINATE = "indeterminate"


@dataclass(kw_only=True)
class VerificationReport:
    """A claim's verdict.  `cli.run_claim` writes the claim and the instance
    of a top-level report; a nested check writes its own."""

    claim: str = ""
    instance: dict = field(default_factory=dict)
    outcome: object  # True | False | "not-applicable" | "indeterminate"
    witnesses: list = field(default_factory=list)
    caps: dict = field(default_factory=dict)
    timing: float | None = None
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.outcome not in (True, False, NOT_APPLICABLE, INDETERMINATE):
            raise ValueError(f"bad outcome {self.outcome!r}")

    @property
    def passed(self) -> bool:
        return self.outcome is True

    def exit_code(self) -> int:
        if self.outcome is True:
            return 0
        if self.outcome is False:
            return 1
        return 3

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "instance": self.instance,
            "pass": self.outcome,
            "witnesses": self.witnesses,
            "caps": self.caps,
            "timing": self.timing,
            "notes": self.notes,
        }
