"""Grading groups (free abelian or cyclic) and finite boxes of their elements.

Group elements are plain hashable values: int r-tuples for free-abelian
groups of rank r (the rank-0 case is the trivial group) and residues
0..m-1 for cyclic groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SchemaError


@dataclass(frozen=True)
class Group:
    kind: str  # "free-abelian" | "cyclic"
    rank: int = 0  # free-abelian rank
    order: int = 0  # cyclic modulus

    def __post_init__(self):
        if self.kind not in ("free-abelian", "cyclic"):
            raise SchemaError(f"unknown group kind {self.kind!r}")
        if self.kind == "cyclic" and self.order < 1:
            raise SchemaError("cyclic group needs modulus >= 1")
        if self.kind == "free-abelian" and self.rank < 0:
            raise SchemaError("free-abelian rank must be >= 0")

    @staticmethod
    def free_abelian(rank: int) -> "Group":
        return Group("free-abelian", rank=rank)

    @staticmethod
    def cyclic(m: int) -> "Group":
        return Group("cyclic", order=m)

    @staticmethod
    def trivial() -> "Group":
        return Group.free_abelian(0)

    def to_json(self) -> dict:
        """The group as a presentation document writes it."""
        if self.kind == "cyclic":
            return {"kind": "cyclic", "m": self.order}
        return {"kind": "free-abelian", "rank": self.rank}

    def describe(self) -> str:
        return f"Z/{self.order}" if self.kind == "cyclic" else f"Z^{self.rank}"

    @property
    def is_trivial(self) -> bool:
        return (self.kind == "free-abelian" and self.rank == 0) or (
            self.kind == "cyclic" and self.order == 1
        )

    @property
    def is_finite(self) -> bool:
        return self.kind == "cyclic" or self.rank == 0

    # element arithmetic ----------------------------------------------------

    def identity(self):
        return 0 if self.kind == "cyclic" else (0,) * self.rank

    def coerce(self, value):
        """Canonical element from JSON data (int or list of ints)."""
        if self.kind == "cyclic":
            if isinstance(value, (list, tuple)):
                if len(value) != 1:
                    raise SchemaError(f"cyclic weight must be one integer, got {value}")
                value = value[0]
            return int(value) % self.order
        if isinstance(value, int):
            value = [value]
        if len(value) != self.rank:
            raise SchemaError(f"weight {value} has wrong rank (expected {self.rank})")
        return tuple(int(v) for v in value)

    def op(self, a, b):
        if self.kind == "cyclic":
            return (a + b) % self.order
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        if self.kind == "cyclic":
            return (-a) % self.order
        return tuple(-x for x in a)

    def sub(self, a, b):
        return self.op(a, self.inv(b))

    def is_identity(self, a) -> bool:
        return a == self.identity()

    def element_to_json(self, a):
        return a if self.kind == "cyclic" else list(a)

    def all_elements(self):
        if self.kind == "cyclic":
            return list(range(self.order))
        if self.rank == 0:
            return [()]
        raise SchemaError("infinite group has no element listing")

    # boxes ----------------------------------------------------------------

    def box(self, halfwidth: int) -> tuple:
        """The sorted window box [-w..w]^rank of shifts; every element of a
        finite group."""
        if self.is_finite:
            return tuple(self.all_elements())
        return tuple(itertools.product(*[range(-halfwidth, halfwidth + 1)] * self.rank))
