"""Column schemas: per-variable kind (categorical with arity, or continuous)."""

from __future__ import annotations

import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class Variable:
    """One schema variable; ``ValueError`` unless ``kind`` is "cat" with an
    integer ``arity`` of at least 2 (a numpy integer is stored as an
    ``int``, a bool is refused) or "cont" without one, and ``name`` is a
    string or None.  The one rule of a variable, built or loaded."""

    kind: str  # "cat" | "cont"
    arity: int | None = None
    name: str | None = None

    def __post_init__(self):
        if self.kind not in ("cat", "cont"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "cat":
            arity = self.arity
            if not isinstance(arity, numbers.Integral) or isinstance(arity, bool) or arity < 2:
                raise ValueError(f"categorical variables need an integer arity >= 2, got {arity!r}")
            object.__setattr__(self, "arity", int(arity))
        elif self.arity is not None:
            raise ValueError("continuous variables have no arity")
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError(f"variable name must be a string, got {self.name!r}")

    def to_dict(self):
        d = {"kind": self.kind}
        if self.kind == "cat":
            d["arity"] = self.arity
        if self.name is not None:
            d["name"] = self.name
        return d

    @classmethod
    def from_dict(cls, d):
        """Read the ``to_dict`` form; the constructor checks it."""
        return cls(d["kind"], d["arity"] if d["kind"] == "cat" else None, d.get("name"))


class Schema(tuple):
    """An ordered collection of Variables, indexable by variable index."""

    def __new__(cls, variables):
        return super().__new__(cls, tuple(variables))

    def is_cat(self, v: int) -> bool:
        return self[v].kind == "cat"

    @classmethod
    def binary(cls, n_vars: int) -> "Schema":
        return cls(Variable("cat", 2) for _ in range(n_vars))

    @classmethod
    def categorical(cls, arities) -> "Schema":
        return cls(Variable("cat", k) for k in arities)

    @classmethod
    def continuous(cls, n_vars: int) -> "Schema":
        return cls(Variable("cont") for _ in range(n_vars))
