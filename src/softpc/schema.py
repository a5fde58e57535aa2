"""Column schemas: per-variable kind (categorical with arity, or continuous)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Variable:
    kind: str  # "cat" | "cont"
    arity: int | None = None
    name: str | None = None

    def __post_init__(self):
        if self.kind not in ("cat", "cont"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "cat" and (self.arity is None or self.arity < 2):
            raise ValueError("categorical variables need arity >= 2")
        if self.kind == "cont" and self.arity is not None:
            raise ValueError("continuous variables have no arity")

    def to_dict(self):
        d = {"kind": self.kind}
        if self.kind == "cat":
            d["arity"] = self.arity
        if self.name is not None:
            d["name"] = self.name
        return d

    @classmethod
    def from_dict(cls, d):
        """Read the ``to_dict`` form; a mistyped arity or name is a TypeError."""
        arity = d["arity"] if d["kind"] == "cat" else None
        if arity is not None and type(arity) is not int:
            raise TypeError(f"arity must be an integer, got {arity!r}")
        name = d.get("name")
        if name is not None and not isinstance(name, str):
            raise TypeError(f"variable name must be a string, got {name!r}")
        return cls(d["kind"], arity, name)


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
        return cls(Variable("cat", int(k)) for k in arities)

    @classmethod
    def continuous(cls, n_vars: int) -> "Schema":
        return cls(Variable("cont") for _ in range(n_vars))
