"""Seeded input generators for the benchmark workloads.

Mixture parameters come from a fixed population stream, so every seed
draws rows from the same distribution and the workloads keep the same
difficulty from seed to seed; ``--seed`` draws the rows, the queries and
the sampling streams.  Each consumer gets its own stream, keyed by a
tag, so changing how much one consumer draws does not shift the others.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

POPULATION_SEED = 20240321

N_BINARY_VARS = 16
N_BINARY_COMPONENTS = 4
N_CONT = 8
N_CAT = 8
N_MIXED_COMPONENTS = 6

_TAGS = {
    "binary-params": 1,
    "mixed-params": 2,
    "soft-binary": 11,
    "grid-mixed": 12,
    "infer-a": 13,
    "infer-b": 14,
    "queries": 21,
    "sample": 22,
    "checks": 23,
}


def stream(tag: str, seed: int | None = None) -> np.random.Generator:
    """Independent generator for one consumer; ``seed=None`` is the population."""
    key = [POPULATION_SEED, _TAGS[tag], 0] if seed is None else [int(seed), _TAGS[tag]]
    return np.random.default_rng(key)


def binary_params():
    """Per-component Bernoulli parameters, Beta(0.5, 0.5) clipped to [0.02, 0.98]."""
    rng = stream("binary-params")
    return np.clip(rng.beta(0.5, 0.5, size=(N_BINARY_COMPONENTS, N_BINARY_VARS)), 0.02, 0.98)


def binary_rows(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` rows of 16 binary variables from a uniform 4-component mixture."""
    probs = binary_params()
    z = rng.integers(0, N_BINARY_COMPONENTS, size=n)
    return (rng.random((n, N_BINARY_VARS)) < probs[z]).astype(float)


def mixed_params():
    """Means N(0, 1.5^2), sigmas U(0.5, 1.5) and categorical probabilities.

    Categorical probabilities are Dirichlet(0.5) mixed with 10% uniform
    mass, so every level is common enough to appear in the training split
    of the CSV loader and no load fails on an unseen level.
    """
    rng = stream("mixed-params")
    k = N_MIXED_COMPONENTS
    means = rng.normal(0.0, 1.5, size=(k, N_CONT))
    sigmas = rng.uniform(0.5, 1.5, size=(k, N_CONT))
    arities = rng.integers(2, 6, size=N_CAT)
    cat_probs = []
    for arity in arities:
        p = rng.dirichlet(np.full(arity, 0.5), size=k)
        cat_probs.append(0.9 * p + 0.1 / arity)
    return means, sigmas, arities, cat_probs


def mixed_rows(n: int, rng: np.random.Generator):
    """``n`` rows of 8 continuous then 8 categorical columns from a
    uniform 6-component mixture; returns ``(matrix, arities)``."""
    means, sigmas, arities, cat_probs = mixed_params()
    z = rng.integers(0, N_MIXED_COMPONENTS, size=n)
    cont = means[z] + sigmas[z] * rng.standard_normal((n, N_CONT))
    cats = np.empty((n, N_CAT))
    for j, probs in enumerate(cat_probs):
        cum = np.cumsum(probs[z], axis=1)
        u = rng.random((n, 1))
        cats[:, j] = np.minimum((u > cum).sum(axis=1), len(probs) - 1)
    return np.hstack([cont, cats]), arities


def mixed_schema(arities):
    from softpc.schema import Schema, Variable

    return Schema(
        [Variable("cont") for _ in range(N_CONT)]
        + [Variable("cat", int(a)) for a in arities]
    )


def split(matrix: np.ndarray, sizes):
    """Consecutive row blocks of the given sizes."""
    bounds = np.cumsum((0,) + tuple(sizes))
    return [matrix[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def write_discrete_triple(name: str, directory: Path, train, valid, test) -> None:
    """Write ``<name>.{train,valid,test}.data`` as comma-separated integers."""
    for part, rows in (("train", train), ("valid", valid), ("test", test)):
        lines = [",".join(map(str, r)) for r in rows.astype(np.int64).tolist()]
        (directory / f"{name}.{part}.data").write_text("\n".join(lines) + "\n")


def write_mixed_csv(name: str, directory: Path, matrix: np.ndarray) -> None:
    """Write ``<name>.csv`` (categorical levels as strings) and its sidecar schema."""
    cont_names = [f"x{j}" for j in range(N_CONT)]
    cat_names = [f"c{j}" for j in range(N_CAT)]
    with open(directory / f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cont_names + cat_names)
        for row in matrix.tolist():
            writer.writerow(
                [repr(v) for v in row[:N_CONT]]
                + ["L" + str(int(v)) for v in row[N_CONT:]]
            )
    spec = [f"{c} cont" for c in cont_names] + [f"{c} cat" for c in cat_names]
    (directory / f"{name}.schema").write_text("\n".join(spec) + "\n")
