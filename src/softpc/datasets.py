"""Benchmark dataset ingestion: discrete .data triples and mixed CSV files.

Discrete benchmarks use the de-facto plain-text format of the twenty
density-estimation datasets: comma-separated nonnegative integers, one row
per line, no header, split across ``<name>.train.data``,
``<name>.valid.data``, ``<name>.test.data``.  A manifest of the expected
(vars, train, valid, test) statistics ships with the package and can be
checked against loaded data.

Mixed datasets are a CSV with a header plus a sidecar schema file, since
the CSV alone cannot distinguish integer-coded categoricals from counts.
Sidecar format: one ``<column> cat`` or ``<column> cont`` entry per line;
``#`` starts a comment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .schema import Schema, Variable

SPLIT_FRACTIONS = (0.7, 0.1, 0.2)  # train/valid/test shares of a mixed CSV's rows
# Most levels a column of a discrete file may have: each leaf stores one
# probability per level, so a stray huge level would make every leaf of
# its variable that large (level 99999999 took seconds per learn).
MAX_ARITY = 1024
# Largest magnitude of a continuous CSV value.  Learning sums weighted
# squares of differences of values, and a Gaussian leaf divides them by
# its sigma, which may be as small as estimators.SIGMA_FLOOR; within this
# bound both stay finite for any row count.  Beyond about 1e154 a column's
# variance overflows and learned likelihoods come out -inf, or nan near
# 1e308.
CONT_MAX_ABS = 1e100


class DataError(ValueError):
    """Raised for malformed or missing dataset inputs."""


@dataclass
class DatasetBundle:
    name: str
    schema: Schema
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray


def load_manifest() -> dict:
    """Read the Table-of-expected-statistics manifest bundled with the
    package.  Returns ``{name: (vars, train, valid, test)}``."""
    text = resources.files("softpc").joinpath("table6_manifest.tsv").read_text()
    out = {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for ln in lines[1:]:
        name, nv, ntr, nva, nte = ln.split("\t")
        out[name] = (int(nv), int(ntr), int(nva), int(nte))
    return out


DISCRETE_MANIFEST = load_manifest()


def _read_discrete_file(path: Path):
    if not path.exists():
        raise DataError(f"missing dataset file: {path}")
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [int(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer token") from exc
            if min(row) < 0:
                raise DataError(f"{path}:{lineno}: negative value")
            if max(row) >= MAX_ARITY:
                j = next(j for j, v in enumerate(row) if v >= MAX_ARITY)
                raise DataError(f"{path}:{lineno}: column {j} (from 0): level {row[j]} "
                                f"beyond the largest allowed level {MAX_ARITY - 1}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataError(
                    f"{path}:{lineno}: ragged row (got {len(row)} values, expected {width})"
                )
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: empty file")
    return np.asarray(rows, dtype=float)


def load_discrete(name: str, data_dir) -> DatasetBundle:
    """Load ``<dir>/<name>.{train,valid,test}.data`` as a categorical bundle.

    Per-column arity is 1 + the maximum value across all three splits
    (at least 2, at most ``MAX_ARITY``); a larger level is a ``DataError``
    naming the file, line and column.
    """
    data_dir = Path(data_dir)
    splits = {
        part: _read_discrete_file(data_dir / f"{name}.{part}.data")
        for part in ("train", "valid", "test")
    }
    widths = {m.shape[1] for m in splits.values()}
    if len(widths) != 1:
        raise DataError(f"{name}: splits disagree on variable count: {sorted(widths)}")
    maxes = np.max([m.max(axis=0) for m in splits.values()], axis=0)
    arities = np.maximum(maxes.astype(int) + 1, 2)
    schema = Schema.categorical(arities)
    return DatasetBundle(name, schema, splits["train"], splits["valid"], splits["test"])


def check_manifest(bundle: DatasetBundle):
    """Compare a loaded bundle against the expected Table statistics in
    ``DISCRETE_MANIFEST``.

    Returns a list of mismatch messages (empty when everything matches or
    the dataset is not listed).
    """
    expected = DISCRETE_MANIFEST.get(bundle.name)
    if expected is None:
        return []
    actual = (
        len(bundle.schema),
        bundle.train.shape[0],
        bundle.valid.shape[0],
        bundle.test.shape[0],
    )
    if actual != expected:
        return [f"{bundle.name}: expected (vars, train, valid, test)={expected}, got {actual}"]
    return []


def read_schema_spec(path) -> dict:
    """Parse a sidecar schema file into ``{column_name: 'cat' | 'cont'}``."""
    spec = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("cat", "cont"):
            raise DataError(f"{path}:{lineno}: expected '<column> cat|cont'")
        spec[parts[0]] = parts[1]
    if not spec:
        raise DataError(f"{path}: empty schema spec")
    return spec


def load_mixed_csv(
    csv_path,
    schema_spec,
    seed: int = 0,
    name: str = None,
) -> DatasetBundle:
    """Load a mixed categorical/continuous CSV with a header row.

    ``schema_spec`` maps column names to ``"cat"``/``"cont"`` (a path to a
    sidecar file is also accepted).  Rows are shuffled with a seeded RNG
    and split by ``SPLIT_FRACTIONS`` (train/valid/test); a split left empty,
    as with fewer than 6 rows, a column name that appears twice in the
    header, and a continuous value that is not finite or exceeds
    ``CONT_MAX_ABS`` in magnitude are ``DataError``s.  Categorical levels are
    dictionary-encoded in first-appearance order over the training split,
    and a level appearing only in valid/test is a ``DataError``.
    """
    csv_path = Path(csv_path)
    if isinstance(schema_spec, (str, Path)):
        schema_spec = read_schema_spec(schema_spec)

    if not csv_path.exists():
        raise DataError(f"missing dataset file: {csv_path}")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{csv_path}: empty file") from None
        raw_rows = []
        for row in reader:
            if len(row) not in (0, len(header)):
                raise DataError(f"{csv_path}:{reader.line_num}: ragged row "
                                f"(got {len(row)} fields, expected {len(header)})")
            if row:
                raw_rows.append(row)
    if not raw_rows:
        raise DataError(f"{csv_path}: no data rows")

    repeated = next((c for i, c in enumerate(header) if c in header[:i]), None)
    if repeated is not None:
        raise DataError(f"{csv_path}: column {repeated!r} appears twice in the header")
    missing = [c for c in header if c not in schema_spec]
    if missing:
        raise DataError(f"schema spec missing columns: {missing}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(raw_rows))
    n = len(raw_rows)
    n_train = int(round(SPLIT_FRACTIONS[0] * n))
    n_valid = int(round(SPLIT_FRACTIONS[1] * n))
    if min(n_train, n_valid, n - n_train - n_valid) == 0:
        raise DataError(f"{csv_path}: {n} data rows split {n_train}/{n_valid}/"
                        f"{n - n_train - n_valid} (train/valid/test); every split needs a row")
    idx_train = order[:n_train]
    idx_valid = order[n_train : n_train + n_valid]
    idx_test = order[n_train + n_valid :]

    cols = list(zip(*raw_rows))
    encoded = np.empty((n, len(header)))
    variables = []
    for j, colname in enumerate(header):
        kind = schema_spec[colname]
        raw = cols[j]
        if kind == "cont":
            try:
                encoded[:, j] = [float(v) for v in raw]
            except ValueError as exc:
                raise DataError(f"{csv_path}: column {colname!r}: non-numeric value") from exc
            if not np.isfinite(encoded[:, j]).all():
                raise DataError(f"{csv_path}: column {colname!r}: non-finite value")
            huge = np.abs(encoded[:, j]) > CONT_MAX_ABS
            if huge.any():
                raise DataError(f"{csv_path}: column {colname!r}: value "
                                f"{raw[int(huge.argmax())]!r} beyond +-{CONT_MAX_ABS:g}")
            variables.append(Variable("cont", name=colname))
        else:
            levels = {}
            for i in idx_train:  # first-appearance order over the training split
                levels.setdefault(raw[i], len(levels))
            codes = np.empty(n)
            for i in range(n):
                code = levels.get(raw[i])
                if code is None:
                    raise DataError(
                        f"{csv_path}: column {colname!r}: level {raw[i]!r} "
                        "absent from the training split"
                    )
                codes[i] = code
            variables.append(Variable("cat", max(len(levels), 2), name=colname))
            encoded[:, j] = codes

    schema = Schema(variables)
    return DatasetBundle(
        name or csv_path.stem,
        schema,
        encoded[idx_train],
        encoded[idx_valid],
        encoded[idx_test],
    )

