"""Benchmark dataset ingestion: discrete .data triples and mixed CSV files.

Discrete benchmarks use the de-facto plain-text format of the twenty
density-estimation datasets: comma-separated nonnegative integers, one row
per line, no header, split across ``<name>.train.data``,
``<name>.valid.data``, ``<name>.test.data``.  A manifest of the expected
(vars, train, valid, test) statistics ships with the package and can be
checked against loaded data.  Each split is parsed in one ``np.loadtxt``
pass; a file that pass rejects is read again line by line, which decides
what loads or which ``DataError`` names the bad line.

Mixed datasets are a CSV with a header plus a sidecar schema file, since
the CSV alone cannot distinguish integer-coded categoricals from counts.
Sidecar format: one ``<column> cat`` or ``<column> cont`` entry per line;
``#`` starts a comment.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .estimators import continuous_values
from .schema import Schema, Variable

SPLIT_FRACTIONS = (0.7, 0.1, 0.2)  # train/valid/test shares of a mixed CSV's rows
# Most levels a column of a discrete file may have: each leaf stores one
# probability per level, so a stray huge level would make every leaf of
# its variable that large (level 99999999 took seconds per learn).
MAX_ARITY = 1024


class DataError(ValueError):
    """Raised for malformed or missing dataset inputs."""


def read_text(path, newline=None) -> str:
    """The text of the file at ``path``, decoded as UTF-8 whatever the
    locale, without a leading byte-order mark, and read as ``open`` reads it
    with ``newline``.  A file that does not decode is a ``DataError`` naming
    it; one that cannot be opened raises the ``OSError``, which names it
    too."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode: {exc}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to the file at ``path`` as UTF-8 whatever the locale,
    replacing the file whole: the text goes to a new file in the same
    directory, which then takes the name (``os.replace``), so a write that
    fails leaves the old file as it was.  Through a symbolic link, the
    file it names is the one replaced, and the link stays.  A file that
    existed keeps its permission bits; a new one gets 0o666 less the
    umask.  A surrogate-escaped character (a byte that the locale could
    not decode, as in a command-line argument under an ASCII locale) is
    written as the byte it stands for.  An ``OSError`` names ``path``."""
    path = Path(path)
    target = Path(os.path.realpath(path))
    tmp = target.parent / f".{target.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(text)
        if target.exists():
            os.chmod(tmp, target.stat().st_mode & 0o7777)
        os.replace(tmp, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)  # gone already, unless the write failed


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
    """One split as a float array, parsed in one ``np.loadtxt`` pass.  A file
    that pass rejects, warns about or reads with a level outside
    ``[0, MAX_ARITY)`` goes to ``_read_discrete_lines``, which alone decides
    the result or the ``DataError``."""
    if not path.exists():
        raise DataError(f"missing dataset file: {path}")
    try:
        with warnings.catch_warnings():
            # an empty file only warns, and numpy 1.24 reads ``1.0`` as 1 with a warning
            warnings.simplefilter("error")
            codes = np.loadtxt(path, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError, Warning):  # the loop reads the file or names the line
        codes = None
    if codes is not None and codes.size and codes.min() >= 0 and codes.max() < MAX_ARITY:
        return codes.astype(float)
    return _read_discrete_lines(path)


def _read_discrete_lines(path: Path):
    """Read a ``.data`` file line by line; the reference for
    ``_read_discrete_file``, and the path that names a bad file's line."""
    rows = []
    width = None
    # universal newlines leave only "\n" to split on, as iterating the file would
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
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
    """Parse a sidecar schema file into ``{column_name: 'cat' | 'cont'}``;
    a column declared twice is a ``DataError``."""
    spec, declared = {}, {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("cat", "cont"):
            raise DataError(f"{path}:{lineno}: expected '<column> cat|cont'")
        if parts[0] in declared:
            raise DataError(f"{path}:{lineno}: column {parts[0]!r} already declared "
                            f"on line {declared[parts[0]]}")
        spec[parts[0]] = parts[1]
        declared[parts[0]] = lineno
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

    ``schema_spec`` is the path of the CSV's sidecar schema file, read by
    ``read_schema_spec``; a sidecar that does not exist is a ``DataError``,
    named for the dataset ``name`` (the CSV's stem by default).  Rows are
    shuffled with a seeded RNG and split by ``SPLIT_FRACTIONS``
    (train/valid/test); a split left empty, as with fewer than 6 rows, a
    column name that appears twice in the header, a line that ``csv``
    rejects (a field longer than ``csv.field_size_limit()``, say) and a
    continuous column that fails ``estimators.continuous_values`` (a value
    that is not finite or exceeds ``CONT_MAX_ABS`` in magnitude) are
    ``DataError``s.  Categorical levels are
    dictionary-encoded in first-appearance order over the training split;
    a level appearing only in valid/test (the first such in file order is
    named), or a column with more than ``MAX_ARITY`` training levels, is a
    ``DataError``.
    """
    csv_path = Path(csv_path)
    name = name or csv_path.stem
    if not Path(schema_spec).exists():
        raise DataError(f"mixed dataset {name!r} needs a sidecar schema file {schema_spec}")
    schema_spec = read_schema_spec(schema_spec)

    if not csv_path.exists():
        raise DataError(f"missing dataset file: {csv_path}")
    reader = csv.reader(io.StringIO(read_text(csv_path, newline=""), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{csv_path}: empty file")
        raw_rows = []
        for row in reader:
            if len(row) not in (0, len(header)):
                raise DataError(f"{csv_path}:{reader.line_num}: ragged row "
                                f"(got {len(row)} fields, expected {len(header)})")
            if row:
                raw_rows.append(row)
    except csv.Error as exc:  # a field past csv.field_size_limit(), say
        raise DataError(f"{csv_path}:{reader.line_num}: {exc}") from None
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
                values = [float(v) for v in raw]
            except ValueError as exc:
                raise DataError(f"{csv_path}: column {colname!r}: non-numeric value") from exc
            try:
                encoded[:, j] = continuous_values(values, f"column {colname!r}: values")
            except ValueError as exc:
                raise DataError(f"{csv_path}: {exc}") from None
            variables.append(Variable("cont", name=colname))
        else:
            levels = {}
            for i in idx_train:  # first-appearance order over the training split
                levels.setdefault(raw[i], len(levels))
            if len(levels) > MAX_ARITY:
                raise DataError(f"{csv_path}: column {colname!r}: {len(levels)} levels in the "
                                f"training split, more than the {MAX_ARITY} allowed")
            codes = [levels.get(v) for v in raw]
            if None in codes:  # the first unseen level in file order
                raise DataError(f"{csv_path}: column {colname!r}: level "
                                f"{raw[codes.index(None)]!r} absent from the training split")
            variables.append(Variable("cat", max(len(levels), 2), name=colname))
            encoded[:, j] = codes

    schema = Schema(variables)
    return DatasetBundle(
        name,
        schema,
        encoded[idx_train],
        encoded[idx_valid],
        encoded[idx_test],
    )

