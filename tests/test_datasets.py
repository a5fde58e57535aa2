import csv
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from softpc.datasets import (
    CONT_MAX_ABS,
    DataError,
    DatasetBundle,
    DISCRETE_MANIFEST,
    MAX_ARITY,
    check_manifest,
    load_discrete,
    load_mixed_csv,
    _read_discrete_file,
    _read_discrete_lines,
    read_schema_spec,
)
from softpc.schema import Schema, Variable


def write_sidecar(tmp_path, *lines):
    """A sidecar schema file ``spec.schema`` holding ``lines``; its path."""
    path = tmp_path / "spec.schema"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def reference_mixed_load(path, spec, seed):
    """A mixed CSV loaded cell by cell: rows shuffled by ``seed`` and split
    70/10/20, continuous cells parsed one at a time, categorical levels
    coded in first-appearance order over the training rows."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    n = len(rows)
    order = np.random.default_rng(seed).permutation(n)
    n_train, n_valid = int(round(0.7 * n)), int(round(0.1 * n))
    encoded = np.empty((n, len(header)))
    variables = []
    for j, column in enumerate(header):
        if spec[column] == "cont":
            for i in range(n):
                encoded[i, j] = float(rows[i][j])
            variables.append(Variable("cont", name=column))
            continue
        levels = {}
        for i in order[:n_train]:
            levels.setdefault(rows[i][j], len(levels))
        for i in range(n):
            encoded[i, j] = levels[rows[i][j]]
        variables.append(Variable("cat", max(len(levels), 2), name=column))
    parts = np.split(order, [n_train, n_train + n_valid])
    return DatasetBundle(path.stem, Schema(variables), *(encoded[part] for part in parts))


def write_discrete(tmp_path, name, train, valid=None, test=None):
    for part, rows in (("train", train), ("valid", valid or train), ("test", test or train)):
        path = tmp_path / f"{name}.{part}.data"
        path.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
    return tmp_path


class TestLoadDiscrete:
    def test_basic_bundle(self, tmp_path):
        write_discrete(tmp_path, "tiny", [[0, 1, 2], [1, 0, 0]])
        bundle = load_discrete("tiny", tmp_path)
        assert bundle.name == "tiny"
        assert [v.arity for v in bundle.schema] == [2, 2, 3]
        assert bundle.train.shape == (2, 3)
        assert bundle.train.tolist() == [[0, 1, 2], [1, 0, 0]]

    def test_single_row_file(self, tmp_path):
        write_discrete(tmp_path, "one", [[0, 1, 0]])
        bundle = load_discrete("one", tmp_path)
        assert len(bundle.schema) == 3
        assert all(v.arity >= 2 for v in bundle.schema)
        assert bundle.train.shape == (1, 3)

    def test_arity_spans_all_splits(self, tmp_path):
        write_discrete(tmp_path, "span", [[0, 0]], valid=[[0, 3]], test=[[1, 0]])
        bundle = load_discrete("span", tmp_path)
        assert [v.arity for v in bundle.schema] == [2, 4]

    def test_ragged_row_names_line(self, tmp_path):
        (tmp_path / "bad.train.data").write_text("0,1\n0,1,0\n")
        (tmp_path / "bad.valid.data").write_text("0,1\n")
        (tmp_path / "bad.test.data").write_text("0,1\n")
        with pytest.raises(DataError, match=r"bad\.train\.data:2.*ragged"):
            load_discrete("bad", tmp_path)

    def test_non_integer_token(self, tmp_path):
        (tmp_path / "bad.train.data").write_text("0,x\n")
        (tmp_path / "bad.valid.data").write_text("0,1\n")
        (tmp_path / "bad.test.data").write_text("0,1\n")
        with pytest.raises(DataError, match="non-integer"):
            load_discrete("bad", tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            load_discrete("ghost", tmp_path)

    def test_negative_value_rejected(self, tmp_path):
        (tmp_path / "bad.train.data").write_text("0,-1\n")
        (tmp_path / "bad.valid.data").write_text("0,1\n")
        (tmp_path / "bad.test.data").write_text("0,1\n")
        with pytest.raises(DataError, match="negative"):
            load_discrete("bad", tmp_path)

    def test_largest_allowed_level_loads(self, tmp_path):
        write_discrete(tmp_path, "wide", [[0, MAX_ARITY - 1]])
        assert [v.arity for v in load_discrete("wide", tmp_path).schema] == [2, MAX_ARITY]

    @pytest.mark.parametrize("level", [MAX_ARITY, 99999999, 10**400],
                             ids=["max-arity", "99999999", "10**400"])
    def test_level_beyond_the_arity_bound_names_file_and_column(self, tmp_path, level):
        write_discrete(tmp_path, "wide", [[0, 1, 0]], test=[[0, 1, 1], [1, 0, level]])
        with pytest.raises(DataError, match=rf"wide\.test\.data:2: column 2 \(from 0\): "
                                            rf"level {level} beyond .* {MAX_ARITY - 1}"):
            load_discrete("wide", tmp_path)

    def test_loading_is_deterministic(self, tmp_path):
        write_discrete(tmp_path, "det", [[0, 1], [1, 0], [1, 1]])
        a = load_discrete("det", tmp_path)
        b = load_discrete("det", tmp_path)
        assert np.array_equal(a.train, b.train)
        assert a.schema == b.schema


# Tokens that int() and np.loadtxt read differently, or that one of them rejects.
TOKEN_MUTATIONS = ["1_0", "\u0663", "+1", " 1", "1.0", "1e0", "12345678901234567890", "-1",
                   str(MAX_ARITY - 1), str(MAX_ARITY)]
LINE_MUTATIONS = ["trailing comma", "ragged row", "blank line", "whitespace-only line", "crlf",
                  "empty file"]


@st.composite
def data_files(draw, mutation):
    """The text of a valid ``.data`` file with ``mutation`` applied at a drawn place."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[str(draw(st.integers(0, 3))) for _ in range(n_cols)] for _ in range(n_rows)]
    i = draw(st.integers(0, n_rows - 1))
    newline = "\n"
    if mutation in TOKEN_MUTATIONS:
        rows[i][draw(st.integers(0, n_cols - 1))] = mutation
    elif mutation == "trailing comma":
        rows[i].append("")
    elif mutation == "ragged row":
        rows.insert(i, rows[i][:-1] if n_cols > 1 else rows[i] * 2)
    elif mutation in ("blank line", "whitespace-only line"):
        rows.insert(i, [""] if mutation == "blank line" else [" \t"])
    elif mutation == "crlf":
        newline = "\r\n"
    elif mutation == "empty file":
        return ""
    return newline.join(",".join(r) for r in rows) + newline


def read_outcome(read, path):
    """``(array, None)`` or ``(None, DataError message)``; any warning fails."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return read(path), None
    except DataError as exc:
        return None, str(exc)


class TestOneParseLoader:
    """``_read_discrete_file`` parses with ``np.loadtxt`` and falls back to the
    line loop; both must give the same array or the same ``DataError``."""

    @pytest.mark.parametrize("mutation", [None] + TOKEN_MUTATIONS + LINE_MUTATIONS)
    @settings(derandomize=True, deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_the_line_loop(self, tmp_path, mutation, data):
        text = data.draw(data_files(mutation))
        path = tmp_path / "split.data"
        path.write_bytes(text.encode())
        fast, fast_error = read_outcome(_read_discrete_file, path)
        ref, ref_error = read_outcome(_read_discrete_lines, path)
        assert fast_error == ref_error
        if ref is not None:
            assert fast.dtype == ref.dtype == np.float64
            assert fast.shape == ref.shape
            assert np.array_equal(fast, ref)

    def test_infer_shaped_triple_loads_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        parts = {"train": 16181, "valid": 2157, "test": 3236}
        write_discrete(tmp_path, "infer", *(rng.integers(0, 2, (n, 16)).tolist()
                                            for n in parts.values()))
        bundle = load_discrete("infer", tmp_path)
        for part in parts:
            ref = _read_discrete_lines(tmp_path / f"infer.{part}.data")
            got = getattr(bundle, part)
            assert got.dtype == ref.dtype == np.float64 and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


class TestManifest:
    def test_bundled_manifest_has_twenty_datasets(self):
        assert len(DISCRETE_MANIFEST) == 20
        assert DISCRETE_MANIFEST["nltcs"] == (16, 16181, 2157, 3236)
        assert DISCRETE_MANIFEST["plants"] == (69, 17412, 2321, 3482)
        assert DISCRETE_MANIFEST["ad"] == (1556, 2461, 327, 491)

    def test_check_manifest_flags_mismatch(self, tmp_path):
        write_discrete(tmp_path, "nltcs", [[0] * 16, [1] * 16])
        bundle = load_discrete("nltcs", tmp_path)
        problems = check_manifest(bundle)
        assert len(problems) == 1
        assert "expected" in problems[0]

    def test_check_manifest_passes_a_listed_match(self):
        n_vars, *sizes = DISCRETE_MANIFEST["nltcs"]
        splits = (np.zeros((n, n_vars)) for n in sizes)
        assert check_manifest(DatasetBundle("nltcs", Schema.binary(n_vars), *splits)) == []

    def test_check_manifest_passes_unlisted(self, tmp_path):
        write_discrete(tmp_path, "custom", [[0, 1]])
        assert check_manifest(load_discrete("custom", tmp_path)) == []


class TestMixedCsv:
    def write_csv(self, tmp_path, rows=40):
        csv = tmp_path / "mix.csv"
        lines = ["color,size"]
        colors = ["red", "green", "blue"]
        for i in range(rows):
            lines.append(f"{colors[i % 3]},{i / 10}")
        csv.write_text("\n".join(lines) + "\n")
        sidecar = tmp_path / "mix.schema"
        sidecar.write_text("color cat\nsize cont\n")
        return csv, sidecar

    def test_kinds_and_split_sizes(self, tmp_path):
        csv, sidecar = self.write_csv(tmp_path)
        bundle = load_mixed_csv(csv, sidecar, seed=1)
        assert bundle.schema[0].kind == "cat"
        assert bundle.schema[1].kind == "cont"
        assert bundle.train.shape[0] == 28
        assert bundle.valid.shape[0] == 4
        assert bundle.test.shape[0] == 8
        assert bundle.train[:, 0].max() < bundle.schema[0].arity

    def test_same_seed_same_split(self, tmp_path):
        csv, sidecar = self.write_csv(tmp_path)
        a = load_mixed_csv(csv, sidecar, seed=7)
        b = load_mixed_csv(csv, sidecar, seed=7)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)

    def test_different_seed_different_split(self, tmp_path):
        csv, sidecar = self.write_csv(tmp_path)
        a = load_mixed_csv(csv, sidecar, seed=1)
        b = load_mixed_csv(csv, sidecar, seed=2)
        assert not np.array_equal(a.train, b.train)

    def test_empty_file_rejected(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_mixed_csv(csv, write_sidecar(tmp_path, "a cont"))

    def test_header_only_rejected(self, tmp_path):
        csv = tmp_path / "h.csv"
        csv.write_text("a\n")
        with pytest.raises(DataError, match="no data rows"):
            load_mixed_csv(csv, write_sidecar(tmp_path, "a cont"))

    def test_unseen_level_errors_by_default(self, tmp_path):
        csv = tmp_path / "u.csv"
        rows = ["x", "y"] + ["a", "b"] * 10
        csv.write_text("col\n" + "\n".join(rows) + "\n")
        n_train = int(round(0.7 * len(rows)))

        def place(seed, i):  # row i's position in the shuffled order
            return int(np.where(np.random.default_rng(seed).permutation(len(rows)) == i)[0][0])

        # both rare levels land outside the training split, "y" ahead of "x"
        # in the shuffle; the error names the first in file order
        seed = next(s for s in range(200) if n_train <= place(s, 1) < place(s, 0))
        with pytest.raises(DataError, match="level 'x' absent from the training split"):
            load_mixed_csv(csv, write_sidecar(tmp_path, "col cat"), seed=seed)

    def test_schema_spec_parsing(self, tmp_path):
        spec = tmp_path / "s.schema"
        spec.write_text("# comment\nage cont\nsex cat  # trailing\n")
        assert read_schema_spec(spec) == {"age": "cont", "sex": "cat"}
        bad = tmp_path / "b.schema"
        bad.write_text("age numeric\n")
        with pytest.raises(DataError):
            read_schema_spec(bad)

    def test_schema_spec_column_declared_twice(self, tmp_path):
        spec = tmp_path / "s.schema"
        spec.write_text("a cat\nb cont\n\na cont\n")
        with pytest.raises(DataError, match=r"s\.schema:4: column 'a' already declared on line 1"):
            read_schema_spec(spec)

    @pytest.mark.parametrize("row, got", [("red", 1), ("red,1.5,extra", 3)])
    def test_ragged_row_rejected(self, tmp_path, row, got):
        csv, sidecar = self.write_csv(tmp_path)
        with open(csv, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(DataError, match=rf"mix\.csv:42: ragged row \(got {got} fields, expected 2\)"):
            load_mixed_csv(csv, sidecar)

    def test_field_past_the_csv_size_limit_names_the_line(self, tmp_path):
        # csv.reader raises csv.Error on a field longer than csv.field_size_limit()
        csv, sidecar = self.write_csv(tmp_path)
        with open(csv, "a") as fh:
            fh.write("red," + "1" * 200000 + "\n")
        with pytest.raises(DataError, match=r"mix\.csv:42: field larger than field limit"):
            load_mixed_csv(csv, sidecar)

    def test_duplicate_header_column_rejected(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,a\n" + "1,2,3\n" * 20)
        with pytest.raises(DataError, match="column 'a' appears twice in the header"):
            load_mixed_csv(csv, write_sidecar(tmp_path, "a cont", "b cont"))

    @pytest.mark.parametrize("rows, split", [(1, "1/0/0"), (4, "3/0/1"), (5, "4/0/1")])
    def test_empty_split_rejected(self, tmp_path, rows, split):
        csv, sidecar = self.write_csv(tmp_path, rows=rows)
        with pytest.raises(DataError, match=f"{rows} data rows split {split}"):
            load_mixed_csv(csv, sidecar)

    def test_six_rows_fill_every_split(self, tmp_path):
        csv, sidecar = self.write_csv(tmp_path, rows=6)
        bundle = load_mixed_csv(csv, sidecar)
        assert [len(m) for m in (bundle.train, bundle.valid, bundle.test)] == [4, 1, 1]

    @pytest.mark.parametrize("value", ["1e308", "-1e308", "1e200", "-1.0000001e100"])
    def test_continuous_value_beyond_the_bound_rejected(self, tmp_path, value):
        csv, sidecar = self.write_csv(tmp_path)
        with open(csv, "a") as fh:
            fh.write(f"red,{value}\n")
        with pytest.raises(DataError, match=f"column 'size': value '{value}' beyond"):
            load_mixed_csv(csv, sidecar)

    def test_continuous_value_at_the_bound_loads(self, tmp_path):
        csv, sidecar = self.write_csv(tmp_path)
        with open(csv, "a") as fh:
            fh.write(f"red,{CONT_MAX_ABS!r}\nblue,{-CONT_MAX_ABS!r}\n")
        bundle = load_mixed_csv(csv, sidecar)
        values = np.concatenate([bundle.train[:, 1], bundle.valid[:, 1], bundle.test[:, 1]])
        assert values.max() == CONT_MAX_ABS and values.min() == -CONT_MAX_ABS

    def test_missing_csv_rejected(self, tmp_path):
        _, sidecar = self.write_csv(tmp_path)
        with pytest.raises(DataError, match="missing dataset file: .*ghost.csv"):
            load_mixed_csv(tmp_path / "ghost.csv", sidecar)

    def test_missing_sidecar_rejected(self, tmp_path):
        csv, _ = self.write_csv(tmp_path)
        ghost = tmp_path / "ghost.schema"
        with pytest.raises(DataError, match="^mixed dataset 'mix' needs a sidecar schema file "
                                            ".*ghost\\.schema$"):
            load_mixed_csv(csv, ghost)
        with pytest.raises(DataError, match="^mixed dataset 'other' needs a sidecar"):
            load_mixed_csv(csv, ghost, name="other")

    @pytest.mark.parametrize("seed", range(4))
    def test_load_matches_a_cell_by_cell_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = 300
        cols = {"c0": rng.integers(0, 5, n).astype(str), "x0": rng.normal(0, 3, n).astype(str),
                "c1": np.array(["lo", "mid", "hi"])[rng.integers(0, 3, n)],
                "x1": rng.integers(-9, 9, n).astype(str), "c2": np.full(n, "only")}
        grid = tmp_path / "grid.csv"
        grid.write_text(",".join(cols) + "\n"
                        + "".join(",".join(row) + "\n" for row in zip(*cols.values())))
        sidecar = write_sidecar(tmp_path, *(f"{c} {'cat' if c[0] == 'c' else 'cont'}" for c in cols))
        small, small_sidecar = self.write_csv(tmp_path, rows=40)
        for path, spec in ((grid, sidecar), (small, small_sidecar)):
            bundle = load_mixed_csv(path, spec, seed=seed)
            expected = reference_mixed_load(path, read_schema_spec(spec), seed)
            assert bundle.schema == expected.schema
            for got, want in zip((bundle.train, bundle.valid, bundle.test),
                                 (expected.train, expected.valid, expected.test)):
                assert got.tobytes() == want.tobytes()

    def test_missing_spec_column_rejected(self, tmp_path):
        csv, _ = self.write_csv(tmp_path)
        with pytest.raises(DataError, match="missing columns"):
            load_mixed_csv(csv, write_sidecar(tmp_path, "color cat"))

