import numpy as np
import pytest

from softpc.datasets import (
    CONT_MAX_ABS,
    DataError,
    DISCRETE_MANIFEST,
    MAX_ARITY,
    check_manifest,
    load_discrete,
    load_mixed_csv,
    read_schema_spec,
)


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
            load_mixed_csv(csv, {"a": "cont"})

    def test_header_only_rejected(self, tmp_path):
        csv = tmp_path / "h.csv"
        csv.write_text("a\n")
        with pytest.raises(DataError, match="no data rows"):
            load_mixed_csv(csv, {"a": "cont"})

    def test_unseen_level_errors_by_default(self, tmp_path):
        csv = tmp_path / "u.csv"
        # make the rare level land outside the training split for seed 0
        rows = ["c"] + ["a", "b"] * 10
        csv.write_text("col\n" + "\n".join(rows) + "\n")
        n_train = int(round(0.7 * len(rows)))
        seed = next(
            s
            for s in range(50)
            if int(np.where(np.random.default_rng(s).permutation(len(rows)) == 0)[0][0])
            >= n_train
        )
        with pytest.raises(DataError, match="absent from the training split"):
            load_mixed_csv(csv, {"col": "cat"}, seed=seed)

    def test_schema_spec_parsing(self, tmp_path):
        spec = tmp_path / "s.schema"
        spec.write_text("# comment\nage cont\nsex cat  # trailing\n")
        assert read_schema_spec(spec) == {"age": "cont", "sex": "cat"}
        bad = tmp_path / "b.schema"
        bad.write_text("age numeric\n")
        with pytest.raises(DataError):
            read_schema_spec(bad)

    @pytest.mark.parametrize("row, got", [("red", 1), ("red,1.5,extra", 3)])
    def test_ragged_row_rejected(self, tmp_path, row, got):
        csv, sidecar = self.write_csv(tmp_path)
        with open(csv, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(DataError, match=rf"mix\.csv:42: ragged row \(got {got} fields, expected 2\)"):
            load_mixed_csv(csv, sidecar)

    def test_duplicate_header_column_rejected(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,a\n" + "1,2,3\n" * 20)
        with pytest.raises(DataError, match="column 'a' appears twice in the header"):
            load_mixed_csv(csv, {"a": "cont", "b": "cont"})

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

    def test_missing_spec_column_rejected(self, tmp_path):
        csv, _ = self.write_csv(tmp_path)
        with pytest.raises(DataError, match="missing columns"):
            load_mixed_csv(csv, {"color": "cat"})

