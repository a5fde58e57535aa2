import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softpc
from softpc.circuit import Circuit
from softpc import cli
from softpc.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, RESULT_COLUMNS, main
from softpc.learner import CLUSTERERS, Hyperparams

from conftest import small_mixed_circuit


def write_split(data_dir, name, train, valid, test):
    for part, rows in (("train", train), ("valid", valid), ("test", test)):
        path = data_dir / f"{name}.{part}.data"
        path.write_text(
            "\n".join(",".join(str(int(v)) for v in row) for row in rows) + "\n"
        )


def two_block_rows(rng, n):
    a = rng.integers(0, 2, size=n)
    b = rng.integers(0, 2, size=n)
    noise = lambda z: (z + (rng.random(n) < 0.08)) % 2  # noqa: E731
    return np.column_stack([a, noise(a), noise(a), b, noise(b), noise(b)])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    rng = np.random.default_rng(99)
    d = tmp_path_factory.mktemp("datasets")
    write_split(
        d, "twoblock",
        two_block_rows(rng, 1200), two_block_rows(rng, 200), two_block_rows(rng, 400),
    )
    coin = lambda n: (rng.random((n, 1)) < 0.3).astype(int)  # noqa: E731
    write_split(d, "coin", coin(2000), coin(300), coin(500))
    write_split(d, "onerow", [[0, 1]], [[1, 0]], [[0, 0]])
    return d


def run(args):
    return main([str(a) for a in args])


def parse_table(text):
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split("\t")
    return header, [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


def best_line(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.startswith("# best by validation LL")]
    assert len(lines) == 1
    return lines[0]


class TestLearn:
    def test_happy_path_writes_model_and_report(self, data_dir, tmp_path, capsys):
        model = tmp_path / "m.json"
        code = run(
            ["--data-dir", data_dir, "--seed", 1, "learn", "--data", "twoblock",
             "--method", "softlearn", "--out-model", model]
        )
        assert code == EXIT_OK
        header, rows = parse_table(capsys.readouterr().out)
        assert header == list(RESULT_COLUMNS)
        assert rows[0]["dataset"] == "twoblock"
        assert float(rows[0]["ll_test_mean"]) < 0
        assert model.exists()
        circuit = Circuit.from_json(model.read_text())
        assert circuit.validate() == []

    @pytest.mark.skipif(not hasattr(os, "symlink") or os.name == "nt",
                        reason="POSIX symbolic links and permission bits")
    def test_model_written_through_a_symlink_replaces_its_target(self, data_dir, tmp_path):
        """``--out-model`` naming a link to a 0600 file: the link stays a
        link, and the file it names takes the model and keeps mode 0600.
        A new file gets 0666 less the umask."""
        target, link = tmp_path / "private" / "model.json", tmp_path / "link.json"
        target.parent.mkdir()
        target.write_text("old")
        target.chmod(0o600)
        link.symlink_to(target)
        args = ["--data-dir", data_dir, "learn", "--data", "twoblock", "--method", "learnspn"]
        assert run(args + ["--out-model", link]) == EXIT_OK
        assert link.is_symlink() and link.resolve() == target
        assert Circuit.from_json(target.read_text()).validate() == []
        assert target.stat().st_mode & 0o7777 == 0o600
        assert sorted(p.name for p in target.parent.iterdir()) == ["model.json"]
        umask = os.umask(0o022)
        os.umask(umask)
        fresh = tmp_path / "fresh.json"
        assert run(args + ["--out-model", fresh]) == EXIT_OK
        assert fresh.stat().st_mode & 0o7777 == 0o666 & ~umask

    def test_reported_ll_is_mean_log_density(self, data_dir, tmp_path, capsys):
        from softpc.datasets import load_discrete

        model = tmp_path / "m.json"
        run(
            ["--data-dir", data_dir, "--seed", 4, "learn", "--data", "twoblock",
             "--method", "learnspn", "--out-model", model]
        )
        _, rows = parse_table(capsys.readouterr().out)
        reported = float(rows[0]["ll_test_mean"])
        circuit = Circuit.from_json(model.read_text())
        bundle = load_discrete("twoblock", data_dir)
        recomputed = float(np.mean(circuit.log_density(bundle.test)))
        # the report is rounded to 6 significant digits; recomputation from
        # the serialized model is exact, so compare at print precision
        assert reported == float(f"{recomputed:.6g}")

    def test_one_row_dataset_gives_finite_ll(self, data_dir, capsys):
        code = run(
            ["--data-dir", data_dir, "learn", "--data", "onerow",
             "--method", "softlearn"]
        )
        assert code == EXIT_OK
        _, rows = parse_table(capsys.readouterr().out)
        assert np.isfinite(float(rows[0]["ll_test_mean"]))

    def test_unknown_dataset_is_usage_error(self, data_dir):
        code = run(
            ["--data-dir", data_dir, "learn", "--data", "nope", "--method", "softlearn"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value",
        [("--p", 1.5), ("--clusters", 0), ("--clusters", -1), ("--max-cluster-iters", 0),
         ("--beta", -1.0), ("--beta", "nan"), ("--alpha", "inf"), ("--alpha", "1e308"),
         ("--min-instances", "nan")],
    )
    def test_bad_hyperparameter_is_usage_error(self, data_dir, capsys, flag, value):
        code = run(["--data-dir", data_dir, "learn", "--data", "twoblock",
                    "--method", "learnspn", flag, value])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--data-dir", data_dir, "--seed", -1, "learn", "--data", "twoblock",
                 "--method", "learnspn"])
        assert exc.value.code == EXIT_USAGE
        assert "count >= 0" in capsys.readouterr().err

    def test_corrupt_dataset_is_data_error(self, tmp_path):
        (tmp_path / "bad.train.data").write_text("0,zzz\n")
        (tmp_path / "bad.valid.data").write_text("0,1\n")
        (tmp_path / "bad.test.data").write_text("0,1\n")
        code = run(
            ["--data-dir", tmp_path, "learn", "--data", "bad", "--method", "learnspn"]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_cell_is_data_error(self, tmp_path, capsys, cell):
        rng = np.random.default_rng(3)
        lines = ["colour,size"] + [
            f"{('red', 'blue')[i % 2]},{rng.normal():.4f}" for i in range(200)
        ]
        lines[57] = f"red,{cell}"
        (tmp_path / "mix.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "mix.schema").write_text("colour cat\nsize cont\n")
        code = run(["--data-dir", tmp_path, "learn", "--data", "mix", "--method", "learnspn"])
        assert code == EXIT_DATA
        assert "'size'" in capsys.readouterr().err

    @pytest.mark.parametrize("clusterer", ["em", "kmeans"])
    def test_huge_continuous_values_are_data_error(self, tmp_path, capsys, clusterer):
        # at +-1e308 the weighted mean and variance overflow, and learning
        # used to exit 0 and print nan log-likelihoods
        lines = ["colour,size"] + [
            f"{('red', 'blue')[i % 2]},{(1e308, -1e308)[i % 3 == 0]!r}" for i in range(200)
        ]
        (tmp_path / "mix.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "mix.schema").write_text("colour cat\nsize cont\n")
        code = run(["--data-dir", tmp_path, "learn", "--data", "mix", "--method", "learnspn",
                    "--clusterer", clusterer])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{tmp_path / 'mix.csv'}: column 'size': values must be at most 1e+100 in magnitude" in err

    def test_level_beyond_the_arity_bound_is_data_error(self, data_dir, tmp_path, capsys):
        # such a level used to learn 1e8-level multinomials for seconds and exit 0
        for part in ("train", "valid"):
            (tmp_path / f"big.{part}.data").write_text(
                (data_dir / f"twoblock.{part}.data").read_text())
        test = (data_dir / "twoblock.test.data").read_text().splitlines()
        test[6] = "0,1,0,99999999,1,1"
        (tmp_path / "big.test.data").write_text("\n".join(test) + "\n")
        start = time.perf_counter()
        code = run(["--data-dir", tmp_path, "learn", "--data", "big", "--method", "learnspn"])
        assert code == EXIT_DATA
        assert time.perf_counter() - start < 1.0
        assert "big.test.data:7: column 3 (from 0): level 99999999" in capsys.readouterr().err

    def test_csv_levels_are_bounded_by_the_arity_cap(self, tmp_path, capsys):
        # as in a .data file, 1024 levels load and 1025 do not; 20 rows per
        # level, so the training split (70% of the rows, drawn at random)
        # holds every level and valid and test hold no other
        (tmp_path / "many.schema").write_text("colour cat\n")
        for n_levels, code in ((1024, EXIT_OK), (1025, EXIT_DATA)):
            lines = ["colour"] + [f"c{i % n_levels}" for i in range(20 * n_levels)]
            (tmp_path / "many.csv").write_text("\n".join(lines) + "\n")
            assert run(["--data-dir", tmp_path, "learn", "--data", "many",
                        "--method", "learnspn"]) == code
        assert "many.csv: column 'colour': 1025 levels" in capsys.readouterr().err

    def test_duplicate_csv_column_is_data_error(self, tmp_path, capsys):
        lines = ["size,size"] + [f"{i / 10},{i / 5}" for i in range(50)]
        (tmp_path / "mix.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "mix.schema").write_text("size cont\n")
        code = run(["--data-dir", tmp_path, "learn", "--data", "mix", "--method", "learnspn"])
        assert code == EXIT_DATA
        assert "column 'size' appears twice" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [1, 5])
    def test_csv_with_an_empty_split_is_data_error(self, tmp_path, capsys, rows):
        lines = ["colour,size"] + [f"{('red', 'blue')[i % 2]},{i / 10}" for i in range(rows)]
        (tmp_path / "mix.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "mix.schema").write_text("colour cat\nsize cont\n")
        code = run(["--data-dir", tmp_path, "learn", "--data", "mix", "--method", "learnspn"])
        assert code == EXIT_DATA
        assert f"{rows} data rows split" in capsys.readouterr().err

    def test_csv_without_its_sidecar_is_data_error(self, tmp_path, capsys):
        (tmp_path / "mix.csv").write_bytes(_csv_files()["mix.csv"])
        code = run(["--data-dir", tmp_path, "learn", "--data", "mix", "--method", "learnspn"])
        assert code == EXIT_DATA
        assert f"needs a sidecar schema file {tmp_path / 'mix.schema'}" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["red", "red,0.5,0.7"])
    def test_ragged_csv_row_is_data_error(self, tmp_path, capsys, row):
        lines = ["colour,size"] + [f"{('red', 'blue')[i % 2]},{i / 10}" for i in range(200)]
        lines[57] = row
        (tmp_path / "mix.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "mix.schema").write_text("colour cat\nsize cont\n")
        code = run(["--data-dir", tmp_path, "learn", "--data", "mix", "--method", "learnspn"])
        assert code == EXIT_DATA
        assert "mix.csv:58: ragged row" in capsys.readouterr().err


class TestValidateAndEval:
    @pytest.fixture()
    def model_path(self, data_dir, tmp_path):
        model = tmp_path / "m.json"
        run(
            ["--data-dir", data_dir, "learn", "--data", "twoblock",
             "--method", "softlearn", "--out-model", model]
        )
        return model

    def test_validate_good_model(self, model_path, capsys):
        assert run(["validate-model", "--model", model_path]) == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_validate_truncated_model(self, model_path, tmp_path, capsys):
        bad = tmp_path / "t.json"
        bad.write_text(model_path.read_text()[:40])
        assert run(["validate-model", "--model", bad]) == EXIT_DATA

    def test_validate_invalid_weights(self, model_path, tmp_path, capsys):
        text = model_path.read_text()
        import json

        doc = json.loads(text)
        for node in doc["nodes"]:
            if node["type"] == "sum":
                node["weights"][0] += 0.5
                break
        bad = tmp_path / "w.json"
        bad.write_text(json.dumps(doc))
        assert run(["validate-model", "--model", bad]) == EXIT_DATA
        assert "sum weights" in capsys.readouterr().out

    def test_validate_prints_every_violation(self, tmp_path, capsys):
        text = (small_mixed_circuit().to_json().replace('"sigma":0.5', '"sigma":-0.5')
                .replace('"weights":[0.4,0.6]', '"weights":[0.4,0.7]'))
        bad = tmp_path / "two.json"
        bad.write_text(text)
        assert run(["validate-model", "--model", bad]) == EXIT_DATA
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "node 1: nonpositive sigma"
        assert lines[1].startswith("node 7: sum weights total")

    @pytest.mark.parametrize("command", ["validate-model", "sample"])
    def test_deeply_nested_model_is_data_error(self, tmp_path, capsys, command):
        # json.loads raises RecursionError on a document nested this deep
        model = tmp_path / "deep.json"
        model.write_text("[" * 100000 + "]" * 100000)
        argv = {"validate-model": ["validate-model", "--model", model],
                "sample": ["sample", "--model", model, "--n", 3]}[command]
        assert run(argv) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: cannot parse model:")

    def test_eval_reports_three_splits(self, data_dir, model_path, capsys):
        code = run(
            ["--data-dir", data_dir, "eval", "--model", model_path,
             "--data", "twoblock"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for split in ("train", "valid", "test"):
            assert split in out

    def test_unexpected_exception_is_internal_error(self, model_path, monkeypatch, capsys):
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_validate_model", fail)
        assert run(["validate-model", "--model", model_path]) == cli.EXIT_INTERNAL
        assert "internal error: RuntimeError('boom')" in capsys.readouterr().err

    def test_missing_model_is_data_error(self, tmp_path):
        assert run(["validate-model", "--model", tmp_path / "ghost.json"]) == EXIT_DATA

    def test_eval_with_other_variable_count_is_data_error(self, data_dir, model_path, capsys):
        code = run(["--data-dir", data_dir, "eval", "--model", model_path, "--data", "coin"])
        assert code == EXIT_DATA
        assert "model has 6 variables, dataset 'coin' has 1" in capsys.readouterr().err

    def test_eval_with_other_kinds_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "mixed.json"
        model.write_text(small_mixed_circuit().to_json())  # cat(3), cont, cat(2)
        write_split(tmp_path, "three", [[0, 1, 0], [2, 0, 1]], [[1, 1, 1]], [[0, 0, 0]])
        code = run(["--data-dir", tmp_path, "eval", "--model", model, "--data", "three"])
        assert code == EXIT_DATA
        assert "variable 1: model has cont, dataset 'three' has cat(2)" in capsys.readouterr().err

    def test_eval_with_more_levels_than_the_model_is_data_error(self, model_path, tmp_path, capsys):
        write_split(tmp_path, "wide", [[0] * 6, [1] * 6], [[0, 0, 2, 0, 0, 0]], [[1] * 6])
        code = run(["--data-dir", tmp_path, "eval", "--model", model_path, "--data", "wide"])
        assert code == EXIT_DATA
        assert "variable 2: model has cat(2), dataset 'wide' has cat(3)" in capsys.readouterr().err

    @pytest.mark.parametrize("var", [10**12, 10**400])
    @pytest.mark.parametrize("command", ["validate-model", "eval"])
    def test_huge_leaf_variable_is_rejected_quickly(self, data_dir, tmp_path, capsys, command, var):
        doc = json.loads(small_mixed_circuit().to_json())
        doc["nodes"][1]["var"] = var
        model = tmp_path / "huge.json"
        model.write_text(json.dumps(doc))
        argv = {"validate-model": ["validate-model", "--model", model],
                "eval": ["--data-dir", data_dir, "eval", "--model", model, "--data", "coin"]}
        start = time.perf_counter()
        code = run(argv[command])
        assert time.perf_counter() - start < 0.1
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert "node 1: leaf variable" in captured.out + captured.err


class TestUnreadableFiles:
    """A file that cannot be read, decoded or written is a data error that
    names it, at each place the commands read or write one."""

    @pytest.fixture()
    def model_path(self, data_dir, tmp_path):
        model = tmp_path / "m.json"
        run(["--data-dir", data_dir, "learn", "--data", "twoblock", "--method", "learnspn",
             "--out-model", model])
        return model

    @pytest.mark.parametrize("command", ["validate-model", "sample"])
    def test_undecodable_model(self, tmp_path, capsys, command):
        model = tmp_path / "bad.json"
        model.write_bytes(b"\xff\xfe{}")
        argv = {"validate-model": ["validate-model", "--model", model],
                "sample": ["sample", "--model", model, "--n", 3]}[command]
        assert run(argv) == EXIT_DATA
        assert f"{model}: cannot decode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-model", "eval"])
    def test_directory_as_model(self, data_dir, tmp_path, capsys, command):
        argv = {"validate-model": ["validate-model", "--model", tmp_path],
                "eval": ["--data-dir", data_dir, "eval", "--model", tmp_path, "--data", "coin"]}
        assert run(argv[command]) == EXIT_DATA
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_undecodable_data_split(self, data_dir, tmp_path, capsys):
        for part in ("train", "valid", "test"):
            source = data_dir / f"twoblock.{part}.data"
            (tmp_path / f"tb.{part}.data").write_bytes(source.read_bytes())
        with open(tmp_path / "tb.valid.data", "ab") as fh:
            fh.write(b"0,1,\xff,1,1,0\n")
        code = run(["--data-dir", tmp_path, "learn", "--data", "tb", "--method", "learnspn"])
        assert code == EXIT_DATA
        assert f"{tmp_path / 'tb.valid.data'}: cannot decode" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["mix.csv", "mix.schema"])
    def test_undecodable_csv_or_sidecar(self, tmp_path, capsys, name):
        lines = ["colour,size"] + [f"{('red', 'blue')[i % 2]},{i / 10}" for i in range(50)]
        (tmp_path / "mix.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "mix.schema").write_text("colour cat\nsize cont\n")
        with open(tmp_path / name, "ab") as fh:
            fh.write(b"# \xff\n" if name == "mix.schema" else b"red,\xff\n")
        code = run(["--data-dir", tmp_path, "learn", "--data", "mix", "--method", "learnspn"])
        assert code == EXIT_DATA
        assert f"{tmp_path / name}: cannot decode" in capsys.readouterr().err

    def test_directory_as_grid_results_file(self, data_dir, tmp_path, capsys):
        code = run(["--data-dir", data_dir, "--out", tmp_path, "grid", "--data", "coin",
                    "--method", "learnspn", "--reps", 1, "--clusterer", "em", "--p", 0.01,
                    "--alpha", 0.1])
        assert code == EXIT_DATA
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_directory_as_learned_model_file(self, data_dir, tmp_path, capsys):
        code = run(["--data-dir", data_dir, "learn", "--data", "coin", "--method", "learnspn",
                    "--out-model", tmp_path])
        assert code == EXIT_DATA
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err


def _csv_files():
    """A small mixed CSV with its sidecar, as file name -> bytes."""
    rng = np.random.default_rng(5)
    rows = [f"{('red', 'blue', 'green')[i % 3]},{rng.normal(i % 2 * 4, 1):.3f},{i % 2}"
            for i in range(40)]
    return {"mix.csv": ("colour,size,flag\n" + "\n".join(rows) + "\n").encode(),
            "mix.schema": b"colour cat\nsize cont\nflag cat\n"}


def _discrete_files():
    """A small discrete triple, as file name -> bytes."""
    rng = np.random.default_rng(6)
    return {f"tri.{part}.data": "".join(",".join(map(str, row)) + "\n"
                                        for row in rng.integers(0, 3, (n, 3))).encode()
            for part, n in (("train", 30), ("valid", 8), ("test", 8))}


FUZZ_BASES = {"mix": _csv_files(), "tri": _discrete_files()}
# values put into a field: huge, tiny, non-finite, negative, fractional,
# unseen levels and non-numbers
FUZZ_FIELDS = ["1e308", "-1e308", "1e100", "1.0000000000000002e100", "1e200", "1e-320",
               "5e-324", "-0.0", "nan", "inf", "-inf", "1e400", "0", "-1", "0.5", "7",
               "1023", "1024", "99999999", "purple", "", " ", "cat", "cont", "size"]
FUZZ_BYTES = [b"\xff", b"\xfe\xff", b"\xc3", b"\x00", b"\r", b"\"", b","]


@st.composite
def mutated_datasets(draw):
    """A base dataset's files after 1-3 mutations: a field replaced, dropped
    or duplicated; a line dropped or duplicated; a file cut short or
    emptied; or bytes inserted."""
    name = draw(st.sampled_from(sorted(FUZZ_BASES)))
    files = {k: v.split(b"\n") for k, v in FUZZ_BASES[name].items()}
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(sorted(files)))
        lines = files[target]
        if not lines:  # emptied by an earlier cut
            lines.append(b"")
        at = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["field", "drop field", "dup field", "drop line", "dup line",
                                   "cut", "bytes"]))
        fields = lines[at].split(b",")
        j = draw(st.integers(0, len(fields) - 1))
        if op == "field":
            fields[j] = draw(st.sampled_from(FUZZ_FIELDS)).encode()
        elif op == "drop field":
            del fields[j]
        elif op == "dup field":
            fields.insert(j, fields[j])
        elif op == "drop line":
            del lines[at]
        elif op == "dup line":
            lines.insert(at, lines[at])
        elif op == "cut":
            del lines[at:]  # at 0 the file is empty; a short CSV leaves a split empty
        else:
            k = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:k] + draw(st.sampled_from(FUZZ_BYTES)) + lines[at][k:]
        if op in ("field", "drop field", "dup field"):
            lines[at] = b",".join(fields)
    method = draw(st.sampled_from(["learnspn", "softlearn"]))
    clusterer = draw(st.sampled_from(list(CLUSTERERS)))
    return name, {k: b"\n".join(v) for k, v in files.items()}, method, clusterer


def _quiet_main(argv):
    """``main(argv)``'s exit code and stdout, stderr swallowed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


class TestByteOrderMark:
    """Text files are read as UTF-8, and a leading byte-order mark, which
    some editors write, is not part of the first line."""

    BOM = "\ufeff".encode("utf-8")

    def write_mixed(self, tmp_path, bom_in):
        lines = ["colour,size"] + [f"{('red', 'blue')[i % 2]},{i / 10}" for i in range(50)]
        texts = {"mix.csv": "\n".join(lines) + "\n", "mix.schema": "colour cat\nsize cont\n"}
        for name, text in texts.items():
            (tmp_path / name).write_bytes((self.BOM if name == bom_in else b"") + text.encode())

    @pytest.mark.parametrize("name", ["mix.csv", "mix.schema"])
    def test_csv_header_or_sidecar(self, tmp_path, name):
        self.write_mixed(tmp_path, name)
        model = tmp_path / "m.json"
        code = run(["--data-dir", tmp_path, "learn", "--data", "mix", "--method", "learnspn",
                    "--out-model", model])
        assert code == EXIT_OK
        assert len(Circuit.from_json(model.read_text()).schema) == 2

    def test_data_split(self, data_dir, tmp_path):
        for part in ("train", "valid", "test"):
            text = (data_dir / f"twoblock.{part}.data").read_bytes()
            bom = self.BOM if part == "train" else b""
            (tmp_path / f"tb.{part}.data").write_bytes(bom + text)
        code = run(["--data-dir", tmp_path, "learn", "--data", "tb", "--method", "learnspn"])
        assert code == EXIT_OK

    def test_model_read_by_validate_model(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_bytes(self.BOM + small_mixed_circuit().to_json().encode())
        assert run(["validate-model", "--model", model]) == EXIT_OK
        assert "valid" in capsys.readouterr().out


class TestFileBoundaryFuzz:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(mutated_datasets())
    def test_mutated_files_learn_valid_or_fail_cleanly(self, case):
        name, files, method, clusterer = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for file, data in files.items():
                (tmp / file).write_bytes(data)
            model = tmp / "model.json"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out = _quiet_main(["--data-dir", tmp, "learn", "--data", name,
                                         "--method", method, "--clusterer", clusterer,
                                         "--out-model", model])
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA)
            if code == EXIT_OK:
                _, rows = parse_table(out)
                assert math.isfinite(float(rows[0]["ll_valid_mean"]))
                assert math.isfinite(float(rows[0]["ll_test_mean"]))
                assert _quiet_main(["validate-model", "--model", model])[0] == EXIT_OK


class TestSample:
    @pytest.fixture()
    def model_path(self, data_dir, tmp_path):
        model = tmp_path / "m.json"
        run(
            ["--data-dir", data_dir, "learn", "--data", "twoblock",
             "--method", "learnspn", "--out-model", model]
        )
        return model

    def test_native_format_and_determinism(self, model_path, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(["--seed", 5, "sample", "--model", model_path, "--n", 20,
                    "--out", a]) == EXIT_OK
        assert run(["--seed", 5, "sample", "--model", model_path, "--n", 20,
                    "--out", b]) == EXIT_OK
        assert a.read_text() == b.read_text()
        lines = a.read_text().strip().splitlines()
        assert len(lines) == 20
        assert all(set(ln).issubset(set("01,")) for ln in lines)

    def test_different_seed_differs(self, model_path, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["--seed", 5, "sample", "--model", model_path, "--n", 50, "--out", a])
        run(["--seed", 6, "sample", "--model", model_path, "--n", 50, "--out", b])
        assert a.read_text() != b.read_text()

    def test_zero_samples_gives_empty_file(self, model_path, tmp_path):
        out = tmp_path / "z.txt"
        assert run(["sample", "--model", model_path, "--n", 0, "--out", out]) == EXIT_OK
        assert out.read_text() == ""

    def test_negative_count_is_usage_error(self, model_path, tmp_path, capsys):
        out = tmp_path / "neg.txt"
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--model", model_path, "--n", -1, "--out", out])
        assert exc.value.code == EXIT_USAGE
        assert "count >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_text_matches_per_cell_formatting(self, tmp_path):
        circuit = small_mixed_circuit()
        model, out = tmp_path / "mixed.json", tmp_path / "mixed.txt"
        model.write_text(circuit.to_json())
        assert run(["--seed", 9, "sample", "--model", model, "--n", 300, "--out", out]) == EXIT_OK
        rows = circuit.sample(np.random.default_rng(9), 300)
        expected = "".join(
            ",".join(str(int(v)) if var.kind == "cat" else repr(float(v))
                     for v, var in zip(row, circuit.schema)) + "\n"
            for row in rows
        )
        assert out.read_text() == expected
        assert {line.count(",") for line in expected.splitlines()} == {2}

    def test_without_out_prints_the_file_text(self, model_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        cmd = ["--seed", 5, "sample", "--model", model_path, "--n", 20]
        assert run(cmd + ["--out", out]) == EXIT_OK
        capsys.readouterr()
        assert run(cmd) == EXIT_OK
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("where", ["before", "after", "both"])
    def test_out_before_or_after_the_subcommand(self, model_path, tmp_path, capsys, where):
        out, other = tmp_path / "s.csv", tmp_path / "global.csv"
        cmd = ["sample", "--model", model_path, "--n", 3]
        args = {"before": ["--out", out] + cmd, "after": cmd + ["--out", out],
                "both": ["--out", other] + cmd + ["--out", out]}[where]  # the subcommand's wins
        assert run(args) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert len(out.read_text().splitlines()) == 3
        assert not other.exists()


class TestGlobalOut:
    @pytest.mark.parametrize(
        "command", ["learn", "eval", "synthetic-quality", "toy-example", "validate-model"])
    def test_command_that_ignores_out_refuses_it(self, data_dir, tmp_path, capsys, command):
        # each of these used to exit 0 without writing the file
        learning = ["--data", "twoblock", "--method", "learnspn"]
        rest = {"learn": learning, "synthetic-quality": learning + ["--reps", 1],
                "eval": ["--model", tmp_path / "m.json", "--data", "twoblock"],
                "toy-example": ["--n", 10, "--out-dir", tmp_path / "toy"],
                "validate-model": ["--model", tmp_path / "m.json"]}[command]
        out = tmp_path / "r.tsv"
        assert run(["--data-dir", data_dir, "--out", out, command] + rest) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--out" in err and "grid" in err and "sample" in err
        assert not out.exists()


class TestGlobalThreads:
    @pytest.mark.parametrize(
        "command", ["learn", "eval", "sample", "synthetic-quality", "toy-example", "validate-model"])
    def test_command_that_ignores_threads_refuses_it(self, data_dir, tmp_path, capsys, command):
        # learn and synthetic-quality used to run on one thread and exit 0
        learning = ["--data", "twoblock", "--method", "learnspn"]
        rest = {"learn": learning, "synthetic-quality": learning + ["--reps", 1],
                "eval": ["--model", tmp_path / "m.json", "--data", "twoblock"],
                "sample": ["--model", tmp_path / "m.json", "--n", 3],
                "toy-example": ["--n", 10, "--out-dir", tmp_path / "toy"],
                "validate-model": ["--model", tmp_path / "m.json"]}[command]
        assert run(["--data-dir", data_dir, "--threads", 4, command] + rest) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--threads" in err and "grid" in err and command in err
        assert not (tmp_path / "toy").exists()


class TestGrid:
    def test_single_cell_matches_learn(self, data_dir, capsys):
        args = ["--data-dir", data_dir, "--seed", 2]
        assert run(args + ["grid", "--data", "twoblock", "--method", "softlearn",
                           "--clusterer", "em", "--p", 0.01, "--alpha", 0.01,
                           "--reps", 1]) == EXIT_OK
        _, grid_rows = parse_table(capsys.readouterr().out)
        assert run(args + ["learn", "--data", "twoblock", "--method", "softlearn",
                           "--clusterer", "em", "--p", 0.01, "--alpha", 0.01]) == EXIT_OK
        _, learn_rows = parse_table(capsys.readouterr().out)
        # a learn row is a one-repetition grid row: every column but seconds
        assert len(grid_rows) == len(learn_rows) == 1
        del grid_rows[0]["seconds"], learn_rows[0]["seconds"]
        assert grid_rows[0] == learn_rows[0]
        assert grid_rows[0]["ll_test_std"] == "0"

    def test_results_file_append_only_and_best_line(self, data_dir, tmp_path, capsys):
        out = tmp_path / "results.tsv"
        base = ["--data-dir", data_dir, "--seed", 2, "--out", out]
        cell = ["grid", "--data", "twoblock", "--method", "softlearn",
                "--clusterer", "em", "--alpha", 0.01, "--reps", 1]
        assert run(base + cell) == EXIT_OK
        first = out.read_text()
        stdout = capsys.readouterr().out
        assert first.startswith("# softpc-results v1\n")
        assert "# best by validation LL" in stdout
        _, rows = parse_table(first)
        assert len(rows) == 3  # three p values for the fixed alpha
        plot = out.with_suffix(out.suffix + ".plot.tsv")
        first_plot = plot.read_text()
        assert first_plot.startswith("x\ty\tseries\n")
        assert len(first_plot.splitlines()) == 1 + 3
        # rerun: completed cells are kept verbatim, nothing recomputed, and
        # the plot and the best line still cover every cell
        assert run(base + cell) == EXIT_OK
        rerun = capsys.readouterr().out
        assert out.read_text() == first
        assert plot.read_text() == first_plot
        assert best_line(rerun) == best_line(stdout)

    def test_resumed_grid_plots_every_cell(self, data_dir, tmp_path, capsys):
        cell = ["grid", "--data", "coin", "--method", "learnspn", "--clusterer", "kmeans",
                "--alpha", 0.01, "--reps", 1]
        fresh, resumed = tmp_path / "fresh.tsv", tmp_path / "resumed.tsv"
        assert run(["--data-dir", data_dir, "--out", fresh] + cell) == EXIT_OK
        base = ["--data-dir", data_dir, "--out", resumed]
        assert run(base + cell + ["--p", 0.001]) == EXIT_OK
        assert run(base + cell) == EXIT_OK
        capsys.readouterr()
        plot = lambda out: out.with_suffix(out.suffix + ".plot.tsv").read_text()  # noqa: E731
        # grid order, whichever run learned a cell
        assert plot(resumed) == plot(fresh)

    def test_resumed_grid_ranks_every_cell(self, data_dir, tmp_path, capsys):
        """A one-cell run of the best cell, then the full grid: the best line
        ranks the cell learned first too, as a fresh full run does."""
        cell = ["grid", "--data", "twoblock", "--method", "softlearn", "--clusterer", "em",
                "--alpha", 0.01, "--reps", 1]
        args = ["--data-dir", data_dir, "--seed", 2]
        assert run(args + cell) == EXIT_OK
        stdout = capsys.readouterr().out
        best = best_line(stdout)
        _, rows = parse_table(stdout)
        top = max(rows, key=lambda row: float(row["ll_valid_mean"]))
        assert f" p={top['p']} " in best
        resumed = args + ["--out", tmp_path / "resumed.tsv"]
        assert run(resumed + cell + ["--p", top["p"]]) == EXIT_OK
        capsys.readouterr()
        assert run(resumed + cell) == EXIT_OK
        assert best_line(capsys.readouterr().out) == best

    def test_truncated_results_line_is_data_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "results.tsv"
        args = ["--data-dir", data_dir, "--out", out, "grid", "--data", "coin",
                "--method", "learnspn", "--clusterer", "kmeans", "--p", 0.01,
                "--alpha", 0.01, "--reps", 1]
        assert run(args) == EXIT_OK
        lines = out.read_text().splitlines()
        lines[-1] = lines[-1].rsplit("\t", 1)[0]
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(out) in err and f"line {len(lines)}" in err

    def test_blank_results_lines_are_skipped(self, data_dir, tmp_path, capsys):
        out = tmp_path / "results.tsv"
        args = ["--data-dir", data_dir, "--out", out, "grid", "--data", "coin",
                "--method", "learnspn", "--clusterer", "kmeans", "--p", 0.01,
                "--alpha", 0.01, "--reps", 1]
        assert run(args) == EXIT_OK
        text = out.read_text().replace("\n", "\n\n")
        out.write_text(text)
        capsys.readouterr()
        # the one cell is read back as done: the table keeps its text, blank
        # lines too, and gains no row
        assert run(args) == EXIT_OK
        assert out.read_text() == text

    def test_bad_hyperparameter_is_usage_error_with_every_cell_done(self, data_dir, tmp_path,
                                                                    capsys):
        # a grid with nothing left to learn used to exit 0 without checking
        args = ["--data-dir", data_dir, "--out", tmp_path / "r.tsv", "grid", "--data", "coin",
                "--method", "learnspn", "--clusterer", "em", "--p", 0.01, "--alpha", 0.01,
                "--reps", 1]
        assert run(args) == EXIT_OK
        capsys.readouterr()
        assert run(args + ["--clusters", 0]) == EXIT_USAGE
        assert "n_clusters" in capsys.readouterr().err

    @pytest.mark.parametrize("name, first", [("café", "utf-8"), ("café", "ascii"),
                                             (os.fsdecode(b"caf\xe9"), "utf-8")])
    def test_resumed_grid_under_an_ascii_locale_keeps_its_rows(self, tmp_path, name, first):
        """A grid over a non-ASCII dataset name, resumed where the locale is
        ASCII: it used to exit 4 and leave the table empty.  A name that is
        not UTF-8 (here Latin-1) is written as its bytes and read back too."""
        rng = np.random.default_rng(3)
        write_split(tmp_path, name, rng.integers(0, 2, (60, 3)), rng.integers(0, 2, (20, 3)),
                    rng.integers(0, 2, (20, 3)))
        out, row_start = tmp_path / "out.tsv", os.fsencode(name) + b"\t"
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(softpc.__file__).parent.parent)}

        def grid(mode, alpha):
            cmd = [sys.executable, "-X", f"utf8={int(mode == 'utf-8')}", "-m", "softpc.cli",
                   "--data-dir", tmp_path, "--out", out, "grid", "--data", name,
                   "--method", "learnspn", "--clusterer", "kmeans", "--p", 0.01,
                   "--alpha", alpha, "--reps", 1]
            return subprocess.run([str(a) for a in cmd], env=env, capture_output=True)

        assert grid(first, 0.01).returncode == EXIT_OK
        table = out.read_bytes()
        assert table.count(row_start) == 1
        resumed = grid("ascii", 0.1)
        assert resumed.returncode == EXIT_OK, resumed.stderr
        assert out.read_bytes().startswith(table)
        assert out.read_bytes().count(row_start) == 2
        assert resumed.stdout.startswith(table)
        assert grid("ascii", 0.1).returncode == EXIT_OK  # both cells are done
        assert out.read_bytes().count(row_start) == 2
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]  # no temporary file

    def test_thread_count_does_not_change_results(self, data_dir, tmp_path, capsys):
        outs = []
        for threads, name in ((1, "a.tsv"), (4, "b.tsv")):
            out = tmp_path / name
            assert run(
                ["--data-dir", data_dir, "--seed", 7, "--threads", threads,
                 "--out", out, "grid", "--data", "twoblock", "--method",
                 "softlearn", "--clusterer", "em", "--alpha", 0.01, "--reps", 2]
            ) == EXIT_OK
            capsys.readouterr()
            outs.append(out.read_text())

        def strip_seconds(text):
            header, rows = parse_table(text)
            return [
                {k: v for k, v in row.items() if k != "seconds"} for row in rows
            ]

        assert strip_seconds(outs[0]) == strip_seconds(outs[1])


    def test_zero_reps_is_usage_error(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--data-dir", data_dir, "grid", "--data", "coin", "--method", "learnspn",
                 "--clusterer", "em", "--p", 0.01, "--alpha", 0.01, "--reps", 0])
        assert exc.value.code == EXIT_USAGE
        assert "count >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [0, -5])
    def test_non_positive_threads_is_usage_error(self, data_dir, threads, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--data-dir", data_dir, "--threads", threads, "grid", "--data", "coin",
                 "--method", "learnspn", "--reps", 1])
        assert exc.value.code == EXIT_USAGE
        assert "count >= 1" in capsys.readouterr().err


class TestSyntheticQuality:
    def test_one_variable_dataset_drop_near_zero(self, data_dir, capsys):
        code = run(
            ["--data-dir", data_dir, "--seed", 3, "synthetic-quality",
             "--data", "coin", "--method", "softlearn", "--reps", 2]
        )
        assert code == EXIT_OK
        _, rows = parse_table(capsys.readouterr().out)
        assert abs(float(rows[0]["drop"])) < 0.05


    def test_zero_reps_is_usage_error(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--data-dir", data_dir, "synthetic-quality", "--data", "coin",
                 "--method", "softlearn", "--reps", 0])
        assert exc.value.code == EXIT_USAGE
        assert "count >= 1" in capsys.readouterr().err


class TestLearningFlags:
    """learn, grid and synthetic-quality share one flag set; each flag's
    value reaches its Hyperparams field through _make_hp."""

    @pytest.mark.parametrize("command", ["learn", "grid", "synthetic-quality"])
    @pytest.mark.parametrize(
        "flag, value, field",
        [("--clusterer", "kmeans", "clusterer"), ("--p", 0.05, "p_threshold"),
         ("--alpha", 0.5, "alpha"), ("--beta", 7.5, "beta"), ("--clusters", 3, "n_clusters"),
         ("--min-instances", 12.5, "min_instances"),
         ("--max-cluster-iters", 9, "max_cluster_iters")],
    )
    def test_each_flag_sets_its_field(self, command, flag, value, field):
        args = cli.build_parser().parse_args(
            ["--seed", "4", command, "--data", "d", "--method", "learnspn", flag, str(value)])
        # grid's unpinned clusterer, p and alpha come from the cell
        cell = {"clusterer": "em", "p_threshold": 0.01, "alpha": 0.01} if command == "grid" else {}
        cell.pop(field, None)
        hp = cli._make_hp(args, **cell)
        assert getattr(hp, field) == value
        assert hp == dataclasses.replace(Hyperparams(seed=4), **{field: value})

    @pytest.mark.parametrize("command", ["learn", "synthetic-quality"])
    def test_defaults_are_the_hyperparams_defaults(self, command):
        # grid's None defaults do not leak into the other commands
        cli.build_parser().parse_args(["grid", "--data", "d", "--method", "learnspn"])
        args = cli.build_parser().parse_args([command, "--data", "d", "--method", "learnspn"])
        assert cli._make_hp(args) == Hyperparams()

    def test_bad_cell_value_is_usage_error(self):
        args = cli.build_parser().parse_args(["learn", "--data", "d", "--method", "learnspn"])
        with pytest.raises(cli.UsageError, match="p_threshold"):
            cli._make_hp(args, p_threshold=1.5)

    @pytest.fixture
    def learned_cells(self, monkeypatch):
        """Runs grid with a stub learner; returns the Hyperparams of each
        repetition it learns, in task order."""
        seen = []

        def fake_run_cell(bundle, method, hp):
            seen.append(hp)
            return None, (-1.0, -1.0, 1, 0.0)

        monkeypatch.setattr(cli, "_run_cell", fake_run_cell)
        return seen

    @pytest.mark.parametrize(
        "pin, clusterers, ps, alphas",
        [([], CLUSTERERS, cli.P_GRID, cli.ALPHA_GRID),
         (["--clusterer", "kmeans"], ("kmeans",), cli.P_GRID, cli.ALPHA_GRID),
         (["--p", 0.001], CLUSTERERS, (0.001,), cli.ALPHA_GRID),
         (["--alpha", 0.1], CLUSTERERS, cli.P_GRID, (0.1,))],
    )
    def test_grid_enumerates_cells_in_order(self, data_dir, learned_cells, capsys,
                                            pin, clusterers, ps, alphas):
        assert run(["--data-dir", data_dir, "--seed", 5, "grid", "--data", "coin",
                    "--method", "learnspn", "--reps", 2, "--beta", 3.0] + pin) == EXIT_OK
        cells = list(itertools.product(clusterers, ps, alphas))
        assert learned_cells == [
            Hyperparams(p_threshold=p, alpha=a, beta=3.0, clusterer=c, seed=5 + rep)
            for c, p, a in cells for rep in range(2)]
        _, rows = parse_table(capsys.readouterr().out)
        assert [(r["clusterer"], float(r["p"]), float(r["alpha"])) for r in rows] == cells


class TestToyExample:
    def test_writes_plot_and_leaf_files(self, tmp_path, capsys):
        out_dir = tmp_path / "toyout"
        code = run(
            ["--seed", 0, "toy-example", "--n", 150, "--adversarial",
             "--out-dir", out_dir]
        )
        assert code == EXIT_OK
        leaf_text = (out_dir / "leaf_params.tsv").read_text()
        point_text = (out_dir / "points.tsv").read_text()
        assert leaf_text.startswith("method\tvariable\tmu\tsigma\n")
        assert "softlearn" in leaf_text and "learnspn" in leaf_text
        assert point_text.startswith("x\ty\tseries\n")
        assert "\tdata" in point_text

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_count_is_usage_error(self, tmp_path, capsys, n):
        out_dir = tmp_path / "toyout"
        with pytest.raises(SystemExit) as exc:
            run(["toy-example", "--n", n, "--out-dir", out_dir])
        assert exc.value.code == EXIT_USAGE
        assert "count >= 1" in capsys.readouterr().err
        assert not out_dir.exists()


class TestEntryPoint:
    """The command-line checks that CI used to make only through the
    installed console script.  Where the process's own exit code is the
    point, the command runs as ``python -m softpc.cli``, the module the
    console script calls; elsewhere through ``main``."""

    @pytest.fixture()
    def tiny_dir(self, tmp_path):
        for part in ("train", "valid", "test"):
            (tmp_path / f"tiny.{part}.data").write_text("0,1\n1,0\n1,1\n")
        return tmp_path

    @staticmethod
    def process(args):
        env = {**os.environ, "PYTHONPATH": str(Path(softpc.__file__).parent.parent)}
        return subprocess.run([sys.executable, "-m", "softpc.cli", *map(str, args)], env=env,
                              capture_output=True, text=True)

    @pytest.mark.parametrize("case", ["threads-0", "alpha-1e308", "toy-example"])
    def test_process_exit_code(self, tiny_dir, tmp_path, case):
        args, code = {
            "threads-0": (["--threads", 0, "grid", "--data", "x", "--method", "learnspn"],
                          EXIT_USAGE),
            "alpha-1e308": (["--data-dir", tiny_dir, "learn", "--data", "tiny",
                             "--method", "learnspn", "--alpha", "1e308"], EXIT_USAGE),
            "toy-example": (["toy-example", "--n", 50, "--out-dir", tmp_path / "toy"], EXIT_OK),
        }[case]
        done = self.process(args)
        assert done.returncode == code, done.stderr
        if case == "alpha-1e308":
            assert "alpha must be in" in done.stderr

    def test_csv_field_past_the_csv_limit_is_data_error(self, tmp_path, capsys):
        lines = ["a,b"] + [f"{i % 2},{i}" for i in range(8)] + ["0," + "1" * 200000]
        (tmp_path / "big.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "big.schema").write_text("a cat\nb cont\n")
        code = run(["--data-dir", tmp_path, "learn", "--data", "big", "--method", "learnspn"])
        assert code == EXIT_DATA
        assert "field larger than field limit" in capsys.readouterr().err

    def test_learn_sample_validate_eval_and_synthetic_quality(self, tiny_dir, tmp_path, capsys):
        model = tmp_path / "tiny.json"
        learn = ["--data-dir", tiny_dir, "learn", "--data", "tiny", "--method", "learnspn"]
        assert run(learn + ["--out-model", model]) == EXIT_OK
        capsys.readouterr()
        assert run(["sample", "--model", model, "--n", 5]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert run(["validate-model", "--model", model]) == EXIT_OK
        capsys.readouterr()
        # eval prints a header and one line per split, synthetic-quality a
        # header and one line
        assert run(["--data-dir", tiny_dir, "eval", "--model", model, "--data", "tiny"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert run(["--data-dir", tiny_dir, "synthetic-quality", "--data", "tiny",
                    "--method", "learnspn", "--reps", 1]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 2
        # a dataset wider than the model is a data error
        wide = tmp_path / "wide3"
        wide.mkdir()
        for part in ("train", "valid", "test"):
            (wide / f"tiny.{part}.data").write_text("0,1,0\n1,0,1\n1,1,0\n")
        assert run(["--data-dir", wide, "eval", "--model", model, "--data", "tiny"]) == EXIT_DATA

    def test_learned_model_of_a_csv_with_a_byte_order_mark_validates_with_one(self, tmp_path):
        lines = ["\ufeffa,b"] + [f"{i % 2},{i / 10}" for i in range(20)]
        (tmp_path / "mix.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (tmp_path / "mix.schema").write_text("a cat\nb cont\n")
        model = tmp_path / "model.json"
        assert run(["--data-dir", tmp_path, "learn", "--data", "mix", "--method", "learnspn",
                    "--out-model", model]) == EXIT_OK
        assert model.stat().st_size > 0
        bom_model = tmp_path / "bom-model.json"
        bom_model.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
        assert run(["validate-model", "--model", bom_model]) == EXIT_OK
