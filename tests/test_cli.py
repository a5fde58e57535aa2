import numpy as np
import pytest

from softpc.circuit import Circuit
from softpc.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, RESULT_COLUMNS, main

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

    def test_eval_reports_three_splits(self, data_dir, model_path, capsys):
        code = run(
            ["--data-dir", data_dir, "eval", "--model", model_path,
             "--data", "twoblock"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for split in ("train", "valid", "test"):
            assert split in out

    def test_missing_model_is_data_error(self, tmp_path):
        assert run(["validate-model", "--model", tmp_path / "ghost.json"]) == EXIT_DATA


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
        assert grid_rows[0]["ll_test_mean"] == learn_rows[0]["ll_test_mean"]
        assert grid_rows[0]["ll_valid_mean"] == learn_rows[0]["ll_valid_mean"]
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
        # rerun: completed cells are kept verbatim, nothing recomputed
        assert run(base + cell) == EXIT_OK
        capsys.readouterr()
        assert out.read_text() == first
        plot = out.with_suffix(out.suffix + ".plot.tsv")
        assert plot.read_text().startswith("x\ty\tseries\n")

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


class TestSyntheticQuality:
    def test_one_variable_dataset_drop_near_zero(self, data_dir, capsys):
        code = run(
            ["--data-dir", data_dir, "--seed", 3, "synthetic-quality",
             "--data", "coin", "--method", "softlearn", "--reps", 2]
        )
        assert code == EXIT_OK
        _, rows = parse_table(capsys.readouterr().out)
        assert abs(float(rows[0]["drop"])) < 0.05


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
