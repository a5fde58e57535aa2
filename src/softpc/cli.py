"""bench-cli: learn, evaluate, sample, and benchmark probabilistic circuits.

Commands: learn, grid, eval, sample, synthetic-quality, toy-example,
validate-model.  Results are tab-separated with a fixed column order;
exit codes: 0 ok, 2 usage, 3 data error, 4 internal.
"""

from __future__ import annotations

import argparse
import codecs
import dataclasses
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import datasets, learner, toy
from .circuit import Circuit, InvalidCircuitError, ModelParseError
from .datasets import DataError, read_text, write_text
from .learner import CLUSTERERS, METHODS, Hyperparams, WeightedDataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

P_GRID = (0.01, 0.001, 0.0001)
ALPHA_GRID = (0.1, 0.01, 1e-6)

RESULTS_SCHEMA = "# softpc-results v1"
RESULT_COLUMNS = (
    "dataset",
    "method",
    "clusterer",
    "p",
    "alpha",
    "ll_valid_mean",
    "ll_test_mean",
    "ll_test_std",
    "nodes",
    "seconds",
)


# the commands that read the global --out; any other refuses it
_OUT_COMMANDS = ("grid", "sample")


class UsageError(ValueError):
    pass


def load_bundle(name: str, data_dir, seed: int) -> datasets.DatasetBundle:
    data_dir = Path(data_dir)
    if (data_dir / f"{name}.train.data").exists():
        return datasets.load_discrete(name, data_dir)
    if (data_dir / f"{name}.csv").exists():
        return datasets.load_mixed_csv(data_dir / f"{name}.csv", data_dir / f"{name}.schema",
                                       seed=seed, name=name)
    raise UsageError(f"unknown dataset {name!r} (no files under {data_dir})")


def _make_hp(args, **cell) -> Hyperparams:
    """The ``Hyperparams`` that the learning flags in ``args`` set, with
    ``cell``'s fields in their place; ``UsageError`` names a bad value."""
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(Hyperparams)}
    try:
        return Hyperparams(**{**fields, **cell})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _train(matrix, schema, method: str, hp: Hyperparams):
    """Learn a circuit on ``matrix``; returns ``(circuit, seconds)``."""
    data = WeightedDataset(matrix, None, schema)
    fn = getattr(learner, METHODS[method])
    t0 = time.perf_counter()
    circuit, _ = fn(data, hp)
    return circuit, time.perf_counter() - t0


def _mean_ll(circuit: Circuit, matrix) -> float:
    return float(np.mean(circuit.log_density(matrix)))


def _run_cell(bundle, method, hp):
    """One repetition of a cell: ``(circuit, (ll_valid, ll_test, nodes, seconds))``."""
    circuit, seconds = _train(bundle.train, bundle.schema, method, hp)
    return circuit, (_mean_ll(circuit, bundle.valid), _mean_ll(circuit, bundle.test),
                     circuit.n_nodes, seconds)


def _result_row(args, hp, results) -> tuple:
    """A results-table row (``RESULT_COLUMNS``) from a cell's repetitions,
    each as ``_run_cell`` returns it: LLs averaged, test-LL std, mean node
    count, seconds summed."""
    valids, tests, nodes, seconds = (np.array(column) for column in zip(*results))
    return (args.data, args.method, hp.clusterer, hp.p_threshold, hp.alpha, float(valids.mean()),
            float(tests.mean()), float(tests.std()), int(nodes.mean()), float(seconds.sum()))


def _fmt_row(values) -> str:
    out = []
    for v in values:
        if isinstance(v, float):
            out.append(f"{v:.6g}")
        else:
            out.append(str(v))
    return "\t".join(out)


# ----------------------------------------------------------------------
# commands


def cmd_learn(args) -> int:
    bundle = load_bundle(args.data, args.data_dir, args.seed)
    hp = _make_hp(args)
    circuit, result = _run_cell(bundle, args.method, hp)
    if args.out_model:
        write_text(args.out_model, circuit.to_json())
    print("\t".join(RESULT_COLUMNS))
    print(_fmt_row(_result_row(args, hp, [result])))
    return EXIT_OK


def _read_existing_results(path: Path) -> tuple:
    """The lines of the results table at ``path``, and its data rows, each
    as its list of text fields; none of either if there is no file.  The
    table's bytes, but for a leading byte-order mark, are taken back into the
    form that the command line gives its arguments in (``os.fsdecode``), the
    inverse of ``write_text``, so that its names compare equal to ``--data``
    and print as they were given, under an ASCII locale too.  ``DataError``
    names a line whose field count is not ``len(RESULT_COLUMNS)``."""
    rows = []
    if not path.exists():
        return [], rows
    lines = os.fsdecode(path.read_bytes().removeprefix(codecs.BOM_UTF8)).splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith(("#", RESULT_COLUMNS[0] + "\t")):
            continue
        fields = line.split("\t")
        if len(fields) != len(RESULT_COLUMNS):
            raise DataError(f"{path} line {number}: {len(fields)} fields, "
                            f"expected {len(RESULT_COLUMNS)}")
        rows.append(fields)
    return lines, rows


def cmd_grid(args) -> int:
    bundle = load_bundle(args.data, args.data_dir, args.seed)
    # an unpinned --clusterer, --p or --alpha (None) takes every grid value
    cells = [_make_hp(args, clusterer=c, p_threshold=p, alpha=a)
             for c in ([args.clusterer] if args.clusterer else CLUSTERERS)
             for p in ([args.p_threshold] if args.p_threshold is not None else P_GRID)
             for a in ([args.alpha] if args.alpha is not None else ALPHA_GRID)]

    out_path = Path(args.out) if args.out else None
    lines, existing = _read_existing_results(out_path) if out_path else ([], [])

    def key_of(hp):
        return (args.data, args.method, hp.clusterer, f"{hp.p_threshold:.6g}", f"{hp.alpha:.6g}")

    done = {tuple(fields[:5]) for fields in existing}
    todo = [hp for hp in cells if args.force or key_of(hp) not in done]

    def run(task):
        hp, rep = task
        # each (cell, repetition) owns its own seed stream
        return _run_cell(bundle, args.method, dataclasses.replace(hp, seed=hp.seed + rep))[1]

    tasks = [(hp, rep) for hp in todo for rep in range(args.reps)]
    with ThreadPoolExecutor(max_workers=args.threads or 1) as pool:
        results = list(pool.map(run, tasks))  # in task order, so a cell's reps are adjacent
    rows = [_result_row(args, hp, results[i * args.reps:(i + 1) * args.reps])
            for i, hp in enumerate(todo)]

    # the new rows go after the table's lines as they stand, or a new header
    new_rows = [_fmt_row(r) for r in rows]
    lines = (lines or [RESULTS_SCHEMA, "\t".join(RESULT_COLUMNS)]) + new_rows
    table = "".join(line + "\n" for line in lines)
    # every cell of this grid, in grid order, from its last row in the table,
    # whichever run learned it: the plot and the best line read these
    last = {tuple(fields[:5]): fields for fields in existing + [r.split("\t") for r in new_rows]}
    grid = [last[key_of(hp)] for hp in cells]
    if out_path:
        write_text(out_path, table)
        plot_path = out_path.with_suffix(out_path.suffix + ".plot.tsv")
        plot_lines = ["x\ty\tseries"]
        for fields in grid:
            plot_lines.append(f"p={fields[3]},alpha={fields[4]}\t{fields[6]}\t{fields[2]}")
        write_text(plot_path, "\n".join(plot_lines) + "\n")
    print(table, end="")

    best = max(grid, key=lambda fields: float(fields[5]))  # selected on validation LL
    print(f"# best by validation LL: clusterer={best[2]} p={best[3]} "
          f"alpha={best[4]} ll_test_mean={best[6]}")
    return EXIT_OK


def _check_model_fits(circuit: Circuit, bundle) -> None:
    """Raise DataError unless the dataset has the model's variable count and
    kinds, and no categorical column has more levels than the model's."""
    model, data = circuit.schema, bundle.schema
    if len(model) != len(data):
        raise DataError(f"model has {len(model)} variables, dataset {bundle.name!r} has {len(data)}")
    for v, (m, d) in enumerate(zip(model, data)):
        if m.kind != d.kind or (m.kind == "cat" and d.arity > m.arity):
            kinds = [f"cat({var.arity})" if var.kind == "cat" else "cont" for var in (m, d)]
            raise DataError(f"variable {v}: model has {kinds[0]}, dataset {bundle.name!r} has {kinds[1]}")


def cmd_eval(args) -> int:
    circuit = Circuit.from_json(read_text(args.model))
    bundle = load_bundle(args.data, args.data_dir, args.seed)
    _check_model_fits(circuit, bundle)
    print("split\tll_mean")
    for split in ("train", "valid", "test"):
        print(f"{split}\t{_mean_ll(circuit, getattr(bundle, split)):.6g}")
    return EXIT_OK


def cmd_sample(args) -> int:
    circuit = Circuit.from_json(read_text(args.model))
    rng = np.random.default_rng(args.seed)
    rows = circuit.sample(rng, args.n)
    # a column at a time from Python ints and floats, not cell by cell
    # through numpy scalars: the same text, formatted in about 2/3 the time
    columns = [
        list(map(str, column.astype(np.int64).tolist())) if var.kind == "cat"
        else list(map(repr, column.tolist()))
        for column, var in zip(rows.T, circuit.schema)
    ]
    text = "".join(",".join(fields) + "\n" for fields in zip(*columns))
    if args.out:
        write_text(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_synthetic_quality(args) -> int:
    bundle = load_bundle(args.data, args.data_dir, args.seed)
    base = _make_hp(args)
    originals, synthetics = [], []
    for rep in range(args.reps):
        hp = dataclasses.replace(base, seed=base.seed + rep)
        circuit1, _ = _train(bundle.train, bundle.schema, args.method, hp)
        synthetic = circuit1.sample(np.random.default_rng(hp.seed), bundle.train.shape[0])
        circuit2, _ = _train(synthetic, bundle.schema, args.method, hp)
        originals.append(_mean_ll(circuit1, bundle.test))
        synthetics.append(_mean_ll(circuit2, bundle.test))
    orig, synth = float(np.mean(originals)), float(np.mean(synthetics))
    print("dataset\tmethod\tll_original\tll_synthetic\tdrop\treps")
    print(_fmt_row((args.data, args.method, orig, synth, orig - synth, args.reps)))
    return EXIT_OK


def cmd_toy_example(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [toy.run_toy(args.n, args.adversarial, method, seed=args.seed,
                           clusterer=args.clusterer) for method in METHODS]
    leaf_lines = ["method\tvariable\tmu\tsigma"]
    # every learn draws the same points from the seed
    point_lines = ["x\ty\tseries"] + [f"{x:.6g}\t{y:.6g}\tdata" for x, y in results[0].matrix]
    for result in results:
        for var, leaves in ((0, result.x_leaves), (1, result.y_leaves)):
            for mu, sigma in leaves:
                leaf_lines.append(f"{result.method}\t{'xy'[var]}\t{mu:.6g}\t{sigma:.6g}")
        for (mx, _), (my, _) in zip(result.x_leaves, result.y_leaves):
            point_lines.append(f"{mx:.6g}\t{my:.6g}\t{result.method}_mean")

    write_text(out_dir / "leaf_params.tsv", "\n".join(leaf_lines) + "\n")
    write_text(out_dir / "points.tsv", "\n".join(point_lines) + "\n")
    print(f"wrote {out_dir / 'leaf_params.tsv'} and {out_dir / 'points.tsv'}")
    return EXIT_OK


def cmd_validate_model(args) -> int:
    try:
        Circuit.from_json(read_text(args.model))
    except InvalidCircuitError as exc:
        for v in exc.violations:
            print(v)
        return EXIT_DATA
    print("valid")
    return EXIT_OK


# ----------------------------------------------------------------------
# parser


def _learning_flags(grid=False) -> argparse.ArgumentParser:
    """A fresh parent parser with the flags of the learning commands, each
    stored under the ``Hyperparams`` field it sets (``--seed`` is global).
    With ``grid``, ``--clusterer``, ``--p`` and ``--alpha`` default to
    ``None``: the grid then takes each of their values."""
    hp = Hyperparams()
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--data", required=True)
    flags.add_argument("--method", choices=METHODS, required=True)
    flags.add_argument("--clusterer", choices=CLUSTERERS, default=None if grid else hp.clusterer,
                       help="restrict to one clusterer (default: both)" if grid else None)
    flags.add_argument("--p", dest="p_threshold", metavar="P", type=float,
                       default=None if grid else hp.p_threshold,
                       help="chi-square significance threshold")
    flags.add_argument("--alpha", type=float, default=None if grid else hp.alpha,
                       help="Laplace smoothing pseudo-count")
    flags.add_argument("--beta", type=float, default=hp.beta, help="softmax sharpness (k-means)")
    flags.add_argument("--clusters", dest="n_clusters", metavar="CLUSTERS", type=int,
                       default=hp.n_clusters, help="children per sum node")
    flags.add_argument("--min-instances", type=float, default=hp.min_instances,
                       help="fully factorize a subproblem whose total row weight is below this")
    flags.add_argument("--max-cluster-iters", type=int, default=hp.max_cluster_iters,
                       help="iteration cap of each k-means or EM call")
    return flags


def _count(text: str, least: int) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"expected a count >= {least}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    return _count(text, 0)


def _positive_int(text: str) -> int:
    return _count(text, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench-cli",
        description="Learn and evaluate probabilistic circuits on tabular benchmarks.",
    )
    parser.add_argument("--data-dir", default="datasets", help="dataset directory")
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="worker threads of grid (default 1)")
    parser.add_argument("--out", default=None, help="output path of grid and sample")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("learn", parents=[_learning_flags()],
                        help="train one circuit and report likelihoods")
    sp.add_argument("--out-model", default=None)
    sp.set_defaults(func=cmd_learn)

    sp = sub.add_parser("grid", parents=[_learning_flags(grid=True)],
                        help="hyperparameter grid with repetitions")
    sp.add_argument("--reps", type=_positive_int, default=9)
    sp.add_argument("--force", action="store_true",
                    help="recompute cells already present in the results file")
    sp.set_defaults(func=cmd_grid)

    sp = sub.add_parser("eval", help="evaluate a model file on a dataset")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sample", help="draw samples from a model file")
    sp.add_argument("--model", required=True)
    sp.add_argument("--n", type=_non_negative_int, required=True)
    # SUPPRESS: unset here, the global --out given before the subcommand stands
    sp.add_argument("--out", default=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("synthetic-quality", parents=[_learning_flags()],
                        help="train, sample, retrain on the samples, compare test LL")
    sp.add_argument("--reps", type=_positive_int, default=3)
    sp.set_defaults(func=cmd_synthetic_quality)

    sp = sub.add_parser("toy-example", help="reproduce the bad-split toy experiment")
    sp.add_argument("--n", type=_positive_int, default=1000, help="points per mixture component")
    sp.add_argument("--adversarial", action="store_true")
    sp.add_argument("--clusterer", choices=CLUSTERERS, default="em")
    sp.add_argument("--out-dir", default="toy-out")
    sp.set_defaults(func=cmd_toy_example)

    sp = sub.add_parser("validate-model", help="check a model file's structural validity")
    sp.add_argument("--model", required=True)
    sp.set_defaults(func=cmd_validate_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None and args.command not in _OUT_COMMANDS:
            raise UsageError(f"--out is read only by {' and '.join(_OUT_COMMANDS)}, "
                             f"not by {args.command}")
        if args.threads is not None and args.command != "grid":
            raise UsageError(f"--threads is read only by grid, not by {args.command}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # an OSError names the file that could not be read or written
    except (DataError, ModelParseError, InvalidCircuitError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
