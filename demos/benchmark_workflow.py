"""
The benchmark workflow, end to end, on a generated dataset
==========================================================

Writes a small discrete dataset in the benchmark file format
(<name>.{train,valid,test}.data, comma-separated integers) into a temporary
directory, learns circuits with both the hard and the soft learner through
the same code paths the bench-cli uses, and compares held-out likelihoods.
Then it runs two bench-cli commands in that directory; the directory and
everything in it are removed at the end.  Point --data-dir at a directory
containing the canonical benchmark files to reproduce the real experiments
(see README.md).

Run:  python3 demos/benchmark_workflow.py
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from softpc import Hyperparams, WeightedDataset, learn_spn, soft_learn
from softpc.cli import main
from softpc.datasets import load_discrete

# ----------------------------------------------------------------------
# generate a 6-variable binary dataset with two independent latent blocks
rng = np.random.default_rng(42)


def rows(n):
    a = rng.integers(0, 2, size=n)
    b = rng.integers(0, 2, size=n)
    noise = lambda z: (z + (rng.random(n) < 0.08)) % 2  # noqa: E731
    return np.column_stack([a, noise(a), noise(a), b, noise(b), noise(b)])


def demo(data_dir: Path):
    for part, n in (("train", 2000), ("valid", 300), ("test", 500)):
        path = data_dir / f"twoblock.{part}.data"
        path.write_text("\n".join(",".join(map(str, r)) for r in rows(n)) + "\n")

    bundle = load_discrete("twoblock", data_dir)
    print("schema:", [v.arity for v in bundle.schema], "train rows:", len(bundle.train))

    # ------------------------------------------------------------------
    # learn with both methods and evaluate per-row test log-likelihood
    train = WeightedDataset(bundle.train, None, bundle.schema)
    for name, fn in (("learnspn", learn_spn), ("softlearn", soft_learn)):
        hp = Hyperparams(p_threshold=0.01, alpha=0.01, clusterer="em", seed=0)
        circuit, trace = fn(train, hp)
        ll_valid = float(np.mean(circuit.log_density(bundle.valid)))
        ll_test = float(np.mean(circuit.log_density(bundle.test)))
        print(f"{name:9s}  nodes={circuit.n_nodes:4d}  steps={len(trace.steps):4d}  "
              f"valid LL={ll_valid:.4f}  test LL={ll_test:.4f}")

    # ------------------------------------------------------------------
    # the same data through the command line front end, run in the data
    # directory so that the grid's --out table lands there too
    for argv in (
        ["--data-dir", ".", "--seed", "0", "learn", "--data", "twoblock", "--method", "softlearn"],
        ["--data-dir", ".", "--seed", "0", "--out", "results.tsv",
         "grid", "--data", "twoblock", "--method", "softlearn", "--reps", "1"],
    ):
        print("\n$ bench-cli " + " ".join(argv))
        code = main(argv)
        if code:
            raise SystemExit(code)


with tempfile.TemporaryDirectory(prefix="softpc-demo-") as tmp:
    home = os.getcwd()
    os.chdir(tmp)
    try:
        demo(Path(tmp))
    finally:
        os.chdir(home)
