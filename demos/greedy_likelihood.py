"""
The learners as greedy likelihood maximizers
============================================

Cap a learn after any step, fitting every open subproblem fully
factorized, and the result is a valid circuit.  This demo learns a small
generated binary set with both learners and prints the train
log-likelihood of the capped circuit after every sum step: each split
refines one subproblem, and the capped likelihood moves from the fully
factorized fit to the learned circuit's.

Run:  python3 demos/greedy_likelihood.py
"""

import numpy as np

from softpc import Hyperparams, Schema, WeightedDataset, learn_spn, soft_learn
from softpc.learner import capped_ll_trace, factorized_circuit

# 600 rows over 8 binary variables from a three-component mixture
rng = np.random.default_rng(0)
component = rng.integers(0, 3, size=600)
probs = np.where(rng.random((3, 8)) < 0.5, 0.15, 0.85)
matrix = (rng.random((600, 8)) < probs[component]).astype(float)
data = WeightedDataset(matrix, None, Schema.binary(8))
hp = Hyperparams(clusterer="kmeans")

start = factorized_circuit(data, hp).log_density(matrix).mean()
for name, learn, soft in (("learn_spn", learn_spn, False), ("soft_learn", soft_learn, True)):
    circuit, trace = learn(data, hp)
    lls = capped_ll_trace(data, hp, soft)
    print(f"\n== {name}: {len(trace.steps)} steps, {circuit.n_nodes} nodes ==")
    print(f"  fully factorized        train LL {start:.4f}")
    for i, (step, ll) in enumerate(zip(trace.steps, lls), start=1):
        if step.step_kind == "sum":
            print(f"  step {i:3d}  sum, mass {step.effective_mass:6.1f}  train LL {ll:.4f}")
    print(f"  learned circuit         train LL {circuit.log_density(matrix).mean():.4f}")
