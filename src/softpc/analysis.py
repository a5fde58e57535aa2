"""Capped circuits: the learners' greedy likelihood behaviour, step by step.

The paper's first claim is that LearnSPN (Gens & Domingos, ICML 2013) is a
greedy likelihood maximizer.  Capping a learn after any step, with every
open subproblem fitted fully factorized on its rows and weights, gives a
valid circuit; ``capped_ll_trace`` reports its train log-likelihood after
every step.  ``factorized_circuit`` is the cap before the first step and
``split_circuit`` the cap after one given root split.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit
from .learner import (Hyperparams, WeightedDataset, _assemble, _check_membership,
                      _split_children, _steps, _Sub)


def capped_ll_trace(data: WeightedDataset, hp: Hyperparams, soft: bool, first_split=None) -> list:
    """Mean train log-likelihood of the circuit capped after each step of
    ``learn_spn`` (``soft=False``) or ``soft_learn`` (``soft=True``), one
    value per ``StepRecord``; the last is the learned circuit's."""
    return [
        float(np.mean(_assemble(root, data.matrix, data.schema, hp.alpha).log_density(data.matrix)))
        for root, _ in _steps(data, hp, soft, first_split)
    ]


def factorized_circuit(data: WeightedDataset, hp: Hyperparams) -> Circuit:
    """Fully factorized circuit over all variables (the cap before any step)."""
    root = _Sub(np.arange(data.matrix.shape[0]), data.row_weights, tuple(range(len(data.schema))))
    return _assemble(root, data.matrix, data.schema, hp.alpha)


def split_circuit(data: WeightedDataset, membership, hp: Hyperparams) -> Circuit:
    """The cap after a single root split: a sum node whose children are
    factorized fits under the membership-reweighted data.

    ``membership`` is an (n, K) matrix of nonnegative rows summing to 1
    (``ValueError`` otherwise); one-hot rows reproduce a hard split.
    """
    membership = _check_membership(membership, data.matrix.shape[0])
    scope = tuple(range(len(data.schema)))
    rows = np.arange(data.matrix.shape[0])
    children, kept, _ = _split_children(rows, data.row_weights, membership)
    subs = [_Sub(r, w, scope) for r, w in children]
    if len(subs) == 1:
        return _assemble(subs[0], data.matrix, data.schema, hp.alpha)
    root = _Sub(None, None, scope)
    root.children = subs
    root.sum_weights = tuple((kept / sum(kept)).tolist())
    return _assemble(root, data.matrix, data.schema, hp.alpha)


def singleton_split_membership(matrix, row) -> np.ndarray:
    """Hard membership putting all exact copies of ``matrix[row]`` in one
    cluster and every other row in the other."""
    matrix = np.asarray(matrix)
    same = np.all(matrix == matrix[row], axis=1)
    m = np.zeros((matrix.shape[0], 2))
    m[same, 0] = 1.0
    m[~same, 1] = 1.0
    if m[:, 1].sum() == 0:
        return m[:, :1]
    return m
