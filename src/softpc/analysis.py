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
from .clustering import check_membership
from .learner import Hyperparams, WeightedDataset, _assemble, _root, _split, _steps


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
    return _assemble(_root(data), data.matrix, data.schema, hp.alpha)


def split_circuit(data: WeightedDataset, membership, hp: Hyperparams) -> Circuit:
    """The cap after a single root split, taken by the learner's sum rule: a
    sum node whose children are factorized fits under the
    membership-reweighted data.  A split the learner would not take (fewer
    than two clusters left after dropping, or one holding the whole mass)
    gives ``factorized_circuit``.

    ``membership`` is an (n, K) matrix of nonnegative rows summing to 1
    (``ValueError`` otherwise, from ``clustering.check_membership``);
    one-hot rows reproduce a hard split.
    """
    root = _root(data)
    _split(root, check_membership(membership, data.matrix.shape[0]))
    return _assemble(root, data.matrix, data.schema, hp.alpha)

