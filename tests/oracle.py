"""Slow reference implementations that the fast paths of grit are checked against.

Each reference is written from the docstring of the code it checks, one
element at a time, and imports nothing it checks.
"""

from __future__ import annotations

import math

import numpy as np

from grit.features import BOOLEAN_FEATURES
from grit.tree import DecisionRule, TreeNode, edge_weights, node_likelihood

GAIN_TOL = 1e-12


def _entropy_bits(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _vec_entropy(p):
    q = 1.0 - p
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    pi = p[interior]
    qi = q[interior]
    out[interior] = -(pi * np.log2(pi) + qi * np.log2(qi))
    return out


def best_split_per_column(X, y, idx, w_pos, w_neg):
    """(column, threshold, gain) of the best split of the rows idx of X, or None.

    X is samples × features. Each column is sorted and scored on its own;
    a later column must beat the best so far by a strictly larger gain,
    the first maximum within a column wins, and a gain that is not finite
    or not above GAIN_TOL never splits.
    """
    ys = y[idx]
    pos_here = int(ys.sum())
    neg_here = idx.size - pos_here
    parent_mass = w_pos * pos_here + w_neg * neg_here
    if parent_mass <= 0:
        return None
    parent_h = _entropy_bits(w_pos * pos_here / parent_mass)
    best = None
    for j in range(X.shape[1]):
        col = X[idx, j]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ls = ys[order]
        cuts = np.nonzero(xs[:-1] < xs[1:])[0]
        if cuts.size == 0:
            continue
        cum_pos = np.cumsum(ls)
        pos_l = cum_pos[cuts].astype(float)
        n_l = (cuts + 1).astype(float)
        neg_l = n_l - pos_l
        pos_r = pos_here - pos_l
        neg_r = neg_here - neg_l
        m_l = w_pos * pos_l + w_neg * neg_l
        m_r = w_pos * pos_r + w_neg * neg_r
        h_l = _vec_entropy(w_pos * pos_l / m_l)
        h_r = _vec_entropy(w_pos * pos_r / m_r)
        gains = parent_h - (m_l * h_l + m_r * h_r) / parent_mass
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if not math.isfinite(gain) or gain <= GAIN_TOL:
            continue
        if best is None or gain > best[2]:
            thr = float((xs[cuts[k]] + xs[cuts[k] + 1]) / 2.0)
            best = (j, thr, gain)
    return best


def fit_tree_reference(rows, labels, max_depth, alpha, min_samples_split):
    """The tree fit_tree grows, split by best_split_per_column, and beside it
    the entry fit_tree makes in training.TREE_COUNTS.

    Rows are imputed feature maps sharing one key set; columns are the
    sorted keys. Node likelihoods, edge weights and the training
    bookkeeping follow the docstrings of fit_tree and TreeCounts.
    """
    names = sorted(rows[0])
    X = np.array([[float(row[name]) for name in names] for row in rows], dtype=float)
    y = np.asarray(labels, dtype=bool)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    total_mass = y.size + 2.0 * alpha
    w_pos = total_mass / (n_pos + alpha)
    w_neg = total_mass / (n_neg + alpha)
    counts = []

    def grow(idx, depth, parent_l):
        pos_here = int(y[idx].sum())
        neg_here = idx.size - pos_here
        counts.append((pos_here, neg_here))
        likelihood = node_likelihood(pos_here, neg_here, n_pos, n_neg, alpha, parent_l)
        found = None
        if depth < max_depth and idx.size >= min_samples_split:
            found = best_split_per_column(X, y, idx, w_pos, w_neg)
        if found is None:
            return TreeNode(likelihood)
        j, thr, _ = found
        if names[j] in BOOLEAN_FEATURES:
            rule = DecisionRule(names[j], "boolean")
            true_mask = X[idx, j] >= thr
        else:
            rule = DecisionRule(names[j], "threshold", thr)
            true_mask = X[idx, j] < thr
        true_child = grow(idx[true_mask], depth + 1, likelihood)
        false_child = grow(idx[~true_mask], depth + 1, likelihood)
        true_weight, false_weight = edge_weights(
            likelihood, true_child.likelihood, false_child.likelihood
        )
        return TreeNode(likelihood, rule, true_child, false_child, true_weight, false_weight)

    tree = grow(np.arange(y.size), 0, 0.5)
    return tree, ((w_pos, w_neg), tuple(counts))
