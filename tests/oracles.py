"""Independent test oracles, kept deliberately separate from the package code.

The LP oracle here runs Bland-rule simplex in exact rational arithmetic
(fractions.Fraction), so its optima are certified, not approximated. It is
slow and dense on purpose; tests only feed it desk-sized instances. The
transport-dual reference enumerates the full atoms x candidates matrix in
plain numpy.
"""
from fractions import Fraction

import numpy as np


def rational_simplex_max(objective, eq_lhs, eq_rhs):
    """Maximize objective . x s.t. eq_lhs x = eq_rhs, x >= 0, exactly.

    All inputs are converted to Fractions; returns (value, x) as Fractions.
    """
    c = [Fraction(v) for v in objective]
    a = [[Fraction(v) for v in row] for row in eq_lhs]
    b = [Fraction(v) for v in eq_rhs]
    m, n = len(a), len(c)
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]

    # tableau with artificial columns; phase 1 minimizes their sum
    width = n + m + 1
    tab = [row[:] + [Fraction(0)] * m + [b[i]] for i, row in enumerate(a)]
    for i in range(m):
        tab[i][n + i] = Fraction(1)
    basis = list(range(n, n + m))
    obj = [Fraction(0)] * width
    for j in range(n, n + m):
        obj[j] = Fraction(1)
    for i in range(m):
        obj = [o - t for o, t in zip(obj, tab[i])]

    def pivot(row, col):
        piv = tab[row][col]
        tab[row] = [v / piv for v in tab[row]]
        for r in range(m):
            if r != row and tab[r][col] != 0:
                factor = tab[r][col]
                tab[r] = [v - factor * w for v, w in zip(tab[r], tab[row])]
        nonlocal obj
        if obj[col] != 0:
            factor = obj[col]
            obj = [v - factor * w for v, w in zip(obj, tab[row])]
        basis[row] = col

    def run(allowed):
        while True:
            col = next((j for j in allowed if obj[j] < 0), None)
            if col is None:
                return
            best, row = None, None
            for r in range(m):
                if tab[r][col] > 0:
                    ratio = tab[r][-1] / tab[r][col]
                    if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[row]
                    ):
                        best, row = ratio, r
            if row is None:
                raise ArithmeticError("unbounded LP")
            pivot(row, col)

    run(range(n + m))
    if obj[-1] != 0:
        raise ArithmeticError(f"infeasible LP, phase-1 gap {-obj[-1]}")

    # force leftover artificials out, drop redundant rows
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j] != 0), None)
            if col is not None:
                pivot(r, col)
    keep = [r for r in range(m) if basis[r] < n]
    tab = [tab[r] for r in keep]
    basis = [basis[r] for r in keep]
    m = len(basis)

    obj = [-v for v in c] + [Fraction(0)] * (width - n)
    for r in range(m):
        if obj[basis[r]] != 0:
            factor = obj[basis[r]]
            obj = [v - factor * w for v, w in zip(obj, tab[r])]
    run(range(n))

    x = [Fraction(0)] * n
    for r, col in enumerate(basis):
        x[col] = tab[r][-1]
    return obj[-1], x


def exact_transport_value(p_weights, q_weights, cost_matrix):
    """Exact rational optimum of the transportation problem.

    Float weight vectors rarely share the exact same rational total, which
    would make the LP infeasible in exact arithmetic; the largest target
    weight absorbs the (~1e-16) discrepancy.
    """
    m, n = len(p_weights), len(q_weights)
    p_weights = [Fraction(w) for w in p_weights]
    q_weights = [Fraction(w) for w in q_weights]
    gap = sum(p_weights) - sum(q_weights)
    top = max(range(n), key=lambda j: q_weights[j])
    q_weights[top] += gap
    objective = [-Fraction(cost_matrix[i][j]) for i in range(m) for j in range(n)]
    eq, rhs = [], []
    for i in range(m):
        row = [Fraction(0)] * (m * n)
        for j in range(n):
            row[i * n + j] = Fraction(1)
        eq.append(row)
        rhs.append(Fraction(p_weights[i]))
    for j in range(n):
        row = [Fraction(0)] * (m * n)
        for i in range(m):
            row[i * n + j] = Fraction(1)
        eq.append(row)
        rhs.append(Fraction(q_weights[j]))
    value, _ = rational_simplex_max(objective, eq, rhs)
    return -value


def transport_dual_reference(weights, values, cmat, lam, epsilon, eta=None):
    """Value, slope range and curvature of the transport dual of P problems.

    Problem p has weights[p] over the atoms (rows of `cmat`), values[p] over
    the candidates (its columns) and multiplier lam[p]; the objective is
    eps * lam + sum_i w_i inner_i, inner_i the max (`eta` None) or the
    log-sum-exp against the uniform reference of values - lam * c_i. Exact:
    the slope range is eps - sum_i w_i c at the argmax, over the candidates
    that tie for the max within rounding, at its max and min; the curvature
    is 0. Smoothed: one slope, eps - sum_i w_i E_softmax[c], and the
    curvature eta * sum_i w_i Var_softmax[c], from centered terms.
    """
    z = values[:, None, :] - lam[:, None, None] * cmat
    top = z.max(axis=-1, keepdims=True)
    if eta is None:
        scale = np.abs(values).max(axis=1)[:, None, None] + 1.0
        tied = z >= top - 1e-12 * scale
        low = epsilon - np.einsum("pi,pi->p", weights, np.where(tied, cmat, -np.inf).max(axis=-1))
        high = epsilon - np.einsum("pi,pi->p", weights, np.where(tied, cmat, np.inf).min(axis=-1))
        value = epsilon * lam + np.einsum("pi,pi->p", weights, top[..., 0])
        return value, (low, high), np.zeros(len(lam))
    soft = np.exp(eta * (z - top))
    inner = top[..., 0] + np.log(soft.mean(axis=-1)) / eta
    soft /= soft.sum(axis=-1, keepdims=True)
    mean = (soft * cmat).sum(axis=-1)
    spread = (soft * (cmat - mean[..., None]) ** 2).sum(axis=-1)
    slope = epsilon - np.einsum("pi,pi->p", weights, mean)
    return (epsilon * lam + np.einsum("pi,pi->p", weights, inner), (slope, slope),
            eta * np.einsum("pi,pi->p", weights, spread))
