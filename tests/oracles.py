"""Test oracles: reference computations that no command runs.

Marginal matrices of ordered pairs (criterion 4) and of kept arrows,
products and column factors of divided-power elements, and the Euler
characteristics of a transported complex (criterion 7).
"""

from borelschur.divided_powers import Monomial
from borelschur.linalg import add_scaled


def pair_to_matrix(i, j, n):
    """Upper-triangular position-count matrix of a componentwise-ordered pair."""
    if len(i) != len(j):
        raise ValueError("multi-index length mismatch")
    k = [[0] * n for _ in range(n)]
    for a, b in zip(i, j):
        if a > b:
            raise ValueError(f"pair not ordered: {a} > {b}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError("multi-index entry out of range")
        k[a - 1][b - 1] += 1
    return tuple(tuple(row) for row in k)


def arrow_to_matrix(alg, arrow):
    """Completed marginal matrix of a kept arrow."""
    m, mu = arrow
    n = alg.n
    K = [[0] * n for _ in range(n)]
    for (i, j), a in alg.pair_index.items():
        K[i - 1][j - 1] = m.exps[a]
    for j in range(1, n + 1):
        K[j - 1][j - 1] = mu[j - 1] - sum(K[i][j - 1] for i in range(j - 1))
    return tuple(tuple(row) for row in K)


def multiply(alg, x, y, field):
    """Bilinear product of divided-power elements (dicts Monomial -> scalar)."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            add_scaled(out, alg.monomial_product(m1, m2, field),
                       field.mul(c1, c2), field)
    return out


def column_factors(alg, m):
    """Single-column factors of m for columns n, n-1, ..., 2; concatenated
    in this order they reproduce m."""
    return [Monomial(alg.n, [k if alg.pairs[a][1] == j else 0
                             for a, k in enumerate(m.exps)])
            for j in range(alg.n, 1, -1)]


def euler_ok(complex_):
    """Per head weight, the alternating sum of slice dimensions must see
    exactly the one-dimensional module at lam."""
    algebra = complex_.algebra
    for mu in set(algebra.heads):
        total = sum((-1) ** i * len(algebra.between(w, mu))
                    for i, ws in enumerate(complex_.weights) for w in ws)
        if total != (mu == complex_.lam):
            return False
    return True
