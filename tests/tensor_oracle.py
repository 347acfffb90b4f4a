"""Test oracles on tensor space: operators the library does not build.

Each function takes a `TensorAction` and uses only its public operator
calls, so it checks the library from outside: the identity, a matrix
unit, linear combinations, a vector's image, the operator of a whole
monomial composed factor by factor, the r-fold tensor power of a
matrix, products in xi coordinates, the xi coordinates of every
product of a list of operators composed one pair at a time without any
skipping, and xi coordinates read by keying every entry of an operator
and rebuilding the operator from them to check it lies in the span.
An orbit key names its orbit by its sorted pair, `canonical_pair`.
"""

from itertools import product as iproduct

from borelschur.linalg import add_scaled


def identity(act):
    one = act.field.one
    return {k: {k: one} for k in range(len(act.indices))}


def elementary(act, i, j):
    """Matrix unit sending the basis tensor at j to the one at i."""
    return {act.position[tuple(j)]: {act.position[tuple(i)]: act.field.one}}


def combination(act, terms):
    """The operator sum of c * op over the pairs (c, op) in terms."""
    out = {}
    for c, op in terms:
        for q, col in op.items():
            add_scaled(out.setdefault(q, {}), col, c, act.field)
    return {q: col for q, col in out.items() if col}


def equal(a, b):
    """Whether two operators hold the same entries, an empty column
    counting as no column."""
    keys = set(a) | set(b)
    return all(a.get(k, {}) == b.get(k, {}) for k in keys)


def canonical_pair(key):
    """The pair (i, j) of multi-indices read off an orbit key in order."""
    return tuple(p for p, _ in key), tuple(q for _, q in key)


def orbits_to_operator(act, coeffs):
    """The operator sum of c * xi over the orbit keys and scalars in coeffs."""
    op = {}
    for key, c in coeffs.items():
        for q, col in act.xi(*canonical_pair(key)).items():
            add_scaled(op.setdefault(q, {}), col, c, act.field)
    return {q: col for q, col in op.items() if col}


def schur_multiply(act, x, y):
    """Product in xi coordinates via operator composition."""
    return act.operator_to_orbits(
        act.compose(orbits_to_operator(act, x), orbits_to_operator(act, y)))


def apply(act, op, vec):
    """Image of the vector {position: scalar} under op."""
    out = {}
    for q, c in vec.items():
        add_scaled(out, op.get(q, {}), c, act.field)
    return out


def monomial_operator(act, m, alg):
    """Operator of a canonical monomial: compose factors left to right."""
    op = identity(act)
    for a in alg.written_order:
        k = m[a]
        if not k:
            continue
        i, j = alg.pairs[a]
        op = act.compose(op, act.divided_power(i, j, k))
    return op


def group_operator(act, g):
    """r-fold tensor power of an invertible matrix g (rows/cols 0-based)."""
    field = act.field
    n = act.n
    op = {}
    col_choices = [
        [i for i in range(n) if g[i][j] != field.zero] for j in range(n)
    ]
    for q, idx in enumerate(act.indices):
        col = {}
        for rows in iproduct(*(col_choices[x - 1] for x in idx)):
            c = field.one
            for row, x in zip(rows, idx):
                c = field.of(c * g[row][x - 1])
            p = act.position[tuple(t + 1 for t in rows)]
            add_scaled(col, {p: c}, field.one, field)
        if col:
            op[q] = col
    return op


def composed_product_orbits(act, ops):
    """Xi coordinates of x . y for every x, y in ops, row-major, each pair
    composed whatever its supports."""
    return [act.operator_to_orbits(act.compose(x, y)) for x in ops for y in ops]


def keyed_operator_to_orbits(act, op):
    """Xi coordinates of op, keying the orbit of every nonzero entry and
    reading each new orbit's coefficient at its canonical position."""
    coeffs = {}
    for q, col in op.items():
        for p in col:
            key = act.orbit_key(act.indices[p], act.indices[q])
            if key not in coeffs:
                ci, cj = canonical_pair(key)
                coeffs[key] = op.get(act.position[cj], {}).get(
                    act.position[ci], act.field.zero)
    coeffs = {key: c for key, c in coeffs.items() if c != act.field.zero}
    if not equal(orbits_to_operator(act, coeffs), op):
        raise ValueError("operator is not in the span of the xi basis")
    return coeffs
