"""Classical realization of the Schur algebra on tensor space.

Operators act on the r-fold tensor power of the natural n-dimensional
module, with basis indexed by multi-indices.  The orbit sums xi_{i,j}
(one elementary matrix per distinct simultaneous rearrangement of the
pair) give the classical basis; divided powers act by choosing the
positions to raise.  This is the ground truth the arrow construction is
checked against: the isomorphism sends a kept arrow (m, mu) to the
operator of m cut down to the weight space of mu.
"""

from itertools import combinations, product as iproduct

from .arrows import BorelAlgebra
from .fields import serialize_scalar as _ser
from .combinatorics import matrix_to_pair, orbit_of_pair, weight
from .linalg import Echelon, add_scaled

TENSOR_DIMENSION_CAP = 300_000


def check_tensor_dimension(n, r):
    """Refuse a tensor space of dimension n^r over TENSOR_DIMENSION_CAP.

    For n >= 2 the power passes the cap once r reaches the cap's bit
    length, so a large r is refused without computing n^r.
    """
    if n > 1 and (r >= TENSOR_DIMENSION_CAP.bit_length()
                  or n ** r > TENSOR_DIMENSION_CAP):
        raise ValueError(
            f"tensor space dimension {n}^{r} exceeds the supported cap "
            f"{TENSOR_DIMENSION_CAP}")


class TensorAction:
    """Sparse exact operators on the r-fold tensor power, basis I(n, r)."""

    def __init__(self, n, r, field):
        check_tensor_dimension(n, r)
        self.n = n
        self.r = r
        self.field = field
        self.indices = sorted(iproduct(range(1, n + 1), repeat=r))
        self.position = {idx: k for k, idx in enumerate(self.indices)}
        self._by_weight = {}
        for k, idx in enumerate(self.indices):
            self._by_weight.setdefault(weight(idx, n), []).append(k)
        self._orbit_sums = {}
        self._divided_powers = {}

    # operators are {column: {row: scalar}} with integer positions

    def compose(self, a, b):
        """Operator product a . b (b applied first)."""
        field = self.field
        out = {}
        for q, colb in b.items():
            acc = {}
            for p, c in colb.items():
                cola = a.get(p)
                if cola:
                    add_scaled(acc, cola, c, field)
            if acc:
                out[q] = acc
        return out

    def equal(self, a, b):
        keys = set(a) | set(b)
        return all(a.get(k, {}) == b.get(k, {}) for k in keys)

    # -- basis operators -------------------------------------------------

    def xi(self, i, j):
        """Orbit sum of matrix units, each distinct rearranged pair once."""
        op = {}
        one = self.field.one
        for a, b in orbit_of_pair(tuple(i), tuple(j)):
            op.setdefault(self.position[b], {})[self.position[a]] = one
        return op

    def weight_projector(self, lam):
        one = self.field.one
        return {k: {k: one} for k in self._by_weight.get(tuple(lam), ())}

    def divided_power(self, i, j, k):
        """Action of e_ij^(k): raise j to i at every k-subset of positions.

        Built once per action; the operator is shared, so callers must not
        mutate it."""
        if i == j:
            raise ValueError("divided powers need i < j")
        op = self._divided_powers.get((i, j, k))
        if op is not None:
            return op
        one = self.field.one
        op = self._divided_powers[i, j, k] = {}
        for q, idx in enumerate(self.indices):
            spots = [t for t, x in enumerate(idx) if x == j]
            if len(spots) < k:
                continue
            col = {}
            for chosen in combinations(spots, k):
                lifted = list(idx)
                for t in chosen:
                    lifted[t] = i
                col[self.position[tuple(lifted)]] = one
            op[q] = col
        return op

    def based_operator(self, m, mu, alg):
        """Image of the arrow (m, mu): the monomial operator of m on the
        weight space of mu, built from the projector outward by composing
        the divided powers on the left in reverse written order, so only
        weight-mu columns are ever carried."""
        if any(x < 0 for x in mu):
            return {}
        op = self.weight_projector(mu)
        for a in reversed(alg.written_order):
            k = m[a]
            if k:
                op = self.compose(self.divided_power(*alg.pairs[a], k), op)
        return op

    # -- xi coordinates ---------------------------------------------------

    def orbit_key(self, i, j):
        return tuple(sorted(zip(i, j)))

    def canonical_pair(self, key):
        i = tuple(p for p, _ in key)
        j = tuple(q for _, q in key)
        return i, j

    def operator_to_orbits(self, op):
        """Coefficients over the xi basis; raises if op is outside the span.

        Reads each coefficient off the canonical matrix position of its
        orbit, then reconstructs and compares.  Meeting an orbit marks
        every position of its support, so each orbit is keyed once.
        """
        coeffs = {}
        marked = set()
        for q, col in op.items():
            j = self.indices[q]
            for p in col:
                if (p, q) in marked:
                    continue
                key = self.orbit_key(self.indices[p], j)
                marked.update((pp, qq) for qq, orbit_col
                              in self.orbit_sum(key).items() for pp in orbit_col)
                ci, cj = self.canonical_pair(key)
                c = op.get(self.position[cj], {}).get(self.position[ci],
                                                      self.field.zero)
                if c != self.field.zero:
                    coeffs[key] = c
        if not self.equal(self.orbits_to_operator(coeffs), op):
            raise ValueError("operator is not in the span of the xi basis")
        return coeffs

    def orbit_sum(self, key):
        """xi of the orbit with this key, built once per action; the
        operator is shared, so callers must not mutate it."""
        op = self._orbit_sums.get(key)
        if op is None:
            op = self._orbit_sums[key] = self.xi(*self.canonical_pair(key))
        return op

    def orbits_to_operator(self, coeffs):
        op = {}
        for key, c in coeffs.items():
            for q, col in self.orbit_sum(key).items():
                add_scaled(op.setdefault(q, {}), col, c, self.field)
        return {q: col for q, col in op.items() if col}

    def product_orbits(self, ops):
        """Xi coordinates of x . y for every x, y in ops, row-major.

        compose(x, y) meets an entry only where a row of y is a column of
        x, so a pair whose supports miss is zero and is not composed.
        """
        cols = [set(op) for op in ops]
        rows = [set().union(*op.values()) for op in ops]
        for x, x_cols in zip(ops, cols):
            for y, y_rows in zip(ops, rows):
                if y_rows.isdisjoint(x_cols):
                    yield {}
                else:
                    yield self.operator_to_orbits(self.compose(x, y))


def upper_table_json(n, r, field, basis="image"):
    """Multiplication table of the upper triangular part on tensor space,
    in the arrow-algebra JSON schema so the two exports can be diffed.

    basis="image" uses the operators the isomorphism lands on (cut-down
    monomial actions); its table must coincide verbatim with the arrow
    table.  basis="orbit" tabulates the classical orbit-sum basis, keyed
    through the same marginal matrices.
    """
    borel = BorelAlgebra(n, r, field)
    action = TensorAction(n, r, field)
    if basis == "orbit":
        pairs = [matrix_to_pair(K) for K in borel.matrices]
        ops = [action.xi(i, j) for i, j in pairs]
        key_to_index = {action.orbit_key(i, j): k for k, (i, j) in enumerate(pairs)}
    elif basis == "image":
        ops = [action.based_operator(m, mu, borel.alg) for m, mu in borel.arrows]
    else:
        raise ValueError(f"unknown basis {basis!r}")
    products = list(action.product_orbits(ops))
    dim = len(ops)
    if basis == "orbit":
        expressed = [{key_to_index[key]: c for key, c in coeffs.items()}
                     for coeffs in products]
    else:
        # with the images independent, each product column depends on the
        # image columns before it: its kernel vector is e_j minus its
        # expression over them
        images = [action.operator_to_orbits(op) for op in ops]
        kernel = Echelon(field).insert_columns(images + products)
        if any(max(v) < dim for v in kernel):
            raise ValueError("image operators are linearly dependent")
        if len(kernel) != len(products):
            raise ValueError("product left the image span")
        expressed = [{k: field.of(-c) for k, c in v.items() if k < dim}
                     for v in kernel]
    triples = []
    for ab, coeffs in enumerate(expressed):
        for k, c in sorted(coeffs.items()):
            triples.append([*divmod(ab, dim), k, _ser(c)])
    payload = borel.to_json()
    payload["products"] = triples
    payload["table_basis"] = basis
    return payload


def verify_isomorphism(n, r, field, borel=None):
    """Check the arrow realization against the tensor-space construction.

    Maps every kept arrow to its based operator, expresses the images in
    the xi basis, and requires (a) linear independence, (b) the dimension
    of the marginal-matrix count, (c) structure constants matching the
    drop-rule products on every basis pair.

    Each pair multiplies the two image operators it already holds and
    reads the product back in xi coordinates, reconstructing it to check
    it lies in the span; a pair whose supports miss has the zero product
    and is not composed, but is still compared.  The cost is one sparse
    composition per pair whose supports meet, and one xi per distinct
    orbit, built from its r!/prod K_st! distinct arrangements, not r!.
    """
    if borel is None:
        borel = BorelAlgebra(n, r, field)
    action = TensorAction(n, r, field)
    report = {
        "n": n,
        "r": r,
        "char": field.characteristic,
        "dim": borel.dim,
        "mismatches": [],
    }
    images = []
    image_orbits = []
    for m, mu in borel.arrows:
        op = action.based_operator(m, mu, borel.alg)
        images.append(op)
        image_orbits.append(action.operator_to_orbits(op))

    ech = Echelon(field)
    independent = True
    for orb in image_orbits:
        if ech.insert(dict(orb)) is None:
            independent = False
    report["independent"] = independent
    report["rank"] = ech.rank
    report["dim_match"] = (ech.rank == borel.dim)

    ordered = all(
        all(p <= q for p, q in key)
        for orb in image_orbits for key in orb
    )
    report["triangular"] = ordered

    mismatches = 0
    for ab, lhs in enumerate(action.product_orbits(images)):
        a, b = divmod(ab, borel.dim)
        rhs = {}
        for k, c in borel.product_indices(a, b).items():
            add_scaled(rhs, image_orbits[k], c, field)
        if lhs != rhs:
            mismatches += 1
            if len(report["mismatches"]) < 10:
                report["mismatches"].append((a, b))
    report["mismatch_count"] = mismatches
    report["passed"] = (independent and report["dim_match"]
                        and report["triangular"] and mismatches == 0)
    return report
