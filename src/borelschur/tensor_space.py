"""Classical realization of the Schur algebra on tensor space.

Operators act on the r-fold tensor power of the natural n-dimensional
module, with basis indexed by multi-indices.  The orbit sums xi_{i,j}
(one elementary matrix per distinct simultaneous rearrangement of the
pair) give the classical basis, and an operator lies in their span iff
it is constant on each orbit, read by counting each orbit's entries
against its size without listing it; divided powers act by choosing the
positions to raise.  This is the ground truth the arrow construction is
checked against: the isomorphism sends a kept arrow (m, mu) to the
operator of m cut down to the weight space of mu.  The span is closed
under composition and every orbit meets the sorted index of its
column weight, so a product of operators in the span is read off one
column per weight without being composed (Green, LNM 830, section 2.3).
"""

from collections import Counter
from itertools import combinations, product as iproduct

from .arrows import BorelAlgebra
from .fields import serialize_scalar as _ser
from .combinatorics import matrix_to_pair, orbit_of_pair, orbit_size, weight
from .linalg import Echelon, add_scaled, matrix_rank

TENSOR_DIMENSION_CAP = 300_000


def check_tensor_dimension(n, r):
    """Refuse a tensor space of dimension n^r over TENSOR_DIMENSION_CAP.

    For n >= 2 the power passes the cap once r reaches the cap's bit
    length, so a large r is refused without computing n^r.  At n = 1
    the one index is an r-tuple, so r itself is held to the cap.
    """
    if n == 1 and r > TENSOR_DIMENSION_CAP:
        raise ValueError(
            f"tensor index length {r} exceeds the supported cap "
            f"{TENSOR_DIMENSION_CAP}")
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
        self._divided_powers = {}

    # operators are {column: {row: scalar}} with integer positions

    def compose(self, a, b):
        """Operator product a . b (b applied first)."""
        return {q: col for q, colb in b.items()
                if (col := self._apply(a, colb))}

    def _apply(self, a, col):
        """The column a(col) of a . b, for a column col of b."""
        field = self.field
        acc = {}
        for p, c in col.items():
            cola = a.get(p)
            if cola:
                add_scaled(acc, cola, c, field)
        return acc

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

    def operator_to_orbits(self, op):
        """Coefficients over the xi basis; raises if op is outside the span.

        Each stored entry is keyed by its orbit, and must be nonzero and
        equal to the first entry of its orbit.  The entries sit at
        distinct positions, so an orbit whose entry count is its size,
        `orbit_size` = r!/prod K_st!, is held at every position.  The
        orbits partition the positions and xi_O is 1 on O, so op = sum
        c_O xi_O iff this holds; no orbit is walked.
        """
        indices = self.indices
        coeffs = {}
        count = Counter()
        for q, col in op.items():
            j = indices[q]
            for p, c in col.items():
                key = self.orbit_key(indices[p], j)
                if not c or coeffs.setdefault(key, c) != c:
                    raise ValueError(
                        "operator is not in the span of the xi basis")
                count[key] += 1
        if any(n != orbit_size(key) for key, n in count.items()):
            raise ValueError("operator is not in the span of the xi basis")
        return coeffs

    def product_orbits(self, ops):
        """Xi coordinates of x . y, keyed (a, b) in row-major order, for
        the pairs x = ops[a], y = ops[b] whose supports meet; every op
        must lie in the xi span.

        The span, End_{KS_r}, is closed under composition, so x . y lies
        in it, and every orbit of pairs (i, j) has a member whose j is
        sorted, the least index of its weight.  So x . y is read off one
        column q of y per weight, the sorted one, as x(y(e_q)) from the
        stored columns of x, each entry keyed by its orbit; an orbit
        whose entries in that column differ is refused.  Both supports
        are S_r-stable, so they meet iff a row of y in a read column is
        a column of x, and the x's are looked up by those rows.  No
        operator is composed and no orbit of a product is walked.
        """
        indices = self.indices
        orbit_key = self.orbit_key
        least = {ks[0] for ks in self._by_weight.values()}
        owners = {}
        for a, x in enumerate(ops):
            for q in x:
                owners.setdefault(q, []).append(a)
        out = {}
        for b, y in enumerate(ops):
            read = [(q, y[q]) for q in y if q in least]
            for a in {a for _, col in read for p in col
                      for a in owners.get(p, ())}:
                x = ops[a]
                coeffs = out[a, b] = {}
                for q, col in read:
                    j = indices[q]
                    for p, c in self._apply(x, col).items():
                        if coeffs.setdefault(orbit_key(indices[p], j), c) != c:
                            raise ValueError(
                                "product is not constant on an orbit")
        return dict(sorted(out.items()))


def _numbered(vecs):
    """The vectors with their orbit keys numbered 0, 1, ... as first met:
    `Echelon` indices must be ints over some fields, and numbering the
    keys changes no rank and no kernel."""
    number = {}
    return [{number.setdefault(key, len(number)): c for key, c in v.items()}
            for v in vecs]


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
        # the span test on the images that product_orbits relies on
        images = [action.operator_to_orbits(op) for op in ops]
    else:
        raise ValueError(f"unknown basis {basis!r}")
    dim = len(ops)
    meeting = action.product_orbits(ops)
    products = [meeting.get(ab, {}) for ab in iproduct(range(dim), repeat=2)]
    if basis == "orbit":
        expressed = [{key_to_index[key]: c for key, c in coeffs.items()}
                     for coeffs in products]
    else:
        # with the images independent, each product column depends on the
        # image columns before it: its kernel vector is e_j minus its
        # expression over them
        kernel = Echelon(field).insert_columns(_numbered(images + products))
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

    Each pair probes the drop-rule product once.  The images pass the
    full span test, so each product of a pair whose supports meet is
    read at one column per weight (`TensorAction.product_orbits`); any
    other pair is zero and is compared only when its drop-rule product
    is not.  The cost is one orbit key per stored image entry, each
    orbit's entries counted against its size r!/prod K_st! as a product
    of binomials with no orbit walked, and one column of each product.
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
    images = [action.based_operator(m, mu, borel.alg) for m, mu in borel.arrows]
    image_orbits = [action.operator_to_orbits(op) for op in images]
    # there are borel.dim images: full rank is independence
    report["rank"] = matrix_rank(_numbered(image_orbits), field)
    report["independent"] = report["dim_match"] = (
        report["rank"] == borel.dim)

    report["triangular"] = all(p <= q for orb in image_orbits
                               for key in orb for p, q in key)

    lhs_of = action.product_orbits(images).get
    product_terms = borel.product_terms
    zero = {}
    mismatches = 0
    for ab in iproduct(range(borel.dim), repeat=2):
        terms = product_terms(*ab)
        lhs = lhs_of(ab, zero)
        if not (lhs or terms):
            continue
        rhs = {}
        for k, c in terms:
            add_scaled(rhs, image_orbits[k], c, field)
        if lhs != rhs:
            mismatches += 1
            if len(report["mismatches"]) < 10:
                report["mismatches"].append(ab)
    report["mismatch_count"] = mismatches
    report["passed"] = (report["independent"] and report["triangular"]
                        and mismatches == 0)
    return report
