import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelschur.arrows import BorelAlgebra
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import PrimeField, Rationals
from borelschur.linalg import BitEchelon, Echelon, add_scaled, matrix_rank
from oracles import (column_kernel, columns, combos, free_basis, monomial,
                     picking_coordinates)


def apply_columns(cols, vec, field):
    out = {}
    for j, c in vec.items():
        for i, v in cols[j].items():
            w = field.of(out.get(i, field.zero) + c * v)
            if w == field.zero:
                out.pop(i, None)
            else:
                out[i] = w
    return out


def test_echelon_reduce_is_canonical():
    field = PrimeField(5)
    rng = random.Random(1)
    ech = Echelon(field)
    vecs = [{j: rng.randint(1, 4) for j in rng.sample(range(8), 3)}
            for _ in range(6)]
    for v in vecs:
        ech.insert(v)
    for v in vecs:
        assert ech.reduce(v) == {}
    # reduce twice gives the same answer, and the residual has no pivots
    w = {0: 1, 3: 2, 7: 4}
    r1 = ech.reduce(w)
    assert ech.reduce(r1) == r1
    assert not (set(r1) & ech.pivots)


def test_echelon_coordinates():
    field = Rationals()
    ech = Echelon(field)
    v1 = {0: field.of(1), 1: field.of(2)}
    v2 = {1: field.of(1), 2: field.of(1)}
    ech.insert(dict(v1))
    ech.insert(dict(v2))
    target = {0: field.of(2), 1: field.of(5), 2: field.of(1)}
    coords, res = ech.coordinates(target)
    assert res == {}
    rebuilt = {}
    for p, c in coords.items():
        for j, x in ech.rows[p].items():
            w = field.of(rebuilt.get(j, field.zero) + c * x)
            if w == field.zero:
                rebuilt.pop(j, None)
            else:
                rebuilt[j] = w
    assert rebuilt == target


def brute_kernel_dim(cols, nrows, p):
    """Enumerate the whole domain over GF(p): only for tiny instances."""
    field = PrimeField(p)
    count = 0
    for combo in iproduct(range(p), repeat=len(cols)):
        vec = {j: c for j, c in enumerate(combo) if c}
        if not apply_columns(cols, vec, field):
            count += 1
    # kernel size p^dim
    dim = 0
    while p ** dim < count:
        dim += 1
    assert p ** dim == count
    return dim


def test_column_kernel_against_enumeration():
    rng = random.Random(7)
    for p in (2, 3):
        field = PrimeField(p)
        for _ in range(25):
            ncols = rng.randint(1, 4)
            nrows = rng.randint(1, 4)
            cols = [{i: rng.randrange(p) for i in range(nrows)} for _ in range(ncols)]
            cols = [{i: v for i, v in col.items() if v} for col in cols]
            ker = Echelon(field).insert_columns(cols)
            for v in ker:
                assert v, "kernel vectors must be nonzero"
                assert apply_columns(cols, v, field) == {}
            assert len(ker) == brute_kernel_dim(cols, nrows, p)
            assert matrix_rank(cols, field) == ncols - len(ker)


def test_reduce_depends_only_on_the_span():
    """Reduced echelon form is canonical: the projection must not care in
    which order the spanning vectors were inserted."""
    rng = random.Random(99)
    field = PrimeField(7)
    vecs = [{j: rng.randint(1, 6) for j in rng.sample(range(10), 4)}
            for _ in range(6)]
    probes = [{j: rng.randint(1, 6) for j in rng.sample(range(10), 5)}
              for _ in range(10)]
    reference = None
    for _ in range(5):
        order = vecs[:]
        rng.shuffle(order)
        ech = Echelon(field)
        for v in order:
            ech.insert(dict(v))
        outs = [ech.reduce(p) for p in probes]
        if reference is None:
            reference = outs
        else:
            assert outs == reference


def _field_and_vectors(data, chars=(0, 2, 3, 7)):
    """A field (QQ or GF(p)) and a short list of sparse vectors over it."""
    p = data.draw(st.sampled_from(chars), label="char")
    field = Rationals() if p == 0 else PrimeField(p)
    coeff = st.integers(-4, 4).map(field.of).filter(lambda c: c != field.zero)
    vec = st.dictionaries(st.integers(0, 7), coeff, max_size=5)
    return field, data.draw(st.lists(vec, max_size=8), label="vectors")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_echelon_rows_do_not_depend_on_insert_order(data):
    """The reduced echelon form is canonical: the same vectors inserted in
    any order give identical rows and pivots, under either pivoting."""
    field, vecs = _field_and_vectors(data)
    order = data.draw(st.permutations(range(len(vecs))), label="order")
    for pivoting in ("first", "last"):
        a = Echelon(field, pivoting)
        b = Echelon(field, pivoting)
        for v in vecs:
            a.insert(v)
        for k in order:
            b.insert(vecs[k])
        assert a.rows == b.rows
        assert a.pivots == b.pivots


def _field_and_columns(data, chars=(0, 2, 3, 7)):
    """`_field_and_vectors` plus a few combinations of earlier vectors,
    so that dependent columns are common."""
    field, cols = _field_and_vectors(data, chars)
    for _ in range(data.draw(st.integers(0, 3), label="extra")):
        if not cols:
            break
        a, b = (data.draw(st.integers(0, len(cols) - 1)) for _ in range(2))
        col = dict(cols[a])
        add_scaled(col, cols[b], field.of(data.draw(st.integers(-3, 3))), field)
        cols.append(col)
    return field, cols


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_kernel_basis_is_pinned_by_the_matrix(data):
    """Each kernel vector is e_j minus the expression of column j over
    the independent columns before it, one per dependent column j."""
    field, cols = _field_and_columns(data)
    kernel = Echelon(field).insert_columns(cols)
    dependent = [max(v) for v in kernel]
    assert dependent == sorted(set(dependent))
    for v, j in zip(kernel, dependent):
        assert v[j] == field.one
        assert all(k == j or k not in v for k in dependent)
        assert apply_columns(cols, v, field) == {}
    assert len(kernel) == len(cols) - matrix_rank(cols, field)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_insert_columns_matches_the_transposed_kernel(data):
    """Under either pivoting, one pass over the columns gives the kernel
    of the reference that eliminates the transposed matrix, and the rows
    and pivots of plain inserts; each row's combination applied to the
    columns gives the row.  Without the kernel no combination is kept.
    Over GF(2) this runs on the bit kernel."""
    field, cols = _field_and_columns(data)
    reference = column_kernel(cols, field)
    for pivoting in ("first", "last"):
        plain = Echelon(field, pivoting)
        for col in cols:
            plain.insert(col)
        for kernel in (True, False):
            ech = Echelon(field, pivoting)
            if kernel:
                assert ech.insert_columns(cols) == reference
            else:
                assert ech.eliminate(map(ech._vec, cols), kernel=False) == []
            assert ech.rows == plain.rows
            assert ech.pivots == plain.pivots
            assert set(combos(ech)) == (ech.pivots if kernel else set())
            for p, combo in combos(ech).items():
                assert apply_columns(cols, combo, field) == ech.rows[p]


def test_field_constants_are_plain_attributes():
    """`zero`, `one` and `characteristic` are attributes, not properties;
    equality and hashing go by characteristic as before."""
    QQ, F7 = Rationals(), PrimeField(7)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert (QQ.zero, QQ.one, QQ.characteristic) == (0, 1, 0)
    assert (F7.zero, F7.one, F7.characteristic) == (0, 1, 7)
    for name in ("zero", "one", "characteristic"):
        assert not isinstance(getattr(Rationals, name, None), property)
        assert not isinstance(getattr(PrimeField, name, None), property)
    assert QQ == Rationals() and hash(QQ) == hash(("field", 0))
    assert F7 == PrimeField(7) and hash(F7) == hash(("field", 7))
    assert F7 != PrimeField(5) and F7 != QQ and QQ != F7


# a rational scalar: an int when integral, a reduced Fraction otherwise
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)).map(
    lambda c: c.numerator if c.denominator == 1 else c)


def is_canonical(c):
    """An int exactly when the value is integral, else a Fraction."""
    return type(c) is (int if c.denominator == 1 else Fraction)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals)
def test_rational_scalars_are_canonical(a, b):
    """Native arithmetic on canonical scalars, reduced by `Rationals.of`,
    agrees with plain `Fraction` arithmetic and gives an int exactly when
    its value is integral; so does `inv`."""
    QQ = Rationals()
    fa, fb = Fraction(a), Fraction(b)
    results = [(QQ.of(a), fa), (QQ.of(a + b), fa + fb), (QQ.of(a - b), fa - fb),
               (QQ.of(a * b), fa * fb), (QQ.of(-a), -fa)]
    if a != 0:
        results.append((QQ.inv(a), 1 / fa))
    for got, want in results:
        assert got == want and is_canonical(got)
    assert QQ.of(fa) == fa and is_canonical(QQ.of(fa))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 2, 3, 5]), st.sampled_from(["first", "last"]),
       st.data())
def test_echelon_values_stay_canonical(char, pivoting, data):
    """After `insert_columns` and `reduce`, every stored row, combination,
    kernel vector and residual holds nonzero canonical scalars: over the
    rationals, fed `Fraction`s, an int or a non-integral `Fraction`; over
    GF(p) an int in [0, p)."""
    field = Rationals() if char == 0 else PrimeField(char)
    value = rationals.filter(bool) if char == 0 else st.integers(1, char - 1)
    vectors = st.lists(st.dictionaries(st.integers(0, 7), value, max_size=5),
                       max_size=8)
    cols, probes = data.draw(vectors), data.draw(vectors)
    ech = Echelon(field, pivoting)
    kernel = ech.insert_columns(cols)
    residuals = [ech.reduce(v) for v in probes]
    for vecs in (ech.rows.values(), combos(ech).values(), kernel, residuals):
        for vec in vecs:
            for c in vec.values():
                if char == 0:
                    assert c != 0 and is_canonical(c)
                else:
                    assert type(c) is int and 0 < c < char
    for vec in kernel:
        assert apply_columns(cols, vec, field) == {}


def test_rational_results_collapse_to_ints():
    QQ, half, third = Rationals(), Fraction(1, 2), Fraction(1, 3)
    cases = [(QQ.of(half + half), 1), (QQ.of(Fraction(2, 3) * Fraction(3, 2)), 1),
             (QQ.of(third - third), 0), (QQ.inv(Fraction(1, 5)), 5),
             (QQ.inv(-1), -1), (QQ.of(Fraction(6, 3)), 2), (QQ.of(7), 7)]
    for got, want in cases:
        assert type(got) is int and got == want
    assert QQ.inv(3) == third and type(QQ.inv(3)) is Fraction


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_elimination_matches_picking(data):
    """After every insert, under either pivoting: each row is monic at its
    pivot and zero at every other pivot, and `coordinates` of every
    vector drawn so far equals the pivot-by-pivot reference,
    coefficients and residual."""
    field, vecs = _field_and_vectors(data)
    probes = vecs + data.draw(st.lists(
        st.dictionaries(st.integers(0, 9), st.integers(-4, 4).map(field.of),
                        max_size=6), max_size=4), label="probes")
    for pivoting in ("first", "last"):
        ech = Echelon(field, pivoting)
        for v in vecs:
            ech.insert(v)
            for q, row in ech.rows.items():
                assert row[q] == field.one
                assert not any(p in row for p in ech.rows if p != q)
            for probe in probes:
                assert ech.coordinates(probe) == picking_coordinates(ech, probe)


F2 = PrimeField(2)


class DictEchelon(Echelon):
    """The dict kernel on any field: `Echelon` hands GF(2) to its bit
    kernel only when it is called by its own name."""


def test_echelon_picks_its_kernel_from_the_field():
    """The bit kernel is an `Echelon` that supplies only its vector form:
    every public method and property but the vector builders `columns`
    and `units` is the shared one, elimination included."""
    assert issubclass(BitEchelon, Echelon)
    assert not vars(BitEchelon).keys() & {
        "rank", "pivots", "rows", "reduce", "contains",
        "coordinates", "insert", "insert_columns", "eliminate", "cover"}
    assert type(Echelon(F2)) is BitEchelon
    assert type(Echelon(F2, "last")) is BitEchelon
    for field in (Rationals(), PrimeField(3)):
        assert type(Echelon(field)) is Echelon
    assert type(DictEchelon(F2)) is DictEchelon
    with pytest.raises(ValueError):
        Echelon(F2, "middle")


def read_between(ech, vecs, probes):
    """Yield vecs one by one, reading `ech`'s reduced rows, combinations
    and coordinates of every probe before each."""
    for v in vecs:
        ech.rows, combos(ech), [ech.coordinates(p) for p in probes]
        yield v


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Echelon, DictEchelon]),
       st.sampled_from(["first", "last"]), st.data())
def test_reading_the_echelon_changes_nothing(kind, pivoting, data):
    """The reduced rows, combinations and coordinates are built when read.
    Read between every insert, through `insert_columns` and then plain
    inserts, an echelon answers as its twin that is never read does.
    Both answer as the references: the kernel of the transposed matrix,
    reduced rows monic at their pivot and zero at every other, and
    pivot-by-pivot coordinates.  Over GF(2), `Echelon` is the bit kernel
    and `DictEchelon` the dict kernel."""
    field, cols = _field_and_columns(data, chars=(0, 3, 2))
    _, extra = _field_and_vectors(data, chars=(field.characteristic,))
    probes = cols + extra
    read, twin = kind(field, pivoting), kind(field, pivoting)
    kernel = read.insert_columns(read_between(read, cols, probes))
    assert kernel == twin.insert_columns(cols) == column_kernel(cols, field)
    for v in read_between(read, extra, probes):
        assert read.insert(v) == twin.insert(v)
    assert read.rows == twin.rows and combos(read) == combos(twin)
    assert read.pivots == twin.pivots and read.rank == twin.rank
    for q, row in read.rows.items():
        assert row[q] == field.one
        assert not any(p in row for p in read.pivots if p != q)
    for probe in probes:
        assert (read.coordinates(probe) == twin.coordinates(probe)
                == picking_coordinates(twin, probe))


# any int entry: over GF(2) the even ones vanish and the odd ones are 1;
# indices up to 200 make rows several machine words long, and three
# clusters of them make vectors meet often
wide_index = st.one_of(st.integers(0, 7), st.integers(60, 67),
                       st.integers(193, 200))
wide_vectors = st.dictionaries(wide_index, st.integers(-5, 5), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["first", "last"]), st.lists(wide_vectors, max_size=10),
       st.lists(wide_vectors, max_size=4), st.data())
def test_bit_kernel_matches_the_dict_kernel(pivoting, vecs, probes, data):
    """Over GF(2) the bit kernel and the dict kernel agree after every
    insert: rows, pivots, rank, `insert`'s return value, and `reduce`,
    `coordinates` and `contains` of every vector drawn; and on the kernel
    of `insert_columns` with a few dependent columns."""
    bits, ref = Echelon(F2, pivoting), DictEchelon(F2, pivoting)
    canonical = [{j: c % 2 for j, c in v.items() if c % 2}
                 for v in vecs + probes]
    for v, w in zip(vecs, canonical):
        assert bits.insert(v) == ref.insert(w)
        assert bits.rows == ref.rows
        assert bits.pivots == ref.pivots and bits.rank == ref.rank
        for probe in canonical:
            assert bits.reduce(probe) == ref.reduce(probe)
            assert bits.coordinates(probe) == ref.coordinates(probe)
            assert bits.contains(probe) == ref.contains(probe)
    cols = list(vecs)
    for _ in range(data.draw(st.integers(0, 3), label="extra")):
        if cols:
            a, b = (data.draw(st.integers(0, len(cols) - 1)) for _ in range(2))
            cols.append(add_scaled(dict(cols[a]), cols[b], 1, F2))
    bits, ref = Echelon(F2, pivoting), DictEchelon(F2, pivoting)
    assert bits.insert_columns(cols) == ref.insert_columns(
        [{j: c % 2 for j, c in v.items() if c % 2} for v in cols])
    assert bits.rows == ref.rows and combos(bits) == combos(ref)


@pytest.mark.parametrize("index", [(0, 1), "a", -1, 1.0])
def test_bit_kernel_takes_non_negative_int_indices(index):
    """Every entry point of the bit kernel refuses other indices with a
    `TypeError` that names the requirement; the dict kernel takes them."""
    vec = {0: 1, index: 1}
    ech = Echelon(F2)
    calls = [ech.insert, ech.reduce, ech.coordinates, ech.contains,
             lambda v: ech.insert_columns([v]),
             lambda v: matrix_rank([v], F2)]
    for call in calls:
        with pytest.raises(TypeError, match="non-negative int"):
            call(vec)
    assert DictEchelon(F2).insert({index: 1}) == index


# raw int entries, nonzero multiples of 2, 3 and 7 among them
raw_vectors = st.dictionaries(st.integers(0, 9), st.integers(-21, 21),
                              max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Echelon, DictEchelon]), st.sampled_from([0, 2, 3, 7]),
       st.sampled_from(["first", "last"]), st.lists(raw_vectors, max_size=8),
       st.lists(raw_vectors, max_size=4))
def test_echelon_reduces_raw_int_entries(kind, char, pivoting, vecs, probes):
    """An echelon fed unreduced ints answers as one fed the same vectors
    reduced by `field.of`: `insert`, rows, combinations, `reduce`,
    `contains`, `coordinates`, the kernel of `insert_columns` and
    `matrix_rank`.  The resolution engine hands its column sums over so."""
    field = Rationals() if char == 0 else PrimeField(char)

    def of(v):
        return {j: w for j, c in v.items() if (w := field.of(c))}

    raw, ref = kind(field, pivoting), kind(field, pivoting)
    for v in vecs:
        assert raw.insert(v) == ref.insert(of(v))
        for probe in vecs + probes:
            assert raw.reduce(probe) == ref.reduce(of(probe))
            assert raw.contains(probe) == ref.contains(of(probe))
            assert raw.coordinates(probe) == ref.coordinates(of(probe))
    assert raw.rows == ref.rows and raw.pivots == ref.pivots
    raw, ref = kind(field, pivoting), kind(field, pivoting)
    assert (raw.insert_columns(vecs + probes)
            == ref.insert_columns([of(v) for v in vecs + probes]))
    assert raw.rows == ref.rows and combos(raw) == combos(ref)
    assert (matrix_rank(vecs, field)
            == matrix_rank([of(v) for v in vecs], field))


def test_a_multiple_of_p_is_no_pivot():
    """3 is zero in GF(3): the pivot is the next entry, 4 = 1."""
    ech = Echelon(PrimeField(3))
    assert ech.insert({0: 3, 1: 4}) == 1
    assert ech.rows == {1: {1: 1}}
    assert ech.reduce({0: 6, 1: 2, 2: -3}) == {}


FIELDS = (Rationals(), F2, PrimeField(3), PrimeField(5))


@st.composite
def maps_of_free_modules(draw):
    """(the algebra over each of `FIELDS`, src, dst, {s: {t: entry}}) for a
    random map between free modules over `DividedPowerAlgebra(3)` to
    height 4 or `BorelAlgebra(3, 3)`, on the basis of every piece.  Each
    source generator lies above some target generator, and each entry
    has int scalars, zero and even ones among them."""
    if draw(st.booleans()):
        alg = DividedPowerAlgebra(3)
        algebras = [alg] * len(FIELDS)
        pieces = alg.degrees_to_height(4)
    else:
        algebras = [BorelAlgebra(3, 3, field) for field in FIELDS]
        alg = algebras[0]
        pieces = sorted(set(alg.heads))
    targets = draw(st.lists(st.sampled_from(pieces), min_size=1,
                            max_size=3))
    sources = []
    for _ in range(draw(st.integers(1, 3))):
        h = draw(st.sampled_from(targets))
        above = [g for g in pieces if g != h and alg.between(h, g)]
        sources.append(draw(st.sampled_from(above or [h])))
    by_col = {}
    for s, g in enumerate(sources):
        for t, h in enumerate(targets):
            if elements := alg.between(h, g):
                entry = draw(st.dictionaries(st.sampled_from(list(elements)),
                                             st.integers(-6, 6), max_size=3))
                if entry:
                    by_col.setdefault(s, {})[t] = entry
    return (algebras, free_basis(sources, pieces, alg.between),
            free_basis(targets, pieces, alg.between), by_col)


@settings(max_examples=100, deadline=None)
@given(maps_of_free_modules())
def test_each_kernel_builds_the_reference_columns(case):
    """Each kernel's column builder, read back as dicts, gives the
    reference columns with every entry reduced by `field.of`, in
    characteristics 0, 2, 3 and 5.  Over GF(2) `Echelon` is the bit
    kernel and `DictEchelon` the dict kernel."""
    algebras, src, dst, by_col = case
    for field, alg in zip(FIELDS, algebras):
        mul = alg.product_terms
        reference = [{k: w for k, c in col.items() if (w := field.of(c))}
                     for col in columns(src, dst, by_col, mul)]
        for kind in (Echelon, DictEchelon):
            ech = kind(field)
            built = ech.columns(src, dst, by_col, mul)
            assert [ech._dict(v) for v in built] == reference


def test_even_and_cancelling_terms_vanish_over_gf2():
    """In `DividedPowerAlgebra(3)`, e_12 e_12 = 2 e_12^(2): an even
    structure constant.  And e_12 e_13 = e_12 e_13 while e_12 (e_12 e_23)
    = e_12 e_13 + 2 e_12^(2) e_23: two odd terms on one index.  Over GF(2)
    both columns vanish in each kernel; over GF(3) both keep their 2s."""
    alg = DividedPowerAlgebra(3)
    e12, e13, e23 = (1, 2), (1, 3), (2, 3)
    x = monomial(alg, {e12: 1})
    cases = [({x: 1}, (1, 0), (2, 0), {monomial(alg, {e12: 2}): 2}),
             ({monomial(alg, {e13: 1}): 1,
               monomial(alg, {e12: 1, e23: 1}): 1}, (1, 1), (2, 1),
              {monomial(alg, {e12: 1, e13: 1}): 2,
               monomial(alg, {e12: 2, e23: 1}): 2})]
    for entry, source, piece, raw in cases:
        assert alg.between(source, piece) == [x]
        src, by_col = [(0, x)], {0: {0: entry}}
        dst = free_basis([(0, 0)], [piece], alg.between)
        (col,) = columns(src, dst, by_col, alg.product_terms)
        assert {dst[k][1]: c for k, c in col.items()} == raw
        for kind in (Echelon, DictEchelon):
            ech = kind(F2)
            built = ech.columns(src, dst, by_col, alg.product_terms)
            assert [ech._dict(v) for v in built] == [{}]
        assert DictEchelon(PrimeField(3)).columns(
            src, dst, by_col, alg.product_terms) == [col]


def test_units_are_the_unit_vectors():
    for field in (F2, PrimeField(3), Rationals()):
        for kind in (Echelon, DictEchelon):
            ech = kind(field)
            assert [ech._dict(u) for u in ech.units(3)] == [
                {0: 1}, {1: 1}, {2: 1}]
