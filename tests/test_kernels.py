"""Packed-slot kernels and the value contracts of Mat, Poly and FieldElem.

Mat products and images, matrix._combiner, Poly products, divmod and powmod
are compared with plain reference loops over the field's own add/mul; the trusted internal constructors must give the
same values as the public ones.  An int given to the public API is an
integer mod p, whatever its size.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympgen import gf, matrix
from sympgen.construct import SympSpace, build
from sympgen.errors import BadParam, MixedFields, ShapeMismatch
from sympgen.gf import FieldCtx, FieldElem
from sympgen.matrix import Mat, _combiner, eigenspace
from sympgen.poly import Poly

# 2**61 - 1 needs slots wider than 8 bytes
PRIMES = [2, 3, 7, 65521, 2**61 - 1]
EXTENSIONS = [4, 8, 9, 16, 25, 27, 49]  # odd q add by Zech logarithms
# above gf._TABLE_LIMIT: coefficient arithmetic, eleven base-3 digits per value
UNTABLED = [3**11]
SHAPES = [(5, 7, 3), (1, 28, 1), (28, 1, 28), (1, 9, 13), (13, 9, 1),
          (0, 4, 6), (4, 0, 3), (3, 4, 0), (28, 28, 28), (22, 22, 22), (17, 3, 25)]


def field(q):
    return gf.standard_field(q) if q < 2**20 else FieldCtx(q, 1, None)


def ref_matmul(F, a, b, cols):
    """Triple loop over the field's add and mul; b has cols columns."""
    inner = len(b)
    out = []
    for row in a:
        orow = []
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc = F.add(acc, F.mul(row[k], b[k][j]))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def trim(vals):
    vals = list(vals)
    while vals and vals[-1] == 0:
        vals.pop()
    return tuple(vals)


def ref_divmod(F, a, f):
    """Long division of coefficient lists, f's top coefficient nonzero."""
    rem, d, lead_inv = list(a), len(f) - 1, F.inv(f[-1])
    quo = [0] * max(len(rem) - d, 0)
    for top in range(len(rem) - 1, d - 1, -1):
        c = quo[top - d] = F.mul(rem[top], lead_inv)
        for i, fc in enumerate(f):
            rem[top - d + i] = F.sub(rem[top - d + i], F.mul(c, fc))
    return trim(quo), trim(rem[:d])


def ref_mulmod(F, a, b, f):
    """Schoolbook product of coefficient lists, then long division by f."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    return ref_divmod(F, prod, f)[1]


def elems(F, vals):
    """Elements with the given packed values, so that draws cover all of F_q."""
    return [FieldElem(F, v) for v in vals]


def rand_rows(rng, F, rows, cols, top=False):
    q = F.q
    return [elems(F, [q - 1 if top else rng.randrange(q) for _ in range(cols)])
            for _ in range(rows)]


@pytest.mark.parametrize("q", PRIMES + EXTENSIONS)
def test_matmul_matches_triple_loop(q):
    F = field(q)
    rng = random.Random(q)
    for rows, inner, cols in SHAPES:
        for top in (False, True):  # all entries q - 1 fill every slot to its bound
            a = Mat(F, rand_rows(rng, F, rows, inner, top)) if rows else Mat.zeros(F, 0, inner)
            b = Mat(F, rand_rows(rng, F, inner, cols, top)) if inner else Mat.zeros(F, 0, cols)
            c = a * b
            ref = ref_matmul(F, a.data, b.data, cols)
            assert (c.rows, c.cols) == (rows, cols)
            assert c.data == ref
            assert c.transpose().data == ref_matmul(F, b.transpose().data,
                                                    a.transpose().data, rows)
            for j in range(cols):
                assert a.apply(b.col_raw(j)) == tuple(row[j] for row in ref)


@pytest.mark.parametrize("q", PRIMES + EXTENSIONS + UNTABLED)
def test_combiner_matches_a_loop_of_field_ops(q):
    F = field(q)
    rng = random.Random(q)

    def ref(coeffs, rows, cols):
        out = [0] * cols
        for c, row in zip(coeffs, rows):
            out = [F.add(o, F.mul(c, v)) for o, v in zip(out, row)]
        return tuple(out)

    # 2500 rows: longer than one chain of maps over an extension field
    for n, cols in [(0, 5), (1, 1), (6, 4), (3, 0), (28, 28), (2500, 2)]:
        for top in (False, True):  # all entries q - 1 fill every slot to its bound
            draw = (lambda: q - 1) if top else (lambda: rng.randrange(q))
            rows = [tuple(draw() for _ in range(cols)) for _ in range(n)]
            combine = _combiner(F, rows, cols)
            units = [[int(i == j) for i in range(n)] for j in {0, n - 1} if n]  # first, last
            short = [int(i == n // 2 - 1) for i in range(n // 2)]  # fewer than rows, 1 last
            lone = [0] * n  # one entry, not a unit
            if n and q > 2:
                lone[n // 2] = rng.randrange(2, q)
            for coeffs in ([draw() for _ in range(n)],
                           [0] * n,
                           [draw() if i % 2 else 0 for i in range(n)],
                           [draw() for _ in range(n // 2)],  # fewer than rows
                           *units, short, lone,
                           [0] * n + [1],  # a 1 past the last row
                           [draw() if rng.random() < 0.1 else 0 for _ in range(n)]):
                got = combine(coeffs)
                assert type(got) is tuple and got == ref(coeffs, rows, cols)
                assert all(type(v) is int and 0 <= v < q for v in got)
                if coeffs in units or coeffs == short and 1 in short:
                    assert got is rows[coeffs.index(1)]  # the row itself


def test_combiner_forms_each_multiple_of_a_row_once(monkeypatch):
    # a fresh F_9, so that counting its mul closure counts nothing else.
    # Coefficients 0 and 1 need no product, and w and w + 1 one per entry
    # of each row the first time: at most 6 rows * 2 * 5 columns in all
    F = FieldCtx(3, 2, gf.modulus_for(9))
    w = F.scalar(F.gen())
    rng = random.Random(9)
    rows = [tuple(rng.randrange(9) for _ in range(5)) for _ in range(6)]
    draws = [[rng.choice((0, 1, w, F.add(w, 1))) for _ in rows] for _ in range(40)]
    expected = [ref_matmul(F, [coeffs], rows, 5)[0] for coeffs in draws]
    calls = []
    mul = F.mul
    monkeypatch.setattr(F, "mul", lambda a, b: calls.append(1) or mul(a, b))
    combine = _combiner(F, rows, 5)
    assert [combine(coeffs) for coeffs in draws] == expected
    assert len(calls) <= 6 * 2 * 5


@pytest.mark.parametrize("q", [7, 9])
def test_a_permutation_times_a_matrix_selects_its_rows(q, monkeypatch):
    # a fresh field, so that counting its mul closure counts nothing else
    F = FieldCtx(q, 1, None) if q == 7 else FieldCtx(3, 2, gf.modulus_for(9))
    rng = random.Random(q)
    n = 6
    perm = rng.sample(range(n), n)
    left = Mat._make(F, tuple(tuple(int(j == perm[i]) for j in range(n)) for i in range(n)))
    right = Mat._make(F, tuple(tuple(rng.randrange(q) for _ in range(5)) for _ in range(n)))
    expected = ref_matmul(F, left.data, right.data, 5)
    unpacks, muls = [], []
    unpack, mul = matrix._unpack, F.mul
    monkeypatch.setattr(matrix, "_unpack", lambda *args: unpacks.append(1) or unpack(*args))
    monkeypatch.setattr(F, "mul", lambda a, b: muls.append(1) or mul(a, b))
    product = left * right
    assert product.data == expected
    assert all(row is right.data[perm[i]] for i, row in enumerate(product.data))
    assert unpacks == [] and muls == []


@pytest.mark.parametrize("n", [2, 5, 11])
@pytest.mark.parametrize("q", [2, 7, 9])
def test_the_symplectic_form_equals_the_entrywise_one(q, n):
    F = gf.standard_field(q)
    old = Mat.from_function(F, 2 * n, 2 * n,
                            lambda i, j: (-1 if (i < n and j == i + n) else
                                          (1 if (i >= n and j == i - n) else 0)))
    J = SympSpace.make(n, F).J
    assert J == old and J.data == old.data and (J.rows, J.cols) == (2 * n, 2 * n)


@pytest.mark.parametrize("q", [3, 9])
def test_products_by_one_right_factor_build_its_combiner_once(q, monkeypatch):
    F, rng = gf.standard_field(q), random.Random(q)
    b = Mat._make(F, tuple(tuple(rng.randrange(q) for _ in range(4)) for _ in range(4)))
    lefts = [Mat._make(F, tuple(tuple(rng.randrange(q) for _ in range(4)) for _ in range(r)))
             for r in (4, 1, 4, 3)]
    built = []
    monkeypatch.setattr(matrix, "_combiner", lambda *args: built.append(args) or _combiner(*args))
    products = [a * b for a in lefts] + [b * b]
    assert len(built) == 1
    # byte-identical to a fresh combiner's products, also where the kept
    # multiples c * row over F_9 were formed by an earlier product
    fresh = [tuple(map(_combiner(F, b.data, 4), a.data)) for a in lefts + [b]]
    assert [m.data for m in products] == fresh


@pytest.mark.parametrize("q", [3, 9])
def test_a_kept_combiner_changes_neither_equality_nor_hash(q):
    F = gf.standard_field(q)
    rows = ((1, 2, 0), (0, 1, 2), (2, 0, 1))
    used, fresh = Mat._make(F, rows), Mat(F, rows)
    square = used * used  # used now keeps its combiner; fresh has built none
    assert used == fresh and fresh == used and hash(used) == hash(fresh)
    assert {fresh: square}[used] is square


@pytest.mark.parametrize("q", PRIMES + EXTENSIONS + UNTABLED)
def test_powmod_matches_repeated_mulmod(q):
    F = field(q)
    rng = random.Random(q)
    # the reference loops run slowly on coefficient arithmetic
    for d in (1, 2, 3, 7, 12) if q in UNTABLED else range(1, 23):
        f = [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]
        mod = Poly(F, elems(F, f))
        for base in (Poly.t(F), Poly(F, elems(F, [q - 1] * d)),
                     Poly(F, elems(F, [rng.randrange(q) for _ in range(d + 3)]))):
            expected, b = (1,), ref_mulmod(F, base.coeffs, (1,), f)
            for e in range(8):
                assert base.powmod(e, mod).coeffs == expected, (d, e)
                expected = ref_mulmod(F, expected, b, f)
            if q < 100:  # one long exponent: x^(2e+1) = x * (x^e)^2
                e = rng.getrandbits(40)
                half = base.powmod(e, mod).coeffs
                assert base.powmod(2 * e + 1, mod).coeffs == ref_mulmod(
                    F, b, ref_mulmod(F, half, half, f), f)


@pytest.mark.parametrize("q", [4, 8])
def test_packed_slots_hold_long_all_top_products(q):
    # all-(q - 1) coefficients fill every digit slot of a product.  Modulo
    # t^(d-1) (t + 1), every t^k reduces to t^(d-1), so the t-fold adds to
    # the top block, the one that the product fills most.  Over F_4 a
    # modulus of degree 52 and over F_8 one of degree 29 first need 2-byte
    # slots.  A width taken from the larger of the digit-fold and t-fold
    # bounds, not their sum, stays 1 byte up to degree 85 over F_4, and
    # there the top block reaches 3d + d // 2 > 255 from degree 74
    F = field(q)
    for d in range(40 if q == 4 else 24, 89 if q == 4 else 49):
        top = [q - 1] * d
        for f in ([q - 1] * (d + 1), [0] * (d - 1) + [1, 1]):
            mod = Poly(F, elems(F, f))
            for base in (Poly(F, elems(F, top)), Poly(F, elems(F, [1] + top[1:]))):
                square = ref_mulmod(F, base.coeffs, base.coeffs, f)
                assert base.powmod(2, mod).coeffs == square, d
                assert base.powmod(3, mod).coeffs == ref_mulmod(F, square, base.coeffs, f), d
        a = Poly(F, elems(F, top))
        assert (a * a).coeffs == ref_mulmod(F, top, top, [0] * (2 * d) + [1])


def test_powmod_squarings_make_no_field_multiplications(monkeypatch):
    # a fresh F_9, so that counting its mul closure counts nothing else
    F = FieldCtx(3, 2, gf.modulus_for(9))
    calls = []
    mul = F.mul
    monkeypatch.setattr(F, "mul", lambda a, b: calls.append(1) or mul(a, b))
    rng = random.Random(9)
    mod = Poly(F, elems(F, [rng.randrange(9) for _ in range(16)] + [rng.randrange(1, 9)]))
    base = Poly(F, elems(F, [rng.randrange(9) for _ in range(20)]))
    counts = []
    for e in (2**10 - 1, 2**60 - 1):
        calls.clear()
        base.powmod(e, mod)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("q", PRIMES + EXTENSIONS + UNTABLED)
def test_poly_mul_matches_schoolbook(q):
    F = field(q)
    rng = random.Random(q)
    huge = Poly.t(F) ** 60  # a modulus no product reaches
    for la, lb in [(1, 1), (1, 22), (22, 1), (9, 14), (23, 23)]:
        for top in (False, True):
            a, b = (Poly(F, elems(F, [q - 1 if top else rng.randrange(q) for _ in range(n)]))
                    for n in (la, lb))
            assert (a * b).coeffs == ref_mulmod(F, a.coeffs, b.coeffs, huge.coeffs)


@pytest.mark.parametrize("q", PRIMES + EXTENSIONS + UNTABLED)
def test_divmod_matches_long_division(q):
    F = field(q)
    rng = random.Random(q)

    def draw(n, top):
        """n coefficients, the last one nonzero and, for q > 2, not 1."""
        lead = [q - 1 if top or q == 2 else rng.randrange(2, q)] if n else []
        return [q - 1 if top else rng.randrange(q) for _ in range(n - 1)] + lead

    # (dividend, divisor) lengths: a constant divisor, a zero dividend, a
    # dividend shorter than the divisor, and long divisions
    for la, lf in [(5, 1), (0, 1), (0, 4), (1, 1), (3, 5), (5, 5), (9, 4), (23, 7), (23, 22)]:
        for top in (False, True):
            a, f = draw(la, top), draw(lf, top)
            num, den = Poly(F, elems(F, a)), Poly(F, elems(F, f))
            quo, rem = divmod(num, den)
            assert (quo.coeffs, rem.coeffs) == ref_divmod(F, a, f), (la, lf)
            assert quo * den + rem == num


def _results(q):
    F = field(q)
    rng = random.Random(q)
    while True:
        a = Mat(F, rand_rows(rng, F, 6, 6))
        if a.det():
            break
    b = Mat(F, rand_rows(rng, F, 6, 6))
    mats = [a * b, a ** 5, a ** -2, a + b, a - b, -a, a.transpose(), a.inverse(),
            Mat(F, rand_rows(rng, F, 3, 6)) * b, a * 3, Mat.identity(F, 4), Mat.zeros(F, 2, 3)]
    f = Poly(F, elems(F, [rng.randrange(q) for _ in range(7)] + [1]))
    g = Poly(F, elems(F, [rng.randrange(q) for _ in range(12)]))
    polys = [g * f, g % f, g.powmod(1000, f), Poly.t(F).powmod(q**7, f), g * Poly.zero(F),
             f - f, divmod(g, f)[0], g.derivative(), g.reciprocal(), g.monic()]
    return F, mats, polys


@pytest.mark.parametrize("q", PRIMES + EXTENSIONS)
def test_trusted_constructors_match_public_ones(q):
    F, mats, polys = _results(q)
    for r in mats:
        rebuilt = Mat(F, [elems(F, row) for row in r.data])
        assert r == rebuilt and hash(r) == hash(rebuilt)
        assert (r.rows, r.cols) == (rebuilt.rows, rebuilt.cols)
        assert all(type(v) is int and 0 <= v < F.q for row in r.data for v in row)
    for r in polys:
        rebuilt = Poly(F, elems(F, r.coeffs))
        assert r == rebuilt and hash(r) == hash(rebuilt)
        assert all(type(c) is int and 0 <= c < F.q for c in r.coeffs)
        assert not r.coeffs or r.coeffs[-1] != 0


@given(st.sampled_from([7, 4, 9, 25, 27]).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(-3 * q, 3 * q))))
@example((4, 2))
@example((9, 3))
@settings(max_examples=60, deadline=None)
def test_an_int_is_an_integer_mod_p(qk):
    q, k = qk
    F = gf.standard_field(q)
    w = F.gen()
    m = Mat(F, [[w, 1], [0, w + 1]])
    f = Poly(F, [w, 1, w])
    space = SympSpace.make(2, F)

    def built(c):
        try:
            return build("general", 4, q, c)
        except BadParam:
            return BadParam

    for call in (F.elem, lambda c: Mat(F, [[c]]), lambda c: Poly(F, [c]), m.scale, f.eval,
                 lambda c: w + c, lambda c: space.vector([(c, 1)]), built):
        assert call(k) == call(k % F.p)


def test_public_constructors_keep_their_checks():
    F3, F5 = gf.standard_field(3), gf.standard_field(5)
    with pytest.raises(MixedFields):
        Mat(F3, [[FieldElem(F5, 1)]])
    with pytest.raises(ShapeMismatch):
        Mat(F3, [[1, 2], [1]])
    with pytest.raises(MixedFields):
        Poly(F3, [FieldElem(F5, 1)])
    with pytest.raises(MixedFields):
        Mat.identity(F3, 2) * Mat.identity(F5, 2)
    with pytest.raises(ShapeMismatch):
        Mat.identity(F3, 2) * Mat.identity(F3, 3)


@pytest.mark.parametrize("q", [7, 9])
def test_equal_values_over_equal_fields_hash_equal(q):
    # two distinct but equal contexts of F_q
    a = gf.standard_field(q)
    b = FieldCtx(a.p, a.f, a.modulus)
    assert a is not b and a == b
    assert len({Mat.identity(a, 3), Mat.identity(b, 3)}) == 1
    assert len({Poly.t(a), Poly.t(b)}) == 1
    assert len({FieldElem(a, 3), FieldElem(b, 3)}) == 1


@pytest.mark.parametrize("q", [7, 9])
def test_coercions_accept_an_element_of_an_equal_field(q):
    # FieldCtx.scalar is the one coercion; equal contexts are the same field
    a = gf.standard_field(q)
    b = FieldCtx(a.p, a.f, a.modulus)
    e = FieldElem(b, q - 1)
    assert a.scalar(e) == q - 1 and a.elem(e) == e
    assert Mat(a, [[e]]).data == ((q - 1,),)
    assert Poly(a, [0, e]).coeffs == (0, q - 1)
    assert (FieldElem(a, 1) + e).val == a.add(1, q - 1)
    big = gf.standard_field(q * q)
    assert gf.embed(a, big)(e) == gf.embed(b, big)(FieldElem(a, q - 1))
    assert eigenspace(Mat.identity(a, 2), e) == []
    with pytest.raises(MixedFields):
        a.scalar(FieldElem(gf.standard_field(5), 1))
