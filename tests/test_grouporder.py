"""Group orders, element orders, prime sets, certificates, closure BFS."""

import itertools
import math
import random

import pytest

from sympgen import claims, gf, grouporder, matrix, poly
from sympgen.errors import BadParam, CheckFailed, MixedFields, NotSquare, SympgenError
from sympgen.factorint import FactoredInt
from sympgen.gf import FieldElem
from sympgen.grouporder import (
    OVERFLOW,
    Certificate,
    PrimeSet,
    closure_bfs,
    element_order,
    lps_certificate,
    naive_element_order,
    order_sl,
    order_sp,
    union_varpi,
    varpi,
    varpi_group,
)
from sympgen.matrix import Mat, char_poly
from sympgen.poly import Poly, _Ring, is_irreducible

F2 = gf.standard_field(2)
F3 = gf.standard_field(3)


def test_order_sp_4_2():
    fi = order_sp(4, 2)
    assert fi.value() == 47_377_612_800
    assert fi.factors == {2: 16, 3: 5, 5: 2, 7: 1, 17: 1}


def test_order_sl_1():
    assert order_sl(1, 7).factors == {}


def test_prime_set_sp_12_2():
    assert list(varpi_group("sp", 6, 2)) == [2, 3, 5, 7, 11, 13, 17, 31]


def test_order_sl_divides_order_sp():
    for n, q in [(4, 2), (5, 3), (6, 4), (9, 2)]:
        assert order_sl(n, q).lcm(order_sp(n, q)) == order_sp(n, q)


def test_order_sl_small_value():
    assert order_sl(2, 3).value() == 24
    assert order_sl(3, 5).value() == 372_000


def test_element_order_of_unipotent():
    # Jordan block sizes 2 and 1 over F_2: minimal polynomial (t-1)^2, order 2
    m = Mat(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert element_order(m).value() == 2


def test_element_order_mixed():
    m = Mat(F3, [[1, 1], [0, 1]])
    assert element_order(m).value() == 3
    c = Mat(F3, [[0, -1], [1, -1]])  # order 3 semisimple (t^2+t+1 | t^3-1)
    assert element_order(c).value() == 3


def _with_bound(monkeypatch, bound):
    """Make element_order take bound(p, e) in place of the factored q^d - 1
    = p^e - 1 of each degree d of its distinct-degree pieces.  The splits
    kept so far hold the true bounds, so they are dropped and every chi is
    split again under the patched bound."""
    monkeypatch.setattr(grouporder, "factor_q_pow_minus_one", bound)
    grouporder._split.cache_clear()


def test_element_order_verification_raises_on_a_wrong_order(monkeypatch):
    # diag(2, 1) over F_3 has order 2 and the one piece (t - 2)(t - 1) of
    # degree 1; a bound of 3 in place of q - 1 = 2 leaves g^3 = g != I
    _with_bound(monkeypatch, lambda p, e: FactoredInt({3: 1}))
    with pytest.raises(CheckFailed, match=r"x\^3 is not"):
        element_order(Mat(F3, [[2, 0], [0, 1]]))


def test_element_order_is_exact_under_a_multiple_of_its_bound(monkeypatch):
    # the same diag(2, 1) with a bound of 4, a multiple of its order 2: the
    # search reads each step on g and still finds 2
    _with_bound(monkeypatch, lambda p, e: FactoredInt({2: 2}))
    assert element_order(Mat(F3, [[2, 0], [0, 1]])).value() == 2


def test_element_order_raises_on_a_wrong_order_with_a_unipotent_part(monkeypatch):
    # diag(J_2(3), 1) over F_7 has order 42; with 2 for each of the pieces
    # t - 3 and t - 1, and 7^1 from a_1 = (t - 3)^2 (t - 1), the bound
    # reaches only 14, and g^14 != I
    _with_bound(monkeypatch, lambda p, e: FactoredInt({2: 1}))
    m = Mat(gf.standard_field(7), [[3, 1, 0], [0, 3, 0], [0, 0, 1]])
    with pytest.raises(CheckFailed, match=r"x\^14 is not"):
        element_order(m)


def _with_chi(monkeypatch, chi):
    """Make the spin of element_order return chi in place of the real one,
    with its real witnesses and Krylov vectors."""
    spin = grouporder._spin
    monkeypatch.setattr(grouporder, "_spin", lambda g: (chi, *spin(g)[1:]))


def test_element_order_raises_when_g_is_not_a_root_of_its_charpoly(monkeypatch):
    # diag(2, 1, 1) over F_3 has order 2 and charpoly (t - 2)(t - 1)^2; with
    # (t - 2)^3 in its place the order still comes out 2, and both
    # candidates a_0 = t - 2 and a_1 = (t - 2)^3 pass on e_1 = g e_1 / 2;
    # but on the witness e_2, neither g - 2 nor (g - 2)^3 = diag(0, 2, 2)
    # is zero
    _with_chi(monkeypatch, Poly(F3, [-2, 1]) ** 3)
    with pytest.raises(CheckFailed, match="not a root"):
        element_order(Mat(F3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_element_order_raises_when_a_cyclic_g_is_not_a_root_of_its_charpoly(monkeypatch):
    # the cyclic twin: the 3-cycle over F_3 has order 3, chi = t^3 - 1, and
    # e_1 is cyclic for it.  With (t - 2)^3 = t^3 + 1 in its place the order
    # would come out 6, as t^6 = 1 mod t^3 + 1 and no r_(6/l) e_1 is e_1;
    # the Krylov check chi(g) e_1 = 2 e_1 != 0 stops it
    _with_chi(monkeypatch, Poly(F3, [-2, 1]) ** 3)
    with pytest.raises(CheckFailed, match="not a root"):
        element_order(Mat(F3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_element_order_matches_naive(q):
    ctx = gf.standard_field(q)
    rng = random.Random(q)
    checked = 0
    for _ in range(60):
        m = Mat(ctx, [[FieldElem(ctx, rng.randrange(ctx.q)) for _ in range(4)]
                      for _ in range(4)])
        if not m.det():
            continue
        o = element_order(m).value_unchecked()
        if o <= 10**4:
            assert naive_element_order(m) == o
            checked += 1
    assert checked > 10


def _random_invertible(ctx, n, rng):
    while True:
        m = Mat(ctx, [[FieldElem(ctx, rng.randrange(ctx.q)) for _ in range(n)]
                      for _ in range(n)])
        if m.det():
            return m


def _jordan(ctx, lam, k):
    return Mat.from_function(ctx, k, k, lambda i, j: lam if i == j else int(j == i + 1))


def _companion(ctx, c0, c1):
    # t^2 - c1 t - c0, with c0 != 0
    return Mat(ctx, [[0, c0], [1, c1]])


def _small_order_blocks(ctx, dim, rng, repeated):
    """Jordan blocks (eigenvalues in F_q^*, sizes up to 3) and 2x2 companion
    blocks of total size dim, conjugated by a random invertible matrix; with
    repeated, every eigenvalue comes from a short list so factors repeat."""
    lams = [FieldElem(ctx, v) for v in range(1, ctx.q)]
    if repeated:
        lams = lams[:2]
    blocks, size = [], 0
    while size < dim:
        k = min(rng.randrange(1, 4), dim - size)
        if k == 2 and not repeated and rng.randrange(2):
            blocks.append(_companion(ctx, rng.choice(lams), FieldElem(ctx, rng.randrange(ctx.q))))
        else:
            blocks.append(_jordan(ctx, rng.choice(lams), k))
        size += k
    p = _random_invertible(ctx, dim, rng)
    return p.inverse() * Mat.block_diag(blocks) * p


def _e1_fixed(q):
    """diag(1, A) over F_q for small-order blocks A of dims 1 .. 7: each
    fixes e_1, so e_1 spans its own Krylov space."""
    ctx = gf.standard_field(q)
    rng = random.Random(100 + q)
    one = Mat.identity(ctx, 1)
    return [Mat.block_diag([one, _small_order_blocks(ctx, dim - 1, rng, repeated=False)])
            for dim in range(2, 9) for _ in range(3)]


def _matches_naive(mats, cap=10**4):
    checked = 0
    for m in mats:
        o = element_order(m).value_unchecked()
        if o <= cap:
            assert naive_element_order(m, cap) == o
            checked += 1
    return checked


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_element_order_matches_naive_with_e1_fixed(q):
    # g = diag(1, A) fixes e_1, so e_1 alone can show no g^(N/l) != I and
    # every check reads on the witnesses e_2 .. e_d as well
    assert _matches_naive(_e1_fixed(q)) >= 15


def _e1_rank(g):
    """The dimension of the span of the Krylov vectors g^j e_1 (j < dim g):
    e_1 is cyclic for g iff it is dim g."""
    vecs = [tuple(int(i == 0) for i in range(g.rows))]
    while len(vecs) < g.rows:
        vecs.append(g.apply(vecs[-1]))
    return g.rows - len(Mat._make(g.field, tuple(vecs)).kernel())


def _certificates(mats):
    """The orders of mats and, per call of element_order, the products and
    the eliminations it made, the witnesses e_i of its spin (as indices i)
    and the k and a_k of its certificate."""
    mul, echelon = Mat.__mul__, Mat._echelon
    spin, annihilator = grouporder._spin, grouporder._annihilator
    calls = []

    def product(self, other):
        calls[-1]["products"] += 1
        return mul(self, other)

    def eliminate(self, augment=None):
        calls[-1]["eliminations"] += 1
        return echelon(self, augment)

    def spun(g):
        out = spin(g)
        calls[-1]["witnesses"] = list(out[3])
        return out

    def certify(*args):
        k, search, is_identity = annihilator(*args)
        calls[-1]["k"], calls[-1]["a"] = k, search.ring.mod
        return k, search, is_identity

    orders = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Mat, "__mul__", product)
        mp.setattr(Mat, "_echelon", eliminate)
        mp.setattr(grouporder, "_spin", spun)
        mp.setattr(grouporder, "_annihilator", certify)
        for m in mats:
            calls.append({"products": 0, "eliminations": 0})
            orders.append(element_order(m))
    return orders, calls


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_a_second_krylov_witness_saves_full_evaluations(q):
    # g = diag(1, A) fixes e_1, whose Krylov space is spanned by e_1 alone;
    # the next witness is e_2, and from there the spin of g is that of A, one
    # coordinate on: the witnesses are e_1 and A's, 52-73 for the 21
    # matrices where the unit vectors number 105, and no r(g) is formed in
    # full
    mats = _e1_fixed(q)
    _, calls = _certificates(mats)
    assert [c["witnesses"] for c in calls] == [
        [0] + [i + 1 for i in grouporder._spin(Mat._make(m.field, tuple(
            row[1:] for row in m.data[1:])))[3]] for m in mats]
    assert sum(len(c["witnesses"]) for c in calls) == {2: 73, 3: 62, 4: 58, 9: 52}[q]
    assert not any(c["products"] or c["eliminations"] for c in calls)


def _long_jordan_shapes(ctx, rng):
    """Derogatory matrices with a Jordan block longer than p, so that the
    order's p-part is p^2 or more: a repeated Jordan block, beside a shorter
    one for the same eigenvalue or a repeated companion block, conjugated by
    a random invertible matrix."""
    p = ctx.p
    lams = [FieldElem(ctx, v) for v in range(1, ctx.q)]
    quad = next(f for f in (Poly._make(ctx, [*low, 1])
                            for low in itertools.product(range(ctx.q), repeat=2))
                if is_irreducible(f))
    mats = []
    for i in range(6):
        lam = rng.choice(lams)
        long = _jordan(ctx, lam, p + 1 + rng.randrange(2))
        rest = ([long, _jordan(ctx, lam, rng.randrange(1, 3))] if i % 2
                else [_companion_of(quad)] * 2)
        m = Mat.block_diag([long, *rest])
        p_mat = _random_invertible(ctx, m.rows, rng)
        mats.append(p_mat.inverse() * m * p_mat)
    return mats


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_element_order_matches_naive_with_jordan_blocks_longer_than_p(q):
    # a_0 and a_1 leave the long blocks alive, so the search reaches k >= 2
    ctx = gf.standard_field(q)
    mats = _long_jordan_shapes(ctx, random.Random(500 + q))
    assert all(_e1_rank(m) < m.rows for m in mats)
    assert _matches_naive(mats) == len(mats)
    assert all(element_order(m).factors[ctx.p] >= 2 for m in mats)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_a_semisimple_derogatory_g_builds_powers_once_on_the_radical(q):
    # diag(A, A, A) for A the companion matrix of an irreducible f: chi = f^3,
    # and a_0 = f kills g, so the residues t^j are powers in the ring of f
    ctx = gf.standard_field(q)
    rng = random.Random(600 + q)
    f = next(f for f in (Poly._make(ctx, [*low, 1])
                         for low in itertools.product(range(ctx.q), repeat=3))
             if is_irreducible(f))
    p_mat = _random_invertible(ctx, 9, rng)
    g = p_mat.inverse() * Mat.block_diag([_companion_of(f)] * 3) * p_mat
    orders, calls = _certificates([g])
    assert (calls[0]["k"], calls[0]["a"]) == (0, f)
    # each witness's cyclic space, less the earlier ones', has dimension
    # deg f = 3, so three witnesses span V: the fewest for g's three
    # invariant factors f
    assert len(calls[0]["witnesses"]) == 3
    assert calls[0]["products"] == calls[0]["eliminations"] == 0
    assert orders[0].value() == naive_element_order(g)


@pytest.mark.parametrize("q,degree", [(2, 2), (3, 3)])
def test_a_candidate_that_fails_on_e1_builds_no_powers(q, degree):
    # g = diag(J, 1) with J a lower Jordan block at 1 of length 2: chi is
    # (t - 1)^3 and g e_1 = e_1 + e_2, so a_0 = t - 1 is ruled out on e_1
    # alone; a_1 = (t - 1)^min(3, p) kills g.  The spin spans e_1, e_2 from
    # e_1 and adds the witness e_3
    g = Mat(gf.standard_field(q), [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert _e1_rank(g) == 2
    orders, calls = _certificates([g])
    assert calls == [{"products": 0, "eliminations": 0, "witnesses": [0, 2], "k": 1,
                      "a": Poly(g.field, [-1, 1]) ** min(3, q)}]
    assert orders[0].value() == q and calls[0]["a"].degree == degree


@pytest.mark.parametrize("q", [2, 3])
def test_a_candidate_is_tried_on_the_witnesses_up_to_the_first_it_leaves_alive(
        q, monkeypatch):
    # g = diag(1, J, I_3) with J a lower Jordan block at 1 of length 2: the
    # witnesses are e_1, e_2 (which spans e_3 too), e_4, e_5 and e_6.  a_0 =
    # t - 1 kills e_1 but not e_2, as g e_2 = e_2 + e_3, so it builds the
    # combiners of e_1 and e_2 alone; a_1 = (t - 1)^p kills g and builds one
    # on each of the five witnesses
    ctx = gf.standard_field(q)
    g = Mat.block_diag([Mat.identity(ctx, 1), _jordan(ctx, 1, 2).transpose(),
                        Mat.identity(ctx, 3)])
    combiner, built = grouporder._combiner, []

    def counting(F, rows, cols):
        built.append(len(rows))
        return combiner(F, rows, cols)

    monkeypatch.setattr(grouporder, "_combiner", counting)
    assert element_order(g).value() == q
    # rows: deg a + 1 Krylov vectors; the step v -> g v is the spin's
    assert built == [2, 2] + [q + 1] * 5


@pytest.mark.parametrize("wrong,multiple", [(lambda o: o * FactoredInt({2: 1}), True),
                                            (lambda o: o * FactoredInt({5: 1}), True),
                                            (lambda o: FactoredInt.one(), False)],
                         ids=["doubled", "times-5", "one"])
@pytest.mark.parametrize("q", [3, 4])
def test_a_wrong_t_order_on_the_annihilator_path_never_yields_a_wrong_order(
        q, wrong, multiple, monkeypatch):
    # a wrong bound lcm_d (q^d - 1) p^k for the order of t mod a_k: one
    # that is a multiple of the order still gives the exact order, as the
    # search reads every step on g; one too small leaves g^bound != I and
    # raises CheckFailed, whatever k the annihilator search found
    ctx = gf.standard_field(q)
    mats = _long_jordan_shapes(ctx, random.Random(500 + q)) + _e1_fixed(q)[::4]
    expected = [element_order(m) for m in mats]
    bound = grouporder.factor_q_pow_minus_one
    _with_bound(monkeypatch, lambda p, e: wrong(bound(p, e)))
    got = []
    for m in mats:
        try:
            got.append(element_order(m))
        except CheckFailed:
            got.append(None)
    unipotent = [set(o.primes()) <= {ctx.p} for o in expected]
    assert len(mats) == 12 and sum(unipotent) == {3: 1, 4: 2}[q]
    if multiple:
        assert got == expected
    else:  # only a unipotent g, whose bound p^k is its order, passes
        assert got == [o if u else None for o, u in zip(expected, unipotent)]


def test_element_order_ignores_an_extra_factor_of_chi(monkeypatch):
    # the 1x1 identity over F_3 with chi = (t - 1)(t + 1): a_0 = chi kills
    # g, and t has order 2 modulo chi, but t(g) = g = I, so the search, which
    # tests each residue on g, finds order 1
    _with_chi(monkeypatch, Poly(F3, [-1, 1]) * Poly(F3, [1, 1]))
    assert element_order(Mat.identity(F3, 1)).value() == 1


@pytest.mark.parametrize("rows", [[[0, 1, 0], [1, 0, 0]], [[1, 0, 0, 0]],
                                  [[1, 0], [0, 1], [1, 1]]], ids=["2x3", "1x4", "3x2"])
def test_element_order_rejects_a_non_square_matrix(rows):
    m = Mat(F3, rows)
    for check in (element_order, varpi, lambda g: union_varpi([g]),
                  lambda g: lps_certificate([g], ("sp", 4, 3))):
        with pytest.raises(NotSquare):
            check(m)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_element_order_matches_naive_with_repeated_factors(q):
    # Jordan blocks of one or two eigenvalues: the unipotent branch
    ctx = gf.standard_field(q)
    rng = random.Random(200 + q)
    mats = [_small_order_blocks(ctx, dim, rng, repeated=True)
            for dim in range(2, 9) for _ in range(3)]
    assert _matches_naive(mats) >= 15


def _with_e1_cyclic(m, v, rng):
    """P^-1 m P for a random invertible P with P e_1 = v: e_1 is cyclic for
    it iff v is cyclic for m."""
    ctx, n = m.field, m.rows
    while True:
        p = Mat(ctx, [[v[i]] + [FieldElem(ctx, rng.randrange(ctx.q)) for _ in range(n - 1)]
                      for i in range(n)])
        if p.det():
            return p.inverse() * m * p


def _cyclic_shapes(ctx, rng):
    """Matrices with e_1 cyclic: lower Jordan blocks of distinct eigenvalues
    (the unipotent loop), and companion matrices of random polynomials,
    both conjugated by a random P that takes e_1 to a cyclic vector."""
    mats = []
    for dim in range(1, 9):
        lams = [FieldElem(ctx, v) for v in range(1, ctx.q)]
        rng.shuffle(lams)
        blocks, size = [], 0
        for i, lam in enumerate(lams):
            k = dim - size if i == len(lams) - 1 else min(rng.randrange(1, 5), dim - size)
            blocks.append(_jordan(ctx, lam, k).transpose())  # e_1 of the block is cyclic
            size += k
            if size == dim:
                break
        m = Mat.block_diag(blocks)
        v = [int(any(i == sum(b.rows for b in blocks[:j]) for j in range(len(blocks))))
             for i in range(dim)]
        mats.append(_with_e1_cyclic(m, v, rng))
        f = Poly._make(ctx, [rng.randrange(1, ctx.q)]
                       + [rng.randrange(ctx.q) for _ in range(dim - 1)] + [1])
        mats.append(_with_e1_cyclic(_companion_of(f), [int(i == 0) for i in range(dim)], rng))
    return mats


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_element_order_matches_naive_when_e1_is_cyclic(q):
    mats = _cyclic_shapes(gf.standard_field(q), random.Random(400 + q))
    assert all(_e1_rank(m) == m.rows for m in mats)
    assert _matches_naive(mats) >= 12


@pytest.mark.parametrize("q", [2, 9])
def test_a_cyclic_g_makes_no_full_evaluation(q):
    # e_1 is cyclic, so its g^j e_1 (j < dim g) span V, the spin ends on
    # e_1, and e_1 is the one witness
    mats = _cyclic_shapes(gf.standard_field(q), random.Random(400 + q))
    _, calls = _certificates(mats)
    assert ([(c["products"], c["eliminations"], c["witnesses"]) for c in calls]
            == [(0, 0, [0])] * len(mats))


@pytest.mark.parametrize("q", [2, 9])
def test_diag_1_a_with_e1_cyclic_for_a_takes_two_witnesses(q):
    # diag(1, A) with e_1 cyclic for A: e_1 spans its own Krylov space and
    # e_2 the rest, so the spin takes 2 witnesses, not d
    one = Mat.identity(gf.standard_field(q), 1)
    mats = [Mat.block_diag([one, a])
            for a in _cyclic_shapes(gf.standard_field(q), random.Random(400 + q))]
    _, calls = _certificates(mats)
    assert [c["witnesses"] for c in calls] == [[0, 1]] * len(mats)
    assert _matches_naive(mats) >= 12


def test_diagonal_matrices_take_every_unit_vector_as_a_witness():
    # g e_i is a multiple of e_i, so each e_i spans its own Krylov space and
    # the spin takes them all
    mats = [Mat(F3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]), Mat.identity(F3, 3),
            Mat.identity(F2, 2)]
    _, calls = _certificates(mats)
    assert [c["witnesses"] for c in calls] == [[0, 1, 2], [0, 1, 2], [0, 1]]
    assert _matches_naive(mats) == len(mats)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_element_order_forms_no_product_and_no_elimination(q):
    # every check reads on Krylov vectors, each from one combiner over g's
    # columns, and the spin that chooses the witnesses reduces copies of
    # them: no Mat product and no Mat._echelon
    ctx = gf.standard_field(q)
    rng = random.Random(700 + q)
    mats = (_e1_fixed(q) + _long_jordan_shapes(ctx, random.Random(500 + q))
            + _cyclic_shapes(ctx, random.Random(400 + q)) + _split_shapes(ctx, rng)
            + [_small_order_blocks(ctx, dim, rng, repeated=True) for dim in range(2, 9)]
            + [_random_invertible(ctx, dim, rng) for dim in range(1, 9)])
    _, calls = _certificates(mats)
    assert all(c["products"] == c["eliminations"] == 0 for c in calls)


def test_element_order_builds_one_ring_when_chi_is_irreducible(monkeypatch):
    # chi is the modulus of the distinct-degree split, its one piece's
    # t-order and the residues t^k mod chi: one _Ring for all three
    f = next(f for f in (Poly._make(F3, [*low, 1])
                         for low in itertools.product(range(3), repeat=5))
             if is_irreducible(f))
    init, built = _Ring.__init__, []

    def counting(self, mod):
        built.append(mod)
        init(self, mod)

    monkeypatch.setattr(_Ring, "__init__", counting)
    c = _companion_of(f)
    assert element_order(c).value() == 242
    assert built == [f]
    # a conjugate of c has the same chi, whose split keeps that ring
    p = _random_invertible(F3, 5, random.Random(5))
    assert element_order(p.inverse() * c * p).value() == 242
    assert built == [f]


def _companion_of(f):
    """The companion matrix of a monic f, whose chi is f."""
    ctx, n = f.field, f.degree
    return Mat.from_function(ctx, n, n, lambda i, j: FieldElem(ctx, ctx.neg(f.coeffs[i]))
                             if j == n - 1 else int(i == j + 1))


def _split_shapes(ctx, rng):
    """Matrices whose chi the distinct-degree split leaves short of its
    irreducibles, conjugated by a random invertible matrix: two irreducibles
    of one degree in one piece, with a repeated factor, a Jordan block at 1,
    and chi a p-th power."""
    k = 3 if ctx.q == 2 else 2  # F_2 has one irreducible quadratic
    c1, c2 = [_companion_of(f) for f in (
        Poly._make(ctx, [*low, 1]) for low in itertools.product(range(ctx.q), repeat=k))
              if is_irreducible(f)][:2]
    # [[c1, I], [0, c1]]: chi = f^2, and g is not semisimple
    twisted = Mat.block_diag([c1, c1]) + Mat.from_function(
        ctx, 2 * k, 2 * k, lambda i, j: int(i + k == j))
    shapes = [[c1, c2], [c1, c2, _jordan(ctx, 1, 2)], [c1, c1, c2],
              [twisted, c2, _jordan(ctx, 1, 3)], [c1, c2] * ctx.p,
              [_jordan(ctx, 1, ctx.p), c1, c2] * ctx.p]
    mats = []
    for blocks in shapes:
        m = Mat.block_diag(blocks)
        p = _random_invertible(ctx, m.rows, rng)
        mats.append(p.inverse() * m * p)
    return mats


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_element_order_matches_naive_without_an_equal_degree_split(q, monkeypatch):
    def split(*args):
        raise RuntimeError("element_order split a distinct-degree piece")

    ctx = gf.standard_field(q)
    mats = _split_shapes(ctx, random.Random(300 + q))
    # the last two have chi a p-th power: its derivative vanishes
    assert all(char_poly(m).derivative().is_zero() for m in mats[-2:])
    expected = [naive_element_order(m) for m in mats]
    monkeypatch.setattr(poly, "_equal_degree_split", split)
    assert [element_order(m).value() for m in mats] == expected


def test_element_order_of_a_main14_q7_witness_takes_few_products(monkeypatch):
    # the exact checks evaluate t^k mod a_k on Krylov vectors, and form no
    # product; powering each dim-28 witness to its order took 176-407
    _, witnesses = claims._witnesses(14, 7)
    product = Mat.__mul__
    counts = []

    def counting(self, other):
        counts[-1] += 1
        return product(self, other)

    monkeypatch.setattr(Mat, "__mul__", counting)
    for w in witnesses:
        counts.append(0)
        element_order(w)
    assert not any(counts), counts


def _counting_ring_products(monkeypatch):
    """A list whose length is the number of _Ring.mul calls from here on."""
    product, calls = _Ring.mul, []

    def counting(self, x, y):
        calls.append(None)
        return product(self, x, y)

    monkeypatch.setattr(_Ring, "mul", counting)
    return calls


def test_element_order_of_a_main14_q7_witness_takes_few_ring_products(monkeypatch):
    # one order search in the ring of a_k over the primes of the bound
    # lcm_d (q^d - 1) p^k: 118-397 products mod chi, a part of its
    # distinct-degree split or a_k per witness, 3193 in all.  A t-order
    # per piece in a ring of its own, then a product tree of the residues
    # r_(N/l) mod a_k, took 174-505 per witness and 4016 in all
    _, witnesses = claims._witnesses(14, 7)
    calls, counts = _counting_ring_products(monkeypatch), []
    for w in witnesses:
        before = len(calls)
        element_order(w)
        counts.append(len(calls) - before)
    assert max(counts) <= 420 and sum(counts) <= 3400, counts


def test_element_order_of_the_empty_matrix():
    # GL_0 is trivial: chi = a_0 = 1, and the ring F_q[t]/(1) is zero
    assert element_order(Mat.identity(F3, 0)).value() == 1


def _partitions(n, most):
    """The partitions of n into parts of at most most, largest part first."""
    if n == 0:
        return [[]]
    return [[k, *rest] for k in range(min(n, most), 0, -1) for rest in _partitions(n - k, k)]


@pytest.mark.parametrize("first", [0, 1], ids=["semisimple-first", "jordan-first"])
@pytest.mark.parametrize("pair,orders", [(([[1, 0], [0, 1]], [[1, 1], [0, 1]]), (1, 3)),
                                         (([[2, 0], [0, 2]], [[2, 1], [0, 2]]), (2, 6))],
                         ids=["I_2,J_2(1)", "diag(2,2),J_2(2)"])
def test_matrices_that_share_chi_keep_their_own_jordan_blocks(pair, orders, first):
    # each pair over F_3 shares chi = (t - lam)^2 and one split of it, but
    # a_0 = t - lam kills only the semisimple matrix: the Jordan block needs
    # a_1 = chi, and its order takes the factor 3, whichever comes first
    mats = [Mat(F3, rows) for rows in pair]
    got = {i: element_order(mats[i]).value() for i in (first, 1 - first)}
    assert (got[0], got[1]) == orders == tuple(naive_element_order(m) for m in mats)
    info = grouporder._split.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_a_conjugate_takes_no_ring_product(q, monkeypatch):
    # P^-1 g P has g's chi and g's Jordan blocks, so its search raises the
    # same residues of the same ring by the same exponents as g's did, and
    # reads each from the split's memo: only its identity tests run
    ctx = gf.standard_field(q)
    rng = random.Random(900 + q)
    mats = ([_random_invertible(ctx, dim, rng) for dim in range(2, 8)]
            + _long_jordan_shapes(ctx, rng) + _split_shapes(ctx, rng))
    calls = _counting_ring_products(monkeypatch)
    for g in mats:
        before = len(calls)
        order = element_order(g)
        first = len(calls) - before
        p = _random_invertible(ctx, g.rows, rng)
        assert element_order(p.inverse() * g * p) == order
        assert len(calls) - before == first
    assert calls


def test_the_search_memos_of_one_chi_stop_growing(monkeypatch):
    # chi = f (t + 1)^3 over F_2, f an irreducible cubic, has the candidates
    # a_0 = f (t + 1), a_1 = f (t + 1)^2 and a_2 = chi, taken by g with
    # Jordan blocks at 1 of sizes 1 + 1 + 1, 2 + 1 and 3: orders 7, 14, 28.
    # Once each candidate has run its search, 50 conjugates of the three
    # add no power and no poly to the memos, and make no ring product
    f = next(f for f in (Poly._make(F2, [*low, 1])
                         for low in itertools.product(range(2), repeat=3))
             if is_irreducible(f))
    one = FieldElem(F2, 1)
    types = [Mat.block_diag([_companion_of(f)] + [_jordan(F2, one, k) for k in sizes])
             for sizes in ([1, 1, 1], [2, 1], [3])]
    chi = char_poly(types[0])
    assert [element_order(m).value() for m in types] == [7, 14, 28]
    searches = grouporder._split(chi).searches

    def sizes():
        return {a: (len(s.powers), len(s.polys)) for a, s in searches.items()}

    first = sizes()
    assert len(first) == 3 and all(powers and polys for powers, polys in first.values())
    calls = _counting_ring_products(monkeypatch)
    rng = random.Random(33)
    for _ in range(50):
        i = rng.randrange(3)
        p = _random_invertible(F2, 6, rng)
        assert element_order(p.inverse() * types[i] * p).value() == [7, 14, 28][i]
        assert sizes() == first
    assert not calls


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_element_order_is_the_same_with_its_splits_kept_as_without(q):
    # every Jordan type of lam^d for d <= 5 and the last two lam of F_q^*
    # (one over F_2), beside J_2 at the first for odd d, each conjugated by
    # a random P: many matrices share a chi, with other Jordan blocks.  In a
    # shuffled order, the orders with every split and chi made afresh, then
    # twice with all of them kept, match the naive order
    ctx = gf.standard_field(q)
    rng = random.Random(800 + q)
    lams = [FieldElem(ctx, v) for v in range(1, ctx.q)][-2:]
    mats = []
    for dim in range(1, 6):
        for lam in lams:
            for sizes in _partitions(dim, dim):
                m = Mat.block_diag([_jordan(ctx, lam, k) for k in sizes]
                                   + [_jordan(ctx, lams[0], 2)] * (dim % 2))
                p = _random_invertible(ctx, m.rows, rng)
                mats.append(p.inverse() * m * p)
    rng.shuffle(mats)
    cold = []
    for m in mats:
        grouporder._split.cache_clear()
        matrix._chi.cache_clear()
        cold.append(element_order(m))
    grouporder._split.cache_clear()
    matrix._chi.cache_clear()
    warm = [element_order(m) for m in mats] + [element_order(m) for m in mats]
    info = grouporder._split.cache_info()
    assert len(mats) == 18 * len(lams) and info.misses < len(mats) and info.hits > len(mats)
    assert warm == cold + cold
    assert [o.value() for o in cold] == [naive_element_order(m) for m in mats]


@pytest.mark.parametrize("wrong", ["bound", "multiplicity"])
def test_a_wrong_split_in_the_cache_never_yields_a_wrong_order(wrong, monkeypatch):
    # chi = (t - 2)^2 over F_3, of diag(2, 2) (order 2) and J_2(2) (order
    # 6), split with 3 in place of q - 1 = 2, or with the one part (t - 2, 1)
    # and so the one candidate t - 2, and kept.  The matrices read that
    # split later: each call raises CheckFailed or gives the exact order
    chi = Poly(F3, [-2, 1]) ** 2
    with pytest.MonkeyPatch.context() as mp:
        if wrong == "bound":
            mp.setattr(grouporder, "factor_q_pow_minus_one", lambda p, e: FactoredInt({3: 1}))
        else:
            mp.setattr(grouporder, "_squarefree_decomposition",
                       lambda f: [(Poly(F3, [-2, 1]), 1)])
        grouporder._split(chi)
    got = []
    for rows in ([[2, 0], [0, 2]], [[2, 1], [0, 2]]):
        try:
            got.append(element_order(Mat(F3, rows)).value())
        except CheckFailed:
            got.append(None)
    assert got == {"bound": [None, None], "multiplicity": [2, None]}[wrong]
    info = grouporder._split.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_the_cache_of_splits_keeps_at_most_its_bound():
    # the 465 diagonal matrices diag(a, b), 1 <= a <= b < 31, over F_31 have
    # 465 distinct chi = (t - a)(t - b), past the _SPLITS = 256 kept; the
    # order is lcm(ord a, ord b), before and after the first are dropped
    F31 = gf.standard_field(31)

    def order(a):
        return next(k for k in range(1, 31) if pow(a, k, 31) == 1)

    pairs = [(a, b) for a in range(1, 31) for b in range(a, 31)]
    for _ in range(2):
        got = [element_order(Mat(F31, [[a, 0], [0, b]])).value() for a, b in pairs]
        assert got == [math.lcm(order(a), order(b)) for a, b in pairs]
    info = grouporder._split.cache_info()
    assert info.maxsize == grouporder._SPLITS == 256
    assert info.currsize == grouporder._SPLITS < len(pairs)
    assert info.misses == 2 * len(pairs) and info.hits == 0


def test_a_permutation_conjugate_with_the_same_rhos_forms_no_product_of_chi(monkeypatch):
    # g = C(t - 2) + C(t^2 + 2) over F_5 spins rho = (t - 2, t^2 + 2), and
    # its conjugate P g P^-1 by the permutation of basis vectors that moves
    # the blocks spins rho = (t^2 + 2, t - 2): one multiset, so the spin of
    # the conjugate takes g's chi from the memo and multiplies no
    # polynomials.  t^2 = 3 has order 4 in F_5, so both orders are 8
    F5 = gf.standard_field(5)
    f, h = Poly(F5, [-2, 1]), Poly(F5, [2, 0, 1])
    g = Mat.block_diag([_companion_of(f), _companion_of(h)])
    perm = Mat.from_function(F5, 3, 3, lambda i, j: int(j == (1, 2, 0)[i]))
    conj = perm * g * perm.inverse()
    assert conj == Mat.block_diag([_companion_of(h), _companion_of(f)])
    assert element_order(g).value() == 8
    products = []
    real = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or real(a, b))
    chi, _, _, witnesses = matrix._spin(conj)
    monkeypatch.undo()
    assert products == [] and chi == f * h and witnesses == [0, 2]
    assert element_order(conj).value() == 8 == naive_element_order(conj)


def _plain_order(g, cap):
    """The reference for naive_element_order: g, g^2, ... up to g^cap."""
    ident, power = Mat.identity(g.field, g.rows), g
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = power * g
    return None


def _cycle(ctx, n):
    """The permutation matrix of an n-cycle: order n."""
    return Mat.from_function(ctx, n, n, lambda i, j: int(j == (i + 1) % n))


def _singular_shapes(m):
    """Singular matrices, which no power takes to I: a nilpotent, idempotents,
    zero, and diag(N, C) for N nilpotent of length 3 and C an n-cycle, whose
    powers repeat from g^3 on with period n; for n >= m - 3 the baby steps
    g^j (j < m) all differ, and a giant step meets one of g^3 .. g^(m-1)."""
    nilpotent = _jordan(F3, 0, 3)
    return ([Mat(F2, [[0, 1], [0, 0]]), Mat(F2, [[1, 0], [0, 0]]), Mat(F3, [[1, 1], [0, 0]]),
             Mat.zeros(F2, 2)]
            + [Mat.block_diag([nilpotent, _cycle(F3, n)]) for n in (m - 3, m - 2, m - 1, m)])


# caps on both sides of the squares 16 and 25; m = isqrt(cap) + 1 baby steps
@pytest.mark.parametrize("cap", [15, 16, 17, 24, 25, 26])
def test_naive_element_order_matches_plain_iteration(cap):
    m = math.isqrt(cap) + 1
    mats = [Mat.identity(F3, 3), _cycle(F2, m), _cycle(F2, m + 1), _cycle(F2, cap),
            _cycle(F2, cap + 1), _cycle(F3, 2 * m), _cycle(F3, 2 * m + 1)]
    rng = random.Random(cap)
    for q in (2, 3, 4, 5):
        mats += [_random_invertible(gf.standard_field(q), rng.randrange(1, 4), rng)
                 for _ in range(20)]
    singular = _singular_shapes(m)
    got = [naive_element_order(g, cap) for g in mats + singular]
    assert got == [_plain_order(g, cap) for g in mats + singular]
    # order 1, order m exactly, the cap itself and one past it; no singular g
    # has an order
    assert got[:5] == [1, m, m + 1, cap, None]
    assert got[len(mats):] == [None] * len(singular)


def test_naive_element_order_takes_about_two_square_roots_of_the_cap(monkeypatch):
    product, count = Mat.__mul__, []

    def counting(self, other):
        count.append(1)
        return product(self, other)

    # a generator of F_9973^* has order 9972, of F_10007^* order 10006
    big, past = (gf.standard_field(p) for p in (9973, 10007))
    g = Mat(big, [[big.mult_generator()]])
    monkeypatch.setattr(Mat, "__mul__", counting)
    assert naive_element_order(g) == 9972
    assert len(count) <= 2 * 101
    assert naive_element_order(Mat(past, [[past.mult_generator()]])) is None
    # a nilpotent's powers repeat at g^2 = g^3 = 0, which ends the search
    count.clear()
    assert naive_element_order(Mat(F2, [[0, 1], [0, 0]])) is None
    assert len(count) == 3


def test_varpi_identity_empty():
    assert len(varpi(Mat.identity(F3, 3))) == 0


def test_closure_bfs_trivial():
    assert closure_bfs([Mat.identity(F3, 2)]) == 1


# q = 8 and 9 run the extension-field combiner in both characteristics
@pytest.mark.parametrize("q,expected", [(3, 24), (4, 60), (5, 120), (7, 336),
                                        (8, 504), (9, 720)])
def test_closure_bfs_sl2(q, expected):
    assert closure_bfs(_sl2_gens(gf.standard_field(q))) == order_sl(2, q).value() == expected


def _sl2_gens(ctx):
    gens = [Mat(ctx, [[1, 1], [0, 1]]), Mat(ctx, [[1, 0], [1, 1]])]
    if ctx.f > 1:
        # transvections over the full field need a field generator too
        w = ctx.gen()
        gens += [Mat(ctx, [[1, w], [0, 1]]), Mat(ctx, [[1, 0], [w, 1]])]
    return gens


def test_closure_bfs_forms_each_row_image_once(monkeypatch):
    # the 720 elements of SL_2(9) have 80 distinct rows, the nonzero vectors
    # of F_9^2; a combiner run per row of every element would run 1440 times
    combiner, runs = grouporder._combiner, []

    def counting(F, rows, cols):
        combine, calls = combiner(F, rows, cols), []
        runs.append(calls)

        def counted(coeffs):
            calls.append(coeffs)
            return combine(coeffs)
        return counted

    monkeypatch.setattr(grouporder, "_combiner", counting)
    gens = _sl2_gens(gf.standard_field(9))
    assert closure_bfs(gens) == 720
    assert len(runs) == len(gens)
    for calls in runs:
        assert len(calls) == len(set(calls)) <= 80


def test_closure_bfs_rejects_generators_over_different_fields():
    f5, f25 = gf.standard_field(5), gf.standard_field(25)
    gens = [Mat(f5, [[1, 1], [0, 1]]), Mat(f25, [[1, 0], [1, 1]])]
    with pytest.raises(MixedFields):
        closure_bfs(gens)
    with pytest.raises(MixedFields):
        closure_bfs(gens[::-1])


def test_closure_bfs_overflow():
    ctx = gf.standard_field(5)
    gens = [Mat(ctx, [[1, 1], [0, 1]]), Mat(ctx, [[1, 0], [1, 1]])]
    assert closure_bfs(gens, cap=10) == OVERFLOW


def test_lps_certificate_ranges():
    with pytest.raises(BadParam):
        lps_certificate([], ("sl", 4, 3))
    with pytest.raises(BadParam):
        lps_certificate([], ("sl", 6, 2))
    with pytest.raises(BadParam):
        lps_certificate([], ("sp", 3, 3))


def test_lps_certificate_empty_inconclusive():
    assert lps_certificate([], ("sp", 4, 3)) == Certificate.Inconclusive


def test_prime_set_semantics():
    a = PrimeSet([3, 2, 2])
    b = PrimeSet([5])
    assert list(a.union(b)) == [2, 3, 5]
    assert a.issubset(a.union(b))
    assert a.to_json() == [2, 3]


def test_factored_value_past_the_flat_budget_is_a_sympgen_error():
    assert FactoredInt({2: 63}).value() == 2**63
    with pytest.raises(SympgenError):
        FactoredInt({2: 64}).value()
