"""Generator pairs, invariant block decomposition, auxiliary matrices."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympgen import gf
from sympgen.construct import (
    BlockDecomp,
    GeneratorPair,
    SympSpace,
    block_decomposition,
    build,
    build_general,
    build_n5,
    build_n6_alt,
    build_n8_alt,
    expected_a_matrices,
    g3_displayed,
    hat_embed_bottom,
    phat_base_change,
    restrict,
    small_r,
    tau_exponent,
    tau_of,
    theta_matrix,
)
from sympgen.errors import BadParam, NoTauDefined, OutOfRange
from sympgen.gf import FieldElem
from sympgen.matrix import Mat, char_poly, paper_commutator
from sympgen.poly import Poly, is_self_reciprocal

GENERAL_COMBOS = [(n, q, 1) for n in (4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
                  for q in (2, 3, 4, 5) if (n, q) != (4, 2)]
# a is a packed value, passed as FieldElem(F, a) so that it reaches beyond F_p
BESPOKE_COMBOS = [("n5", 5, 3, 1), ("n5", 5, 4, 2), ("n5", 5, 9, 3),
                  ("n6alt", 6, 3, 1), ("n6alt", 6, 9, 2),
                  ("n8alt", 8, 3, 1), ("n8alt", 8, 4, 2), ("n8alt", 8, 9, 2)]


def _order(m):
    k, cur = 1, m
    ident = Mat.identity(m.field, m.rows)
    while cur != ident:
        cur = cur * m
        k += 1
        assert k < 10**4
    return k


# -- constructor postconditions ------------------------------------------

@pytest.mark.parametrize("n,q,a", GENERAL_COMBOS)
def test_general_postconditions(n, q, a):
    pair = build_general(n, q, a)
    ident = Mat.identity(pair.field, 2 * n)
    assert pair.x * pair.x == ident
    assert pair.y * pair.y * pair.y == ident
    assert pair.space.is_symplectic(pair.x)
    assert pair.space.is_symplectic(pair.y)
    assert pair.x.det() == pair.field.one
    assert pair.y.det() == pair.field.one


@pytest.mark.parametrize("recipe,n,q,a", BESPOKE_COMBOS)
def test_bespoke_postconditions(recipe, n, q, a):
    pair = build(recipe, n, q, FieldElem(gf.standard_field(q), a))
    ident = Mat.identity(pair.field, 2 * n)
    assert pair.x * pair.x == ident
    assert pair.y * pair.y * pair.y == ident
    assert pair.space.is_symplectic(pair.x)
    assert pair.space.is_symplectic(pair.y)


def test_general_rejects_bad_parameters():
    with pytest.raises(BadParam):
        build_general(4, 5, 0)
    with pytest.raises(BadParam):
        build_general(5, 5, 1)   # n = 5 has its own recipe
    with pytest.raises(BadParam):
        build_n6_alt(4, 1)
    with pytest.raises(BadParam):
        build("nope", 4, 3, 1)


@pytest.mark.parametrize("recipe,n", [("n5", 5), ("n6alt", 6), ("n8alt", 8)])
def test_recipes_reject_a_field_of_another_size(recipe, n):
    with pytest.raises(BadParam):
        build(recipe, n, 9, 1, gf.standard_field(25))


@pytest.mark.parametrize("recipe,n,q,a", [
    ("general", 7, 3, 1), ("general", 10, 4, 2), ("n5", 5, 5, 2),
    ("n8alt", 8, 5, 1)])
def test_random_word_char_polys_self_reciprocal(recipe, n, q, a):
    pair = build(recipe, n, q, FieldElem(gf.standard_field(q), a))
    rng = random.Random(f"{recipe},{n},{q}")
    for _ in range(20):
        g = Mat.identity(pair.field, 2 * n)
        for _ in range(rng.randrange(1, 8)):
            g = g * (pair.x if rng.random() < 0.5 else pair.y)
        assert is_self_reciprocal(char_poly(g))


@given(st.sampled_from([(7, 3), (9, 4), (12, 5)]), st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_word_char_poly_self_reciprocal_hypothesis(nq, seed):
    n, q = nq
    pair = build_general(n, q, 1)
    rng = random.Random(seed)
    g = pair.x * pair.y
    for _ in range(rng.randrange(1, 6)):
        g = g * (pair.x if rng.random() < 0.5 else pair.y)
    assert is_self_reciprocal(char_poly(g))


# -- identities quoted for the small cases -------------------------------

def test_commutator_char_poly_n4():
    # over any prime field with a != 0 the commutator has the fixed
    # integer characteristic polynomial 1,2,1,2,4,2,1,2,1
    for q, a in [(3, 1), (5, 2), (7, 3)]:
        pair = build_general(4, q, a)
        cp = char_poly(paper_commutator(pair.x, pair.y))
        want = [v % q for v in (1, 2, 1, 2, 4, 2, 1, 2, 1)]
        assert list(cp.coeffs) == want


def test_trace_identities_n6_alt():
    for q, a in [(3, 1), (5, 2), (7, 3), (9, 4)]:
        F = gf.standard_field(q)
        a = FieldElem(F, a)
        pair = build_n6_alt(q, a)
        c = pair.commutator()
        assert pair.y.trace() == F.elem(-3)
        assert (pair.x * pair.y).trace() == a
        assert c.trace() == F.elem(-2)
        assert (c * pair.x * pair.y).trace() == -a


# -- tau ------------------------------------------------------------------

def test_tau_exponent_table():
    assert tau_exponent("n5", 5, 3) == 6
    assert tau_exponent("n6alt", 6, 5) == 5
    assert tau_exponent("n8alt", 8, 2) == 4
    assert tau_exponent("n8alt", 8, 3) == 8
    assert tau_exponent("general", 7, 2) == 8
    assert tau_exponent("general", 9, 3) == 12
    assert tau_exponent("general", 11, 2) == 8
    assert tau_exponent("general", 11, 3) == 16
    assert tau_exponent("general", 13, 5) == 24
    assert tau_exponent("general", 14, 2) == 24
    assert tau_exponent("general", 14, 3) == -48


def test_tau_undefined_cases():
    with pytest.raises(NoTauDefined):
        tau_exponent("general", 4, 3)
    with pytest.raises(NoTauDefined):
        tau_exponent("general", 6, 3)


def test_tau_of_matches_exponent():
    pair = build_general(7, 2, 1)
    assert tau_of(pair) == paper_commutator(pair.x, pair.y) ** 8
    pair = build_general(14, 3, 1)
    c = pair.commutator()
    assert tau_of(pair) == (c ** 48).inverse()


# -- invariant decomposition ---------------------------------------------

@pytest.mark.parametrize("n", [10, 12, 13, 14, 15])
@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_block_decomposition(n, q):
    pair = build_general(n, q, 1)
    dec = block_decomposition(pair)
    c = pair.commutator()
    sp = pair.space

    # the listed coordinate subspaces are invariant and partition the space
    for basis in dec.all_subspaces():
        restrict(c, sp.basis(basis))

    eps, mats = expected_a_matrices(pair.field, n)
    assert eps == dec.epsilon
    for basis, (mexp, order) in zip(dec.a_summands, mats):
        mres = restrict(c, sp.basis(basis))
        assert mres == mexp
        assert _order(mres) == order
        if not (n == 14 and pair.field.p > 2):
            assert (mres ** 24).is_identity()

    for triple in dec.b_summands:
        rt = restrict(c, sp.basis(triple))
        assert (rt ** 6).is_identity()

    assert restrict(c, sp.basis(dec.c_plus)) == dec.theta
    assert restrict(c, sp.basis(dec.c_minus)) == dec.theta.inverse().transpose()


def test_restrict_rejects_what_is_not_a_section():
    F7 = gf.standard_field(7)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    g = Mat(F7, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])  # e2 -> e1 + e2
    assert restrict(g, [e1]) == Mat(F7, [[1]])
    with pytest.raises(BadParam):  # span(e2) is not invariant
        restrict(g, [e2])
    with pytest.raises(BadParam):  # dependent basis
        restrict(Mat(F7, [[2, 0], [0, 3]]), [(1, 0), (1, 0)])
    with pytest.raises(BadParam):  # span(e2) is not invariant as a quotient
        restrict(g, [e1], quotient=[e2])
    with pytest.raises(BadParam):
        restrict(g, [e3], quotient=[e2])


def test_restrict_on_a_quotient_is_the_lower_right_block():
    F5 = gf.standard_field(5)
    rng = random.Random(4)
    # block upper-triangular: <e_1, e_2> is invariant
    rows = [[rng.randrange(5) if i < 2 or j >= 2 else 0 for j in range(5)]
            for i in range(5)]
    g = Mat(F5, rows)
    unit = [tuple(int(i == j) for i in range(5)) for j in range(5)]
    low = Mat(F5, [row[2:] for row in rows[2:]])
    assert restrict(g, unit[2:], quotient=unit[:2]) == low
    assert restrict(g, unit[:2]) == Mat(F5, [row[:2] for row in rows[:2]])
    # another basis of the quotient span gives the same action
    assert restrict(g, unit[2:], quotient=[unit[0], (1, 1, 0, 0, 0)]) == low


@pytest.mark.parametrize("q", [3, 5])
def test_restriction_order_16_n14(q):
    pair = build_general(14, q, 1)
    dec = block_decomposition(pair)
    mres = restrict(pair.commutator(), pair.space.basis(dec.a_summands[0]))
    assert dec.epsilon == -1
    assert _order(mres) == 16


def test_block_decomposition_out_of_range():
    with pytest.raises(OutOfRange):
        block_decomposition(build_general(9, 3, 1))
    with pytest.raises(OutOfRange):
        block_decomposition(build_general(11, 3, 1))


def test_theta_char_poly_even_q():
    # over even q > 2 the 6x6 block has char poly (t^2+1)(t^2+t+1)(t^2+at+1)
    for q, a in [(4, 2), (8, 2)]:
        F = gf.standard_field(q)
        a = FieldElem(F, a)
        th = theta_matrix(F, a, q)
        t = Poly.t(F)
        one = Poly.one(F)
        want = (t * t + one) * (t * t + t + one) * \
            (t * t + Poly(F, [a]) * t + one)
        assert char_poly(th) == want


# -- auxiliary matrices ---------------------------------------------------

@pytest.mark.parametrize("q", [5, 7, 25, 49])
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_root_subgroup_parameterization(q, i):
    F = gf.standard_field(q)
    for a in (1, 2):
        for b1 in range(4):
            for b2 in range(4):
                lhs = small_r(F, a, i, b1) * small_r(F, a, i, b2)
                assert lhs == small_r(F, a, i, (b1 + b2) % F.p)
        assert small_r(F, a, i, 2).det() == F.one


@pytest.mark.parametrize("q,a,n", [(5, 1, 13), (7, 2, 12), (25, 7, 15)])
def test_phat_centralizes_r1_r2(q, a, n):
    F = gf.standard_field(q)
    a = FieldElem(F, a)
    ph = phat_base_change(F, a, n)
    assert ph.det() == F.one
    rng = random.Random(0)
    for _ in range(20):
        b = FieldElem(F, rng.randrange(q))
        for i in (1, 2):
            full = hat_embed_bottom(F, n, small_r(F, a, i, b))
            assert ph * full == full * ph


@pytest.mark.parametrize("eq,q,a", [
    ("G3", 7, 1), ("G3", 25, 3), ("G39", 5, 1), ("39", 7, 1), ("39", 25, 4),
    ("G311", 5, 1), ("G311", 49, 3), ("SL3-5", 7, 2), ("SL3-5", 9, 4)])
def test_displayed_triples_det_one(eq, q, a):
    F = gf.standard_field(q)
    gens = g3_displayed(F, FieldElem(F, a), eq)
    assert len(gens) == 3
    for g in gens:
        assert g.det() == F.one


def test_displayed_triple_entry():
    F = gf.standard_field(7)
    gens = g3_displayed(F, 1, "G3")
    assert gens[1][(1, 0)] == (-64) % 7


def test_aux_matrix_builders_reject_bad_parameters():
    F = gf.standard_field(5)
    with pytest.raises(BadParam):
        g3_displayed(F, 1, "nothing")
    with pytest.raises(BadParam):
        phat_base_change(F, 1, 10)
    with pytest.raises(BadParam):
        small_r(gf.standard_field(4), 1, 1, 1)
