"""Polynomial arithmetic, factorization, irreducibility, self-reciprocity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympgen import gf
from sympgen.errors import BadParam, MixedFields, ZeroPolynomial
from sympgen.gf import FieldElem
from sympgen.poly import (Poly, _root_exponents, _slots,
                          _squarefree_decomposition, _unpack, factor, is_irreducible,
                          is_self_reciprocal)

F2 = gf.standard_field(2)
F3 = gf.standard_field(3)
F5 = gf.standard_field(5)
F7 = gf.standard_field(7)
# one field or more of each kind, as in test_gf: prime, tabled p = 2, tabled
# odd, untabled
KINDS = [2, 7, 16, 27, 2**17, 3**11]


def test_eval_condition_polynomial():
    # a^2+3 at a=1 over F_7 is 4, nonzero
    p = Poly(F7, [3, 0, 1])
    assert p.eval(1) == F7.elem(4)


def test_eval_zero_poly():
    assert Poly.zero(F5).eval(3) == F5.zero


@pytest.mark.parametrize("w", [1, 2, 4, 8])
@pytest.mark.parametrize("p", [2, 3, 7, 31, 127, 257])
def test_unpack_reduces_every_slot(w, p):
    # both sides of the slot count 16 w where byte planes take over, where
    # w (p - 1) fits a byte (w = 2, 4, 8 with small p) and where it does not
    rng = random.Random(f"unpack,{w},{p}")
    for k in (1, 16 * w - 1, 16 * w, 48 * w + 1, 64):
        full = (1 << 8 * w * k) - 1  # every slot at 2^(8w) - 1
        for n in (rng.getrandbits(8 * w * k), full, 0):
            want = [v % p for v in _slots(n, k, w)]
            assert list(_unpack(n, k, w, p)) == want, (k, n == full)


def _ref_root_exponents(field, polys):
    """The i < q - 1 at which some (k, c) term list sums to 0 at g^i, each
    term c * (g^i)^k formed with FieldElem arithmetic."""
    g = field.mult_generator()
    return [i for i in range(field.q - 1)
            if any(sum((field.elem(c) * (g ** i) ** k for k, c in poly), field.zero)
                   == field.zero for poly in polys)]


@pytest.mark.parametrize("q", [2, 7, 257, 64, 81, 125, 243, 1331])
def test_root_exponents_match_evaluation(q):
    # prime fields (257: digits wider than a byte, so its plane stays a
    # list), the XOR plane of characteristic 2 and one bytes plane per digit
    # of an odd extension
    field = gf.standard_field(q)
    p, f, m = field.p, field.f, q - 1
    powers = field.generator_powers()
    everywhere = list(range(m))
    # a polynomial that is 0 mod p vanishes at every a: none is admissible
    assert _root_exponents(powers, p, f, [[(0, p), (3, -2 * p), (5, 0)]]) == everywhere
    assert _root_exponents(powers, p, f, [[]]) == everywhere
    assert _root_exponents(powers, p, f, []) == []
    # exponents at or above q - 1 are read mod q - 1
    assert _root_exponents(powers, p, f, [[(m, 1), (0, -1)]]) == everywhere
    assert _root_exponents(powers, p, f, [[(q, 1), (1, -1)]]) == everywhere
    rng = random.Random(f"roots,{q}")
    for _ in range(4):
        polys = [[(rng.randrange(3 * q), rng.randrange(-3 * p, 3 * p))
                  for _ in range(rng.randrange(1, 12))]
                 for _ in range(rng.randrange(1, 4))]
        want = _ref_root_exponents(field, polys)
        assert _root_exponents(powers, p, f, polys) == want, polys
    # slots wider than a byte for every odd p, where a carry would mark a
    # root as not one: 70 copies each of (1, p - 1) and (q, 1) sum to 70 p
    # times a digit of g^i, which is 0 mod p, so the roots are those of
    # t^(m/2) - 1 (the even i for odd p)
    half = [(m // 2, 1), (0, -1)]
    cancel = [(1, p - 1), (q, 1)] * 70 + half
    assert _root_exponents(powers, p, f, [cancel]) == _ref_root_exponents(field, [half])
    long = [(rng.randrange(3 * q), rng.randrange(1, p)) for _ in range(70)]
    assert _root_exponents(powers, p, f, [long]) == _ref_root_exponents(field, [long])


def test_eval_hand_arithmetic():
    # t^3 - t + 1 at 2 over F_3: 8 - 2 + 1 = 7 = 1
    p = Poly(F3, [1, -1, 0, 1])
    assert p.eval(2) == F3.one


@pytest.mark.parametrize("q", [7, 9])
def test_powmod_rejects_a_negative_exponent(q):
    F = gf.standard_field(q)
    with pytest.raises(BadParam, match="negative polynomial power"):
        Poly.t(F).powmod(-1, Poly(F, [3, 1, 1]))


@pytest.mark.parametrize("e", [0, 1, 5])
def test_powmod_rejects_the_zero_modulus_at_every_exponent(e):
    with pytest.raises(ZeroPolynomial):
        Poly.t(F7).powmod(e, Poly.zero(F7))


def test_divmod_roundtrip():
    a = Poly(F5, [1, 2, 3, 4, 1])
    b = Poly(F5, [2, 1, 1])
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_factor_n4_commutator_charpoly():
    # (t+1)^4 (t+omega)^2 (t+omega^2)^2 with omega a primitive cube root of 1:
    # over F_7 omega = 2,4 lie in the field; over F_5 the omega-factors pair
    # into the irreducible (t^2-t+1)^2 (note omega + omega^2 = -1)
    p7 = Poly(F7, [1, 2, 1, 2, 4, 2, 1, 2, 1])
    fac7 = factor(p7)
    assert fac7.product() == p7
    assert set(fac7.factors) == {
        (Poly(F7, [1, 1]), 4),
        (Poly(F7, [2, 1]), 2),
        (Poly(F7, [4, 1]), 2),
    }
    p5 = Poly(F5, [1, 2, 1, 2, 4, 2, 1, 2, 1])
    fac5 = factor(p5)
    assert fac5.product() == p5
    assert set(fac5.factors) == {
        (Poly(F5, [1, 1]), 4),
        (Poly(F5, [1, -1, 1]), 2),
    }


def test_factor_t2_minus_1_f5():
    fac = factor(Poly(F5, [-1, 0, 1]))
    assert set(fac.factors) == {(Poly(F5, [-1, 1]), 1), (Poly(F5, [1, 1]), 1)}


def test_factor_two_cubics_f2():
    c1 = Poly(F2, [1, 1, 0, 1])
    c2 = Poly(F2, [1, 0, 1, 1])
    fac = factor(c1 * c2)
    assert set(fac.factors) == {(c1, 1), (c2, 1)}


def test_factor_is_deterministic():
    p = Poly(F5, [1, 2, 3, 4, 0, 1, 1, 2])
    assert factor(p).factors == factor(p).factors


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_factor_remultiplies_random(q):
    ctx = gf.standard_field(q)
    rng = random.Random(q)
    for _ in range(25):
        coeffs = [FieldElem(ctx, rng.randrange(ctx.q)) for _ in range(rng.randrange(2, 10))]
        p = Poly(ctx, coeffs)
        if p.is_zero():
            continue
        fac = factor(p)
        assert fac.product() == p
        for irr, _ in fac.factors:
            assert is_irreducible(irr)
            assert irr.lead() == 1


def test_is_irreducible_table_entries():
    assert is_irreducible(Poly(F2, [1, 1, 0, 0, 1]))       # t^4+t+1
    assert not is_irreducible(Poly(F3, [-1, 0, 1]))        # t^2-1
    assert is_irreducible(Poly(F3, [2, 1, 1]))             # t^2+t+2


def test_bundled_moduli_give_right_field_size():
    for (q, _tag), coeffs in gf.bundled_moduli().items():
        p, f = gf._split_prime_power(q)
        Fp = gf.standard_field(p)
        m = Poly(Fp, [c % p for c in coeffs])
        assert is_irreducible(m)
        # order of the residue of t divides p^f - 1
        ctx = gf.make_ext_field(p, f, tuple(c % p for c in coeffs))
        assert ctx.pow(ctx.gen().val, p**f - 1) == 1


def test_self_reciprocal_n4_trace_poly():
    # t^8 - a t^7 + a t^5 - (a^2+1) t^4 + a t^3 - a t + 1 for several a
    for q, a in [(3, 1), (5, 2), (7, 3)]:
        ctx = gf.standard_field(q)
        av = ctx.elem(a)
        p = Poly(ctx, [1, -av, 0, av, -(av * av + 1), av, 0, -av, 1])
        assert is_self_reciprocal(p)


def test_self_reciprocal_rejects_odd_degree():
    assert not is_self_reciprocal(Poly(F2, [1, 1]))


def test_squarefree_gcd_with_derivative():
    for p in [Poly(F5, [1, 1]) * Poly(F5, [2, 1]), Poly(F7, [3, 1, 1])]:
        assert p.gcd(p.derivative()).degree == 0
    sq = Poly(F5, [1, 1]) ** 2
    assert sq.gcd(sq.derivative()).degree > 0


def test_squarefree_decomposition_pth_powers():
    # (t+1)^3 (t^2+1) over F_3 exercises the p-th-root branch
    p = Poly(F3, [1, 1]) ** 3 * Poly(F3, [1, 0, 1])
    fac = factor(p)
    assert fac.product() == p
    assert dict(fac.factors) == {Poly(F3, [1, 1]): 3, Poly(F3, [1, 0, 1]): 1}


def test_gcd_checks_the_fields_first():
    # Euclid's list loop checks no field, so gcd checks them first, also
    # when one side is zero
    a = Poly(F3, [1, 2, 1])
    for x, y in [(a, Poly.zero(F5)), (Poly.zero(F5), a), (a, Poly(F5, [1, 1]))]:
        with pytest.raises(MixedFields):
            x.gcd(y)


def _ref_gcd(a, b):
    """Euclid on Poly remainders, made monic: the reference for the list
    loop of Poly.gcd."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


@pytest.mark.parametrize("q", KINDS)
def test_gcd_matches_the_reference_euclid(q):
    F = gf.standard_field(q)
    rng = random.Random(f"gcd,{q}")

    def rand(deg):  # degree deg or less, zero for deg = -1
        return Poly._make(F, [rng.randrange(q) for _ in range(deg + 1)])

    zero, cases = Poly.zero(F), []
    for _ in range(20 if q <= 27 else 4):
        a, b, c = rand(rng.randrange(-1, 12)), rand(rng.randrange(-1, 9)), rand(rng.randrange(5))
        cases += [(a, b), (b, a), (a * c, b * c), (a * c, c), (a, zero), (zero, a)]
    for a, b in cases + [(zero, zero)]:
        g = a.gcd(b)
        assert g == _ref_gcd(a, b)
        assert g.is_zero() if a.is_zero() and b.is_zero() else g.lead() == 1


def _ref_squarefree_decomposition(p):
    """The Yun loop that goes on dividing once g = 1: the reference."""
    F = p.field
    out = []

    def recurse(f, base_mult):
        if f.degree < 1:
            return
        d = f.derivative()
        if d.is_zero():
            root = Poly._make(F, [F.pow(c, F.q // F.p) for c in f.coeffs[::F.p]])
            recurse(root, base_mult * F.p)
            return
        g = f.gcd(d)
        w = f // g
        mult = 1
        while w.degree > 0:
            y = w.gcd(g)
            z = w // y
            if z.degree > 0:
                out.append((z.monic(), base_mult * mult))
            w = y
            g = g // y
            mult += 1
        if g.degree > 0:
            recurse(g, base_mult)

    recurse(p.monic(), 1)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_squarefree_decomposition_matches_the_reference_loop(q):
    F = gf.standard_field(q)
    rng = random.Random(f"sqfree,{q}")

    def rand_monic(deg):
        return Poly._make(F, [rng.randrange(q) for _ in range(deg)] + [1])

    cases = []
    for _ in range(40):
        poly = Poly._make(F, (rng.randrange(1, q),))
        for _ in range(rng.randrange(1, 4)):
            poly = poly * rand_monic(rng.randrange(1, 4)) ** rng.choice([1, 2, 3, F.p, 2 * F.p])
        cases.append(poly)
    squarefree = [poly for poly in (rand_monic(rng.randrange(1, 9)) for _ in range(40))
                  if poly.gcd(poly.derivative()).degree == 0]
    assert len(squarefree) > 10
    cases += squarefree + [rand_monic(3) ** (F.p**2), rand_monic(2) ** F.p * rand_monic(2)]
    for poly in cases:
        assert _squarefree_decomposition(poly) == _ref_squarefree_decomposition(poly)


@given(st.sampled_from([2, 3, 4, 5, 9]), st.data())
@settings(max_examples=50, deadline=None)
def test_factor_property(q, data):
    ctx = gf.standard_field(q)
    coeffs = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=2, max_size=9))
    p = Poly(ctx, [FieldElem(ctx, v) for v in coeffs])
    if p.is_zero():
        return
    fac = factor(p)
    assert fac.product() == p
    assert sum(f.degree * m for f, m in fac.factors) == p.degree
