"""Field arithmetic: defining relations, orders, subfields, embeddings."""

import itertools
import random
import re
import tracemalloc

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sympgen import gf
from sympgen.errors import (
    BadParam,
    CheckFailed,
    CompositeCharacteristic,
    DivisionByZero,
    NoEmbedding,
    ReducibleModulus,
)
from sympgen.factorint import FactoredInt
from sympgen.gf import FieldElem
from sympgen.poly import Poly

FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 243, 3**7]
ODD_EXTENSIONS = [q for q in FIELDS if q % 2 and not sympy.isprime(q)]
# one field or more of each kind: prime, tabled p = 2, tabled odd, untabled
KINDS = [2, 7, 16, 27, 2**17, 3**11]


def test_make_ext_field_f8():
    F8 = gf.make_ext_field(2, 3, (1, 1, 0, 1))
    assert (F8.p, F8.f, F8.q) == (2, 3, 8)


def test_make_ext_field_prime():
    F3 = gf.make_ext_field(3, 1, (0, 1))
    assert F3.q == 3 and F3.is_prime_field


def test_reducible_modulus_rejected():
    # t^3+t^2+t+1 = (t+1)(t^2+1) over F_2
    with pytest.raises(ReducibleModulus):
        gf.make_ext_field(2, 3, (1, 1, 1, 1))


def test_composite_characteristic_rejected():
    with pytest.raises(CompositeCharacteristic):
        gf.make_ext_field(4, 1, (0, 1))


def test_defining_relation_f8():
    F8 = gf.make_ext_field(2, 3, (1, 1, 0, 1))
    a = F8.gen()
    assert a**3 == a + 1
    assert a**7 == F8.one


def test_prime_field_inverse():
    F3 = gf.standard_field(3)
    assert F3.elem(2).inv() == F3.elem(2)


def test_an_element_never_equals_an_int():
    # 3 and 10 are one element of F_7 but two ints: no hash fits both
    F7 = gf.standard_field(7)
    e = FieldElem(F7, 3)
    assert e != 3 and e != 10 and 3 != e
    assert e == F7.elem(10) and len({e, F7.elem(10)}) == 1


@pytest.mark.parametrize("q", [7, 9])
def test_an_element_times_a_polynomial_or_matrix_is_its_scaling(q):
    # FieldElem returns NotImplemented for other operands, so Python reaches
    # Poly.__rmul__ and Mat.__rmul__
    from sympgen.matrix import Mat
    F = gf.standard_field(q)
    c = F.elem(2) if q == 7 else F.gen()
    P = Poly(F, [1, 1, 3])
    M = Mat(F, [[1, 2], [3, 4]])
    assert c * P == P.scale(c) and c * M == M.scale(c)
    for op in (lambda: c + 1.5, lambda: 1.5 - c, lambda: c * 1.5, lambda: c / 1.5):
        with pytest.raises(TypeError):
            op()


def test_division_by_zero():
    F5 = gf.standard_field(5)
    with pytest.raises(DivisionByZero):
        F5.elem(0).inv()


@pytest.mark.parametrize("q", FIELDS)
def test_unit_group_order(q):
    ctx = gf.standard_field(q)
    for b in ctx.units():
        assert b ** (q - 1) == ctx.one
        order = gf.mult_order(b).value()
        assert (q - 1) % order == 0


@pytest.mark.parametrize("q", FIELDS)
def test_frobenius_additive_multiplicative(q):
    import random

    ctx = gf.standard_field(q)
    rng = random.Random(q)
    for _ in range(200):
        a = FieldElem(ctx, rng.randrange(q))
        b = FieldElem(ctx, rng.randrange(q))
        assert (a + b) ** ctx.p == a**ctx.p + b**ctx.p
        assert (a * b) ** ctx.p == a**ctx.p * b**ctx.p


def test_subfield_degree_zero():
    assert gf.subfield_degree(gf.standard_field(9).elem(0)) == 1


def test_subfield_degree_f9_generator():
    F9 = gf.standard_field(9)
    b = F9.gen()
    assert b**3 != b
    assert gf.subfield_degree(b) == 2


def test_subfield_degree_cube_in_f8():
    F8 = gf.standard_field(8, "table1")
    a = F8.gen()
    assert gf.subfield_degree(a**3) == 3


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_subfield_degree_frobenius_characterisation(q):
    ctx = gf.standard_field(q)
    for b in ctx.elements():
        d = gf.subfield_degree(b)
        assert ctx.pow(b.val, ctx.p**d) == b.val
        for e in sympy.divisors(d)[:-1]:
            assert ctx.pow(b.val, ctx.p**e) != b.val


def test_mult_order_one():
    assert gf.mult_order(gf.standard_field(7).elem(1)).value() == 1


def test_mult_order_primitive_f8():
    F8 = gf.standard_field(8)
    assert gf.mult_order(F8.mult_generator()).value() == 7


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_mult_order_matches_the_naive_order(q):
    # the split tree of multiplicative_order against repeated products
    ctx = gf.standard_field(q)
    for b in ctx.units():
        k, acc = 1, b.val
        while acc != 1:
            k, acc = k + 1, ctx.mul(acc, b.val)
        assert gf.mult_order(b).value() == k


def test_mult_order_with_a_wrong_group_order_fails_loudly(monkeypatch):
    # a generator of F_9 has order 8; a group order of 4 leaves its
    # 2-part unsettled after two squarings
    gen = gf.standard_field(9).mult_generator()
    monkeypatch.setattr(gf, "factor_q_pow_minus_one", lambda p, f: FactoredInt({2: 2}))
    with pytest.raises(CheckFailed):
        gf.mult_order(gen)


def test_minimal_field_gamma_primitive():
    # an element of order q+1 = 5 in F_16 generates F_16 over F_2
    F16 = gf.standard_field(16)
    gamma = F16.mult_generator() ** 3  # order (16-1)*... 15/gcd -> order 5
    assert gf.mult_order(gamma).value() == 5
    assert gf.subfield_degree(gamma) == 4


def test_campoN_bound_values():
    assert gf.campoN_bound(3, 3, 2) == 9
    assert gf.campoN_bound(2, 2, 2) == 4


def test_campoN_exact_count_q9_cubes():
    # count b in F_9^* whose cube generates a proper subfield
    F9 = gf.standard_field(9)
    count = sum(1 for b in F9.units() if gf.subfield_degree(b**3) < 2)
    assert count <= gf.campoN_bound(3, 3, 2)


def test_embed_f2_f4():
    F2, F4 = gf.standard_field(2), gf.standard_field(4)
    e = gf.embed(F2, F4)
    assert e(F2.elem(0)) == F4.zero and e(F2.elem(1)) == F4.one


def test_embed_f4_f16_root():
    F4, F16 = gf.standard_field(4), gf.standard_field(16)
    e = gf.embed(F4, F16)
    img = e(F4.gen())
    assert img**2 + img + 1 == F16.zero


def test_embed_degree_mismatch():
    with pytest.raises(NoEmbedding):
        gf.embed(gf.standard_field(4), gf.standard_field(8))


@pytest.mark.parametrize("small,big", [(2, 4), (2, 16), (4, 16), (3, 9)])
def test_embed_is_homomorphism_exhaustive(small, big):
    s, b = gf.standard_field(small), gf.standard_field(big)
    e = gf.embed(s, b)
    images = {e(x).val for x in s.elements()}
    assert len(images) == small  # injective
    for x in s.elements():
        for y in s.elements():
            assert e(x + y) == e(x) + e(y)
            assert e(x * y) == e(x) * e(y)


def test_sigma_trace_identity_f64():
    # sigma of order q+1=9 over F_8: a = sigma + sigma^8 lands in the embedded
    # F_8 and satisfies a^3 + a = sigma^3 + sigma^-3
    F8 = gf.standard_field(8, "G7")
    F64 = gf.standard_field(64)
    e = gf.embed(F8, F64)
    g = F64.mult_generator()
    sigma = g**7  # order 63/7 = 9
    assert gf.mult_order(sigma).value() == 9
    a = sigma + sigma**8
    small_images = {e(x).val: x for x in F8.elements()}
    assert a.val in small_images
    assert a**3 + a == sigma**3 + sigma**-3


def test_field_spec_roundtrip():
    for q in FIELDS:
        ctx = gf.standard_field(q)
        assert gf.parse_field_spec(ctx.spec_string) == ctx


@pytest.mark.parametrize("spec", ["3^2", "abc", "3/1,x", ""])
def test_malformed_field_spec_is_a_parameter_error(spec):
    with pytest.raises(BadParam, match=re.escape(repr(spec))):
        gf.parse_field_spec(spec)


def test_bundled_moduli_irreducible():
    for (q, _tag), coeffs in gf.bundled_moduli().items():
        p, f = gf._split_prime_power(q)
        ctx = gf.make_ext_field(p, f, tuple(c % p for c in coeffs))
        assert ctx.q == q


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms_random(q, data):
    ctx = gf.standard_field(q)
    a, b, c = (FieldElem(ctx, data.draw(st.integers(0, q - 1))) for _ in range(3))
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (-a) == ctx.zero
    if b:
        assert (a / b) * b == a


@pytest.mark.parametrize("q", [2**17, 3**11])
def test_untabled_field_arithmetic(q):
    ctx = gf.standard_field(q)
    assert q > gf._TABLE_LIMIT and ctx._exp is None
    fp = gf.standard_field(ctx.p)
    mod = Poly(fp, ctx.modulus)
    rng = random.Random(q)
    a, b, c = (FieldElem(ctx, rng.randrange(1, q)) for _ in range(3))
    for u in (a, b, c):
        assert u * u.inv() == ctx.one
    assert (a * b) * c == a * (b * c)
    prod = Poly(fp, a.coeffs) * Poly(fp, b.coeffs) % mod
    assert (a * b).val == ctx.from_coeffs(prod.coeffs)


def _raw_neg(ctx, a):
    return ctx.from_coeffs([-c for c in ctx.coeffs(a)])


def _raw_mul(ctx, a, b):
    """a * b as a Poly product and remainder: the coefficient reference."""
    mod = ctx._mod_poly
    prod = Poly._make(mod.field, ctx.coeffs(a)) * Poly._make(mod.field, ctx.coeffs(b)) % mod
    return ctx.from_coeffs(prod.coeffs)


@pytest.mark.parametrize("q", sorted(set(ODD_EXTENSIONS + KINDS)))
def test_zech_arithmetic_matches_raw(q):
    # add, neg and sub of every kind; Zech logarithms in tabled odd extensions
    ctx = gf.standard_field(q)
    tabled_odd = ctx.p != 2 and not ctx.is_prime_field and q <= gf._TABLE_LIMIT
    assert (ctx._zech is not None) == tabled_odd
    rng = random.Random(f"zech,{q}")
    units = rng.sample(range(1, q), min(q - 1, 64))
    pairs = [(0, 0)]
    pairs += [(a, 0) for a in units] + [(0, b) for b in units]
    pairs += [(a, _raw_neg(ctx, a)) for a in units]  # the empty Zech slot
    pairs += [(a, a) for a in units]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    for a, b in pairs:
        assert ctx.add(a, b) == ctx._raw_add(a, b)
        assert ctx.neg(a) == _raw_neg(ctx, a)
        assert ctx.sub(a, b) == ctx._raw_add(a, _raw_neg(ctx, b))


def _table_entries(ctx):
    return sum(len(v) for v in vars(ctx).values() if isinstance(v, list))


def test_field_tables_are_linear_in_q():
    # F_(3^7), and F_(2^16) at q = _TABLE_LIMIT, the largest field that
    # still builds tables (uncached: freed after the test)
    largest = gf.FieldCtx(2, 16, gf.modulus_for(2**16))
    assert largest.q == gf._TABLE_LIMIT
    for ctx in (gf.standard_field(3**7), largest):
        assert ctx._exp is not None
        assert _table_entries(ctx) <= 4 * ctx.q


def test_largest_tabled_odd_field_builds():
    q = 3**10
    assert q <= gf._TABLE_LIMIT
    ctx = gf.FieldCtx(3, 10, gf.modulus_for(q))  # uncached: freed after the test
    assert _table_entries(ctx) <= 4 * q
    a, b = ctx.q - 1, ctx.from_coeffs((1, 2, 0, 1))
    assert ctx.add(a, b) == ctx._raw_add(a, b)


def _ref_mul(ctx, a, b):
    return a * b % ctx.p if ctx.is_prime_field else _raw_mul(ctx, a, b)


def _ref_pow(ctx, a, e):
    if ctx.is_prime_field:
        return pow(a, e, ctx.p)
    return gf._power(a, e, lambda x, y: _raw_mul(ctx, x, y), 1)


@pytest.mark.parametrize("q", KINDS)
def test_bound_arithmetic_matches_the_coefficient_reference(q):
    ctx = gf.standard_field(q)
    ops = {"add", "neg", "sub", "mul", "inv", "pow"}
    assert not ops & set(vars(gf.FieldCtx)) and ops <= set(vars(ctx))
    rng = random.Random(f"kinds,{q}")
    for a in [1, q - 1] + [rng.randrange(1, q) for _ in range(30)]:
        b = rng.randrange(q)
        assert ctx.mul(a, b) == _ref_mul(ctx, a, b)
        assert ctx.mul(a, 0) == ctx.mul(0, a) == 0
        a_inv = ctx.inv(a)
        assert ctx.mul(a_inv, a) == 1
        for e in (-3, -1, 0, 1, q - 1, q, 2 * q + 1):
            want = _ref_pow(ctx, a_inv, -e) if e < 0 else _ref_pow(ctx, a, e)
            assert ctx.pow(a, e) == want
    assert ctx.pow(0, 0) == 1 and ctx.pow(0, 5) == 0
    with pytest.raises(DivisionByZero):
        ctx.inv(0)
    with pytest.raises(DivisionByZero):
        ctx.pow(0, -1)


@pytest.mark.parametrize("q", KINDS)
def test_axpy_matches_its_definition(q):
    # axpy(a, xs, ys) is the new list [add(mul(a, x), y)], bound per field
    # kind beside the six operations; a = 0 and zero entries take their own
    # branches in the tabled kernels
    ctx = gf.standard_field(q)
    assert "axpy" not in vars(gf.FieldCtx) and "axpy" in vars(ctx)
    rng = random.Random(f"axpy,{q}")
    for n in (0, 1, 2, 9, 30):
        xs = [rng.choice([0, rng.randrange(q)]) for _ in range(n)]
        ys = [rng.choice([0, rng.randrange(q)]) for _ in range(n)]
        xs[:2], ys[:2] = [0, 0][:n], [0, q - 1][:n]  # the pairs (0, 0), (0, q - 1)
        kept = list(ys)
        for a in (0, 1, q - 1, rng.randrange(1, q)):
            want = [ctx.add(ctx.mul(a, x), y) for x, y in zip(xs, ys)]
            got = ctx.axpy(a, xs, ys)
            assert got == want == ctx.axpy(a, tuple(xs), tuple(ys))
            assert type(got) is list and got is not ys
            got.append(0)  # a new list: ys stays as it was
            assert ys == kept


@pytest.mark.parametrize("q", [9, 25, 27])
def test_zech_axpy_matches_add_and_mul_for_every_a(q):
    # the odd-p tabled axpy takes the Zech step inline, on the exponent sum
    # mod q - 1: for every a, on every pair (x, y), among them the q - 1
    # pairs a x = -y whose sum 0 has no logarithm
    ctx = gf.standard_field(q)
    xs, ys = zip(*itertools.product(range(q), repeat=2))
    for a in range(q):
        got = ctx.axpy(a, xs, ys)
        assert got == list(map(ctx.add, map(ctx.mul, itertools.repeat(a), xs), ys))
        assert sum(1 for x, y, v in zip(xs, ys, got) if x and y and not v) == (q - 1 if a else 0)


@pytest.mark.parametrize("q", [q for q in KINDS if q <= 27] + [361, 529, 961])
def test_mult_generator_is_the_least_generator(q):
    # f = 2 with a large p: the search starts at w, past the p - 2 constants
    ctx = gf.standard_field(q)

    def order(v):
        if q > 27:
            return gf.mult_order(FieldElem(ctx, v)).value()
        return next(k for k in range(1, q) if _ref_pow(ctx, v, k) == 1)

    g = ctx.mult_generator().val
    assert order(g) == q - 1
    assert all(order(v) < q - 1 for v in range(2, g))


def _walk(ctx, g):
    """g^0 .. g^(q-2) by repeated _raw_mul: the reference for exp."""
    out, cur = [], 1
    for _ in range(ctx.q - 1):
        out.append(cur)
        cur = _raw_mul(ctx, cur, g)
    return out


def _spot_check_powers(ctx, powers, g):
    """powers[i + 1] = powers[i] * g by _raw_mul at the ends and 50 random i."""
    q = ctx.q
    rng = random.Random(f"powers,{q}")
    for i in [0, q - 3] + [rng.randrange(q - 2) for _ in range(50)]:
        assert powers[i + 1] == _raw_mul(ctx, powers[i], g)


# each tabled kind, and each slot layout of the doubling walk (_walk): digit
# planes of 1 byte (243), widened to 2-byte values (2048, 3^10), as wide as
# the values (961) and wider than them (251^2, spot-checked)
@pytest.mark.parametrize("q", [4, 16, 2048, 9, 27, 49, 243, 961, 3**10, 251**2])
def test_exp_log_match_the_raw_mul_walk(q):
    # F_3^10 and F_251^2 are built uncached, freed after
    p, f = gf._split_prime_power(q)
    ctx = gf.standard_field(q) if q < 3**10 else gf.FieldCtx(p, f, gf.modulus_for(q))
    exp, log = ctx._exp, ctx._log
    g = ctx.mult_generator().val
    assert len(exp) == 2 * (q - 1) and len(log) == q
    if q == 251**2:
        assert exp[0] == 1
        _spot_check_powers(ctx, exp, g)
    else:
        assert exp[:q - 1] == _walk(ctx, g)
    assert exp[q - 1:] == exp[:q - 1] == ctx.generator_powers()
    assert all(log[exp[i]] == i for i in range(q - 1))


@pytest.mark.parametrize("q", [2**17, 3**11])
def test_raw_pow_in_the_ring_matches_raw_mul(q):
    ctx = gf.standard_field(q)
    rng = random.Random(f"raw_pow,{q}")
    for a in [1, q - 1] + [rng.randrange(1, q) for _ in range(8)]:
        for e in [0, 1, 2, q - 2, q - 1, q] + [rng.randrange(3, 4 * q) for _ in range(4)]:
            assert ctx._raw_pow(a, e) == _ref_pow(ctx, a, e)


@pytest.mark.parametrize("q", [2**17, 3**11])
def test_untabled_mul_matches_raw_mul(q):
    # the untabled product runs in the field's ring; _raw_mul is the reference
    ctx = gf.standard_field(q)
    rng = random.Random(f"ring_mul,{q}")
    vals = [0, 1, q - 1] + [rng.randrange(2, q) for _ in range(6)]
    pairs = [(a, b) for a in vals for b in vals]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(200)]
    for a, b in pairs:
        assert ctx.mul(a, b) == _raw_mul(ctx, a, b)


# F_257 has digit planes wider than its values, 2^17 and 3^11 1-byte planes
# widened to 4-byte values, and 11^5 2-byte planes widened to 4 bytes
@pytest.mark.parametrize("q", [2, 7, 257, 2**17, 3**11, 11**5])
def test_generator_powers_of_untabled_fields(q):
    # prime and untabled fields walk the powers of g (tabled fields hand over
    # the head of exp, checked against the _raw_mul walk above)
    ctx = gf.standard_field(q)
    g = ctx.mult_generator().val
    powers = ctx.generator_powers()
    assert len(powers) == len(set(powers)) == q - 1 and powers[0] == 1
    if ctx.is_prime_field:
        assert powers == [pow(g, i, q) for i in range(q - 1)]
    else:
        _spot_check_powers(ctx, powers, g)


def _digit_formula_string(ctx, a):
    """The text of a packed value as elem_string wrote it before its term
    table: digits a // p**i % p, unit coefficients unwritten."""
    parts = []
    for i in range(ctx.f):
        c = a // ctx.p**i % ctx.p
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*w" if c != 1 else "w")
        else:
            parts.append(f"{c}*w^{i}" if c != 1 else f"w^{i}")
    return "+".join(parts) if parts else "0"


@pytest.mark.parametrize("q", [4, 8, 9, 27, 32, 243, 625, 1331, 2**17, 3**11, 1000003**2])
def test_elem_string_matches_the_digit_formula(q):
    # every element up to q = 1331, and past it the values at the edges of
    # the split at h = p^ceil(f/2): each half zero, one, full, or just past
    ctx = gf.standard_field(q)
    p, h = ctx.p, ctx.p ** -(-ctx.f // 2)
    for a in range(q) if q <= 1331 else [0, 1, p - 1, p, h - 1, h, q - 1]:
        assert ctx.elem_string(a) == _digit_formula_string(ctx, a)
        assert ctx.coeffs(a) == tuple(a // ctx.p**i % ctx.p for i in range(ctx.f))


def test_elem_string_memory_grows_only_with_the_texts_written():
    # over F_{1000003^2} a table of every term c*w^i would hold 2 (p - 1)
    # strings, some 10^8 bytes, to write a few elements
    p = 1000003
    ctx = gf.FieldCtx(p, 2, gf.modulus_for(p * p))
    values = [0, 1, 2, p - 1, p, p + 1, 12345 * p + 678, p * p - 1]
    tracemalloc.start()
    try:
        texts = [ctx.elem_string(a) for a in values]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert texts == [_digit_formula_string(ctx, a) for a in values]
    assert texts[-2] == "678+12345*w"
    assert peak < 1 << 20


@pytest.mark.parametrize("q", KINDS)
def test_packed_eval_matches_eval(q):
    ctx = gf.standard_field(q)
    rng = random.Random(f"eval,{q}")
    polys = [Poly.zero(ctx), Poly.one(ctx), Poly._make(ctx, (q - 1,))]
    polys += [Poly._make(ctx, [rng.randrange(q) for _ in range(k)]) for k in range(1, 8)]
    points = [0, 1, q - 1] + [rng.randrange(q) for _ in range(20)]
    for poly in polys:
        for v in points:
            b = FieldElem(ctx, v)
            want = sum((FieldElem(ctx, c) * b**i for i, c in enumerate(poly.coeffs)), ctx.zero)
            assert poly._eval(v) == poly.eval(b).val == want.val
