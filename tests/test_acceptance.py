"""Acceptance gate: one test per primary acceptance criterion."""

import random
import time

import pytest

from sympgen import claims
from sympgen.claims import _pair
from sympgen.construct import (build, block_decomposition, expected_a_matrices,
                               g3_displayed, restrict, tau_of)
from sympgen.errors import BadParam, SympgenError
from sympgen.gf import campoN_bound, standard_field
from sympgen.grouporder import closure_bfs, element_order, naive_element_order
from sympgen.matrix import Mat, char_poly
from sympgen.poly import _root_exponents, is_self_reciprocal


def _run(cid):
    r = claims.run_claim(cid)
    assert r.status in ("Pass", "OpenQuestionResolved"), (
        f"{cid}: {r.status}\nexpected: {r.expected}\ncomputed: {r.computed}")
    return r


# criterion 1 -- the q=2 proposition suite, with the form obstruction,
# in under a minute
def test_criterion_1_prop_q2_suite():
    start = time.perf_counter()
    for n in (6, 7, 8, 9, 11):
        _run(f"prop-q2-n{n}")
    for n in (6, 8):
        pair = _pair(n, 2, "general", 1)
        assert claims.quadratic_form_obstruction(pair).kind == "Inconsistent"
    assert time.perf_counter() - start < 60


# criterion 2 -- characteristic-polynomial identities, >= 3 (q, a)
# instances each
def test_criterion_2_charpoly_identities():
    r = _run("charpoly-n4")
    assert len(r.computed) >= 3
    r = _run("main4-chi-xy")
    assert len(r.computed) >= 3
    r = _run("main5-chi-eta")
    assert len(r.computed) >= 3
    r = _run("main8-chi-eta")
    assert len(r.computed[0]) >= 3
    # n=7 and n=11: eta-cofactor vanishing over every a in >= 3 fields
    r = _run("main7-chi-eta")
    assert len(r.computed[0]) >= 3
    r = _run("main11-chi-eta")
    assert len(r.computed[0]) >= 3
    # tau characteristic polynomials, n=7 and n=9, including p=2 instances
    r = _run("main7-tau-charpoly")
    assert len(r.computed) >= 3
    r = _run("main9-tau-charpoly")
    assert len(r.computed) >= 3
    for n, q, tag in ((7, 4, "main7"), (9, 4, "main9")):
        pair = _pair(n, q, "general", "gen", tag)
        assert char_poly(tau_of(pair)).degree == 2 * n


# criterion 3 -- the commutator-invariant decomposition
def test_criterion_3_block_decomposition():
    for n in (10, 12, 13, 14, 15):
        _run(f"block-orders-n{n}")
    for n in (10, 12, 13, 14, 15):
        for q in (3, 4, 5, 7, 8):
            pair = _pair(n, q, "general", 1)
            decomp = block_decomposition(pair)
            c = pair.commutator()
            _, displayed = expected_a_matrices(pair.field, n)
            for summand, (mat, order) in zip(decomp.a_summands, displayed):
                r = restrict(c, pair.space.basis(summand))
                got = element_order(r).value()
                assert got == order
                if order != 16:
                    assert (r ** 24).is_identity()
            if n == 14 and q in (3, 5):
                r = restrict(c, pair.space.basis(decomp.a_summands[0]))
                assert element_order(r).value() == 16
            for summand in decomp.b_summands:
                r = restrict(c, pair.space.basis(summand))
                assert (r ** 6).is_identity()
            for summand in (decomp.c_plus, decomp.c_minus):
                restrict(c, pair.space.basis(summand))  # invariance


# criterion 4 -- every exceptional-q prime-set equality, within ten minutes
def test_criterion_4_exceptional_prime_sets():
    start = time.perf_counter()
    for cid in ("main5-q4", "main5-q25", "main6-q3", "main6-q9",
                "main7-q3", "main7-q4", "main7-q7", "main7-q8", "main7-q16",
                "main8-q3", "main8-q5", "main8-q9",
                "main9-q3", "main9-q4", "main9-q5", "main9-q7", "main9-q8",
                "main10-q7", "main11-q3", "main11-q4", "main11-q5",
                "main12-q3", "main12-q5", "main14-q7",
                "remark-q7", "G7-q8", "WSL6-q3", "WSL6-q5", "WSL6-q7"):
        _run(cid)
    assert time.perf_counter() - start < 600


# criterion 5 -- bireflection fixed-space dimensions
def test_criterion_5_bireflection_dimensions():
    _run("main4-cube-dim6")
    _run("main5-tau-dim8")
    _run("main6-tau-dim10")
    _run("main11-tau-bireflection")
    _run("main8-tau-relations")
    from sympgen.matrix import eigenspace
    pair = _pair(4, 5, "general", 2)
    assert len(eigenspace(pair.commutator() ** 3, -1)) == 6
    pair = _pair(5, 7, "n5", 1)
    assert len(eigenspace(tau_of(pair), 1)) == 8
    pair = _pair(6, 5, "n6alt", 1)
    assert len(eigenspace(pair.commutator() ** 5, -1)) == 10
    for n, q, aspec in ((8, 7, 2), (11, 5, 1)):
        pair = _pair(n, q, "general" if n == 11 else "n8alt", aspec)
        assert len(eigenspace(tau_of(pair), 1)) == 2 * n - 2


# criterion 6 -- the parameter search machinery
def _subfield_pairs():
    """(lemma, q, sub) for each lemma with a minimal-field condition of
    degree >= 2 over a field of its characteristic, q in a fixed list."""
    for lemma in claims.CONDITIONS:
        for q in (4, 8, 16, 32, 9, 27, 25, 49):
            field = standard_field(q)
            try:
                branch = claims._branch_conditions(lemma, field.p)
            except Exception:
                continue
            sub = branch.get("sub")
            if sub is None or len(sub) - 1 < 2:
                continue
            if branch["char"] == "odd" and field.p == 2:
                continue
            if branch["char"] == "even" and field.p != 2:
                continue
            yield lemma, q, sub


def test_criterion_6_parameter_search():
    for (lemma, q) in sorted(claims.NAMED_A):
        assert claims.named_a_reproduced(lemma, q), (lemma, q)
    assert claims.search_parameter("G9", 7) == []
    checked = 0
    for lemma, q, sub in _subfield_pairs():
        field = standard_field(q)
        count = claims.subfield_failure_count(lemma, q)
        bound = campoN_bound(len(sub) - 1, field.p, field.f)
        assert count <= bound, (lemma, q, count, bound)
        checked += 1
    assert checked >= 10


def test_criterion_6_subfield_polys_vanish_where_subfield_degree_fails():
    # the search sieves expr and Q_e(t) = expr(t^(p^e)) - expr(t); the a at
    # which one of them vanishes are the a that subfield_failure_count finds
    # by subfield_degree
    checked = 0
    for lemma, q, sub in _subfield_pairs():
        field = standard_field(q)
        polys = claims._subfield_polys(field, sub)
        roots = _root_exponents(field.generator_powers(), field.p, field.f, polys)
        assert len(roots) == claims.subfield_failure_count(lemma, q), (lemma, q)
        checked += 1
    assert checked >= 10


# criterion 7 -- the independent order/closure oracles
def test_criterion_7_oracles():
    for q in (3, 4, 5, 7):
        field = standard_field(q)
        # opposite transvection (root) subgroups: one upper and one lower
        # unipotent per F_p-basis element of the field
        gens = []
        for i in range(field.f):
            c = field.gen() ** i
            gens.append(Mat(field, [[1, c], [0, 1]]))
            gens.append(Mat(field, [[1, 0], [c, 1]]))
        assert closure_bfs(gens) == q * (q * q - 1)
    for q in (3, 5):
        field = standard_field(q)
        a = field.elem(q - 1)
        gens = list(g3_displayed(field, a, "G3"))
        order = (q ** 3) * (q ** 3 - 1) * (q * q - 1)
        assert closure_bfs(gens) == order


def test_criterion_7_order_oracle_agreement():
    rng = random.Random(20260826)
    cases = [("general", 4, 3), ("n5", 5, 3), ("n6alt", 6, 3), ("n8alt", 8, 3)]
    for recipe, n, q in cases:
        pair = _pair(n, q, recipe, 1)
        mats = (pair.x, pair.y, pair.y * pair.y)
        for _ in range(500):
            g = Mat.identity(pair.field, 2 * n)
            for _ in range(rng.randint(1, 10)):
                g = g * mats[rng.randrange(3)]
            fast = element_order(g).value()
            if fast <= 10 ** 4:
                assert naive_element_order(g, cap=fast + 1) == fast


# criterion 8 -- the constructor gate and random-word self-reciprocity
def test_criterion_8_constructor_gate():
    prime_powers = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                    29, 31, 32, 37, 41, 43, 47, 49]
    combos = []
    for q in prime_powers:
        for n in (4, 6, 7, 8, 9, 10, 11, 12, 13, 14):
            if (n, q) != (4, 2):
                combos.append(("general", n, q))
        if q > 2:
            combos.append(("n5", 5, q))
            combos.append(("n8alt", 8, q))
        if q > 2 and q != 4:
            combos.append(("n6alt", 6, q))
    for recipe, n, q in combos:
        field = standard_field(q)
        pair = build(recipe, n, q, field.elem(1), field)
        ident = Mat.identity(field, 2 * n)
        assert pair.x * pair.x == ident
        assert pair.y ** 3 == ident
        assert pair.space.is_symplectic(pair.x)
        assert pair.space.is_symplectic(pair.y)
        assert pair.x.det().val == 1
        assert pair.y.det().val == 1
    with pytest.raises(SympgenError):
        build("general", 4, 2, standard_field(2).elem(1), standard_field(2))


def test_criterion_8_random_words_self_reciprocal():
    rng = random.Random(17)
    for recipe, n, q in (("general", 6, 4), ("n5", 5, 5),
                         ("n6alt", 6, 3), ("n8alt", 8, 3),
                         ("general", 9, 2)):
        pair = _pair(n, q, recipe, 1 if q in (2, 3, 5) else "gen")
        mats = (pair.x, pair.y, pair.y * pair.y)
        for _ in range(10):
            g = Mat.identity(pair.field, 2 * n)
            for _ in range(rng.randint(2, 12)):
                g = g * mats[rng.randrange(3)]
            assert is_self_reciprocal(char_poly(g))
