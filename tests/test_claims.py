"""Tests for the claim registry, parameter search, and obstruction solver."""

import json

import pytest

from sympgen import claims
from sympgen.anchors import ANCHORS
from sympgen.construct import GeneratorPair, SympSpace, build
from sympgen.errors import (BadParam, OddCharacteristic, OutOfRange, UnknownClaim,
                            UnknownLemma)
from sympgen.factorint import prime_factors
from sympgen.gf import FieldCtx, embed, mult_order, standard_field
from sympgen.matrix import Mat
from sympgen.poly import Poly, roots


# ---------------------------------------------------------------------------
# registry basics
# ---------------------------------------------------------------------------

REQUIRED_IDS = [
    "prop-q2-n6", "prop-q2-n7", "prop-q2-n8", "prop-q2-n9", "prop-q2-n11",
    "prop-q2-sl9", "lemma-q4", "main10-q7", "main12-q3", "main12-q5",
    "main14-q7", "charpoly-n4", "main4-chi-xy", "main4-w-eigenvectors",
    "main4-cube-dim6", "main4-c-order-q3", "main4-c-order-q5",
    "main5-chi-eta", "main5-tau-dim8", "main5-trace", "main5-q4", "main5-q25",
    "main6-q3", "main6-q9", "trace6", "main6-tau-dim10", "main6-chi-comm",
    "main7-q3", "main7-q4", "main7-q7", "main7-q8", "main7-q16",
    "main7-chi-eta", "main7-tau-charpoly",
    "main8-q3", "main8-q5", "main8-q9", "main8-chi-eta", "main8-phat-conj",
    "main8-tau-relations",
    "main9-q3", "main9-q4", "main9-q5", "main9-q7", "main9-q8",
    "main9-tau-charpoly", "main9-ytau-even", "des-tau-n9",
    "main11-q3", "main11-q4", "main11-q5", "main11-chi-eta",
    "main11-tau-bireflection",
    "G7-q8", "G9", "G9-10", "G9-12", "G9-14", "K9", "K9even", "K9odd",
    "G11", "Gn11", "WSL6-q3", "WSL6-q5", "WSL6-q7", "phat-centralizes",
    "G3-action", "s-sigma", "theta-charpoly", "remark-q7",
    "block-orders-n10", "block-orders-n12", "block-orders-n13",
    "block-orders-n14", "block-orders-n15",
    "quadform-n4", "quadform-n5", "quadform-n6", "quadform-n7",
    "quadform-n8", "quadform-n9", "quadform-n11",
    "subfield", "subfield5", "subfield6", "subfield7", "subfield8",
    "subfield9-2", "subfield9-odd", "subfield11",
]


def test_registry_covers_required_ids():
    ids = set(claims.claim_ids())
    missing = [i for i in REQUIRED_IDS if i not in ids]
    assert missing == []


def test_unknown_claim_raises():
    with pytest.raises(UnknownClaim):
        claims.run_claim("no-such-claim")


def test_prop_q2_filter_matches_exactly_six():
    results = claims.run_all("prop-q2-*")
    assert len(results) == 6
    assert all(r.status == "Pass" for r in results)


def test_run_claim_statuses():
    assert claims.run_claim("prop-q2-n8").status == "Pass"
    assert claims.run_claim("charpoly-n4").status == "Pass"
    assert claims.run_claim("main4-c-order-q3").status == "OpenQuestionResolved"


def test_paper_ref_quotes_match_anchor_table():
    for cid in claims.claim_ids():
        ref = claims._REGISTRY[cid].paper_ref
        assert ref["quote"] == ANCHORS[ref["label"]]


# ---------------------------------------------------------------------------
# run_all and the JSON report
# ---------------------------------------------------------------------------

def test_run_all_idempotent_and_order_independent():
    subset = "subfield*"
    first = claims.report_json(claims.run_all(subset))
    second = claims.report_json(claims.run_all(subset))
    assert first == second
    ids = [entry["id"] for entry in json.loads(first)]
    backwards = [claims.run_claim(i) for i in reversed(ids)]
    assert claims.report_json(backwards[::-1]) == first


def test_report_json_structure():
    results = claims.run_all("quadform-n4")
    payload = json.loads(claims.report_json(results))
    assert isinstance(payload, list) and len(payload) == 1
    entry = payload[0]
    for key in ("id", "status", "expected", "computed", "wall_time_ms",
                "paper_ref"):
        assert key in entry
    assert entry["status"] in ("Pass", "Fail", "OpenQuestionResolved")


def test_report_json_stable_mode_is_byte_stable():
    a = claims.report_json(claims.run_all("theta-charpoly"))
    b = claims.report_json(claims.run_all("theta-charpoly"))
    assert a == b


# ---------------------------------------------------------------------------
# parameter search
# ---------------------------------------------------------------------------

def test_search_unknown_lemma():
    with pytest.raises(UnknownLemma):
        claims.search_parameter("no-such-lemma", 7)


@pytest.mark.parametrize("q,refused", [(4194304, False), (4194319, True)],
                         ids=["2^22", "next-prime-past-2^22+1"])
def test_search_refuses_q_past_its_bound_before_any_table(q, refused, monkeypatch):
    # q - 1 = 2^22 - 1 is inside the bound and reaches the table of powers;
    # the prime 4194319 is the least prime power with q - 1 > 2^22
    def table(self):
        raise RuntimeError("generator_powers")

    monkeypatch.setattr(FieldCtx, "generator_powers", table)
    with pytest.raises(OutOfRange if refused else RuntimeError):
        claims.search_parameter("irr6", q)


def test_search_g9_empty_at_q7():
    assert claims.search_parameter("G9", 7) == []


def test_search_meh_contains_one_at_q7():
    field = standard_field(7)
    found = claims.search_parameter("M=H", 7, field)
    assert field.elem(1) in found


@pytest.mark.parametrize("q,field_q", [(9, 3), (3, 9)])
def test_search_rejects_a_field_of_another_size(q, field_q):
    with pytest.raises(BadParam, match="field size mismatch"):
        claims.search_parameter("M=H", q, standard_field(field_q))


def test_search_g9_10_contains_tagged_root_at_q9():
    # the named a for q=9 has minimal polynomial t^2 + t + 2 over F_3
    want = claims.named_a_value("G9-10", 9)
    found = claims.search_parameter("G9-10", 9)
    assert want in found
    assert not Poly(standard_field(9), [2, 1, 1]).eval(want)


def _reference_search(lemma, q):
    """The per-candidate search: Poly.eval of every nz polynomial and
    _generates of the sub expression at g, g^2, ..., g^(q-1)."""
    field = standard_field(q)
    cond = claims._branch_conditions(lemma, field.p)
    if (cond["char"] == "odd" and field.p == 2
            or cond["char"] == "even" and (field.p != 2 or q == 2)
            or q in cond["exclude_q"]):
        return []
    nz = [Poly(field, coeffs) for coeffs in cond["nz"]]
    expr = None if cond["sub"] is None else Poly(field, cond["sub"])
    g = field.mult_generator()
    out, a = [], g
    for _ in range(q - 1):
        if all(P.eval(a) for P in nz) and (expr is None or claims._generates(expr.eval(a))):
            out.append(a)
        a *= g
    return out


# every prime power up to 256, 257 (digit slots wider than a byte) and 1024
# (the XOR plane of characteristic 2)
SIEVE_QS = [q for q in range(2, 257) if len(prime_factors(q)) == 1] + [257, 1024]


@pytest.mark.parametrize("lemma", sorted(set(claims.CONDITIONS) - {"sigma-a"}))
def test_sieve_matches_the_per_candidate_search(lemma):
    for q in SIEVE_QS:
        assert claims.search_parameter(lemma, q) == _reference_search(lemma, q), q


@pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
def test_sigma_search_matches_the_root_scan(q):
    # the per-candidate reference: the least root of t^2 + a t + 1 found by a
    # scan of F_{q^2}, a kept iff that root has multiplicative order q + 1
    field, big = standard_field(q), standard_field(q * q)
    into = embed(field, big)
    g = field.mult_generator()
    want, a = [], g
    for _ in range(q - 1):
        sigma = next(roots(Poly(big, [1, into(a), 1])), None)
        if sigma is not None and mult_order(sigma).value() == q + 1:
            want.append(a)
        a *= g
    assert want and claims.search_parameter("sigma-a", q) == want


def test_search_respects_characteristic_split():
    # even-characteristic lemma yields nothing over an odd field and
    # vice versa
    assert claims.search_parameter("G11", 5) == []
    assert claims.search_parameter("Gn11", 8) == []


# ---------------------------------------------------------------------------
# quadratic-form obstruction solver
# ---------------------------------------------------------------------------

def test_obstruction_rejects_odd_characteristic():
    pair = claims._pair(4, 3, "general", 1)
    with pytest.raises(OddCharacteristic):
        claims.quadratic_form_obstruction(pair)


def _identity_pair(n, q):
    field = standard_field(q)
    space = SympSpace.make(n, field)
    ident = Mat.identity(field, 2 * n)
    return GeneratorPair(space=space, x=ident, y=ident, n=n, q=q,
                         a=field.elem(1), recipe="general")


def test_obstruction_identity_pair_form_found():
    res = claims.quadratic_form_obstruction(_identity_pair(3, 2))
    assert res.kind == "FormFound"


def test_obstruction_orthogonal_fixture_form_found():
    # generators preserving the split quadratic form Q(e_i) = 0,
    # Q(v) = v1 v3 + v2 v4 on a 4-dimensional space over F_2:
    # they must admit a form, so the solver reports FormFound
    field = standard_field(2)
    space = SympSpace.make(2, field)
    # swap e_1 <-> e_2 and e_{-1} <-> e_{-2}; and a transvection-like map
    g1 = Mat(field, [[0, 1, 0, 0], [1, 0, 0, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]])
    g2 = Mat(field, [[1, 0, 0, 1], [0, 1, 1, 0],
                     [0, 0, 1, 0], [0, 0, 0, 1]])
    assert space.is_symplectic(g1) and space.is_symplectic(g2)
    pair = GeneratorPair(space=space, x=g1, y=g2, n=2, q=2,
                         a=field.elem(1), recipe="general")
    res = claims.quadratic_form_obstruction(pair)
    assert res.kind == "FormFound"
    # the found form is really invariant under both generators
    vals = res.values

    def Q(v):
        acc = 0
        for i, c in enumerate(v):
            acc = field.add(acc, field.mul(field.mul(c, c), vals[i]))
        for i in range(4):
            for j in range(i + 1, 4):
                acc = field.add(acc, field.mul(field.mul(v[i], v[j]),
                                               space.J[(i, j)]))
        return acc
    import itertools
    for v in itertools.product(range(2), repeat=4):
        for g in (g1, g2):
            assert Q(tuple(g.apply(v))) == Q(v)


def test_obstruction_full_sp_inconsistent():
    pair = claims._pair(6, 2, "general", 1)
    assert claims.quadratic_form_obstruction(pair).kind == "Inconsistent"


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def test_sl_set_sections_multiply_like_the_full_space_word():
    # each row multiplies sections s(u) of tau^u; the section is a
    # homomorphism on these factors, so base^k tail restricted first equals
    # the section of the full-space word, here at each row's first k
    from sympgen.construct import tau_of
    for cid, (_, n, q, aspec, tag, ell, base, tail, ks) in claims._SL_SETS.items():
        pair = claims._pair(n, q, "general", aspec, tag)
        tau, x, y = tau_of(pair), pair.x, pair.y

        def full(u=None):
            return tau if u is None else claims._cj(tau, u)

        def s(u=None):
            return claims.s_restrict(full(u), pair.space, ell)
        k = ks[0]
        whole = base(full, x, y) ** k * tail(full, x, y)
        assert base(s, x, y) ** k * tail(s, x, y) == claims.s_restrict(
            whole, pair.space, ell), cid


def test_pair_is_cached_on_the_resolved_pair():
    # a default tag and -1 = 4 over F_5 are spellings of one pair
    assert (claims._pair(8, 4, "n8alt", "primitive")
            is claims._pair(8, 4, "n8alt", "primitive", None))
    assert claims._pair(4, 5, "general", -1) is claims._pair(4, 5, "general", 4)


def test_certify_default_words():
    from sympgen.grouporder import Certificate
    assert claims.certify_pair(6, 2) == Certificate.Certified
    with pytest.raises(UnknownLemma):
        claims.certify_pair(4, 3)


def test_g3_transpose_vectors_are_the_y_transpose_orbit_of_ub():
    # the G3 row writes (ub, y^T ub, y^2T ub) out as terms in e_5..e_13
    n, recipe, instances, _, block = claims._G3_BLOCKS["G3"]
    for q, aspec, tag in instances:
        pair = claims._pair(n, q, recipe, aspec, tag)
        ub, yub, y2ub = (pair.space.vector(t) for t in block(pair.a)[3][0])
        yT = pair.y.transpose()
        assert yT.apply(ub) == yub and yT.apply(yub) == y2ub
