"""Registry of named re-checks of the computational assertions.

Every claim is a named, parameterized computation with an expected outcome;
:func:`run_claim` executes one, :func:`run_all` executes a glob-filtered set
serially and emits a JSON-serializable report.  Claims that differ only in
their data (an (n, q) with its witness words, a list of instances) are
registered from tables, one body per family.  The two largest families run
over (q, aspec, tag) instances: ``_VALUES`` compares a value of each pair with
its expected value, and ``_CHECKS`` requires every boolean of a per-pair check
to hold.  A word in the generators is a plain function of them: the witness
words of ``DEFAULT_WORDS`` are B^k T for ``(B, T) = word_fn(x, y)`` and the k
of an ascending L, formed by powers of B that extend one another, the rows
of ``_CHI_ETA`` carry ``eta(x, y)``, and the rows of ``_SL_SETS`` carry a
base and a tail written in the sections s(u) of the conjugates tau^u (prime
sets of SL_ell(q)).  ``_WSL6``, ``_C_ORDER``, ``_SANITY_SAMPLES`` and ``_QUADFORM``
are the other tables.  The module also houses the
admissible-parameter search (:func:`search_parameter`) and the quadratic-form
obstruction solver for even characteristic.

The search turns each lemma's conditions into sparse polynomials over F_p
that must not vanish at a: its "nz" polynomials and, for the minimal-field
condition F_p[expr(a)] = F_q, expr and one Frobenius difference
Q_e(t) = expr(t^(p^e)) - expr(t) per maximal proper subfield F_{p^e}
(:func:`_subfield_polys`).  poly._root_exponents sieves them at every power
of the field's least generator at once.  Only sigma-a tests each candidate
on its own: it asks that t have order q + 1 modulo t^2 + a t + 1, which no
polynomial over F_p at a states.
"""

from __future__ import annotations

import fnmatch
import json
import operator
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate

from .anchors import ANCHORS
from .errors import (BadParam, OddCharacteristic, OutOfRange, UnknownClaim, UnknownLemma)
from .factorint import prime_factors
from .gf import (FieldCtx, FieldElem, embed, modulus_for, mult_order,
                 standard_field, subfield_degree)
from .matrix import (Mat, _combiner, char_poly, eigenspace, paper_commutator, same_span,
                     similarity_invariants)
from .poly import Poly, _Ring, _root_exponents, roots
from .grouporder import (Certificate, PrimeSet, element_order,
                         lps_certificate, union_varpi, varpi_group)
from .construct import (GeneratorPair, build, g3_displayed, hat_embed_bottom,
                        phat_base_change, restrict, small_r,
                        tau_of, theta_matrix, expected_a_matrices,
                        block_decomposition, _esum, _hatgl, _vector)


# ---------------------------------------------------------------------------
# generation witness words: (x, y) -> (base B, tail T), the word B^k T
# ---------------------------------------------------------------------------

def word_xy_k_y(x, y):
    return x * y, y


def word_comm_k_xy(x, y):
    return paper_commutator(x, y), x * y


def word_commxy_k_xy(x, y):
    return paper_commutator(x, y) * x * y, x * y


def word_commxy_k_yx(x, y):
    return paper_commutator(x, y) * x * y, y * x


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _resolve_a(field: FieldCtx, aspec):
    if aspec is None:
        return field.elem(1)
    if isinstance(aspec, (int, FieldElem)):
        return field.elem(aspec)
    if aspec == "gen":
        return field.gen()
    if aspec == "primitive":
        return field.mult_generator()
    if isinstance(aspec, tuple) and aspec and aspec[0] == "minpoly":
        root = next(roots(Poly(field, aspec[1])), None)
        if root is None:
            raise BadParam(f"no root of {aspec[1]} in {field!r}")
        return root
    raise BadParam(f"bad a-spec {aspec!r}")


def _pair(n, q, recipe="general", aspec=None, tag=None) -> GeneratorPair:
    field = standard_field(q, tag)
    return _built(recipe, n, q, _resolve_a(field, aspec), field)


@lru_cache(maxsize=None)
def _built(recipe, n, q, a, field) -> GeneratorPair:
    """One build per resolved pair, however its a was spelled."""
    return build(recipe, n, q, a, field)


def _expo(deg, exps):
    """Ascending 0/1 coefficient tuple from an exponent set (char-2 use)."""
    return tuple(1 if i in exps else 0 for i in range(deg + 1))


def _unipotent_quadratic(F: FieldCtx, m: int, lam, k: int = 1) -> Poly:
    """(t - 1)^m (t^2 + lam t + 1)^k."""
    return Poly(F, (-1, 1)) ** m * Poly(F, [1, lam, 1]) ** k


def _cj(g: Mat, u: Mat) -> Mat:
    """g conjugated by u: u^-1 g u."""
    return u.inverse() * g * u


def _eig_pair(h: Mat, lam, v, vb):
    """[h v = lam v, h^T vb = lam vb]."""
    F = h.field
    return [h.apply(v) == _vcombo(F, [(lam, v)]),
            h.transpose().apply(vb) == _vcombo(F, [(lam, vb)])]


def _transvection_images(g: Mat, space, b, coefs) -> bool:
    """g e_j = e_j + coefs[j] b for j = 1..n (coefficient 0 where unlisted);
    g e_j is column j - 1 of g."""
    cols = g.transpose().rows_raw()
    return all(cols[j - 1] == _vcombo(space.field, [(1, e), (coefs.get(j, 0), b)])
               for j, e in enumerate(space.basis(range(1, space.n + 1)), 1))


def s_restrict(g: Mat, space, ell: int) -> Mat:
    """Action of g on the last-ell coordinate subspace of V.

    If that subspace is g-invariant this is the plain restriction; otherwise
    g must fix the leading n-ell basis vectors of V pointwise, and the result
    is the induced action on the quotient of V by them.
    """
    n = space.n
    lead = space.basis(range(1, n - ell + 1))
    last = space.basis(range(n - ell + 1, n + 1))
    try:
        return restrict(g, last)
    except BadParam:
        pass
    if not restrict(g, lead).is_identity():
        raise BadParam("leading basis vectors not fixed pointwise")
    return restrict(g, last, quotient=lead)


def _vec(field, coords):
    """The vector with the given coordinates (FieldElems or ints)."""
    return _vector(field, len(coords), lambda i: i, [(c, i) for i, c in enumerate(coords)])


def _vcombo(field, vectors_coeffs):
    """Linear combination of vectors, [(coeff, vec), ...]; coefficients are
    FieldElems or ints, packed into a tuple, since the combiner reads its
    coefficients more than once."""
    coeffs, vecs = zip(*vectors_coeffs)
    return _combiner(field, vecs, len(vecs[0]))(tuple(map(field.scalar, coeffs)))


# ---------------------------------------------------------------------------
# quadratic-form obstruction solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Obstruction:
    kind: str                      # "Inconsistent" | "FormFound"
    values: tuple = ()             # Q(e_i) packed values when a form exists

    def to_json(self):
        if self.kind == "FormFound":
            return {"kind": self.kind, "values": list(self.values)}
        return {"kind": self.kind}


def quadratic_form_obstruction(pair: GeneratorPair) -> Obstruction:
    """Solve for an invariant quadratic form with polar form J (q even).

    Unknowns are the 2n values Q(e_i); each generator image imposes
    Q(g e_j) = Q(e_j) with Q(sum c_i e_i) = sum c_i^2 Q(e_i) +
    sum_{i<i'} c_i c_i' J(e_i, e_i').
    """
    field = pair.field
    if field.p != 2:
        raise OddCharacteristic("the obstruction solver needs q even")
    n2 = 2 * pair.n
    J = pair.space.J
    rows, rhs_col = [], []
    for g in (pair.x, pair.y):
        for j in range(n2):
            c = [FieldElem(field, v) for v in g.col_raw(j)]
            row = [ci * ci for ci in c]
            row[j] -= 1
            rhs = field.zero
            for i in range(n2):
                if not c[i]:
                    continue
                for i2 in range(i + 1, n2):
                    if c[i2]:
                        rhs += c[i] * c[i2] * FieldElem(field, J[(i, i2)])
            rows.append(row)
            rhs_col.append(rhs.val)
    sol = Mat(field, rows).solve(rhs_col)
    if sol is None:
        return Obstruction("Inconsistent")
    return Obstruction("FormFound", tuple(sol))


# ---------------------------------------------------------------------------
# admissible-parameter search
# ---------------------------------------------------------------------------

# Each condition set: characteristic requirement, excluded q values,
# non-vanishing polynomials (ascending integer coefficients, one per factor),
# and an optional subfield-generation requirement (expression coeffs).
# Parity-split lemmas carry separate "odd"/"even" branches.

_A3 = (0, 0, 0, 1)                # a^3
_A2 = (0, 0, 1)                   # a^2
_A1 = (0, 1)                      # a
_A4 = (0, 0, 0, 0, 1)             # a^4
_A6 = (0, 0, 0, 0, 0, 0, 1)       # a^6
_A3A = (0, 1, 0, 1)               # a^3 + a
_A4_2A3 = (0, 0, 0, 2, 1)         # a^3 (a + 2)

_G9_NZ = [(-1, 0, 0, 1),
          (512, 0, 0, -312, 0, 0, 92, 0, 0, -14, 0, 0, 1),
          (2, 0, 0, 1), (-27, 0, 0, 0, 0, 0, 1)]

CONDITIONS = {
    "M=H": {"char": "any", "nz": [(3, 0, 1), (4, 0, -1, 0, 1)], "sub": _A2},
    "ex5": {"char": "any", "exclude_q": (2, 4, 25),
            "nz": [(-2, 0, 1), (3, 0, 1), (-27, 0, 0, 0, 0, 0, 4)], "sub": _A6},
    "irr6": {"char": "any", "exclude_q": (2, 4),
             "nz": [(1, 0, 1), (5, 0, 5, 0, 1), (-5, 3, -5, 3, -1, 1),
                    (75, 0, 159, 0, 123, 0, 45, 0, 9, 0, 1),
                    (-4, 0, 1), (16, 0, -72, 0, 29, 0, -3, 0, 1),
                    (16, 80, -72, -48, 29, -5, -3, 3, 1, 1)], "sub": _A2},
    "G72": {"char": "even",
            "nz": [(1, 1, 1), (1, 1, 0, 0, 1),
                   _expo(19, {0, 4, 5, 6, 7, 10, 12, 14, 15, 17, 19}),
                   (1, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1, 1),
                   _expo(13, {0, 2, 3, 6, 9, 11, 13})], "sub": _A1},
    "K9": {"char": "odd",
           "nz": [(1, 0, 0, 1), (-8, 0, 0, 1), (-2, 0, 1), (2, -2, 1)], "sub": _A3},
    "7ex": {"odd": {"extra": "K9", "nz": [(1, 1, 1)]},
            "even": {"extra": "G72", "nz": [(1, 0, 0, 1, 1)]}},
    "irr8": {"char": "any", "exclude_q": (2,),
             "nz": [(-108, 0, -128, 0, 5)]},
    "8podd": {"char": "odd", "exclude_q": (9,),
              "nz": [(-108, 0, -128, 0, 5), (1, 0, 0, 0, 4)], "sub": _A4},
    "K9even": {"char": "even",
               "nz": [(1, 1), (1, 0, 1, 1),
                      (1, 1, 1), (1, 1, 1, 1, 1), (1, 0, 1, 0, 0, 1),
                      _expo(5, {0, 2, 3, 4, 5}),
                      _expo(12, {0, 2, 5, 7, 9, 10, 12}),
                      _expo(13, {0, 1, 3, 6, 8, 11, 13}),
                      _expo(13, {0, 1, 8, 10, 11, 12, 13}),
                      _expo(17, {0, 4, 5, 6, 8, 9, 10, 11, 13, 14, 15, 16, 17}),
                      _expo(33, {0, 2, 3, 4, 5, 6, 10, 11, 13, 14, 17, 21, 23,
                                 26, 28, 29, 30, 32, 33}),
                      (1, 1, 0, 0, 0, 0, 0, 1),
                      _expo(12, {0, 4, 5, 7, 8, 11, 12}),
                      _expo(13, {0, 1, 3, 4, 5, 6, 8, 12, 13}),
                      _expo(18, {0, 4, 6, 10, 11, 12, 14, 17, 18}),
                      (1, 1, 0, 1)], "sub": _A3A},
    "K9odd": {"char": "odd",
              "nz": [(2, 1), (-2, 1), (4, 8, 7), (2, 0, 1), (-4, 0, 0, 1),
                     (-3, -1, 1), (1, 1, 1), (2, -1, 0, 1),
                     (12, -12, 9, -3, 1)], "sub": _A4_2A3},
    "9ex": {"odd": {"extra": "K9odd", "nz": [(-1, 0, 1), (1, 0, 1, 1)]},
            "even": {"extra": "K9even", "nz": []}},
    "G9": {"char": "odd", "nz": _G9_NZ, "sub": _A3},
    "G9-10": {"char": "odd",
              "nz": [(-1, 0, 0, 1), (2, 0, 0, 3), (-2, 0, -1, 1),
                     (4, 0, -2, -4, 1, 1, 1), (8, 0, 0, 1),
                     (-8, 0, 0, 0, 0, 0, 1)], "sub": _A3},
    "G9-12": {"char": "odd",
              "nz": [(-1, 0, 0, 1), (1, 1), (-1, 0, 0, 2),
                     (8, 0, 0, 4, 0, 0, 1), (2, -1, 0, 1),
                     (1, -1, 1, 1, 1, 0, 1)], "sub": _A3},
    "G9-14": {"char": "odd",
              "nz": [(-1, 0, 0, 1), (1, 0, 0, 3), (8, 0, 0, 1),
                     (-2, 0, -1, 1), (4, 0, -2, -4, 1, 1, 1),
                     (-2, 0, 0, 5), (-8, 0, 0, 0, 0, 0, 1)], "sub": _A3},
    "G11": {"char": "even",
            "nz": [(1, 1), (1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 0, 1),
                   _expo(8, {0, 4, 5, 7, 8}),
                   (1, 1, 1, 1, 1), (1, 0, 0, 1, 0, 1),
                   _expo(33, {0, 1, 2, 4, 8, 9, 10, 14, 15, 16, 19, 20, 26,
                              28, 30, 32, 33})], "sub": _A1},
    "Gn11": {"char": "odd",
             "nz": [(2, 1), (2, 3), (4, 0, 3),
                    (1, 1), (2, 2, 1), (-1, 6, 2), (1, 0, 6),
                    (4, 1),
                    (-256, -1792, 4480, 4736, -14432, -27096, 16224, 93948,
                     -118296, -96779, 246067, -73173, -194153, 160134, 54118,
                     -30924, 42868, 541, -1295, 1710)], "sub": _A4_2A3},
    "11ex": {"odd": {"extra": "Gn11", "nz": [(2, -1, 2)]},
             "even": {"extra": "G11", "nz": []}},
    "WSL6": {"char": "odd",
             "nz": _G9_NZ + [(1, 0, 0, 1), (729, 0, 0, 135, 0, 0, -1, 0, 0, 1),
                             (27, 0, 0, 1)], "sub": _A3},
    "sigma-a": {"char": "even", "special": "sigma"},
}


def _sigma_of(field: FieldCtx, a: FieldElem):
    """The least root of t^2 + a t + 1 in F_{q^2}."""
    big = standard_field(field.q * field.q)
    return next(roots(Poly(big, [1, embed(field, big)(a), 1])))


def _has_sigma(field: FieldCtx, a: FieldElem) -> bool:
    """The roots of t^2 + a t + 1 have order q + 1: t^(q+1) = 1 and
    t^((q+1)/l) != 1 for each prime l | q + 1, in one ring
    F_q[t]/(t^2 + a t + 1).  A root in F_q has order dividing q - 1, so this
    holds only where the ring is F_{q^2} and t one of its roots."""
    ring, e = _Ring(Poly(field, [1, a, 1])), field.q + 1
    t = ring.elem(Poly.t(field))
    return ring.pow(t, e) == 1 and all(ring.pow(t, e // l) != 1 for l in prime_factors(e))


def _branch_conditions(lemma_id: str, p: int):
    cond = CONDITIONS.get(lemma_id)
    if cond is None:
        raise UnknownLemma(f"no condition set registered for {lemma_id!r}")
    if "odd" in cond:  # parity-split lemma
        branch = cond["odd"] if p > 2 else cond["even"]
        base = CONDITIONS[branch["extra"]]
        return {"char": base.get("char", "any"),
                "exclude_q": base.get("exclude_q", ()),
                "nz": list(base.get("nz", [])) + list(branch["nz"]),
                "sub": base.get("sub")}
    return {"char": cond.get("char", "any"),
            "exclude_q": cond.get("exclude_q", ()),
            "nz": cond.get("nz", []),
            "sub": cond.get("sub"),
            "special": cond.get("special")}


def _generates(b: FieldElem) -> bool:
    """b is nonzero and generates its whole field over F_p."""
    return bool(b) and subfield_degree(b) == b.ctx.f


def _subfield_polys(field: FieldCtx, expr):
    """Sparse polynomials over F_p, as (exponent, coefficient) terms, that
    vanish at a in F_q^* exactly where expr(a) does not generate F_q: expr
    itself, and Q_e(t) = expr(t^(p^e)) - expr(t) for each maximal proper
    divisor e = f / r of f (r prime).  expr(a) lies in F_{p^e} iff
    expr(a)^(p^e) = expr(a), and the Frobenius map fixes expr's F_p
    coefficients, so expr(a)^(p^e) = expr(a^(p^e)) (Lidl & Niederreiter,
    Finite Fields, ch. 2)."""
    terms = list(enumerate(expr))
    out = [terms]
    for r in prime_factors(field.f):
        frob = field.p ** (field.f // r)
        out.append([(k * frob, c) for k, c in terms] + [(k, -c) for k, c in terms])
    return out


# The search tables all q - 1 powers of g and the sieve's digit planes, about
# 300 bytes an element: 2^22 of them take about 1.2 GB.
_SEARCH_LIMIT = 1 << 22


def search_parameter(lemma_id: str, q: int, field: FieldCtx | None = None):
    """All admissible a in F_q^* for the lemma's conditions, in the order
    g, g^2, ..., g^(q-2), 1 of the powers of the least multiplicative
    generator g; OutOfRange past q - 1 = _SEARCH_LIMIT, before any table.

    Every lemma but sigma-a is a list of sparse polynomials over F_p that
    must not vanish at a: the "nz" polynomials, and for the minimal-field
    condition F_p[expr(a)] = F_q the polynomials of _subfield_polys.  They
    are sieved over all powers of g at once (poly._root_exponents), and no
    polynomial is evaluated per candidate.  sigma-a keeps its per-candidate
    test (_has_sigma), since its condition asks that the roots of
    t^2 + a t + 1 have order q + 1 in F_{q^2}."""
    if q - 1 > _SEARCH_LIMIT:
        raise OutOfRange(f"search over F_{q}: q - 1 is past the bound 2^22")
    field = field or standard_field(q)
    if field.q != q:
        raise BadParam("field size mismatch")
    cond = _branch_conditions(lemma_id, field.p)
    if cond["char"] == "odd" and field.p == 2:
        return []
    if cond["char"] == "even" and (field.p != 2 or q == 2):
        return []
    if q in cond.get("exclude_q", ()):
        return []
    powers = field.generator_powers()
    order = [*range(1, q - 1), 0]  # exponents of g, g^2, ..., g^(q-2), 1
    if cond.get("special") == "sigma":
        return [a for a in (FieldElem(field, powers[i]) for i in order)
                if _has_sigma(field, a)]
    polys = [list(enumerate(coeffs)) for coeffs in cond["nz"]]
    if cond.get("sub") is not None:
        polys += _subfield_polys(field, cond["sub"])
    roots_at = set(_root_exponents(powers, field.p, field.f, polys))
    return [FieldElem(field, powers[i]) for i in order if i not in roots_at]


# (lemma, q) -> a-specification the source text names, to be reproduced by
# search_parameter.  "gen" means the generator of the tagged standard field,
# i.e. the root of the bundled minimal polynomial; ints are integers mod p.
NAMED_A = {
    ("M=H", 3): 1, ("M=H", 5): 1, ("M=H", 7): 1, ("M=H", 11): 1,
    ("M=H", 13): 1, ("M=H", 4): "primitive", ("M=H", 8): "primitive",
    ("M=H", 9): ("M=H", "gen"),
    ("ex5", 3): 1, ("ex5", 5): 1, ("ex5", 7): 1, ("ex5", 11): 1,
    ("ex5", 13): 1, ("ex5", 23): 2,
    ("ex5", 8): ("table1", "gen"), ("ex5", 16): ("table1", "gen"),
    ("ex5", 32): ("table1", "gen"), ("ex5", 64): ("table1", "gen"),
    ("ex5", 9): ("table1", "gen"),
    ("irr6", 5): 1, ("irr6", 7): 1, ("irr6", 11): 3, ("irr6", 13): 3,
    ("irr6", 17): 3, ("irr6", 19): 3, ("irr6", 23): 3, ("irr6", 29): 3,
    ("irr6", 31): 3, ("irr6", 37): 3, ("irr6", 41): 3,
    ("irr6", 8): ("table1", "gen"), ("irr6", 16): ("table1", "gen"),
    ("irr6", 32): ("table1", "gen"), ("irr6", 64): ("table1", "gen"),
    ("irr6", 25): ("main6", "gen"),
    ("irr6", 49): ("main6", "gen"), ("irr6", 27): ("main6", "gen"),
    ("7ex", 32): ("table1", "gen"), ("7ex", 64): ("table1", "gen"),
    ("7ex", 5): 1, ("7ex", 11): 1, ("7ex", 13): 1, ("7ex", 9): ("7ex", "gen"),
    ("irr8", 4): "primitive", ("irr8", 8): "primitive",
    ("8podd", 7): 2, ("8podd", 25): ("main8", "gen"),
    ("K9even", 16): ("table2", "gen"), ("K9even", 32): ("table2", "gen"),
    ("K9even", 64): ("table2", "gen"), ("K9even", 128): ("table2", "gen"),
    ("9ex", 11): 4, ("9ex", 13): 4, ("9ex", 17): 4, ("9ex", 19): 4,
    ("9ex", 23): 4, ("9ex", 9): ("9ex", "gen"), ("9ex", 25): ("9ex", "gen"),
    ("9ex", 49): ("9ex", "gen"), ("9ex", 27): ("9ex", "gen"),
    ("G11", 8): ("table1", "gen"), ("G11", 16): ("table1", "gen"),
    ("G11", 32): ("table1", "gen"), ("G11", 64): ("table1", "gen"),
    ("11ex", 11): 1, ("11ex", 13): 1, ("11ex", 17): 1, ("11ex", 19): 1,
    ("11ex", 23): 1, ("11ex", 29): 1, ("11ex", 7): 2,
    ("11ex", 9): ("11ex", "gen"), ("11ex", 25): ("11ex", "gen"),
    ("11ex", 49): ("11ex", "gen"), ("11ex", 27): ("11ex", "gen"),
    ("G9", 3): -1, ("G9", 5): -1,
    ("G9-10", 3): -1, ("G9-10", 5): -1, ("G9-10", 11): -1, ("G9-10", 13): -1,
    ("G9-10", 17): -1, ("G9-10", 19): -1, ("G9-10", 23): -1,
    ("G9-10", 9): ("main10", "gen"), ("G9-10", 25): ("main10", "gen"),
    ("G9-12", 7): -2, ("G9-12", 11): 4, ("G9-12", 13): 4, ("G9-12", 17): 4,
    ("G9-12", 19): 4, ("G9-12", 23): 4,
    ("G9-12", 9): ("main12", "gen"), ("G9-12", 25): ("main12", "gen"),
    ("G9-14", 3): -1, ("G9-14", 5): -1, ("G9-14", 11): -1, ("G9-14", 13): -1,
    ("G9-14", 17): -1, ("G9-14", 19): -1, ("G9-14", 23): -1,
    ("G9-14", 9): ("main14", "gen"), ("G9-14", 25): ("main14", "gen"),
    ("WSL6", 11): -2, ("WSL6", 13): -2, ("WSL6", 17): 4, ("WSL6", 19): 4,
    ("WSL6", 23): 4, ("WSL6", 29): 4, ("WSL6", 31): 4, ("WSL6", 37): 4,
    ("WSL6", 9): ("pno213", "gen"), ("WSL6", 25): ("pno213", "gen"),
    ("WSL6", 49): ("pno213", "gen"), ("WSL6", 27): ("pno213", "gen"),
    ("sigma-a", 8): ("G7", "gen"),
}


def named_a_value(lemma_id: str, q: int) -> FieldElem:
    """The a named by the source for (lemma, q), as an element of the
    default standard field for q."""
    spec = NAMED_A[(lemma_id, q)]
    if isinstance(spec, tuple) and spec[1] == "gen":
        # the tagged field's generator has the tagged modulus as its minimal
        # polynomial; the named a is that polynomial's least root in F_q
        spec = ("minpoly", modulus_for(q, spec[0]))
    return _resolve_a(standard_field(q), spec)


def named_a_reproduced(lemma_id: str, q: int) -> bool:
    want = named_a_value(lemma_id, q)
    return any(b == want for b in search_parameter(lemma_id, q))


def subfield_failure_count(lemma_id: str, q: int) -> int | None:
    """Number of a in F_q^* failing the lemma's minimal-field condition,
    or None when the lemma has no such condition."""
    field = standard_field(q)
    sub = _branch_conditions(lemma_id, field.p).get("sub")
    if sub is None:
        return None
    expr = Poly(field, sub)
    return sum(not _generates(expr.eval(b)) for b in field.units())


# ---------------------------------------------------------------------------
# claim registry machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    id: str
    anchor: str
    fn: object

    @property
    def paper_ref(self):
        return {"label": self.anchor, "quote": ANCHORS[self.anchor]}


@dataclass(frozen=True)
class ClaimResult:
    id: str
    status: str                    # Pass | Fail | OpenQuestionResolved
    expected: object
    computed: object
    wall_time: float
    paper_ref: dict
    detail: str = ""

    def to_json(self, stable=False):
        out = {"id": self.id, "status": self.status,
               "expected": self.expected, "computed": self.computed,
               "wall_time_ms": 0 if stable else round(self.wall_time * 1000, 3),
               "paper_ref": self.paper_ref}
        if self.detail:
            out["detail"] = self.detail
        return out


_REGISTRY: dict[str, Claim] = {}


def claim(cid: str, anchor: str):
    if anchor not in ANCHORS:
        raise BadParam(f"unknown anchor {anchor!r}")

    def deco(fn):
        if cid in _REGISTRY:
            raise BadParam(f"duplicate claim id {cid!r}")
        _REGISTRY[cid] = Claim(cid, anchor, fn)
        return fn
    return deco


def _canon(v):
    if isinstance(v, PrimeSet):
        return v.to_json()
    if isinstance(v, Poly):
        return v.text
    if isinstance(v, Mat):
        return v.dump()
    if isinstance(v, FieldElem):
        return repr(v)
    if isinstance(v, Obstruction):
        return v.to_json()
    if isinstance(v, Certificate):
        return v.value
    if isinstance(v, dict):
        return {str(k): _canon(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_canon(x) for x in v]
    return v


def run_claim(cid: str) -> ClaimResult:
    cl = _REGISTRY.get(cid)
    if cl is None:
        raise UnknownClaim(f"no claim registered with id {cid!r}")
    start = time.perf_counter()
    try:
        out = cl.fn()
        expected = _canon(out["expected"])
        computed = _canon(out["computed"])
        if out.get("resolved"):
            status = ("OpenQuestionResolved" if expected == computed else "Fail")
            detail = out.get("detail", "")
        else:
            status = "Pass" if expected == computed else "Fail"
            detail = out.get("detail", "") if status != "Pass" else ""
    except Exception as exc:      # a crashed check is a failed check
        expected, computed = "no error", f"{type(exc).__name__}: {exc}"
        status, detail = "Fail", "claim raised"
    return ClaimResult(cid, status, expected, computed,
                       time.perf_counter() - start, cl.paper_ref, detail)


def claim_ids():
    return sorted(_REGISTRY)


def run_all(filter: str = "*"):
    return [run_claim(i) for i in sorted(_REGISTRY) if fnmatch.fnmatch(i, filter)]


def report_json(results, stable=True) -> str:
    payload = [r.to_json(stable=stable) for r in results]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# claims: prime-set unions over the full symplectic groups
# ---------------------------------------------------------------------------

# (n, q) -> (claim id, anchor, recipe, aspec, tag, L, word builder); the
# builder gives the base B and the tail T of the words, and the generation
# witnesses are B^k T for k in L, strictly ascending, so each power of B
# extends the one before.  The table is shared with the CLI `certify`
# subcommand.
DEFAULT_WORDS = {
    (6, 2): ("prop-q2-n6", "q=2-L67", "general", 1, None, [1, 3, 4, 7, 11],
             word_comm_k_xy),
    (7, 2): ("prop-q2-n7", "q=2-L67", "general", 1, None,
             [1, 2, 3, 7, 8, 13, 14], word_commxy_k_xy),
    (8, 2): ("prop-q2-n8", "q=2-L8", "general", 1, None,
             [1, 14, 15, 18, 23, 25, 28], word_xy_k_y),
    (9, 2): ("prop-q2-n9", "q=2-L9", "general", 1, None,
             [6, 7, 8, 11, 13, 16, 19, 20, 31], word_xy_k_y),
    (11, 2): ("prop-q2-n11", "q=2-L11", "general", 1, None,
              [1, 3, 4, 5, 8, 9, 13, 15, 16, 22, 29, 33], word_xy_k_y),
    (6, 4): ("lemma-q4", "q4-L", "general", "gen", None, [2, 3, 5, 6, 15, 37],
             word_xy_k_y),
    (5, 4): ("main5-q4", "main5", "n5", "gen", "main5", [4, 7, 10, 12, 21],
             word_xy_k_y),
    (5, 25): ("main5-q25", "main5", "n5", "gen", "main5",
              [1, 6, 11, 12, 13, 14], word_xy_k_y),
    (6, 3): ("main6-q3", "main6", "n6alt", 1, None, [3, 4, 11, 13, 19],
             word_xy_k_y),
    (6, 9): ("main6-q9", "main6", "n6alt", "gen", "main6",
             [1, 3, 7, 9, 11, 12, 26], word_xy_k_y),
    (7, 3): ("main7-q3", "main7", "general", 1, None,
             [1, 3, 7, 9, 10, 19, 39], word_xy_k_y),
    (7, 4): ("main7-q4", "main7", "general", "gen", "main7",
             [1, 7, 10, 13, 16, 20, 43], word_xy_k_y),
    (7, 7): ("main7-q7", "main7", "general", 1, None,
             [1, 4, 5, 8, 12, 13, 27, 47], word_xy_k_y),
    (7, 8): ("main7-q8", "main7", "general", "gen", "main7",
             [1, 3, 5, 10, 14, 15, 18], word_xy_k_y),
    (7, 16): ("main7-q16", "main7", "general", "gen", "main7",
              [3, 4, 11, 13, 19, 24, 27], word_xy_k_y),
    (8, 3): ("main8-q3", "main8", "n8alt", 1, None,
             [3, 4, 7, 9, 10, 11, 24, 27], word_xy_k_y),
    (8, 5): ("main8-q5", "main8", "n8alt", 1, None,
             [3, 9, 10, 13, 14, 15, 34], word_xy_k_y),
    (8, 9): ("main8-q9", "main8", "n8alt", "gen", "main8",
             [4, 6, 7, 8, 11, 15, 20, 54], word_xy_k_y),
    (9, 3): ("main9-q3", "main9", "general", 1, None,
             [3, 4, 6, 7, 11, 14, 23, 37, 38], word_commxy_k_yx),
    (9, 4): ("main9-q4", "main9", "general", "gen", "main9",
             [1, 3, 4, 5, 7, 9, 14, 24, 53, 89], word_xy_k_y),
    (9, 5): ("main9-q5", "main9", "general", 1, None,
             [5, 6, 7, 8, 9, 10, 11, 18, 126], word_xy_k_y),
    (9, 7): ("main9-q7", "main9", "general", 1, None,
             [3, 6, 7, 8, 16, 17, 20, 41, 126], word_xy_k_y),
    (9, 8): ("main9-q8", "main9", "general", "gen", "main9",
             [3, 10, 13, 15, 18, 19, 25, 31, 53], word_xy_k_y),
    (10, 7): ("main10-q7", "main10-q7", "general", 1, None,
              [1, 3, 5, 6, 9, 12, 22, 31, 65], word_xy_k_y),
    (11, 3): ("main11-q3", "main11", "general", 1, None,
              [1, 4, 6, 8, 10, 11, 12, 16, 20, 28, 35], word_xy_k_y),
    (11, 4): ("main11-q4", "main11", "general", "gen", "main11",
              [3, 5, 7, 8, 9, 12, 13, 15, 16, 18, 64], word_xy_k_y),
    (11, 5): ("main11-q5", "main11", "general", 1, None,
              [1, 3, 9, 14, 15, 16, 18, 20, 31, 46, 88], word_xy_k_y),
    (12, 3): ("main12-q3", "main12", "general", 1, None,
              [4, 5, 13, 16, 17, 24, 28, 35, 37, 87, 89], word_xy_k_y),
    (12, 5): ("main12-q5", "main12", "general", 1, None,
              [3, 5, 6, 8, 12, 13, 14, 15, 18, 25, 34, 47], word_xy_k_y),
    (14, 7): ("main14-q7", "main14-q7", "general", 1, None,
              [3, 5, 6, 7, 8, 10, 14, 17, 19, 20, 29, 32, 56], word_xy_k_y),
}


def _witnesses(n: int, q: int, aspec=None):
    """The pair of DEFAULT_WORDS[(n, q)], with a from aspec when given, and
    its witness matrices B^k T, k in L, each power of B the one before times
    B^(k - k_prev)."""
    if (n, q) not in DEFAULT_WORDS:
        raise UnknownLemma(f"no default witness words for n={n}, q={q}")
    _, _, recipe, default_a, tag, L, word_fn = DEFAULT_WORDS[(n, q)]
    pair = _pair(n, q, recipe, default_a if aspec is None else aspec, tag)
    base, tail = word_fn(pair.x, pair.y)
    steps = (base ** (k - done) for k, done in zip(L, [0, *L]))
    return pair, [power * tail for power in accumulate(steps, operator.mul)]


def certify_pair(n: int, q: int, aspec=None) -> Certificate:
    """Run the default generation certificate for (n, q)."""
    pair, witnesses = _witnesses(n, q, aspec)
    obstruction = None
    if q % 2 == 0 and n % 2 == 0:
        obstruction = quadratic_form_obstruction(pair).kind == "Inconsistent"
    return lps_certificate(witnesses, ("sp", n, q),
                           obstruction_inconsistent=obstruction)


def _prime_set_claim(n: int, q: int):
    """The witnesses' prime sets cover varpi(Sp_2n(q)); for q = 2 and n even,
    no quadratic form with polar form J is invariant either."""
    pair, witnesses = _witnesses(n, q)
    expected, computed = varpi_group("sp", n, q), union_varpi(witnesses)
    if q == 2 and n % 2 == 0:
        return {"expected": [expected, "Inconsistent"],
                "computed": [computed, quadratic_form_obstruction(pair).kind]}
    return {"expected": expected, "computed": computed}


for (_n, _q), _row in DEFAULT_WORDS.items():
    claim(_row[0], _row[1])(partial(_prime_set_claim, _n, _q))


def _sl_set_claim(n, q, aspec, tag, ell, base, tail, ks):
    """The prime sets of base^k tail, k in ks, cover varpi(SL_ell(q)).  base
    and tail are words in s(u), the section (s_restrict) on the last ell
    coordinates of tau^u, u a word in x and y, or of tau itself for s()."""
    pair = _pair(n, q, "general", aspec, tag)
    tau, x, y = tau_of(pair), pair.x, pair.y

    def s(u=None):
        return s_restrict(tau if u is None else _cj(tau, u), pair.space, ell)
    g, h = base(s, x, y), tail(s, x, y)
    return {"expected": varpi_group("sl", ell, q),
            "computed": union_varpi((g ** k) * h for k in ks)}


# claim id -> (anchor, n, q, aspec, tag, ell, base(s, x, y), tail(s, x, y),
# exponents k)
_SL_SETS = {
    "prop-q2-sl9": ("q=2-sl9", 12, 2, 1, None, 9,
                    lambda s, x, y: s() * s(y * y * x) * s(y),
                    lambda s, x, y: s(y) * s(y * y * x), (2, 4, 8, 11, 12)),
    "G7-q8": ("G7-q8", 10, 8, "gen", "G7", 7,
              lambda s, x, y: s(y * y * x) * s() * s(y * x),
              lambda s, x, y: s(y), (6, 19, 26, 37)),
    "remark-q7": ("q7-L", 13, 7, 1, None, 9,
                  lambda s, x, y: (s() * s(y) ** 2 * s(y * x * y)
                                   * s(y * x * y * y) * s(y * x)),
                  lambda s, x, y: (s(y * y) * s((y * x) ** 2) * s((y * x) ** 2 * y)
                                   * s((y * x) ** 2 * y * y)),
                  (1, 7, 11, 15, 22)),
}

for _cid, (_anchor, *_row) in _SL_SETS.items():
    claim(_cid, _anchor)(partial(_sl_set_claim, *_row))


def _wsl6_claim(q, aspec, I):
    pair = _pair(13, q, "general", aspec)
    F, x, y = pair.field, pair.x, pair.y
    a = pair.a
    r1 = hat_embed_bottom(F, 13, small_r(F, a, 1, 1))
    r2 = hat_embed_bottom(F, 13, small_r(F, a, 2, 1))
    r3, r4 = _cj(r1, x), _cj(r1, y * x)
    displayed_ok = (s_restrict(r3, pair.space, 6) == small_r(F, a, 3, 1)
                    and s_restrict(r4, pair.space, 6) == small_r(F, a, 4, 1))
    y2 = y * y
    g = r1 * r2 * r4 * _cj(r2, y2) * _cj(r4, y2)
    tail = _cj(r4, y) * _cj(r3, y) * r2
    got = union_varpi(s_restrict((g ** k) * tail, pair.space, 6) for k in I)
    return {"expected": [varpi_group("sl", 6, q), True],
            "computed": [got, displayed_ok]}


# claim id -> (q, aspec, exponents k of the words g^k tail)
_WSL6 = {"WSL6-q3": (3, -1, (1, 3, 34)), "WSL6-q5": (5, -1, (1, 2, 7, 15)),
         "WSL6-q7": (7, 1, (1, 7, 32))}

for _cid, _row in _WSL6.items():
    claim(_cid, "WSL6")(partial(_wsl6_claim, *_row))


@claim("phat-centralizes", "Phat")
def _phat_centralizes():
    ok = True
    for q, aspec in [(5, -1), (13, -2)]:
        F = standard_field(q)
        a = _resolve_a(F, aspec)
        P = phat_base_change(F, a, 13)
        for i in (1, 2):
            for beta in (1, 2, q - 1):
                R = hat_embed_bottom(F, 13, small_r(F, a, i, beta))
                if P * R != R * P:
                    ok = False
    return {"expected": True, "computed": ok}


# ---------------------------------------------------------------------------
# claims: characteristic polynomials, traces, eigenvectors
# ---------------------------------------------------------------------------

# (q, aspec, tag) instances shared by the n = 4, 5, 6 and 9 claims
_N4 = ((3, 1, None), (5, 2, None), (9, "gen", "M=H"))
_N5 = ((7, 1, None), (23, 2, None), (9, "gen", "table1"))
_N6 = ((5, 1, None), (9, "gen", "main6"), (8, "gen", "table1"))
_N9_EVEN = ((4, "gen", "main9"), (8, "gen", "main9"), (16, "gen", "table2"))


def _pairs(n, recipe, instances):
    """The generator pairs of (q, aspec, tag) instances."""
    return [_pair(n, q, recipe, aspec, tag) for q, aspec, tag in instances]


def _values_claim(n, recipe, instances, of, expected):
    """of(pair) equals expected(F, a) on every instance."""
    pairs = _pairs(n, recipe, instances)
    return {"expected": [expected(p.field, p.a) for p in pairs],
            "computed": [of(p) for p in pairs]}


def _checks_claim(n, recipe, instances, check):
    """Every boolean of check(pair) holds on every instance."""
    results = [check(p) for p in _pairs(n, recipe, instances)]
    return {"expected": [[True] * len(r) for r in results], "computed": results}


def _w_eigenvectors(pair):
    """The -1-eigenspaces of C and C^T are <w1, x w1> and <wb1, x^T wb1>."""
    F, sp, x, a = pair.field, pair.space, pair.x, pair.a
    c = pair.commutator()
    ai = 1 / a
    w1 = sp.vector([(1, 1), (-ai, 3), (-ai, -3)])
    wb1 = sp.vector([(1, 3), (a, -1), (-1, -3)])
    return [same_span(eigenspace(c, -1), [w1, x.apply(w1)], F),
            same_span(eigenspace(c.transpose(), -1),
                      [wb1, x.transpose().apply(wb1)], F)]


def _cube_eigenspace(pair):
    """The -1-eigenspace of C^3 has dimension 6 and is the family
    (x1, x2, x3, x4, x5, -x4 - x5, a x5 + x3, x6); C^(3p) = -I."""
    F, c = pair.field, pair.commutator()
    es = eigenspace(c ** 3, -1)
    unit = [[int(i == j) for j in range(6)] for i in range(6)]
    basis = [_vec(F, [x1, x2, x3, x4, x5, -x4 - x5, pair.a * x5 + x3, x6])
             for x1, x2, x3, x4, x5, x6 in unit]
    return [len(es), same_span(es, basis, F),
            c ** (3 * F.p) == Mat.identity(F, 8).scale(-1)]


def _c_order_claim(q, instances, order):
    """|C^k y| = order for C = [x, y], over (aspec, k) instances at n = 4."""
    got = []
    for aspec, k in instances:
        pair = _pair(4, q, "general", aspec)
        got.append(element_order((pair.commutator() ** k) * pair.y).value())
    return {"expected": [order] * len(instances), "computed": got,
            "resolved": True,
            "detail": "C read as the commutator of the generator pair"}


# claim id -> (anchor, q, (aspec, k) instances, order)
_C_ORDER = {
    "main4-c-order-q3": ("c-order-n4", 3, ((1, 2), (-1, 2)), 78),
    "main4-c-order-q5": ("main4-q", 5, ((1, 2), (-1, 2), (2, 3), (-2, 3)), 186),
}

for _cid, (_anchor, *_row) in _C_ORDER.items():
    claim(_cid, _anchor)(partial(_c_order_claim, *_row))


def _scalar_unipotent(g, lam, dim):
    """[chi_g = (t - lam)^rows, the lam-eigenspace of g has dimension dim]."""
    return [char_poly(g) == Poly(g.field, (-lam, 1)) ** g.rows,
            len(eigenspace(g, lam)) == dim]


def _n5_traces(pair):
    """[tr((xy)^5) = -5a^2 - 1, tr((xy)^8) = -8a^2 - 5] at n = 5."""
    F, xy = pair.field, pair.x * pair.y
    return [(xy ** 5).trace() == Poly(F, (-1, 0, -5)).eval(pair.a),
            (xy ** 8).trace() == Poly(F, (-5, 0, -8)).eval(pair.a)]


def _y_invariant(pair):
    """t^2 + t + 1 is a similarity invariant of y."""
    return Poly(pair.field, (1, 1, 1)) in similarity_invariants(pair.y)


def _trace_xy(pair, even_shift=0):
    """tr(xy) = a, or a + even_shift in characteristic 2."""
    shift = even_shift if pair.field.p == 2 else 0
    return (pair.x * pair.y).trace() == pair.a + shift


def _n6_traces(pair):
    """[tr y = -3, tr xy = a, tr C = -2, tr Cxy = -a] at n = 6."""
    F, a, xy = pair.field, pair.a, pair.x * pair.y
    c = pair.commutator()
    return [pair.y.trace() == F.elem(-3), xy.trace() == a,
            c.trace() == F.elem(-2), (c * xy).trace() == -a]


def _vanishing_equiv(n, q, eta, quotient, cond_odd, cond_even):
    """Over every a in F_q^*: chi_eta is divided by the product of the
    quotient polynomials, and the cofactor vanishes at a primitive cube root
    of unity exactly when the stated polynomial in a vanishes."""
    field = standard_field(q)
    # the cube roots lie in F_q, or else in F_{q^2}; p != 3, so the
    # primitive ones are the roots of t^2 + t + 1
    em = None if q % 3 == 1 else embed(field, standard_field(q * q))
    omegas = list(roots(Poly(field if em is None else em.big, (1, 1, 1))))
    quot = Poly(field, quotient[0])
    for extra in quotient[1:]:
        quot = quot * Poly(field, extra)
    stated = Poly(field, cond_even if field.p == 2 else cond_odd)
    ok = True
    for a in field.units():
        try:
            pair = build("general", n, q, a, field)
        except BadParam:
            continue
        chi = char_poly(eta(pair.x, pair.y))
        f, rem = divmod(chi, quot)
        if not rem.is_zero():
            ok = False
            continue
        if em is not None:
            f = f.map_coeffs(em, em.big)
        if any(not f.eval(w) for w in omegas) != (not stated.eval(a)):
            ok = False
    return ok


def _chi_eta_claim(n, eta, qs, quotient, cond_odd, cond_even, eig_instances, k):
    """_vanishing_equiv over F_q for q in qs; and where a primitive cube root
    of unity w lies in F_q, e_4 - w^k e_-4 is a w-eigenvector of eta and
    e_4 + w^k e_-4 one of eta^T."""
    results = [_vanishing_equiv(n, q, eta, quotient, cond_odd, cond_even)
               for q in qs]
    eig = []
    for pair in _pairs(n, "general", eig_instances):
        F, sp = pair.field, pair.space
        h = eta(pair.x, pair.y)
        for w in roots(Poly(F, (1, 1, 1))):
            c = w ** k
            eig += _eig_pair(h, w, sp.vector([(1, 4), (-c, -4)]),
                             sp.vector([(1, 4), (c, -4)]))
    return {"expected": [[True] * len(qs), [True] * len(eig)],
            "computed": [results, eig]}


# claim id -> (anchor, n, eta(x, y), qs, quotient polynomials, the stated
# polynomial in a for q odd and for q even, eigenvector instances, k)
_CHI_ETA = {
    "main7-chi-eta": ("chi-eta-n7", 7, lambda x, y: y * (x * y) ** 3, (7, 13, 8),
                      [(1, 1, 1)],
                      (0, 1, 0, 1, 0, 1),       # a(a^2-a+1)(a^2+a+1)
                      (0, 1, 0, 0, 1, 1),       # a(a^4+a^3+1)
                      ((7, 1, None), (16, "gen", "main7")), 1),
    "main11-chi-eta": ("chi-eta-n11", 11, lambda x, y: paper_commutator(x, y) ** 2 * y,
                       (5, 7, 8), [(1, 0, 1), (1, 0, 1), (1, 1, 1)],
                       (2, 1, 1, 2),             # (a+1)(2a^2-a+2)
                       (1, 0, 0, 1, 1, 1),       # (a+1)(a^3+a^2+1)
                       ((7, 2, None), (4, "gen", "main11")), -1),
}

for _cid, (_anchor, *_row) in _CHI_ETA.items():
    claim(_cid, _anchor)(partial(_chi_eta_claim, *_row))


@claim("main8-chi-eta", "chi-eta-n8")
def _main8_chi_eta():
    exp, got, eig = [], [], []
    for pair in _pairs(8, "n8alt", [(5, 1, None), (7, 2, None),
                                    (9, "gen", "main8"), (4, "primitive", None)]):
        F = pair.field
        c = pair.commutator()
        eta = pair.y * pair.y * (c ** 3) * pair.y * pair.y
        a2p1_2 = 2 * (pair.a ** 2 + 1)
        sext = Poly(F, [1, 1, a2p1_2, 1, a2p1_2, 1, 1])
        exp.append(Poly(F, (-1, 1)) ** 2 * Poly(F, (1, 1)) ** 2
                   * Poly(F, (1, -1, 1)) ** 2 * Poly(F, (1, 1, 1)) * sext)
        got.append(char_poly(eta))
        sp = pair.space
        eig += _eig_pair(eta, -1, sp.vector([(1, 2), (1, 5), (-1, 7)]),
                         sp.vector([(1, -2), (1, -5), (-1, -7)]))
    return {"expected": [exp, [True] * len(eig)], "computed": [got, eig]}


def _n8_even_data(q):
    pair = _pair(8, q, "n8alt", "primitive")
    F, a = pair.field, pair.a
    a2, a3, a4 = a**2, a**3, a**4
    P = Mat(F, [[0, 0, 1, 0, 1, 1, 0, 0], [0, 0, 1, a2, 0, 0, a2, 0],
                [0, 0, 0, 0, 1, 0, a2, 0], [1, 0, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1 / a, a, 1]])
    t1 = Mat(F, [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, a4, 0],
                 [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    t2 = Mat(F, [[1, 0, 0, 0, 0], [0, 1, a2, 0, a3],
                 [0, a2, 1, a4, 0], [0, 0, 1, 1, a], [0, a, 0, a3, 1]])
    t3 = Mat(F, [[1, 0, 0, 0, 0], [a4, a2 + 1, a2, 0, a3],
                 [0, a2, a2 + 1, a4, a3], [0, 0, 0, 1, 0],
                 [a3, 0, 0, a3, 1]])
    t4 = Mat(F, [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                 [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]])
    return pair, P, (t1, t2, t3, t4)


@claim("main8-phat-conj", "P-n8")
def _main8_phat():
    results = []
    for q in (4, 8):
        pair, P, taus = _n8_even_data(q)
        det_ok = P.det() == pair.a ** 4
        Phat = _hatgl(P)
        tau = tau_of(pair)
        x, y = pair.x, pair.y
        gens = [_cj(_cj(tau, u), Phat)
                for u in (y * x * y * y, y * x * y * y * x, (y * x) ** 3,
                          (y * x) ** 2 * y)]
        results.append([det_ok] + [s_restrict(g, pair.space, 5) == t
                                   for g, t in zip(gens, taus)])
    return {"expected": [[True] * 5] * 2, "computed": results,
            "detail": "computed determinant would be reported here on mismatch"}


@claim("main8-tau-relations", "tau-rel-n8")
def _main8_tau_relations():
    even = []
    for q in (4, 8):
        pair, _, taus = _n8_even_data(q)
        t1, t4 = taus[0], taus[3]
        a, a4 = pair.a, pair.a ** 4
        even.append([
            char_poly(t1 * t4) == _unipotent_quadratic(pair.field, 3, a4),
            (t1 * t4).trace() == a4 + 1,
            paper_commutator(t1, t4).trace() == (a + 1) ** 8])
    odd = []
    for pair in _pairs(8, "n8alt", [(7, 2, None), (25, "gen", "main8")]):
        F = pair.field
        tau = tau_of(pair)
        x, y = pair.x, pair.y
        gens = [_cj(tau, u)
                for u in (y * x, y * x * y, y * x * y * y, (y * x) ** 2,
                          (y * x) ** 2 * y, (y * x) ** 3, y * y * x * y * y)]
        four_a2 = 4 * pair.a ** 2
        I5 = Mat.identity(F, 5)
        # I_5 + 4a^2 (sum of E_ij over plus - sum over minus)
        expected = [I5 + _esum(F, 5, plus, minus, (), 0).scale(four_a2)
                    for plus, minus in [([(4, 5)], [(4, 2)]), ([], [(3, 4)]),
                                        ([], [(2, 3)]), ([], [(3, 5)]),
                                        ([(2, 1)], []), ([(1, 2)], []),
                                        ([(5, 1)], [(5, 4)])]]
        e5, rest = pair.space.basis(range(1, 6)), pair.space.basis(range(6, 9))
        # the block on E_5, and the identity on the quotient V / E_5
        match = [restrict(g, e5) == want
                 and restrict(g, rest, quotient=e5).is_identity()
                 for g, want in zip(gens, expected)]
        t5, t6 = expected[4], expected[5]
        lam = 2 * (8 * pair.a ** 4 + 1)
        cp_ok = char_poly(t5 * t6) == _unipotent_quadratic(F, 3, -lam)
        odd.append(match + [cp_ok])
    return {"expected": [[[True] * 3] * 2, [[True] * 8] * 2],
            "computed": [even, odd]}


def _ytau_even(pair):
    """y tau on <e_1..e_9> at n = 9, q even: (t+1)(t^2+t+1) divides its
    charpoly, with eigenvectors s1, sb1; tau's trace and similarity
    invariants there; and eigenvectors of eta = y^2 [x,y]^3 y^2 x."""
    F, sp = pair.field, pair.space
    y9, t9 = (restrict(g, sp.basis(range(1, 10))) for g in (pair.y, tau_of(pair)))
    m = y9 * t9
    div = Poly(F, (1, 1)) * Poly(F, (1, 1, 1))
    s1 = _vec(F, [1, 1, 1] + [1 / pair.a] * 6)
    sb1 = _vec(F, [1, 1, 1] + [0] * 6)
    trace_val = Poly(F, (1, 1, 0, 1)).eval(pair.a) ** 4
    inv = similarity_invariants(t9)
    inv_ok = (len(inv) == 7
              and all(p == Poly(F, (1, 1)) for p in inv[:6])
              and inv[6] == Poly(F, [1, trace_val, trace_val, 1]))
    c = pair.commutator()
    eta = pair.y * pair.y * (c ** 3) * pair.y * pair.y * pair.x
    return [(char_poly(m) % div).is_zero(), *_eig_pair(m, 1, s1, sb1),
            t9.trace() == trace_val, inv_ok,
            *_eig_pair(eta, 1, sp.vector([(1, 3), (1, -2), (1, -5)]),
                       sp.vector([(1, 2), (1, 5), (1, -3)]))]


def _des_tau(pair):
    """tau, tau^{yx} and tau^{(yx)^2} at n = 13 are the displayed
    transvection-type maps e_j -> e_j + c_j b."""
    sp, n, a = pair.space, pair.n, pair.a
    tau = tau_of(pair)
    yx = pair.y * pair.x
    four_a = 4 * a
    m4a, m4a2 = -four_a, -four_a * a
    b1 = sp.vector([(a, n - 4), (-2, n - 1), (a, n)])
    b2 = sp.vector([(a, n - 6), (-2, n - 3), (-a, n - 1), (a**2, n)])
    b3 = sp.vector([(a, n - 7), (2, n - 4), (-a, n - 3), (-a**2, n - 1), (a**3, n)])
    return [
        _transvection_images(tau, sp, b1, {n - 7: four_a, n - 3: m4a, n - 2: m4a}),
        _transvection_images(_cj(tau, yx), sp, b2,
                             {n - 9: four_a, n - 4: four_a, n - 1: m4a2, n: m4a}),
        _transvection_images(_cj(tau, yx ** 2), sp, b3,
                             {n - 10: four_a, n - 6: four_a, n - 1: four_a,
                              n - 3: m4a2})]


@claim("main11-tau-bireflection", "tau-n11")
def _main11_tau():
    odd = []
    for pair in _pairs(11, "general", [(5, 1, None), (7, 2, None),
                                       (9, "gen", "11ex")]):
        sp, n, a = pair.space, 11, pair.a
        tau = tau_of(pair)
        four_a2 = 4 * a**2
        coefs = {10: 8 * a,
                 **dict.fromkeys((1, 2, 5, 9), four_a2),
                 **dict.fromkeys((3, 4, 6, 8), -four_a2)}
        odd.append([
            _transvection_images(tau, sp, sp.vector([(1, 7), (-1, 11)]), coefs),
            len(eigenspace(tau, 1)) == 2 * n - 2])
    even = []
    for pair in _pairs(11, "general", [(4, "gen", "main11"), (8, "gen", "table1")]):
        tau = tau_of(pair)
        tv, xv = (restrict(g, pair.space.basis(range(1, 12))) for g in (tau, pair.x))
        a8 = pair.a ** 8
        even.append([
            char_poly(tv) == _unipotent_quadratic(pair.field, 9, a8),
            tv.trace() == a8 + 1,
            paper_commutator(xv, tv).trace() == (pair.a + 1) ** 16])
    return {"expected": [[[True, True]] * 3, [[True] * 3] * 2],
            "computed": [odd, even]}


def _n8_trace(pair):
    """tr((xy)^9) = a^2 for q even, tr((xy)^8) = 8a^2 - 1 for q odd."""
    F, xy = pair.field, pair.x * pair.y
    if F.p == 2:
        return (xy ** 9).trace() == pair.a ** 2
    return (xy ** 8).trace() == Poly(F, (-1, 0, 8)).eval(pair.a)


def _tau_tau_y_trace(pair):
    """[tr(tau tau^y) = -4a^4 - 8a^3 + 18], with tau computed once."""
    tau = tau_of(pair)
    return [(tau * _cj(tau, pair.y)).trace()
            == Poly(pair.field, (18, 0, 0, -8, -4)).eval(pair.a)]


# ---------------------------------------------------------------------------
# claims: small-group actions (eq. G3 family), sigma eigenvectors, theta
# ---------------------------------------------------------------------------

def _g3_orbit(pair, u_terms):
    """Setup of a G3 block: tau's conjugates (tau, tau^y, tau^{y^2}) and the
    y-orbit (u, yu, y^2 u) of the vector u given by signed-index terms."""
    tau, y = tau_of(pair), pair.y
    u = pair.space.vector(u_terms)
    yu = y.apply(u)
    return [tau, _cj(tau, y), _cj(tau, y * y)], [u, yu, y.apply(yu)]


def _g3_check(pair, trip, vectors, combos, eq):
    """The three matrices of trip act as the displayed generator triple (as a
    multiset) on the span of the combos [(coeff, i), ...] of vectors."""
    basis = [_vcombo(pair.field, [(c, vectors[i]) for c, i in combo])
             for combo in combos]
    disp = list(g3_displayed(pair.field, pair.a, eq))
    for g in trip:
        try:
            m = restrict(g, basis)
        except BadParam:
            return False
        if m not in disp:
            return False
        disp.remove(m)
    return True


# eq -> (n, recipe, (q, aspec, tag) instances, ell, block(a)).  block(a) gives
# u as signed-index terms; the basis as combos of the y-orbit (u, yu, y^2 u);
# the charpoly (j, m, lam): tau tau^{y^j} acts on the section S_ell of
# s_restrict with charpoly (t - 1)^m (t^2 + lam t + 1); and the transpose
# side: three vectors of S_ell, as terms in e_{n-ell+1}..e_n, and the combos
# of them on which the transposed sections act as the triple.
_G3_BLOCKS = {
    "G3": (13, "general", ((5, -1, None), (3, -1, None)), 9, lambda a: (
        [(1, 8), (-2 / a, 11), (1, 12)],
        [[(8 * a, 1)], [(1, 0)], [(a**3, 0), (a, 1), (a * a, 2)]],
        (1, 7, 64 * a**3 - 2),
        # ub, y^T ub, y^2T ub
        ([[(1, 7), (-1, 8), (-1, 12)], [(1, 6), (-1, 10), (-1, 11)],
          [(1, 5), (-1, 9), (-1, 13)]],
         [[(8 * a, 2)], [(1, 0)], [(a**3, 0), (a * a, 1), (a, 2)]]))),
    "G39": (7, "general", ((5, 1, None), (9, "gen", "7ex")), 7, lambda a: (
        [(1, 3), (-1, 7)],
        [[(4 * a * a, 0)], [(-1, 1)], [(a * a, 0), (1, 1), (-a, 2)]],
        (2, 5, -(16 * a**3 + 2)),
        ([[(a, 4), (-a, 5), (-2, 6)], [(a, 1), (-a, 3), (2, 5), (a, 7)],
          [(a, 1), (a, 2), (-a * a, 4), (a * a, 5), (a, 6), (-2, 7)]],
         [[(4 * a * a, 0)], [(1, 1)], [(-1, 1), (-a, 2)]]))),
    "39": (9, "general", ((11, 4, None), (9, "gen", "9ex")), 9, lambda a: (
        [(1, 5), (-2 / a, 8), (1, 9)],
        [[(-2 * a * a, 0)], [(1, 1)],
         [(1, 0), ((a + 2)**2 / (4 * a * a), 1), ((a + 2) / (2 * a), 2)]],
        (2, 7, 2 * a**4 - 2 + 4 * a**3), None)),
    "G311": (11, "general", ((11, 1, None), (9, "gen", "11ex")), 11, lambda a: (
        [(1, 7), (-1, 11)],
        [[(1, 0)], [(-4 * a * (a + 2), 1)],
         [(a, 0), ((a + 2)**2 / (4 * a), 1), (-(a + 2) / 2, 2)]],
        (2, 9, -2 * (16 * a**4 + 32 * a**3 + 1)), None)),
    "SL3-5": (5, "n5", ((7, 1, None), (9, "gen", "table1")), 5, lambda a: (
        [(1, 2)], [[(-a * a, 0)], [(1, 1)], [(1, 2)]], None, None)),
}


@claim("G3-action", "G3")
def _g3_action():
    results = {}
    for eq, (n, recipe, instances, ell, block) in _G3_BLOCKS.items():
        for pair in _pairs(n, recipe, instances):
            F, sp = pair.field, pair.space
            u_terms, combos, cp, transpose = block(pair.a)
            trip, orbit = _g3_orbit(pair, u_terms)
            ok = [_g3_check(pair, trip, orbit, combos, eq)]
            if transpose:
                vecs = [_vector(F, ell, lambda i: i - n + ell - 1, terms)
                        for terms in transpose[0]]
                ok.append(_g3_check(pair, [s_restrict(g, sp, ell).transpose()
                                           for g in trip], vecs, transpose[1], eq))
            if cp:
                j, m, lam = cp
                ok.append(char_poly(s_restrict(trip[0] * trip[j], sp, ell))
                          == _unipotent_quadratic(F, m, lam))
            results[f"{eq}-q{pair.q}"] = ok
    expected = {k: [True] * len(v) for k, v in results.items()}
    return {"expected": expected, "computed": results}


@claim("s-sigma", "s-sigma")
def _s_sigma():
    results = []
    for q, tag in [(8, "G7"), (4, None)]:
        field = standard_field(q, tag)
        a = field.gen() if tag else search_parameter("sigma-a", q, field)[0]
        pair = build("general", 10, q, a, field)
        sigma = _sigma_of(field, a)
        big = sigma.ctx
        cb = embed(field, big).map_matrix(pair.commutator())
        sp, n = pair.space, 10
        ok = [mult_order(sigma).value() == q + 1]
        for s in (sigma, sigma.inv()):
            si = s.inv()
            v = _vector(big, 2 * n, sp.idx,
                        [(1, n - 7), (1, n - 4), (1, n - 1), (s, n - 3),
                         (s, n), (si, n - 2)])
            vb = _vector(big, 2 * n, sp.idx, [(1, n - 4), (si + 1, n - 1), (1, n)])
            ok += _eig_pair(cb, s, v, vb)
        if q != 8:
            t7 = s_restrict(tau_of(pair), sp, 7)
            ok.append(char_poly(t7) == _unipotent_quadratic(field, 5, a**24 + a**8))
            ok.append(t7.trace() == Poly(field, (1, 1, 0, 1)).eval(a) ** 8)
        results.append(ok)
    return {"expected": [[True] * len(r) for r in results],
            "computed": results}


@claim("theta-charpoly", "theta")
def _theta_charpoly():
    exp, got = [], []
    for q, tag in [(4, None), (8, "table1"), (16, None)]:
        field = standard_field(q, tag)
        a = field.gen() if q > 2 else field.elem(1)
        th = theta_matrix(field, a, q)
        exp.append(Poly(field, (1, 0, 1)) * Poly(field, (1, 1, 1))
                   * Poly(field, [1, a, 1]))
        got.append(char_poly(th))
    return {"expected": exp, "computed": got}


def _block_orders(pair):
    """[x,y] on each A_r summand is the displayed matrix of the displayed
    order; tau is the identity on the A and B summands; [x,y] on C^+ is
    theta."""
    sp, c, tau = pair.space, pair.commutator(), tau_of(pair)
    decomp = block_decomposition(pair)
    _, displayed = expected_a_matrices(pair.field, pair.n)
    ok = []
    for summand, (mat, order) in zip(decomp.a_summands, displayed):
        r = restrict(c, sp.basis(summand))
        ok += [r == mat, element_order(r).value() == order]
    ok.append(all(restrict(tau, sp.basis(summand)).is_identity()
                  for summand in decomp.a_summands + decomp.b_summands))
    ok.append(restrict(c, sp.basis(decomp.c_plus)) == decomp.theta)
    return ok


# ---------------------------------------------------------------------------
# claims as tables: values and checks over (q, aspec, tag) instances
# ---------------------------------------------------------------------------

# claim id -> (anchor, n, recipe, instances, of(pair), expected(F, a))
_VALUES = {
    "charpoly-n4": ("charpoly-n4", 4, "general", _N4,
                    lambda p: char_poly(p.commutator()),
                    lambda F, a: Poly(F, (1, 2, 1, 2, 4, 2, 1, 2, 1))),
    "main4-cube-dim6": ("cube-n4", 4, "general", _N4, _cube_eigenspace,
                        lambda F, a: [6, True, True]),
    "main4-chi-xy": ("chi-xy-n4", 4, "general", _N4,
                     lambda p: char_poly(p.x * p.y),
                     lambda F, a: Poly(F, [1, -a, 0, a, -a**2 - 1, a, 0, -a, 1])),
    "main5-chi-eta": ("chi-eta-n5", 5, "n5", _N5,
                      lambda p: char_poly(p.y * tau_of(p)),
                      lambda F, a: (Poly(F, (1, 1, 1)) ** 2 * Poly(F, [-1, -a**2, 0, 1])
                                    * Poly(F, [-1, 0, a**2, 1]))),
    "main6-chi-comm": ("chi-comm-n6", 6, "n6alt", _N6,
                       lambda p: char_poly(p.commutator()),
                       lambda F, a: (Poly(F, (1, 1)) ** 4
                                     * Poly(F, (1, -1, 1, -1, 1)) ** 2)),
    # chi_tau = (t-1)^(2n) for q odd, (t-1)^(2n-4) (t^2 + lam(a) t + 1)^2 for q even
    "main7-tau-charpoly": (
        "tau-n7", 7, "general",
        ((4, "gen", "main7"), (8, "gen", "main7"), (16, "gen", "main7"),
         (7, 1, None), (5, 1, None), (9, "gen", "7ex")),
        lambda p: char_poly(tau_of(p)),
        lambda F, a: (_unipotent_quadratic(F, 10, a**8, 2) if F.p == 2
                      else Poly(F, (-1, 1)) ** 14)),
    "main9-tau-charpoly": (
        "tau-n9", 9, "general",
        _N9_EVEN + ((7, 1, None), (5, 1, None), (11, 4, None)),
        lambda p: char_poly(tau_of(p)),
        lambda F, a: (_unipotent_quadratic(F, 14, a**12 + a**4, 2) if F.p == 2
                      else Poly(F, (-1, 1)) ** 18)),
}

# claim id -> (anchor, n, recipe, instances, check(pair) -> [bool, ...])
_CHECKS = {
    "main4-w-eigenvectors": ("w-n4", 4, "general", _N4, _w_eigenvectors),
    "subfield": ("subfield", 4, "general", _N4,
                 lambda p: [_trace_xy(p), _y_invariant(p)]),
    "main5-tau-dim8": ("tau-n5", 5, "n5", _N5,
                       lambda p: _scalar_unipotent(tau_of(p), 1, 8)),
    "main5-trace": ("subfield5", 5, "n5", _N5, _n5_traces),
    "subfield5": ("subfield5", 5, "n5", _N5,
                  lambda p: _n5_traces(p) + [_y_invariant(p)]),
    "trace6": ("trace6", 6, "n6alt", _N6, _n6_traces),
    "main6-tau-dim10": ("tau-n6", 6, "n6alt", _N6,
                        lambda p: _scalar_unipotent(p.commutator() ** 5, -1, 10)),
    "subfield6": ("subfield6", 6, "n6alt", _N6,
                  lambda p: [_trace_xy(p), _y_invariant(p)]),
    "subfield7": ("subfield7", 7, "general",
                  ((7, 1, None), (9, "gen", "7ex"), (8, "gen", "main7")),
                  lambda p: [_trace_xy(p, 1), _y_invariant(p)]),
    "subfield8": ("subfield8", 8, "n8alt",
                  ((7, 2, None), (25, "gen", "main8"), (4, "primitive", None),
                   (8, "primitive", None)),
                  lambda p: [_n8_trace(p), _y_invariant(p)]),
    "main9-ytau-even": ("ytau-n9", 9, "general", _N9_EVEN[:2], _ytau_even),
    "subfield9-2": ("subfield9-2", 9, "general", _N9_EVEN,
                    lambda p: [((p.x * p.y) ** 3).trace()
                               == Poly(p.field, (1, 1, 0, 1)).eval(p.a)]),
    "subfield9-odd": ("subfield9-odd", 9, "general",
                      ((11, 4, None), (13, 4, None), (9, "gen", "9ex")),
                      _tau_tau_y_trace),
    "subfield11": ("subfield11", 11, "general",
                   ((5, 1, None), (9, "gen", "11ex"), (8, "gen", "table1")),
                   lambda p: [_trace_xy(p, 1)]),
    "des-tau-n9": ("des-tau", 13, "general",
                   ((5, -1, None), (7, 1, None), (3, -1, None)), _des_tau),
    "block-orders-n10": ("blocks", 10, "general",
                         ((3, 1, None), (4, "gen", None)), _block_orders),
    "block-orders-n12": ("blocks", 12, "general",
                         ((2, 1, None), (3, 1, None)), _block_orders),
    "block-orders-n13": ("blocks", 13, "general",
                         ((3, 1, None), (7, 1, None)), _block_orders),
    "block-orders-n14": ("blocks", 14, "general",
                         ((3, 1, None), (5, 1, None)), _block_orders),
    "block-orders-n15": ("blocks", 15, "general",
                         ((2, 1, None), (3, 1, None)), _block_orders),
}

for _cid, (_anchor, *_row) in _VALUES.items():
    claim(_cid, _anchor)(partial(_values_claim, *_row))

for _cid, (_anchor, *_row) in _CHECKS.items():
    claim(_cid, _anchor)(partial(_checks_claim, *_row))


# ---------------------------------------------------------------------------
# claims: condition-set sanity (admissible a exists; named a passes)
# ---------------------------------------------------------------------------

def _sanity_claim(lemma, nonempty_qs, empty_qs):
    checks = {f"nonempty-q{q}": len(search_parameter(lemma, q)) > 0
              for q in nonempty_qs}
    for (lem, q) in NAMED_A:
        if lem == lemma:
            checks[f"named-q{q}"] = named_a_reproduced(lemma, q)
    for q in empty_qs:
        checks[f"empty-q{q}"] = search_parameter(lemma, q) == []
    return {"expected": {k: True for k in checks}, "computed": checks}


# lemma (also its claim id and anchor) -> (q with some admissible a,
# q with none)
_SANITY_SAMPLES = {
    "G9": ((3, 5), (7,)), "G9-10": ((3, 9), ()), "G9-12": ((7, 9), ()),
    "G9-14": ((3, 9), ()), "K9": ((5, 9), ()), "K9even": ((16, 32), ()),
    "K9odd": ((11, 9), ()), "G11": ((8, 16), ()), "Gn11": ((11, 9), ()),
}

for _lemma, _row in _SANITY_SAMPLES.items():
    claim(_lemma, _lemma)(partial(_sanity_claim, _lemma, *_row))


# ---------------------------------------------------------------------------
# claims: even-characteristic quadratic-form obstructions
# ---------------------------------------------------------------------------

def _quadform_claim(*pair_args):
    return {"expected": ["Inconsistent"],
            "computed": [quadratic_form_obstruction(_pair(*pair_args)).kind]}


# claim id (also its anchor) -> (n, q, recipe, aspec, tag)
_QUADFORM = {
    "quadform-n4": (4, 4, "general", "primitive", None),
    "quadform-n5": (5, 4, "n5", "gen", "main5"),
    "quadform-n6": (6, 8, "n6alt", "gen", "table1"),
    "quadform-n7": (7, 4, "general", "gen", "main7"),
    "quadform-n8": (8, 4, "n8alt", "primitive", None),
    "quadform-n9": (9, 4, "general", "gen", "main9"),
    "quadform-n11": (11, 4, "general", "gen", "main11"),
}

for _cid, _row in _QUADFORM.items():
    claim(_cid, _cid)(partial(_quadform_claim, *_row))
