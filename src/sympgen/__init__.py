"""Exact construction and verification of (2,3)-generator pairs for
finite symplectic groups Sp_{2n}(q).

The package is organized around small exact kernels:

- :mod:`sympgen.gf` -- finite fields F_q as packed-integer arithmetic contexts
- :mod:`sympgen.poly` -- dense univariate polynomials over those fields
- :mod:`sympgen.matrix` -- exact matrices, characteristic polynomials,
  eigenspaces and similarity invariants
- :mod:`sympgen.construct` -- the generator-pair recipes and auxiliary
  matrices
- :mod:`sympgen.grouporder` -- element orders, prime supports of group
  orders, breadth-first closures, and generation certificates
- :mod:`sympgen.claims` -- the registered verification claims, parameter
  searches, and the quadratic-form obstruction
- :mod:`sympgen.cli` -- the ``sympgen`` command line tool
"""

from .errors import SympgenError
from .gf import (
    FieldCtx,
    FieldElem,
    Embedding,
    make_ext_field,
    parse_field_spec,
    standard_field,
    default_modulus,
    modulus_for,
    bundled_moduli,
    embed,
    subfield_degree,
    mult_order,
    campoN_bound,
)
from .poly import Poly, Factorization, factor, is_irreducible, is_self_reciprocal
from .matrix import (
    Mat,
    char_poly,
    eigenspace,
    similarity_invariants,
    paper_commutator,
)
from .construct import (
    SympSpace,
    GeneratorPair,
    build,
    build_general,
    build_n5,
    build_n6_alt,
    build_n8_alt,
    tau_of,
    tau_exponent,
    block_decomposition,
    restrict,
)
from .grouporder import (
    PrimeSet,
    Certificate,
    order_sp,
    order_sl,
    element_order,
    naive_element_order,
    varpi,
    varpi_group,
    closure_bfs,
    lps_certificate,
)
from .claims import (
    ClaimResult,
    Obstruction,
    claim_ids,
    run_claim,
    run_all,
    report_json,
    certify_pair,
    search_parameter,
    named_a_value,
    named_a_reproduced,
    quadratic_form_obstruction,
)

__version__ = "0.1.0"

__all__ = [
    "SympgenError",
    "FieldCtx",
    "FieldElem",
    "Embedding",
    "make_ext_field",
    "parse_field_spec",
    "standard_field",
    "default_modulus",
    "modulus_for",
    "bundled_moduli",
    "embed",
    "subfield_degree",
    "mult_order",
    "campoN_bound",
    "Poly",
    "Factorization",
    "factor",
    "is_irreducible",
    "is_self_reciprocal",
    "Mat",
    "char_poly",
    "eigenspace",
    "similarity_invariants",
    "paper_commutator",
    "SympSpace",
    "GeneratorPair",
    "build",
    "build_general",
    "build_n5",
    "build_n6_alt",
    "build_n8_alt",
    "tau_of",
    "tau_exponent",
    "block_decomposition",
    "restrict",
    "PrimeSet",
    "Certificate",
    "order_sp",
    "order_sl",
    "element_order",
    "naive_element_order",
    "varpi",
    "varpi_group",
    "closure_bfs",
    "lps_certificate",
    "ClaimResult",
    "Obstruction",
    "claim_ids",
    "run_claim",
    "run_all",
    "report_json",
    "certify_pair",
    "search_parameter",
    "named_a_value",
    "named_a_reproduced",
    "quadratic_form_obstruction",
    "__version__",
]
