#!/usr/bin/env python3
"""Search F_q^* for admissible recipe parameters.

Each generation lemma imposes a finite set of polynomial non-vanishing
conditions on the recipe parameter a; most also ask that an expression
expr(a) generate F_q, which is the non-vanishing of expr and of the
Frobenius differences expr(t^(p^e)) - expr(t).  `search_parameter` returns
the admissible values of F_q^* in the order of consecutive powers of the
least multiplicative generator.  The named parameter used in each proof
must always be among them, and the number of *inadmissible* values is
bounded by the sum of the degrees of the condition polynomials.
"""

from sympgen import search_parameter, named_a_value, standard_field


def main() -> None:
    for lemma, q in [("irr6", 11), ("irr6", 8), ("M=H", 9), ("K9", 9), ("G9", 7)]:
        field = standard_field(q)
        hits = search_parameter(lemma, q, field)
        shown = ", ".join(field.elem_string(a.val) for a in hits[:6])
        more = "" if len(hits) <= 6 else f", ... ({len(hits)} total)"
        print(f"{lemma:5} over F_{q}: {len(hits):3} admissible  [{shown}{more}]")
        try:
            a = named_a_value(lemma, q)
            ok = any(h == a for h in hits)
            print(f"       named a = {field.elem_string(a.val)} -> {'admissible' if ok else 'NOT admissible'}")
        except Exception:
            print("       (no named parameter recorded for this pair)")


if __name__ == "__main__":
    main()
