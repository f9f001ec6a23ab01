"""Workload definitions, seeded inputs and output checks.

Nothing here imports sympgen: the item lists are plain data, and the
``orders`` check recomputes matrix powers with its own finite-field
arithmetic, so a defect in sympgen's field or matrix layer cannot hide
itself from the check.
"""

from __future__ import annotations

import random

CERTIFY = [(8, 2), (11, 2), (6, 4), (8, 3), (9, 3), (8, 5), (10, 7),
           (7, 8), (7, 16), (6, 9), (5, 25)]
IDENTITY_GLOBS = ["[!mp]*", "main*-[!q]*", "phat-*", "prop-q2-sl9"]
FIELD_SEARCHES = [("M=H", 243), ("irr6", 343), ("WSL6", 361),
                  ("G9-14", 529), ("irr6", 625), ("9ex", 729),
                  ("11ex", 961), ("K9even", 1024), ("irr6", 1331),
                  ("ex5", 2048)]

# (recipe, n, q) -> words drawn per word length; the parameter a is the
# field generator (1 over F_p).  The cost of one order varies with the word
# about as much as its mean, so a pair's share of the run-to-run spread
# grows with its mean cost: the cheap pairs (dims 8-12) get more words, the
# dear ones (dims 14-18) fewer, to keep a seed's total work close to any
# other seed's.
ORDER_PAIRS = {("general", 4, 3): 20, ("n5", 5, 3): 20, ("n6alt", 6, 3): 20,
               ("n8alt", 8, 3): 3, ("general", 6, 4): 20, ("general", 9, 2): 3,
               ("general", 7, 7): 3}
# Letters: x, y, and Y standing for y^2.
LETTERS = "xyY"
# Every length 1..10 is drawn equally often, as the cost grows with it.
MAX_WORD_LENGTH = 10
# (group, q): SL_2(q) on two transvections, or the displayed G3 triple.
CLOSURES = [("sl2", 25), ("sl2", 27), ("g3", 3)]

WORKLOADS = ("certify", "identities", "orders", "fields")


def cli_items(workload: str):
    """The (item id, argv) pairs of a CLI workload, in canonical order."""
    if workload == "certify":
        argvs = [["certify", "--n", str(n), "--q", str(q)] for n, q in CERTIFY]
    elif workload == "identities":
        argvs = [["verify", glob] for glob in IDENTITY_GLOBS]
    elif workload == "fields":
        argvs = [["search", "--lemma", lemma, "--q", str(q)]
                 for lemma, q in FIELD_SEARCHES]
    else:
        raise ValueError(f"{workload!r} is not a CLI workload")
    return [(" ".join(argv), argv) for argv in argvs]


def draw_words(seed: int):
    """Per pair, ORDER_PAIRS[pair] random words of each length 1..10."""
    rng = random.Random(seed)
    out = []
    for pair, per_length in ORDER_PAIRS.items():
        words = []
        for length in range(1, MAX_WORD_LENGTH + 1):
            for _ in range(per_length):
                words.append("".join(rng.choice(LETTERS) for _ in range(length)))
        out.append((pair, words))
    return out


def plan(workload: str, seed: int):
    """The job a worker runs for one pass: seeded, JSON-serialisable."""
    if workload == "orders":
        return {"workload": workload,
                "pairs": [[list(pair), words] for pair, words in draw_words(seed)],
                "closures": [list(c) for c in CLOSURES]}
    items = [{"id": item_id, "argv": argv} for item_id, argv in cli_items(workload)]
    # outputs do not depend on order, but the caches fill in a different one
    random.Random(seed).shuffle(items)
    job = {"workload": workload, "items": items}
    if workload == "identities":
        # Under run_all's default thread pool the pass time does not follow
        # the machine's single-thread speed, which the probes measure, so
        # its probe-unit time spreads 4x wider than serially.
        job["env"] = {"SYMPGEN_THREADS": "1"}
    return job


def order_item_ids(job):
    ids = []
    for (recipe, n, q), words in job["pairs"]:
        ids += [f"{recipe},{n},{q}#{i}:{w}" for i, w in enumerate(words)]
    ids += [f"closure {group} q={q}" for group, q in job["closures"]]
    return ids


def closure_size(group: str, q: int) -> int:
    """|SL_2(q)| = q(q^2-1); |G3| = |SL_3(q)| = q^3(q^3-1)(q^2-1)."""
    if group == "sl2":
        return q * (q * q - 1)
    if group == "g3":
        return q**3 * (q**3 - 1) * (q * q - 1)
    raise ValueError(f"unknown closure group {group!r}")


def check_cli_output(expected: dict, item_id: str, rc, out: str) -> str | None:
    """None if the item passed; otherwise the reason it failed."""
    if rc != 0:
        return f"exit code {rc}"
    if item_id not in expected:
        return "no recorded output"
    if out != expected[item_id]:
        return "output differs from the recorded output"
    return None


# ---------------------------------------------------------------------------
# independent order check
# ---------------------------------------------------------------------------

class SmallField:
    """F_{p^f} with elements packed as c0 + c1*p + ...; tables for f > 1."""

    def __init__(self, p: int, f: int, modulus):
        self.p, self.f, self.q = p, f, p**f
        if f == 1:
            return
        mod = [c % p for c in modulus]

        def poly(v):
            return [(v // p**i) % p for i in range(f)]

        def pack(c):
            return sum(ci * p**i for i, ci in enumerate(c))

        def mul(a, b):
            prod = [0] * (2 * f - 1)
            for i, ai in enumerate(poly(a)):
                for j, bj in enumerate(poly(b)):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
            for k in range(2 * f - 2, f - 1, -1):  # reduce by the monic modulus
                c = prod[k]
                if c:
                    for i in range(f + 1):
                        prod[k - f + i] = (prod[k - f + i] - c * mod[i]) % p
            return pack(prod[:f])

        q = self.q
        self.add = [[pack([(x + y) % p for x, y in zip(poly(a), poly(b))])
                     for b in range(q)] for a in range(q)]
        self.mul = [[mul(a, b) for b in range(q)] for a in range(q)]

    def matmul(self, a, b):
        cols = list(zip(*b))
        if self.f == 1:
            p = self.p
            return [[sum(x * y for x, y in zip(row, col)) % p for col in cols]
                    for row in a]
        add, mul = self.add, self.mul
        out = []
        for row in a:
            orow = []
            for col in cols:
                acc = 0
                for x, y in zip(row, col):
                    if x and y:
                        acc = add[acc][mul[x][y]]
                orow.append(acc)
            out.append(orow)
        return out

    def matpow(self, g, e: int):
        n = len(g)
        result = [[int(i == j) for j in range(n)] for i in range(n)]
        while e:
            if e & 1:
                result = self.matmul(result, g)
            e >>= 1
            if e:
                g = self.matmul(g, g)
        return result


def word_matrix(field: SmallField, letters: dict, word: str):
    g = letters[word[0]]
    for c in word[1:]:
        g = field.matmul(g, letters[c])
    return g


def check_order(field: SmallField, g, factors) -> str | None:
    """None if prod p^e over factors is the exact order of g."""
    n = len(g)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    order = 1
    for prime, exp in factors:
        order *= prime**exp
    if field.matpow(g, order) != ident:
        return f"g^{order} != I"
    for prime, _ in factors:
        if field.matpow(g, order // prime) == ident:
            return f"g^({order}/{prime}) = I"
    return None
