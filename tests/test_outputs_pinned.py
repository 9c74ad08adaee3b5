"""Pinned digest of solver outputs over a fixed seeded corpus.

A refactor of the reduction or of either DAG engine must leave every answer
byte-identical: fast and naive feasibility, cost and vertex set, plus the
``dump_digraph`` text, unweighted and with mixed-denominator costs.  The
corpus is ``generate_random`` at n 5-12, k 1-3, both variants.  A second
digest covers ``fast`` alone at n 40/60/90/120, where the DP's tie-breaks
choose among many more equal-cost paths.  Stats stay out of these two
hashes; ``PINNED_STATS`` hashes fast's whole ``stats`` dict over the second
corpus, so a change to how the plan or the DP does its work that moves a
count shows there.  ``PINNED_PATHS`` hashes fast's node path itself on the
same corpus plus more k=3 rows at n 40/60: two equal-cost paths can give the
same vertex set, so this is the direct guard on the DP's tie-breaks.
A third digest covers the naive engine and the ``dump_digraph`` text at n
20/30/45 (k 1-2) and n 20 (k 3), where jump-arc windows are wide enough to
hold many heads per tail.  ``PINNED_NAIVE_PATHS`` hashes naive's node path,
as node ids, and its stats on that corpus: the guard on naive's tie-break.
A fourth digest covers the brute-force oracle on the first corpus: its
feasibility, cost value and type, vertex set and ``subsets_scanned``, run
unweighted, weighted on the model without costs (one unit per vertex) and
weighted with the mixed-denominator costs, zero costs among them.
A fifth digest, ``PINNED_INGEST``, covers reading a model: ``parse_model`` on
seeded texts with shuffled rows (integer, decimal, exponent and ``p/q``
spellings, negative endpoints, touching endpoints spelled two ways,
endpoints 2^-40 and 2^-60 apart), with ``derive_graph`` adjacency and the
DAG context's reach arrays, and the exact error line of each bad text.

When an intended change moves an answer, re-pin ``PINNED`` and say why in
the change's notes.
"""

import hashlib
import json
import random
from fractions import Fraction

from pikdom.errors import PikdomError
from pikdom.fast import search_fast, solve_fast
from pikdom.model import derive_graph, format_rational, generate_random, parse_model, with_costs
from pikdom.oracle import brute_force_min
from pikdom.reduction import (
    _Ctx,
    build_digraph,
    dump_digraph,
    engine_plan,
    search_naive,
    solve_naive,
)

PINNED = "26bdb24d204f54b4f3f2659bedce8b7f556e2e4492c4f696f4e03d08186fc13a"
PINNED_LARGE = "22d14d2784209b031bb0edc781653109e9d7100b8748053e068df049114f4a74"
PINNED_ARCS = "d9fe33cb24ac05d807dc5214240a1338f376648375912c62743f07a262ef327d"
PINNED_BRUTE = "9d058888313844140c9959c83691ac6163072a6ef6c11538e23fcc3ecce16550"
PINNED_STATS = "e89115cf159d06e7010015e538a3656c4b262150caf28616a3a660d756a5afaa"
PINNED_PATHS = "1ae225a9af0d47c30db72bec9c50e382cb2b3f0bf8788d6211da84e78f68ccfe"
PINNED_NAIVE_PATHS = "55c77e8f6fb7138719a53fbd095b2fc18afd17163a5f37d8377664eddb9d38b1"
PINNED_INGEST = "115378a2c9ef74002c7512f09ebf1d8f408822a0c73efe512638d3beb7366513"

_STRETCHES = (2, Fraction(5, 2), 3, 4, Fraction(17, 3), 7)


def _corpus(ns=range(5, 13), base=1000):
    for n in ns:
        for k in (1, 2, 3):
            for rep in range(3):
                yield from _cases(n, k, base + 100 * n + 10 * k + rep, rep)


def _cases(n, k, seed, rep):
    m = generate_random(n, seed, _STRETCHES[(n + k + rep) % len(_STRETCHES)])
    rng = random.Random(seed)
    mw = with_costs(m, [Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 5, 7)))
                        for _ in range(n)])
    for variant in ("kdom", "total"):
        yield f"{n} {seed} {k} {variant}", m, mw, k, variant


def _answer(sol) -> str:
    cost = "-" if sol.cost is None else format_rational(sol.cost)
    members = " ".join(str(v) for v in sol.vertices)
    return f"{sol.engine} {sol.feasible} {cost} [{members}]"


def output_digest() -> tuple[str, int]:
    h = hashlib.sha256()
    runs = 0
    for label, m, mw, k, variant in _corpus():
        for weighted, model in ((False, m), (True, mw)):
            h.update(f"{label} {weighted}\n".encode())
            for solve in (solve_fast, solve_naive):
                h.update((_answer(solve(model, k, variant, weighted)) + "\n").encode())
                runs += 1
            h.update(dump_digraph(build_digraph(model, k, variant, weighted)).encode())
    return h.hexdigest(), runs


def test_outputs_match_pinned_digest():
    digest, runs = output_digest()
    assert runs == 8 * 3 * 3 * 2 * 2 * 2
    assert digest == PINNED


def large_digest() -> tuple[str, int]:
    """``fast`` alone past the naive engine's comfortable range; the node
    budget is lifted, since its binomial projection refuses k=3 at n=90."""
    h = hashlib.sha256()
    runs = 0
    for label, m, mw, k, variant in _corpus((40, 60, 90, 120), 50000):
        for weighted, model in ((False, m), (True, mw)):
            sol = solve_fast(model, k, variant, weighted, cap_nodes=10**18)
            h.update(f"{label} {weighted} {_answer(sol)}\n".encode())
            runs += 1
    return h.hexdigest(), runs


def test_large_outputs_match_pinned_digest():
    digest, runs = large_digest()
    assert runs == 4 * 3 * 3 * 2 * 2
    assert digest == PINNED_LARGE


def stats_digest() -> tuple[str, int]:
    """Every counter ``fast`` reports, on the corpus of ``large_digest``."""
    h = hashlib.sha256()
    runs = 0
    for label, m, mw, k, variant in _corpus((40, 60, 90, 120), 50000):
        for weighted, model in ((False, m), (True, mw)):
            sol = solve_fast(model, k, variant, weighted, cap_nodes=10**18)
            stats = json.dumps(sol.stats, sort_keys=True)
            h.update(f"{label} {weighted} {stats}\n".encode())
            runs += 1
    return h.hexdigest(), runs


def test_large_stats_match_pinned_digest():
    digest, runs = stats_digest()
    assert runs == 4 * 3 * 3 * 2 * 2
    assert digest == PINNED_STATS


def paths_digest() -> tuple[str, int]:
    """``fast``'s node path, as its node sequences, on the corpus of
    ``large_digest`` plus k=3 at n 40/60 on fresh seeds."""
    extra = (row for row in _corpus((40, 60), 60000) if row[3] == 3)
    h = hashlib.sha256()
    runs = 0
    for label, m, mw, k, variant in (*_corpus((40, 60, 90, 120), 50000), *extra):
        for weighted, model in ((False, m), (True, mw)):
            plan = engine_plan(model, k, variant, weighted, cap_nodes=10**18)
            sol, path = search_fast(plan)
            seqs = "-" if path is None else " ".join(
                ",".join(map(str, nd.seq)) for nd in path
            )
            h.update(f"{label} {weighted} {_answer(sol)} {seqs}\n".encode())
            runs += 1
    return h.hexdigest(), runs


def test_large_paths_match_pinned_digest():
    digest, runs = paths_digest()
    assert runs == (4 * 3 + 2) * 3 * 2 * 2
    assert digest == PINNED_PATHS


def _arcs_corpus():
    """The corpus of ``arcs_digest``: (label, weighted, model, k, variant)."""
    for n, k in ((20, 1), (20, 2), (20, 3), (30, 1), (30, 2), (45, 1), (45, 2)):
        for rep in range(2):
            seed = 70000 + 100 * n + 10 * k + rep
            for label, m, mw, k, variant in _cases(n, k, seed, rep):
                for weighted, model in ((False, m), (True, mw)):
                    yield label, weighted, model, k, variant


def arcs_digest() -> tuple[str, int]:
    h = hashlib.sha256()
    runs = 0
    for label, weighted, model, k, variant in _arcs_corpus():
        sol = solve_naive(model, k, variant, weighted)
        h.update(f"{label} {weighted} {_answer(sol)}\n".encode())
        dg = build_digraph(model, k, variant, weighted)
        h.update(dump_digraph(dg).encode())
        runs += 1
    return h.hexdigest(), runs


def test_arcs_match_pinned_digest():
    digest, runs = arcs_digest()
    assert runs == 7 * 2 * 2 * 2
    assert digest == PINNED_ARCS


def naive_paths_digest() -> tuple[str, int]:
    """``naive``'s node path, as node ids, and its stats on the corpus of
    ``arcs_digest``."""
    h = hashlib.sha256()
    runs = 0
    for label, weighted, model, k, variant in _arcs_corpus():
        sol, path = search_naive(engine_plan(model, k, variant, weighted))
        ids = "-" if path is None else " ".join(str(nd.id) for nd in path)
        stats = json.dumps(sol.stats, sort_keys=True)
        h.update(f"{label} {weighted} {_answer(sol)} {ids} {stats}\n".encode())
        runs += 1
    return h.hexdigest(), runs


def test_naive_paths_match_pinned_digest():
    digest, runs = naive_paths_digest()
    assert runs == 7 * 2 * 2 * 2
    assert digest == PINNED_NAIVE_PATHS


def _brute_answer(sol) -> str:
    cost = "-" if sol.cost is None else f"{type(sol.cost).__name__} {format_rational(sol.cost)}"
    members = " ".join(str(v) for v in sol.vertices)
    return f"{sol.feasible} {cost} [{members}] {sol.stats['subsets_scanned']}"


def brute_digest() -> tuple[str, int, int]:
    h = hashlib.sha256()
    runs = zero_costs = 0
    for label, m, mw, k, variant in _corpus():
        if variant == "kdom":  # each model appears once per variant
            zero_costs += sum(1 for c in mw.cost_by_original() if c == 0)
        for weighted, model in ((False, m), (True, m), (True, mw)):
            sol = brute_force_min(model, k, variant, weighted)
            h.update(f"{label} {weighted} {model is mw} {_brute_answer(sol)}\n".encode())
            runs += 1
    return h.hexdigest(), runs, zero_costs


def test_brute_outputs_match_pinned_digest():
    digest, runs, zero_costs = brute_digest()
    assert runs == 8 * 3 * 3 * 2 * 3
    assert zero_costs > 20
    assert digest == PINNED_BRUTE


# ------------------------------------------------------------------ ingest

_DENS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 25)
_TINY = (Fraction(1, 2**40), Fraction(1, 2**60))
_FAULTS = ("dup", "contain", "inside", "reversed", "neg_cost", "zero_den", "bad_literal")


def _spell(x: Fraction, rng) -> str:
    """One exact spelling of x: ``p/q`` (maybe unreduced), and the integer,
    decimal or exponent form where one exists."""
    forms = [f"{x.numerator * m}/{x.denominator * m}" for m in (1, 2, 3)]
    text = format_rational(x)
    if "/" not in text:
        forms += [text, text + ("0" if "." in text else ".0")]
        digits = text.replace(".", "")
        forms.append(f"{digits}e-{len(text) - text.index('.') - 1}" if "." in text
                     else f"{digits}e0")
    return rng.choice(forms)


def _above(x: Fraction, rng, most: int) -> Fraction:
    """A value above x on a fresh small denominator's grid, so steps of
    2^-40 do not carry their denominators down the line."""
    den = rng.choice(_DENS)
    return Fraction((x.numerator * den) // x.denominator + rng.randint(1, most), den)


def _proper_rows(rng, n):
    """Endpoints of a proper family: lefts and rights strictly rising, each
    left below its right.  A left may repeat an earlier right (touching), and
    a step may be 2^-40 or 2^-60, which ties the endpoints' integer keys."""
    rows = []
    for _ in range(n):
        step = rng.randrange(6)
        if not rows:
            left = Fraction(rng.randint(-40, 20), rng.choice(_DENS))
        elif step == 0:
            left = rows[-1][0] + rng.choice(_TINY)
        elif step == 1:
            left = rng.choice([r for _, r in rows if r > rows[-1][0]])
        else:
            left = _above(rows[-1][0], rng, 12)
        right = _above(left, rng, 30)
        if rows and right <= rows[-1][1] or rng.randrange(5) == 0:
            right = max(left, rows[-1][1] if rows else left) + rng.choice(_TINY)
        rows.append((left, right))
    return rows


def _ingest_text(seed):
    """One seeded instance text, with shuffled rows, and the fault injected
    into it (None for a valid text)."""
    rng = random.Random(seed)
    n = rng.randint(0, 36)
    weighted = rng.randrange(3) == 0
    fault = _FAULTS[seed % len(_FAULTS)] if seed % 3 == 0 and n else None
    if fault == "neg_cost":
        weighted = True
    rows = [[left, right] for left, right in _proper_rows(rng, n)]
    for row in rows:
        if weighted:
            row.append(Fraction(rng.randint(0, 20), rng.choice(_DENS)))
    lines = [[_spell(x, rng) for x in row] for row in rows]
    if fault:
        at = rng.randrange(n)
        left, right = rows[at][:2]
        extra = [_spell(c, rng) for c in rows[at][2:]]
        if fault == "dup":
            lines.append([_spell(left, rng), _spell(right, rng)] + extra)
        elif fault == "contain":
            lines.append([_spell(left - 1, rng), _spell(right + _TINY[0], rng)] + extra)
        elif fault == "inside":
            lines.append([_spell(left + _TINY[1], rng), _spell(right - _TINY[1], rng)] + extra)
        elif fault == "reversed":
            lines[at][:2] = [lines[at][1], lines[at][rng.randrange(2)]]
        elif fault == "neg_cost":
            lines[at][2] = _spell(-Fraction(rng.randint(1, 9), rng.choice(_DENS)), rng)
        elif fault == "zero_den":
            lines[at][rng.randrange(len(lines[at]))] = "1/0"
        else:
            lines[at][rng.randrange(len(lines[at]))] = rng.choice(("abc", "1.2.3", "0x10", "2//3"))
    rng.shuffle(lines)
    head = f"{len(lines)} weighted" if weighted else f"{len(lines)}"
    body = [" ".join(toks) + (" # row" if rng.randrange(4) == 0 else "") for toks in lines]
    return "\n".join([head] + body) + "\n", fault


def _ingested(model) -> str:
    """Everything reading the model produced: the sorted intervals, costs
    and ids, the graph, and the DAG context's reach arrays."""
    parts = [
        " ".join(f"{iv.left}:{iv.right}" for iv in model.intervals),
        "-" if model.costs is None else " ".join(str(c) for c in model.costs),
        " ".join(map(str, model.original_ids)),
        repr(derive_graph(model).adj),
    ]
    for k, variant in ((1, "kdom"), (2, "total")):
        ctx = _Ctx(model, k, variant)
        parts.append(f"{ctx.reach_l} {ctx.reach_r}")
    return "\n".join(parts)


def ingest_digest() -> tuple[str, dict]:
    h = hashlib.sha256()
    tally: dict[str, int] = {}
    for seed in range(420):
        text, fault = _ingest_text(seed)
        try:
            out = _ingested(parse_model(text))
            kind = "ok"
        except PikdomError as exc:
            out = f"error[{exc.code}]: {exc}"
            kind = exc.code
        tally[kind] = tally.get(kind, 0) + 1
        h.update(f"{seed} {fault}\n{out}\n".encode())
    return h.hexdigest(), tally


def test_ingest_matches_pinned_digest():
    digest, tally = ingest_digest()
    assert tally["ok"] >= 250
    for code in ("E_DUPLICATE", "E_NOT_PROPER", "E_NEG_COST", "E_PARSE"):
        assert tally[code] >= 5, code
    assert digest == PINNED_INGEST
