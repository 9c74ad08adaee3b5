import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import pikdom.model as model_module
from pikdom.errors import (
    DuplicateIntervalError,
    EmptyGraphError,
    NegativeCostError,
    NotProperError,
    ParamError,
    ParseError,
    VertexIndexError,
)
from pikdom.model import (
    DerivedGraph,
    Interval,
    ProperIntervalModel,
    build_model,
    derive_graph,
    format_rational,
    generate_random,
    intersects,
    min_degree,
    parse_rational,
    model_min_degree,
    parse_model,
    serialize_model,
    with_costs,
)
from pikdom.fast import solve_fast
from pikdom.reduction import solve_naive

from conftest import chain_model, complete_model, disjoint_model, make_model, pairwise_adjacency


# ---------------------------------------------------------------- parsing

def test_parse_simple_overlapping_triple():
    # [0,2] and [2,4] touch at 2; closed intervals touching intersect,
    # so all three pairs overlap by construction
    m = parse_model("3\n0 2\n1 3\n2 4\n")
    assert m.n == 3
    g = derive_graph(m)
    assert g.adj == ((2, 3), (1, 3), (1, 2))


def test_parse_simple_chain():
    m = parse_model("3\n0 2\n1 3\n2.5 4\n")
    g = derive_graph(m)
    assert g.adj == ((2,), (1, 3), (2,))  # chain 1-2-3


def test_parse_rejects_containment():
    with pytest.raises(NotProperError):
        parse_model("2\n0 5\n1 2\n")


def test_parse_rejects_duplicates():
    with pytest.raises(DuplicateIntervalError):
        parse_model("2\n0 1\n0 1\n")


def test_parse_rejects_negative_cost():
    with pytest.raises(NegativeCostError):
        parse_model("1 weighted\n0 1 -2\n")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n",
        "2\n0 1\n",               # missing line
        "1\n0 1\n2 3\n",          # extra line
        "1\n0\n",                 # missing field
        "1\n0 1 5\n",             # cost without weighted header
        "1 weighted\n0 1\n",      # weighted without cost
        "1 heavy\n0 1\n",         # unknown header token
        "1\n1 1\n",               # point interval
        "1\n2 1\n",               # reversed endpoints
        "1\n0 abc\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_model(text)


def test_parse_comments_and_decimals():
    m = parse_model("# instance\n2  # two intervals\n0.5 2.25\n1 3 # tail comment\n")
    assert m.n == 2
    assert m.intervals[0].left == Fraction(1, 2)
    assert m.intervals[0].right == Fraction(9, 4)


def test_parse_records_permutation():
    # lines arrive unsorted; sorted order is o2, o3, o1
    m = parse_model("3\n5 9\n0 4\n3.5 6\n")
    assert m.original_ids == (2, 3, 1)
    g = derive_graph(m)
    # original numbering: path 2 - 3 - 1
    assert g.adj == ((3,), (3,), (1, 2))


def test_weighted_parse_costs_follow_sort():
    m = parse_model("2 weighted\n4 6 7\n0 2 1\n")
    assert m.original_ids == (2, 1)
    assert m.costs == (Fraction(1), Fraction(7))
    assert m.cost_by_original() == (Fraction(7), Fraction(1))


# ---------------------------------------------------------- serialization

def test_serialize_round_trip_bytes():
    m = parse_model("3 weighted\n0 2 1\n1.5 3.5 0.5\n3 5 2\n")
    text = serialize_model(m)
    assert text == "3 weighted\n0 2 1\n1.5 3.5 0.5\n3 5 2\n"
    again = parse_model(text)
    assert again.intervals == m.intervals
    assert again.costs == m.costs
    assert serialize_model(again) == text


def test_serialize_falls_back_to_fractions():
    m = make_model([(Fraction(1, 3), Fraction(4, 3)), (1, 2)])
    text = serialize_model(m)
    assert "1/3" in text and "4/3" in text
    assert parse_model(text).intervals == m.intervals


@pytest.mark.parametrize(
    "value,expect",
    [
        (Fraction(3), "3"),
        (Fraction(-7), "-7"),
        (Fraction(1, 2), "0.5"),
        (Fraction(-1, 2), "-0.5"),
        (Fraction(21, 4), "5.25"),
        (Fraction(6, 5), "1.2"),
        (Fraction(101, 20), "5.05"),
        (Fraction(4, 3), "4/3"),
    ],
)
def test_format_rational(value, expect):
    assert format_rational(value) == expect


def test_parse_rational_bounds_the_exponent():
    # A decimal exponent past 4,300 is refused, as int() refuses more than
    # 4,300 digits; up to it the literal is exact.
    assert parse_rational("1e4300") == 10**4300
    assert parse_rational("3E-4300") == Fraction(3, 10**4300)
    assert parse_rational("1.5e+0_2") == 150
    for token in ("1e4301", "1e-4301", "2.5e+30000000", "1e" + "9" * 5000):
        with pytest.raises(ParseError, match="bad rational literal"):
            parse_rational(token)


@pytest.mark.parametrize("token", [
    "-0", "007", "+5", "1_000", "\u0663", ".5", "5.", "1.5e-2", "-1.50", "-0.5",
    "3/-4", "1/0", "1/2/3", "-.5", "4" * 4301, "-12/8", "0.000",
])
def test_parse_rational_spellings_match_fraction(token):
    # The common spellings skip Fraction's string parser; every spelling
    # must still parse to Fraction(token), or be refused where it refuses.
    try:
        want = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError, match="bad rational literal"):
            parse_rational(token)
    else:
        got = parse_rational(token)
        assert type(got) is Fraction and got == want


# ------------------------------------------------------------- intersects

def test_intersects_basic():
    m = make_model([(0, 2), (1, 3)])
    assert intersects(m, 1, 2) and intersects(m, 2, 1)
    assert intersects(m, 1, 1)
    m2 = make_model([(0, 1), (2, 3)])
    assert not intersects(m2, 1, 2)
    m3 = make_model([(0, 2), (2, 3)])
    assert intersects(m3, 1, 2)  # touching closed endpoints
    with pytest.raises(VertexIndexError):
        intersects(m, 0, 1)


# ------------------------------------------------------------ derive_graph

def test_derive_graph_disjoint_and_triangle():
    assert derive_graph(disjoint_model(3)).adj == ((), (), ())
    tri = derive_graph(make_model([(0, 3), (1, 4), (2, 5)]))
    assert tri.adj == ((2, 3), (1, 3), (1, 2))


def test_derive_graph_chain_p6_matches_pairwise_rule():
    m = chain_model(6)
    got = derive_graph(m)
    pairs = [(iv.left, iv.right) for iv in m.intervals]
    want = pairwise_adjacency(pairs)  # all 15 pairs checked directly
    assert {v: set(got.adj[v - 1]) for v in range(1, 7)} == want
    assert all(len(want[v]) <= 2 for v in want)  # it really is a path


def test_derive_graph_symmetric_loop_free_random():
    for seed in range(12):
        m = generate_random(20, seed, Fraction(5, 2))
        g = derive_graph(m)
        for v in range(1, 21):
            assert v not in g.adj[v - 1]
            for u in g.adj[v - 1]:
                assert v in g.adj[u - 1]


def test_derive_graph_contiguous_for_sorted_models():
    # generated models are already sorted, so each neighborhood is a
    # contiguous index range around the vertex
    for seed in range(10):
        m = generate_random(15, 60 + seed, [2, 4, 9][seed % 3])
        g = derive_graph(m)
        for v in range(1, 16):
            nb = g.adj[v - 1]
            if nb:
                full = set(range(min(nb), max(nb) + 1)) - {v}
                assert set(nb) == full


def _reach_models():
    """Generated models, each again with costs and rebuilt from shuffled
    rows, so the sweep runs on every way a model is built."""
    for seed in range(12):
        n = 1 + seed * 2
        m = generate_random(n, 80 + seed, [1, Fraction(5, 2), 4, 9][seed % 4])
        yield m
        yield with_costs(m, [Fraction(seed + i, 1 + i % 3) for i in range(n)])
        rows = list(m.intervals)
        random.Random(seed).shuffle(rows)
        yield build_model(rows)


def test_reach_ranges_match_pairwise_intersects():
    # each interval's neighbours and itself are exactly reach_l..reach_r
    for m in _reach_models():
        n, reach_l, reach_r = m.n, m.reach_l, m.reach_r
        for i in range(1, n + 1):
            meets = [j for j in range(1, n + 1) if intersects(m, i, j)]
            assert (reach_l[i - 1] + 1, reach_r[i - 1] + 1) == (meets[0], meets[-1])


def _int_part(x):
    return (x.numerator << 32) // x.denominator


@settings(max_examples=80, deadline=None)
@given(
    whole=st.integers(min_value=-5, max_value=5),
    unit_den=st.sampled_from((1, 3, 7)),
    steps=st.lists(
        st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=30)),
        min_size=1, max_size=20,
    ),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_reach_ranges_match_pairwise_intersects_on_tied_keys(whole, unit_den, steps, seed):
    # Endpoints a few multiples of 2^-40 apart mostly share floor(x * 2^32),
    # the integer part of their order key, so sorting, validation and the
    # reach sweep all decide on the Fraction behind the key.
    unit = Fraction(1, 2**40 * unit_den)
    left, right = Fraction(whole) + Fraction(1, 7), None
    pairs = []
    for step, length in steps:
        left += step * unit
        right = left + length * unit if right is None else max(left + length * unit, right + unit)
        pairs.append((left, right))
    shuffled = list(range(len(pairs)))
    random.Random(seed).shuffle(shuffled)
    m = build_model([Interval(*pairs[t]) for t in shuffled], original_ids=[t + 1 for t in shuffled])
    assert [(iv.left, iv.right) for iv in m.intervals] == pairs
    assert m.original_ids == tuple(range(1, len(pairs) + 1))
    ends = sorted({x for p in pairs for x in p})
    ties = sum(_int_part(a) == _int_part(b) for a, b in zip(ends, ends[1:]))
    assert ties >= len(ends) - 2  # all endpoints lie within 210 * 2^-40 < 2^-32
    reach_l, reach_r = m.reach_l, m.reach_r
    n = m.n
    for i in range(1, n + 1):
        meets = [j for j in range(1, n + 1) if intersects(m, i, j)]
        assert (reach_l[i - 1] + 1, reach_r[i - 1] + 1) == (meets[0], meets[-1])


def test_validation_decides_tied_keys_on_the_fraction():
    eps = Fraction(1, 2**60)
    base = Interval(Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(NotProperError):
        build_model([base, Interval(base.left + eps, base.right - eps)])
    with pytest.raises(DuplicateIntervalError):
        build_model([base, Interval(Fraction(2, 6), Fraction(4, 6))])
    m = build_model([Interval(base.left + eps, base.right + eps), base])
    assert m.original_ids == (2, 1)
    assert (m.reach_l, m.reach_r) == ((0, 0), (1, 1))


def test_model_sorts_its_rows_and_carries_costs_and_ids():
    rows = [Interval(Fraction(2), Fraction(4)), Interval(Fraction(0), Fraction(3))]
    costs = (Fraction(5), Fraction(1, 2))
    m = ProperIntervalModel(tuple(rows), costs)
    assert [iv.left for iv in m.intervals] == [0, 2]
    assert m.costs == (Fraction(1, 2), Fraction(5))
    assert m.original_ids == (2, 1)
    assert m == build_model(rows, costs)
    with pytest.raises(ParamError):
        ProperIntervalModel(tuple(rows), costs[:1])


# -------------------------------------------------------------- min_degree

def test_min_degree():
    assert min_degree(derive_graph(make_model([(0, 3), (1, 4), (2, 5)]))) == 2
    assert min_degree(derive_graph(chain_model(6))) == 1
    assert min_degree(derive_graph(disjoint_model(3))) == 0
    with pytest.raises(EmptyGraphError):
        min_degree(DerivedGraph(0, ()))


def test_model_min_degree_matches_graph():
    for seed in range(20):
        m = generate_random(4 + seed, 100 + seed, [1, 2, 3, 7][seed % 4])
        assert model_min_degree(m) == min_degree(derive_graph(m))


# --------------------------------------------------------- generate_random

def test_generate_single_interval():
    m = generate_random(1, 99, 2)
    assert m.n == 1
    assert derive_graph(m).adj == ((),)


def test_generate_deterministic():
    a = generate_random(5, 7, 3)
    b = generate_random(5, 7, 3)
    assert a == b
    assert serialize_model(a) == serialize_model(b)


def test_generate_param_errors():
    with pytest.raises(ParamError):
        generate_random(0, 1, 1)
    with pytest.raises(ParamError):
        generate_random(3, 1, 0)
    with pytest.raises(ParamError):
        generate_random(3, 1, -2)
    with pytest.raises(ParamError):
        generate_random(5, 1, float("inf"))
    with pytest.raises(ParamError):
        generate_random(2.5, 1, 2)
    with pytest.raises(ParamError):
        generate_random(True, 1, 2)


def test_generate_huge_stretch_near_complete():
    m = generate_random(10, 1, 10**6)
    overlaps = sum(
        1
        for i in range(1, 11)
        for j in range(i + 1, 11)
        if intersects(m, i, j)
    )
    assert overlaps >= 45 - 9


def test_generate_invariants_many_seeds():
    # construction re-validates every invariant; cover a spread of sizes
    sizes = [1, 2, 3, 5, 17, 129, 1024, 10000]
    for seed in range(104):
        n = sizes[seed % len(sizes)]
        m = generate_random(n, seed, [1, 3, Fraction(7, 2)][seed % 3])
        assert m.n == n


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=25),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    stretch_num=st.integers(min_value=1, max_value=12),
    stretch_den=st.integers(min_value=1, max_value=4),
)
def test_consecutive_intersection_property(n, seed, stretch_num, stretch_den):
    # in a proper sorted model, i ~ m implies i ~ j ~ m for all i < j < m
    m = generate_random(n, seed, Fraction(stretch_num, stretch_den))
    for i in range(1, n + 1):
        for mm in range(i + 2, n + 1):
            if intersects(m, i, mm):
                for j in range(i + 1, mm):
                    assert intersects(m, i, j) and intersects(m, j, mm)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=2**32),
    weighted=st.booleans(),
)
def test_serialize_parse_round_trip_random(n, seed, weighted):
    m = generate_random(n, seed, Fraction(5, 2))
    if weighted:
        m = with_costs(m, [Fraction(seed % 7, 2)] * n)
    again = parse_model(serialize_model(m))
    assert again == m


def test_interval_validation():
    with pytest.raises(ParamError):
        Interval(Fraction(1), Fraction(1))
    for left, right in ((0, float("inf")), (float("nan"), 1), ("x", 1), (None, 1)):
        with pytest.raises(ParamError):
            Interval(left, right)


def test_reading_a_built_model_keys_no_endpoint(monkeypatch):
    # A model keys its endpoints once, when it is built; the graph, the
    # minimum degree and both DAG engines read its reach arrays instead.
    m = generate_random(30, 5, Fraction(7, 2))
    mw = with_costs(m, [Fraction(i % 5, 1 + i % 3) for i in range(30)])
    text = serialize_model(mw)
    models = [parse_model(serialize_model(m)), parse_model(text)]
    calls = []
    real = model_module._key
    monkeypatch.setattr(model_module, "_key", lambda x: calls.append(x) or real(x))
    for model in models:
        derive_graph(model)
        model_min_degree(model)
        for k, variant in product((1, 2), ("kdom", "total")):
            fast = solve_fast(model, k, variant, model.weighted)
            assert solve_naive(model, k, variant, model.weighted).cost == fast.cost
    assert calls == []
    parse_model(text)  # building a model keys each endpoint once
    assert len(calls) == 2 * 30
