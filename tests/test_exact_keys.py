"""Every search returns the path of least exact key.

``helpers.least_exact_key`` walks every path of a small machine in
Fractions.  On the composed machine of the flower chain, the shortest
path, the 1-best and ``combine``'s alignment must each have that key,
where float sums would round, cancel or overflow.
"""

import math
import random
import sys
from fractions import Fraction

from latcomb import (Arc, CombinationParams, ParamVector, SymbolTable, Wfst, combine, nbest,
                     shortest_path, weight)
from latcomb import pipeline
from latcomb.semiring import ONE

from helpers import (exact_key, flower_machine, holds_negative, least_exact_key, linear_chain,
                     path_key, tie_rule_alignment)
from test_direct_alignment import build_instance, has_word


def assert_least(nmt, hiero, params):
    """``shortest_path`` and ``nbest(m, 1)`` of the composed machine ``m``,
    and ``combine``, each return a path of the least exact key of ``m``."""
    machine, lambdas = flower_machine(nmt, hiero, params), params.as_param_vector()
    least = least_exact_key(machine, lambdas)
    (first,) = nbest(machine, 1, lambdas)
    paths = (shortest_path(machine, lambdas), first, combine(nmt, hiero, params).path)
    assert [path_key(p.rows, p.final_weight, lambdas) for p in paths] == [least] * 3


def test_the_three_seeds_where_float_keys_missed_the_least_path():
    # Under float keys, shortest_path found the least path only on 19356,
    # nbest(m, 1) on none of them and combine on 9452 and 19356.
    for seed in (2021, 9452, 19356):
        assert_least(*build_instance(random.Random(seed).choice, inexact=True)[1:])


def test_every_search_finds_the_least_path_on_an_inexact_stream():
    rng = random.Random(2626)
    checked = 0
    while checked < 600:
        _, nmt, hiero, params = build_instance(rng.choice, inexact=True)
        if has_word(nmt, hiero):
            assert_least(nmt, hiero, params)
            checked += 1


def cancelling_instance():
    """Under lambda_nmt 2, the NMT scores +-1.7e308 cost +-inf in floats,
    and every alignment's float cost is nan; exactly they cancel.  The
    hiero side offers c (0.25, tried first) or a (0.5), then b: matching
    a and b costs 1.0 exactly, substituting c for a 2.75."""
    syms = SymbolTable()
    a, b, c = (syms.add(w) for w in "abc")
    nmt = linear_chain([a, b], syms, [weight({0: 1.7e308}), weight({0: -1.7e308})])
    hiero = Wfst(syms, syms)
    for _ in range(3):
        hiero.add_state()
    hiero.set_initial(0)
    hiero.set_final(2, ONE)
    for src, label, score in ((0, c, 0.25), (0, a, 0.5), (1, b, 0.5)):
        hiero.add_arc(src, Arc(label, label, weight({1: score}), src + 1))
    return nmt, hiero.freeze(), CombinationParams(lambda_nmt=2.0)


def test_scores_near_the_float_range_that_cancel():
    nmt, hiero, params = cancelling_instance()
    result = combine(nmt, hiero, params)
    assert result.t_hiero == result.t_comb == ("a", "b")
    # The reported values are float sums along the path: here exact.
    assert result.feature_vector.values == (0.0, 1.0, 0.0, 0.0, 0.0)
    assert result.total_cost == 1.0
    assert_least(nmt, hiero, params)


def test_tied_final_cells_are_settled_by_their_final_weights():
    # NMT "a" against hiero "a b c", which may end after a, b or c with
    # hiero scores 3, 2 and 1: under lambda_edit 1, matching a and
    # inserting no word, one or two costs 3 each way, and the least vector,
    # of the least hiero score, is "a b c".  Acceptance tries the three in
    # that order, each with a final-weight vector of its own, and each
    # beats the one before.
    syms = SymbolTable()
    a, b, c = (syms.add(w) for w in "abc")
    nmt = linear_chain([a], syms)
    hiero = Wfst(syms, syms)
    for _ in range(4):
        hiero.add_state()
    hiero.set_initial(0)
    for src, label in enumerate((a, b, c)):
        hiero.add_arc(src, Arc(label, label, ONE, src + 1))
        hiero.set_final(src + 1, weight({1: 3.0 - src}))
    hiero = hiero.freeze()
    params = CombinationParams(lambda_edit=1.0, lambda_sub=0.5)
    result = combine(nmt, hiero, params)
    assert (result.t_hiero, result.total_cost) == (("a", "b", "c"), 3.0)
    assert_least(nmt, hiero, params)


def test_nbest_keeps_key_order_along_paths_longer_than_the_machine():
    # One state with two loops under unit lambdas: a costs 0 and adds NMT
    # score 1, b costs 2**-52 and adds NMT score -1.  Every string of a's
    # costs 0, so the 8-best are a**0 to a**7, paths of up to 7 arcs on a
    # machine of one state, whose NMT scores outweigh b's cost 7 times over.
    syms = SymbolTable()
    a, b = syms.add("a"), syms.add("b")
    m = Wfst(syms, syms)
    s = m.add_state()
    m.set_initial(s)
    m.set_final(s, ONE)
    m.add_arc(s, Arc(a, a, weight({0: 1.0, 2: -1.0}), s))
    m.add_arc(s, Arc(b, b, weight({0: -1.0, 2: 1.0 + 2.0**-52}), s))
    got = nbest(m.freeze(), 8, ParamVector(1.0, 1.0, 1.0, 1.0, 1.0))
    assert [p.output_labels() for p in got] == [(a,) * k for k in range(8)]


def watch_pass(run):
    """``run()``; how many calls it made to each function that
    ``pipeline._best_alignment`` defines inside itself, by name; and the
    locals of its last ``_best_alignment`` call, as that call returned."""
    code = pipeline._best_alignment.__code__
    codes = {c: c.co_name for c in code.co_consts if hasattr(c, "co_name")}
    calls, seen = dict.fromkeys(codes.values(), 0), {}

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1
        elif event == "return" and frame.f_code is code:
            seen.update(frame.f_locals)

    sys.setprofile(watch)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, calls, seen


def trade_off_pair():
    """At each of 20 positions, both lattices offer a word scoring 0.1 on
    one side and 0.2 on the other, or one scoring the other way round:
    every matching alignment costs the same, exactly, while float sums of
    the 2**20 of them round apart."""
    syms = SymbolTable()
    words = [(syms.add(f"a{i}"), syms.add(f"b{i}")) for i in range(20)]

    def sausage(feature, scores):
        fst = Wfst(syms, syms)
        for _ in range(21):
            fst.add_state()
        fst.set_initial(0)
        fst.set_final(20, ONE)
        for i, pair in enumerate(words):
            for label, score in zip(pair, scores):
                fst.add_arc(i, Arc(label, label, weight({feature: score}), i + 1))
        return fst.freeze()

    return sausage(0, (0.1, 0.2)), sausage(1, (0.2, 0.1))


def test_a_trade_off_sausage_pair_keeps_one_key_per_cell():
    # One key per cell settles each tie by the value vectors, so the work
    # stays polynomial: counts, not times.
    nmt, hiero = trade_off_pair()
    result, calls, _ = watch_pass(lambda: combine(nmt, hiero, CombinationParams()))
    # The least vector has the least NMT score: every a word.
    assert result.t_comb == result.t_hiero == tuple(f"a{i}" for i in range(20))
    path, cost, values = tie_rule_alignment(nmt, hiero, CombinationParams())
    assert [(r.ilabel, r.olabel, r.weight.values) for r in result.path.arcs] == path
    assert (result.total_cost, result.feature_vector.values) == (cost, values)
    # Of 441 cells, A* expands the 21 on the diagonal: from each but the
    # last, the deletion, the substitution of b_i for a_i (b_i comes first
    # in its group's key order), the match of the a words that beats it and
    # the insertion reach relax, 82 calls with the start's and the sink's.
    # The match of the b words ties that cost with a greater vector, so its
    # key loses before relax.
    assert calls == {"relax": 82}


def keys_checked(nmt, hiero, params):
    """Check every key the pass sets, at the sink too, against its
    alignment: the move chain back from its cell, whose values, summed
    exactly, must give the key's cost and each of its digits.  Returns
    how many keys were checked."""
    _, _, seen = watch_pass(lambda: combine(nmt, hiero, params))
    tab, g, back = seen["tab"], seen["g"], seen["back"]
    packed, checked, lambdas = tab.packed, 0, params.as_param_vector()
    bits, half = packed.bits, 1 << packed.bits >> 1
    # The cost 1.0 is 2**(k + l): values are scaled by 2**k, the
    # parameters by 2**l, the greatest of their denominators.
    scale = Fraction(packed.unit, max(Fraction(p).denominator for p in lambdas))
    for cell, key in enumerate(g):
        if key == math.inf:
            continue
        c, values = cell, [ONE.values]  # the start cell adds nothing
        if cell == tab.size:  # the sink: the final weights of the cell it left
            c = back[cell][0]
            i, j = divmod(c, tab.width)
            values += [tab.finals_n[i].values, tab.finals_h[j].values]
        while c != tab.start:
            c, _, _, a, h, e = back[c]
            values += [e] + [row[3] for row in (a, h) if row is not None]
        digits = []
        for _ in packed.features:  # signed digits, the last feature's lowest
            digits.append((key + half) % (1 << bits) - half)
            key = (key - digits[-1]) >> bits
        cost, sums = exact_key([sum(map(Fraction, column)) for column in zip(*values)], lambdas)
        assert key == packed.unit * cost
        assert digits[::-1] == [scale * sums[f] for f in packed.features]
        checked += 1
    return checked


def test_keys_never_carry_from_one_digit_into_the_next():
    # A packed key is a sum of the keys of the values its alignment adds;
    # its digits hold exact sums only while none of them overflows.
    checked = keys_checked(*trade_off_pair(), CombinationParams())
    checked += keys_checked(*cancelling_instance())
    rng, signed = random.Random(3131), 0
    while signed < 100:
        _, nmt, hiero, params = build_instance(rng.choice, inexact=True)
        if has_word(nmt, hiero) and (holds_negative(nmt) or holds_negative(hiero)):
            checked += keys_checked(nmt, hiero, params)
            signed += 1
    assert checked > 1_000
