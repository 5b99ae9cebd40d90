import random

import pytest

from chrkit.abstract import (AbstractStore, LimitExceeded, canonical_multiset,
                             final_stores, is_final, rewrite_steps,
                             run_abstract, validate_rewrite)
from chrkit.syntax import load_program, parse_goals
from chrkit.terms import Chr, Const, Eq, Var

from conftest import concurrent_compose_check, load


def store_of(text):
    return AbstractStore.from_constraints(parse_goals(text))


def canon(store):
    return canonical_multiset(store.constraints())


def test_rewrite_steps_gcd_pair():
    gcd = load("gcd")
    steps = rewrite_steps(store_of("Gcd(3),Gcd(9)"), gcd)
    results = {canon(st.result) for st in steps}
    assert ("Gcd(3)", "Gcd(6)") in results
    subs = [st.phi for st in steps if canon(st.result) == ("Gcd(3)", "Gcd(6)")]
    assert any(phi[next(k for k in phi if k.startswith("n"))] == Const(3) and
               phi[next(k for k in phi if k.startswith("m"))] == Const(9)
               for phi in subs)


def test_rewrite_steps_empty_store():
    assert rewrite_steps(AbstractStore.from_constraints([]), load("gcd")) == []


def test_rewrite_steps_equal_copies():
    steps = rewrite_steps(store_of("Gcd(3),Gcd(3)"), load("gcd"))
    assert ("Gcd(0)", "Gcd(3)") in {canon(st.result) for st in steps}


def test_rewrite_steps_deterministic_order():
    s = store_of("Gcd(3),Gcd(3),Gcd(9)")
    gcd = load("gcd")
    first = [(st.rule, st.used_tags) for st in rewrite_steps(s, gcd)]
    for _ in range(3):
        assert [(st.rule, st.used_tags) for st in rewrite_steps(s, gcd)] == first


def test_is_final():
    gcd = load("gcd")
    assert is_final(store_of("Gcd(3)"), gcd)
    assert not is_final(store_of("Gcd(3),Gcd(9)"), gcd)
    assert is_final(AbstractStore.from_constraints([]), gcd)


def test_final_stores_gcd():
    finals = final_stores(store_of("Gcd(3),Gcd(3),Gcd(9)"), load("gcd"))
    assert finals == {("Gcd(3)",)}


def test_final_stores_channel_has_both_answers():
    finals = final_stores(store_of("Get(m),Put(1),Get(n),Put(8)"), load("channel"))
    assert finals == {("m=1", "n=8"), ("m=8", "n=1")}


def test_final_stores_empty():
    finals = final_stores(AbstractStore.from_constraints([]), load("gcd"))
    assert finals == {()}


def test_final_stores_limit_exceeded():
    with pytest.raises(LimitExceeded):
        final_stores(store_of("Gcd(3),Gcd(3),Gcd(9)"), load("gcd"), max_states=1)


def test_final_stores_mergesort_four_values():
    ms = load("mergesort")
    finals = final_stores(store_of("Merge(1,3),Merge(1,1),Merge(1,4),Merge(1,2)"), ms)
    assert finals == {("Leq(1,2)", "Leq(2,3)", "Leq(3,4)", "Merge(3,1)")}


def test_final_stores_propagation_history_stops_refiring():
    p = load("prop_once")
    finals = final_stores(store_of("P,P"), p)
    assert finals == {("P", "P", "Q", "Q")}


def test_run_abstract_walks_to_a_final_store():
    final, status = run_abstract(store_of("Gcd(3),Gcd(3),Gcd(9)"), load("gcd"), seed=5)
    assert status == "done"
    assert canon(final) == ("Gcd(3)",)


def test_run_abstract_step_limit():
    loop = load_program("r @ A <=> A.")
    _, status = run_abstract(store_of("A"), loop, seed=0, max_steps=10)
    assert status == "step-limit"


def test_compose_check_disjoint_simplified_parts():
    gcd = load("gcd")
    s = store_of("Gcd(3),Gcd(3),Gcd(9)")
    # two firings removing the two distinct non-shared copies
    step1 = ([Chr("Gcd", (Const(9),))], None)
    step2 = ([Chr("Gcd", (Const(3),))], None)
    assert concurrent_compose_check(s, step1, step2)


def test_compose_check_shared_simplified_head_fails():
    chan = load("channel")
    s = store_of("Get(m),Put(1),Get(n)")
    put = [Chr("Put", (Const(1),))]
    step1 = (put + [Chr("Get", (Var("m"),))], None)
    step2 = (put + [Chr("Get", (Var("n"),))], None)
    assert not concurrent_compose_check(s, step1, step2)


def test_compose_check_empty_derivation_composes():
    s = store_of("Gcd(3),Gcd(9)")
    assert concurrent_compose_check(s, ([Chr("Gcd", (Const(9),))], None), ([], None))


def test_monotonicity_recorded_steps_replay_in_larger_store():
    # run a random derivation, then replay the same rule instances after
    # adding unrelated constraints: every step must still be applicable
    gcd = load("gcd")
    rng = random.Random(2)
    for trial in range(20):
        values = [rng.randrange(1, 12) for _ in range(rng.randrange(2, 5))]
        start = AbstractStore.from_constraints(
            [Chr("Gcd", (Const(v),)) for v in values])
        cur = start
        recorded = []
        while True:
            steps = rewrite_steps(cur, gcd)
            if not steps:
                break
            pick = steps[rng.randrange(len(steps))]
            recorded.append((pick.rule,
                             tuple(t for _, t in pick.propagated),
                             tuple(t for _, t in pick.simplified)))
            cur = pick.result

        extra = [Chr("Inert", (Const(k),)) for k in range(3)]
        big_items = start.items + tuple(
            (c, start.next_tag + i) for i, c in enumerate(extra))
        big = AbstractStore(big_items, frozenset(), start.next_tag + 3)
        # tags allocated by rule bodies sit 3 higher in the enlarged store
        remap = lambda t: t if t < start.next_tag else t + 3
        for rule, ptags, stags in recorded:
            want_p = tuple(sorted(remap(t) for t in ptags))
            want_s = tuple(sorted(remap(t) for t in stags))
            steps = rewrite_steps(big, gcd)
            matching = [
                st for st in steps
                if st.rule == rule
                and tuple(sorted(t for _, t in st.propagated)) == want_p
                and tuple(sorted(t for _, t in st.simplified)) == want_s]
            assert matching, f"step {rule}{ptags}\\{stags} lost in the larger store"
            big = matching[0].result
        live = [c for c, _ in big.items if c.pred != "Inert"]
        assert canonical_multiset(live) == canon(cur)


def test_validate_rewrite_accepts_recorded_instances():
    gcd = load("gcd")
    s = store_of("Gcd(3),Gcd(9)")
    for st in rewrite_steps(s, gcd):
        succ = validate_rewrite(s.constraints(), gcd.rules[1] if st.rule == "gcd2" else gcd.rules[0],
                                st.phi,
                                [c for c, _ in st.propagated],
                                [c for c, _ in st.simplified])
        assert succ is not None
        assert canonical_multiset(succ) == canon(st.result)


def test_validate_rewrite_rejects_wrong_heads():
    gcd = load("gcd")
    s = store_of("Gcd(3),Gcd(9)")
    st = rewrite_steps(s, gcd)[0]
    rule = next(r for r in gcd.rules if r.name == st.rule)
    bogus = validate_rewrite(s.constraints(), rule, st.phi,
                             [Chr("Gcd", (Const(77),))],
                             [c for c, _ in st.simplified])
    assert bogus is None


def test_inconsistent_equation_store_is_final():
    p = load("channel")
    s = AbstractStore.from_constraints(
        parse_goals("Get(m)") + (Eq(Var("x"), Const(1)), Eq(Var("x"), Const(2))))
    assert rewrite_steps(s, p) == []
