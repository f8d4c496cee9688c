import copy
import itertools
import pickle
import random

import pytest

from bgpsteer import (
    Action,
    ActionKind,
    Advertisement,
    Community,
    Prefix,
    Rel,
    Route,
    compare_routes,
    default_local_pref,
    export_permitted,
    prepend_path,
)
from bgpsteer.routes import best_of
from bgpsteer.topology import LOCAL

P1 = Prefix.parse("10.1.0.0/16")

# Readable stand-ins for the dual-provider cast used throughout.
D, ISP1, ISP2, A, B = 65001, 100, 200, 300, 400


def route(path, lp=100, med=None, learned_on="lx", prefix=P1):
    return Route(prefix, tuple(path), lp, med, frozenset(), learned_on, path[-1])


def test_default_lp_values_and_ordering():
    assert default_local_pref(Rel.CUSTOMER) == 200
    assert default_local_pref(Rel.PEER) == 100
    assert default_local_pref(Rel.PROVIDER) == 50
    assert default_local_pref(Rel.CUSTOMER) > default_local_pref(Rel.PEER) > default_local_pref(Rel.PROVIDER)


def test_prepended_route_loses_to_shorter_path():
    r1 = route([ISP1, ISP1, ISP1, D], learned_on="l5")
    r2 = route([B, ISP2, D], learned_on="l6")
    assert compare_routes(r1, r2) == 1  # r2 better


def test_lp_dominates_path_length():
    r1 = route([1, 2, 3, 4, D], lp=100)
    r2 = route([D], lp=50)
    assert compare_routes(r1, r2) == -1


def test_link_id_tiebreak():
    r1 = route([ISP1, D], learned_on="l1")
    r2 = route([ISP1, D], learned_on="l2")
    assert compare_routes(r1, r2) == -1
    assert compare_routes(r2, r1) == 1


def test_med_compared_same_neighbor_only():
    r1 = route([ISP1, D], med=10, learned_on="l1")
    r2 = route([ISP1, D], med=20, learned_on="l2")
    assert compare_routes(r1, r2) == -1
    # different first hop: MED ignored, lower first-hop ASN wins
    r3 = route([ISP1, D], med=20, learned_on="l1")
    r4 = route([ISP2, D], med=10, learned_on="l2")
    assert compare_routes(r3, r4) == -1


def test_absent_med_counts_as_zero():
    r1 = route([ISP1, D], med=None)
    r2 = route([ISP1, D], med=5, learned_on="ly")
    assert compare_routes(r1, r2) == -1


def test_compare_rejects_prefix_mismatch():
    r1 = route([ISP1, D])
    r2 = route([ISP1, D], prefix=Prefix.parse("10.2.0.0/16"))
    with pytest.raises(ValueError):
        compare_routes(r1, r2)


def test_compare_is_antisymmetric_and_total():
    rng = random.Random(5)
    routes = []
    for i in range(40):
        path = tuple(rng.sample(range(10, 500), rng.randint(1, 4)))
        routes.append(
            Route(P1, path, rng.choice([50, 100, 200]), rng.choice([None, 10, 20]),
                  frozenset(), f"l{rng.randint(1, 5)}", path[-1])
        )
    for r1, r2 in itertools.product(routes, routes):
        c12, c21 = compare_routes(r1, r2), compare_routes(r2, r1)
        assert c12 == -c21
        if c12 == 0:
            assert (r1.local_pref, r1.path_len, r1.first_hop, r1.learned_on) == (
                r2.local_pref, r2.path_len, r2.first_hop, r2.learned_on)


def test_export_table_matches_valley_free_rule():
    # hand-enumerated: what I learned from -> who I may tell
    table = {
        (Rel.CUSTOMER, Rel.CUSTOMER): True,
        (Rel.CUSTOMER, Rel.PEER): True,
        (Rel.CUSTOMER, Rel.PROVIDER): True,
        (Rel.PEER, Rel.CUSTOMER): True,
        (Rel.PEER, Rel.PEER): False,
        (Rel.PEER, Rel.PROVIDER): False,
        (Rel.PROVIDER, Rel.CUSTOMER): True,
        (Rel.PROVIDER, Rel.PEER): False,
        (Rel.PROVIDER, Rel.PROVIDER): False,
    }
    for (learned, to), expected in table.items():
        assert export_permitted(learned, to) is expected, (learned, to)
    for to in Rel:
        assert export_permitted(None, to) is True  # own prefixes go everywhere


def test_prepend_examples():
    r = route([ISP1, D])
    assert prepend_path(r, ISP1, 2).as_path == (ISP1, ISP1, ISP1, D)
    assert prepend_path(r, 42, 0) == r
    rd = route([D])
    assert prepend_path(rd, D, 3).as_path == (D, D, D, D)
    with pytest.raises(ValueError):
        prepend_path(r, ISP1, -1)


def test_community_budget_fits_message_limit():
    from bgpsteer.routes import COMMUNITY_BUDGET, COMMUNITY_BYTES

    assert COMMUNITY_BUDGET * COMMUNITY_BYTES <= 4096


def test_route_invariants():
    with pytest.raises(ValueError, match="empty AS-path"):
        Route(P1, (), 100, None, frozenset(), "l1", D)  # received but empty path
    with pytest.raises(ValueError, match="end at the origin"):
        Route(P1, (ISP1, D), 100, None, frozenset(), "l1", ISP2)  # wrong origin
    with pytest.raises(ValueError, match="local_pref"):
        Route(P1, (D,), -1, None, frozenset(), "l1", D)
    with pytest.raises(ValueError, match="MED"):
        Route(P1, (D,), 100, -1, frozenset(), "l1", D)
    too_many = frozenset(Community(1, i) for i in range(65))
    with pytest.raises(ValueError, match="communities"):
        Route(P1, (D,), 100, None, too_many, "l1", D)
    # A local route may have an empty path; keywords still name the fields.
    r = Route(
        prefix=P1, as_path=(), local_pref=100, med=None, communities=frozenset(), learned_on="local", origin_as=D
    )
    assert r == (P1, (), 100, None, frozenset(), "local", D)


def test_route_is_the_tuple_of_its_fields():
    r = route([ISP1, D], lp=200, med=10)
    fields = (P1, (ISP1, D), 200, 10, frozenset(), "lx", D)
    assert r == fields and hash(r) == hash(fields) and tuple(r) == fields
    changed = r._replace(local_pref=50)
    assert type(changed) is Route and changed.local_pref == 50 and r.local_pref == 200
    assert repr(r).startswith("Route(prefix=Prefix(base=167837696, length=16), as_path=(100, 65001)")


def test_advertisement_and_action_are_the_tuples_of_their_fields():
    ad = Advertisement(D, P1, "l1", frozenset({Community(100, 50)}), 10)
    fields = (D, P1, "l1", frozenset({(100, 50)}), 10)
    assert ad == fields and hash(ad) == hash(fields) and tuple(ad) == fields
    assert Advertisement(D, P1, "l1") == (D, P1, "l1", frozenset(), None)
    changed = ad._replace(link_id="l2")
    assert type(changed) is Advertisement and changed.link_id == "l2" and ad.link_id == "l1"
    action = Action.attach(P1, "l1", Community(100, 50))
    fields = (ActionKind.ATTACH_COMMUNITY, P1, "l1", (100, 50), None)
    assert action == fields and hash(action) == hash(fields) and tuple(action) == fields
    for value in (ad, action):
        for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value) and copied == value


def test_community_is_the_tuple_high_low():
    c = Community(100, 50)
    assert c == (100, 50) and hash(c) == hash((100, 50)) and (c.high, c.low) == (100, 50)
    assert str(c) == "100:50" and repr(c) == "Community(high=100, low=50)"
    assert Community(high=0, low=0xFFFF) == (0, 0xFFFF)
    assert sorted([Community(2, 1), Community(1, 9), Community(1, 2)]) == [(1, 2), (1, 9), (2, 1)]
    for value in (c, copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert type(value) is Community and value == c
    for high, low, part in ((0x10000, 0, "high"), (-1, 0, "high"), (0, 0x10000, "low"), (0, -1, "low")):
        with pytest.raises(ValueError, match=f"community {part} part out of range"):
            Community(high, low)


def test_lp_dominance_argmax():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 6)
        lps = rng.sample(range(10, 400), n)
        cands = []
        for i, lp in enumerate(lps):
            path = tuple(rng.sample(range(10, 500), rng.randint(1, 5)))
            cands.append(Route(P1, path, lp, None, frozenset(), f"l{i}", path[-1]))
        winner = best_of(cands)
        assert winner.local_pref == max(lps)


def test_prepend_monotonicity_argmax():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(2, 5)
        cands = []
        for i in range(n):
            path = tuple(rng.sample(range(10, 500), rng.randint(1, 4)))
            cands.append(Route(P1, path, 100, rng.choice([None, 10]), frozenset(), f"l{i}", path[-1]))
        winner = best_of(cands)
        loser = rng.choice([c for c in cands if c is not winner] or [winner])
        if loser is winner:
            continue
        extra = rng.randint(1, 3)
        bumped = prepend_path(loser, loser.first_hop, extra)
        mutated = [bumped if c is loser else c for c in cands]
        assert best_of(mutated) is not bumped


def ranking_key(r):
    """The five criteria as one sort key, smaller is better.  MED counts only
    between routes with the same first hop, so placing the first hop before
    MED states rules 3 and 4 exactly."""
    first_hop = r.as_path[0] if r.as_path else 0
    return (-r.local_pref, len(r.as_path), first_hop, r.med or 0, r.learned_on)


def test_compare_matches_a_key_restatement_on_random_pairs():
    rng = random.Random(77)
    hops = (ISP1, ISP2, A)

    def rand_route():
        if rng.random() < 0.15:  # a local route: empty path, learned_on "local"
            return Route(P1, (), rng.choice([100, 1000]), rng.choice([None, 0]), frozenset(), LOCAL, D)
        path = tuple(rng.choice(hops) for _ in range(rng.randint(0, 2))) + (D,)
        return Route(P1, path, rng.choice([100, 200]), rng.choice([None, 0, 0, 5, 10]),
                     frozenset(), rng.choice(["l1", "l2", "l3"]), D)

    seen = set()
    for _ in range(3000):
        r1, r2 = rand_route(), rand_route()
        k1, k2 = ranking_key(r1), ranking_key(r2)
        assert compare_routes(r1, r2) == (k1 > k2) - (k1 < k2), (r1, r2)
        same_hop = (r1.as_path[:1] == r2.as_path[:1])
        seen.add((
            not r1.as_path and not r2.as_path,
            same_hop,
            {r1.med, r2.med} == {None, 0},
            k1[:3] == k2[:3] and k1[3] != k2[3],  # decided by MED
        ))
    # Both-local pairs, same and different first hops, MED None against 0,
    # and pairs that MED decides all occur.
    assert {(True, True), (False, True), (False, False)} <= {s[:2] for s in seen}
    assert any(s[2] for s in seen) and any(s[3] for s in seen)
    with pytest.raises(ValueError, match="prefix mismatch"):
        compare_routes(route([ISP1, D]), route([ISP1, D], prefix=Prefix.parse("10.2.0.0/16")))
