import copy
import itertools
import pickle
import random

import pytest

from bgpsteer import (
    Action,
    ActionKind,
    Advertisement,
    Budget,
    Community,
    ConvergedState,
    EvaluationReport,
    Exhausted,
    Finding,
    Flow,
    Infeasible,
    InfeasibilityWitness,
    IngressMap,
    Link,
    Objective,
    PeerSelector,
    Plan,
    PolicyCatalog,
    Prefix,
    Rel,
    Route,
    Scenario,
    TeConfig,
    Topology,
    ValidationReport,
    compare_routes,
    default_local_pref,
    export_permitted,
    prepend_path,
)
from bgpsteer.routes import best_of
from bgpsteer.topology import EMPTY_MAP, LOCAL, Session, Sessions

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


def test_te_config_converged_state_and_ingress_map_are_the_tuples_of_their_fields():
    ad = Advertisement(D, P1, "l1", frozenset({Community(100, 50)}), 10)
    withheld = frozenset({(D, P1)})
    te = TeConfig((ad,), withheld)
    fields = ((ad,), withheld)
    assert te == fields and tuple(te) == fields
    changed = te._replace(advertisements=())
    assert type(changed) is TeConfig and changed.advertisements == () and te.advertisements == (ad,)
    default = TeConfig()
    assert default == ((), frozenset())
    for value in (te, default):
        for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is TeConfig and copied == value

    best = Route(P1, (ISP1, D), 200, None, frozenset(), "l1", D)
    adj = {ISP1: {}, A: {P1: {"l1": best}}}
    loc = {ISP1: {P1: best}, A: {P1: best}}
    state = ConvergedState(adj, loc, 3)
    assert state == (adj, loc, 3) and tuple(state) == (adj, loc, 3)
    changed = state._replace(rounds_used=4)
    assert type(changed) is ConvergedState and changed.rounds_used == 4 and state.rounds_used == 3
    assert changed.loc_rib is loc and changed.best_route(A, P1) == best
    for copied in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert type(copied) is ConvergedState and copied == state and copied.dump() == state.dump()
        assert copied.loc_rib is not loc

    entries = {(A, P1): "l1", (B, P1): "unreachable"}
    m = IngressMap(D, entries)
    assert m == (D, entries) and tuple(m) == (D, entries)
    changed = m._replace(entries={(A, P1): "l2"})
    assert type(changed) is IngressMap and changed.dest == D and m.entries is entries
    for copied in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(copied) is IngressMap and copied == m and copied.to_csv() == m.to_csv()


def _records():
    """(record, the tuple of its fields, one field to change, a new value)
    for every record type that is not a route or an advertisement."""
    flow = Flow(None, A, P1, D)
    flow_fields = (None, A, P1, D)
    objective = Objective(flow, "l1")
    other = Objective(Flow(None, B, P1, D), "l2")
    witness = InfeasibilityWitness(objective, other, ISP1)
    action = Action.withhold(P1, "l1")
    predicted = IngressMap(D, {(A, P1): "l2"})
    side = ((A, P1, "l1", "l2"),)
    c = Community(ISP1, 50)
    selector = PeerSelector.specific(ISP2)
    catalog = PolicyCatalog(ISP1, {c: 150}, prepend_rules={Community(ISP1, 2): (selector, 2)})
    link = Link("l1", D, ISP1, D)
    finding = Finding("link l1: undeclared AS 9", ("link", "l1"))
    session = Session("l1", ISP1, Rel.PROVIDER, 200, catalog)
    sessions = Sessions.build([session], None)
    roles = {D: "stub", ISP1: "transit"}
    originations = {D: frozenset({P1})}
    topology = Topology(roles, (link,), originations)
    return [
        (flow, flow_fields, "src_asn", B),
        (objective, (flow_fields, "l1"), "required_link", "l2"),
        (witness, (tuple(objective), tuple(other), ISP1), "pivot", "same-provider"),
        (Plan((action,), predicted, side), ((tuple(action),), (D, {(A, P1): "l2"}), side, False),
         "lp_constraint_violated", True),
        (Infeasible((witness,)), ((tuple(witness),),), "witnesses", ()),
        (Exhausted(12, 3), (12, 3), "candidates_tried", 13),
        (Budget(), (3,), "max_actions", 0),
        (EvaluationReport((True, False), side, 4), ((True, False), side, 4), "rounds_used", 5),
        (selector, ("asn", ISP2, None), "asn", A),
        (PeerSelector.for_region("eu"), ("region", None, "eu"), "region", "us"),
        (catalog, (ISP1, {c: 150}, {}, {(ISP1, 2): (("asn", ISP2, None), 2)}, {}, False),
         "drops_community_updates", True),
        (link, ("l1", D, ISP1, D, True), "up", False),
        (finding, ("link l1: undeclared AS 9", ("link", "l1")), "subject", ()),
        (ValidationReport((finding,), ()), ((tuple(finding),), ()), "warnings", (finding,)),
        (sessions, ((session,), {"l1": ((), (session,)), LOCAL: ((session,), ())}, None, frozenset(), {}), "catalog", catalog),
        (topology, (roles, (tuple(link),), originations, {}, {}), "lp_overrides", {(ISP1, D): 80}),
        (Scenario(topology, TeConfig()), (topology, ((), frozenset()), ()), "objectives", (objective,)),
    ]


RECORDS = _records()


@pytest.mark.parametrize(
    "record, fields, name, value", RECORDS, ids=[f"{type(r).__name__}.{name}" for r, _, name, _ in RECORDS]
)
def test_every_record_is_the_tuple_of_its_fields(record, fields, name, value):
    """Each record equals its fields' tuple and hashes like it (a record
    holding a dict is unhashable, as the tuple is); `_replace` keeps its
    type, and a pickle or deep copy reads back as an equal record.  Only a
    `Topology` has an instance `__dict__`, which holds its caches."""
    assert record == fields and tuple(record) == fields
    assert hasattr(record, "__dict__") == (type(record) is Topology)
    try:
        expected = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    changed = record._replace(**{name: value})
    assert type(changed) is type(record) and getattr(changed, name) == value
    assert getattr(record, name) != value and changed != record
    for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record) and copied == record


def test_the_shared_empty_mapping_is_read_only_and_pickles_as_itself():
    assert PolicyCatalog(ISP1).lp_rules is EMPTY_MAP and Topology({}, (), {}).catalogs is EMPTY_MAP
    assert EMPTY_MAP == {} and not EMPTY_MAP and EMPTY_MAP.get(1) is None
    for mutate in (
        lambda m: m.__setitem__(1, 2),
        lambda m: m.update({1: 2}),
        lambda m: m.setdefault(1, 2),
        lambda m: m.pop(1),
        lambda m: m.clear(),
    ):
        with pytest.raises(TypeError, match="read-only"):
            mutate(EMPTY_MAP)
    assert EMPTY_MAP == {}
    for copied in (copy.copy(EMPTY_MAP), copy.deepcopy(EMPTY_MAP), pickle.loads(pickle.dumps(EMPTY_MAP))):
        assert copied is EMPTY_MAP


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
