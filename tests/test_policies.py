from pathlib import Path

import pytest

from bgpsteer import (
    Community,
    PeerSelector,
    PolicyCatalog,
    Prefix,
    Rel,
    Route,
    egress_apply,
    ingress_transform,
    parse_community,
    parse_scenario,
    propagate_to_convergence,
)
from bgpsteer.policies import egress_times
from bgpsteer.topology import LOCAL

P1 = Prefix.parse("10.1.0.0/16")
P2 = Prefix.parse("10.2.0.0/16")
D, ISP1, S1, A = 65001, 100, 65101, 300


def test_parse_community():
    assert parse_community("100:50") == Community(100, 50)
    assert parse_community("0:0") == Community(0, 0)
    assert str(parse_community("100:50")) == "100:50"


@pytest.mark.parametrize("bad", ["100:70000", "70000:1", "100", "a:b", "1:2:3", ":5"])
def test_parse_community_rejects(bad):
    with pytest.raises(ValueError):
        parse_community(bad)


def customer_route(communities, prefix=P2):
    return Route(prefix, (D,), 200, None, frozenset(communities), "l1", D)


NEIGHBORS = {D: Rel.CUSTOMER, A: Rel.PROVIDER, S1: Rel.CUSTOMER, 500: Rel.PEER}


def wires(cat, r):
    """What ISP1 sends each neighbor when it exports `r`, a route learned
    from a customer: the wire route, or None where the catalog suppresses it."""
    times = egress_times(cat, r, NEIGHBORS)
    return {
        n: None if times.get(n, 1) is None else egress_apply(r, ISP1, times.get(n, 1), cat.communities())
        for n in NEIGHBORS
    }


def test_lp_rule_sets_override():
    cat = PolicyCatalog(ISP1, {Community(100, 50): 50, Community(100, 100): 100}, {}, {}, {})
    r = customer_route([Community(100, 100)])
    assert ingress_transform(cat, r) == r._replace(local_pref=100)
    # no suppression and no prepend at the egress
    assert egress_times(cat, r, NEIGHBORS) == {}
    assert all(w.as_path == (ISP1, D) for w in wires(cat, r).values())


def test_conflicting_lp_rules_lowest_wins():
    cat = PolicyCatalog(ISP1, {Community(100, 50): 50, Community(100, 100): 100}, {}, {}, {})
    r = ingress_transform(cat, customer_route([Community(100, 100), Community(100, 50)]))
    assert r.local_pref == 50


def test_empty_communities_are_identity():
    cat = PolicyCatalog(ISP1, {Community(100, 50): 50}, {}, {}, {})
    r = customer_route([])
    assert ingress_transform(cat, r) is r
    assert egress_times(cat, r, NEIGHBORS) == {}


def test_unknown_communities_inert():
    cat = PolicyCatalog(ISP1, {Community(100, 50): 50}, {}, {}, {})
    r = customer_route([Community(999, 1)])
    assert ingress_transform(cat, r) is r
    assert egress_times(cat, r, NEIGHBORS) == {}


def test_prepend_rule_builds_schedule():
    cat = PolicyCatalog(
        ISP1, {}, {}, {Community(100, 2001): (PeerSelector.specific(A), 2)}, {}
    )
    r = customer_route([Community(100, 2001)])
    assert egress_times(cat, r, NEIGHBORS) == {A: 3}
    out = wires(cat, r)
    assert out[A].as_path == (ISP1, ISP1, ISP1, D)
    assert out[500].as_path == out[S1].as_path == (ISP1, D)


def test_prepend_same_target_larger_count_wins():
    cat = PolicyCatalog(
        ISP1,
        {},
        {},
        {
            Community(100, 1): (PeerSelector.specific(A), 1),
            Community(100, 2): (PeerSelector.specific(A), 3),
        },
        {},
    )
    r = customer_route([Community(100, 1), Community(100, 2)])
    assert egress_times(cat, r, NEIGHBORS) == {A: 4}
    assert wires(cat, r)[A].as_path == (ISP1,) * 4 + (D,)


def test_suppress_expansion_excludes_customers():
    cat = PolicyCatalog(ISP1, {}, {Community(100, 666): PeerSelector.all_upstreams()}, {}, {})
    r = customer_route([Community(100, 666)])
    assert egress_times(cat, r, NEIGHBORS) == {A: None, 500: None}  # provider + peer, no customers
    out = wires(cat, r)
    assert out[A] is None and out[500] is None
    assert out[S1].as_path == (ISP1, D)


def test_suppress_specific_customer_expands_empty():
    cat = PolicyCatalog(ISP1, {}, {Community(100, 666): PeerSelector.specific(S1)}, {}, {})
    r = customer_route([Community(100, 666)])
    assert egress_times(cat, r, NEIGHBORS) == {}
    assert wires(cat, r)[S1] is not None


def test_region_selector_expansion():
    cat = PolicyCatalog(
        ISP1,
        {},
        {Community(100, 7): PeerSelector.for_region("EU")},
        {},
        {A: "EU", 500: "US"},
    )
    r = customer_route([Community(100, 7)])
    assert egress_times(cat, r, NEIGHBORS) == {A: None}
    assert wires(cat, r)[500] is not None


def test_egress_prepends_schedule_plus_one():
    base = Route(P2, (D,), 200, None, frozenset(), "l1", D)
    wire = egress_apply(base, ISP1, 3)
    assert wire.as_path == (ISP1, ISP1, ISP1, D)
    assert wire.local_pref == 0


def test_egress_plain_export():
    cat = PolicyCatalog(ISP1, {Community(100, 50): 50}, {}, {}, {})
    base = Route(P2, (D,), 200, None, frozenset({Community(100, 50), Community(999, 9)}), "l1", D)
    wire = egress_apply(base, ISP1, 1, cat.communities())
    assert wire.as_path == (ISP1, D)
    assert wire.communities == frozenset({Community(999, 9)})  # own catalog value stripped


def test_egress_suppressed_returns_none():
    # Suppression outranks a prepend toward the same neighbor.
    cat = PolicyCatalog(
        ISP1,
        {},
        {Community(100, 666): PeerSelector.specific(A)},
        {Community(100, 2001): (PeerSelector.all_upstreams(), 2)},
        {},
    )
    r = customer_route([Community(100, 666), Community(100, 2001)])
    assert egress_times(cat, r, NEIGHBORS) == {A: None, 500: 3}
    out = wires(cat, r)
    assert out[A] is None
    assert out[500].as_path == (ISP1, ISP1, ISP1, D)
    assert out[S1].as_path == (ISP1, D)
    assert out[S1].communities == frozenset()  # both catalog values stripped


def test_strip_invariant_on_golden():
    s = parse_scenario(Path("scenarios/singleprovider_lp_pair.scn").read_text(encoding="utf-8"))
    state = propagate_to_convergence(s.topology, s.te_config)
    owned = {owner: cat.communities() for owner, cat in s.topology.catalogs.items()}
    for asn, by_prefix in state.loc_rib.items():
        for r in by_prefix.values():
            if r.learned_on == LOCAL:
                continue
            for transited in set(r.as_path):
                assert not (r.communities & owned.get(transited, frozenset())), (asn, r)


def test_suppression_blackholes_beyond_selected_neighbors():
    s = parse_scenario(Path("scenarios/suppress_blackhole.scn").read_text(encoding="utf-8"))
    state = propagate_to_convergence(s.topology, s.te_config)
    # the suppressed peer and the stub behind it have no route to 10.2/16
    assert state.best_route(400, P2) is None
    assert state.best_route(65103, P2) is None
    # the provider's customer keeps it; 10.1/16 reaches everyone
    assert state.best_route(65101, P2) is not None
    assert state.best_route(65103, P1) is not None


def test_unknown_communities_do_not_change_selection():
    base = Path("scenarios/dualprovider_baseline.scn").read_text(encoding="utf-8")
    with_noise = base + "advertise 65001 10.1.0.0/16 l1 community 65000:1\nadvertise 65001 10.1.0.0/16 l2 community 65000:2\n"
    s_plain = parse_scenario(base)
    s_noise = parse_scenario(with_noise)
    st_plain = propagate_to_convergence(s_plain.topology, s_plain.te_config)
    st_noise = propagate_to_convergence(s_noise.topology, s_noise.te_config)

    def selection(state):
        return {
            asn: {
                p: (r.as_path, r.local_pref, r.learned_on, r.med)
                for p, r in by.items()
            }
            for asn, by in state.loc_rib.items()
        }

    assert selection(st_plain) == selection(st_noise)


def test_drops_community_updates_ignores_tagged_routes():
    text = (
        "as 1 stub\nas 2 transit\n"
        "link l1 1 2 c2p\n"
        "originate 1 10.1.0.0/16\n"
        "policy 2 drops-community-updates\n"
        "advertise 1 10.1.0.0/16 l1 community 65000:1\n"
    )
    s = parse_scenario(text)
    state = propagate_to_convergence(s.topology, s.te_config)
    assert state.best_route(2, P1) is None
    # without the community the route is accepted
    s2 = parse_scenario(text.replace(" community 65000:1", ""))
    state2 = propagate_to_convergence(s2.topology, s2.te_config)
    assert state2.best_route(2, P1) is not None


def test_catalog_validate_flags_non_neighbor_selector():
    from bgpsteer import Link, Topology, validate_topology

    cat = PolicyCatalog(2, {}, {}, {Community(2, 1): (PeerSelector.specific(77), 2)}, {})
    t = Topology({1: "stub", 2: "transit", 77: "stub"}, (Link("l1", 1, 2, 1),), {}, {2: cat})
    assert any("non-neighbor" in f.message for f in validate_topology(t).errors)


def test_catalog_validate_flags_a_negative_lp():
    from bgpsteer import Link, Topology, TopologyError

    cat = PolicyCatalog(2, {Community(2, 1): -5, Community(2, 2): 50}, {}, {}, {})
    t = Topology({1: "stub", 2: "transit"}, (Link("l1", 1, 2, 1),), {1: frozenset({P1})}, {2: cat})
    with pytest.raises(TopologyError, match="LP -5 for 2:1 is negative"):
        propagate_to_convergence(t)


def test_catalog_duplicate_community_rejected():
    text = (
        "as 1 stub\nas 2 transit\nlink l1 1 2 c2p\n"
        "policy 2 lp 2:1 50\npolicy 2 suppress 2:1 all\n"
    )
    with pytest.raises(Exception) as err:
        parse_scenario(text)
    assert "already mapped" in str(err.value)
