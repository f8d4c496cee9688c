import pytest

from bgpsteer import (
    AnnotatedRoute,
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


def test_lp_rule_sets_override():
    cat = PolicyCatalog(ISP1, {Community(100, 50): 50, Community(100, 100): 100}, {}, {}, {})
    ar = ingress_transform(cat, customer_route([Community(100, 100)]), NEIGHBORS)
    assert ar.lp_override == 100
    assert ar.suppressed_toward == frozenset()
    assert not ar.prepend_schedule


def test_conflicting_lp_rules_lowest_wins():
    cat = PolicyCatalog(ISP1, {Community(100, 50): 50, Community(100, 100): 100}, {}, {}, {})
    ar = ingress_transform(cat, customer_route([Community(100, 100), Community(100, 50)]), NEIGHBORS)
    assert ar.lp_override == 50


def test_empty_communities_are_identity():
    cat = PolicyCatalog(ISP1, {Community(100, 50): 50}, {}, {}, {})
    ar = ingress_transform(cat, customer_route([]), NEIGHBORS)
    assert ar == AnnotatedRoute(ar.route)


def test_unknown_communities_inert():
    cat = PolicyCatalog(ISP1, {Community(100, 50): 50}, {}, {}, {})
    ar = ingress_transform(cat, customer_route([Community(999, 1)]), NEIGHBORS)
    assert ar.lp_override is None


def test_prepend_rule_builds_schedule():
    cat = PolicyCatalog(
        ISP1, {}, {}, {Community(100, 2001): (PeerSelector.specific(A), 2)}, {}
    )
    ar = ingress_transform(cat, customer_route([Community(100, 2001)]), NEIGHBORS)
    assert ar.prepend_schedule == {A: 2}


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
    ar = ingress_transform(cat, customer_route([Community(100, 1), Community(100, 2)]), NEIGHBORS)
    assert ar.prepend_schedule == {A: 3}


def test_suppress_expansion_excludes_customers():
    cat = PolicyCatalog(ISP1, {}, {Community(100, 666): PeerSelector.all_upstreams()}, {}, {})
    ar = ingress_transform(cat, customer_route([Community(100, 666)]), NEIGHBORS)
    assert ar.suppressed_toward == frozenset({A, 500})  # provider + peer, no customers


def test_suppress_specific_customer_expands_empty():
    cat = PolicyCatalog(ISP1, {}, {Community(100, 666): PeerSelector.specific(S1)}, {}, {})
    ar = ingress_transform(cat, customer_route([Community(100, 666)]), NEIGHBORS)
    assert ar.suppressed_toward == frozenset()


def test_region_selector_expansion():
    cat = PolicyCatalog(
        ISP1,
        {},
        {Community(100, 7): PeerSelector.for_region("EU")},
        {},
        {A: "EU", 500: "US"},
    )
    ar = ingress_transform(cat, customer_route([Community(100, 7)]), NEIGHBORS)
    assert ar.suppressed_toward == frozenset({A})


def test_egress_prepends_schedule_plus_one():
    base = Route(P2, (D,), 200, None, frozenset(), "l1", D)
    ar = AnnotatedRoute(base, None, frozenset(), {S1: 2})
    wire = egress_apply(ar, ISP1, S1)
    assert wire.as_path == (ISP1, ISP1, ISP1, D)
    assert wire.local_pref == 0


def test_egress_plain_export():
    cat = PolicyCatalog(ISP1, {Community(100, 50): 50}, {}, {}, {})
    base = Route(P2, (D,), 200, None, frozenset({Community(100, 50), Community(999, 9)}), "l1", D)
    wire = egress_apply(AnnotatedRoute(base), ISP1, A, cat)
    assert wire.as_path == (ISP1, D)
    assert wire.communities == frozenset({Community(999, 9)})  # own catalog value stripped


def test_egress_suppressed_returns_none():
    base = Route(P2, (D,), 200, None, frozenset(), "l1", D)
    ar = AnnotatedRoute(base, None, frozenset({A}), {})
    assert egress_apply(ar, ISP1, A) is None
    assert egress_apply(ar, ISP1, S1) is not None


def test_strip_invariant_on_golden():
    s = parse_scenario(open("scenarios/singleprovider_lp_pair.scn").read())
    state = propagate_to_convergence(s.topology, s.te_config)
    owned = {owner: cat.communities() for owner, cat in s.topology.catalogs.items()}
    for asn, by_prefix in state.loc_rib.items():
        for entry in by_prefix.values():
            r = entry.route
            if r.learned_on == LOCAL:
                continue
            for transited in set(r.as_path):
                assert not (r.communities & owned.get(transited, frozenset())), (asn, r)


def test_suppression_blackholes_beyond_selected_neighbors():
    s = parse_scenario(open("scenarios/suppress_blackhole.scn").read())
    state = propagate_to_convergence(s.topology, s.te_config)
    # the suppressed peer and the stub behind it have no route to 10.2/16
    assert state.best_route(400, P2) is None
    assert state.best_route(65103, P2) is None
    # the provider's customer keeps it; 10.1/16 reaches everyone
    assert state.best_route(65101, P2) is not None
    assert state.best_route(65103, P1) is not None


def test_unknown_communities_do_not_change_selection():
    base = open("scenarios/dualprovider_baseline.scn").read()
    with_noise = base + "advertise 65001 10.1.0.0/16 l1 community 65000:1\nadvertise 65001 10.1.0.0/16 l2 community 65000:2\n"
    s_plain = parse_scenario(base)
    s_noise = parse_scenario(with_noise)
    st_plain = propagate_to_convergence(s_plain.topology, s_plain.te_config)
    st_noise = propagate_to_convergence(s_noise.topology, s_noise.te_config)

    def selection(state):
        return {
            asn: {
                p: (e.route.as_path, e.route.local_pref, e.route.learned_on, e.route.med)
                for p, e in by.items()
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
