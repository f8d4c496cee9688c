import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
from bgpsteer import planner
from bgpsteer.cli import main
from bgpsteer.flows import ForwardingTable, IngressMap
from bgpsteer import (
    Action,
    ActionKind,
    Budget,
    Community,
    EvaluationReport,
    Exhausted,
    Flow,
    Infeasible,
    Link,
    Objective,
    OscillationError,
    Plan,
    PlanningError,
    Prefix,
    SAME_PROVIDER,
    Topology,
    TopologyError,
    common_upstream_check,
    evaluate_plan,
    ingress_map,
    parse_scenario,
    plan_inbound_te,
    propagate_to_convergence,
    te_config_from_actions,
)
from bgpsteer.planner import (
    _build_atoms,
    _consistent_sets,
    _objective_satisfied,
    _objective_sources,
    _Parts,
    _prefix_groups,
    _prepend_amount,
    _prepend_counts,
    _side_effects,
    plan_cost,
    validate_objectives,
)

P1 = Prefix.parse("10.1.0.0/16")
P2 = Prefix.parse("10.2.0.0/16")


def load(path):
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def test_dualprovider_objective_pairs_are_clear():
    s = load("scenarios/dualprovider_sourceasn_objectives.scn")
    assert common_upstream_check(s.topology, s.objectives) == []


def test_same_provider_witness():
    s = load("scenarios/singleprovider_split_objectives.scn")
    witnesses = common_upstream_check(s.topology, s.objectives)
    assert len(witnesses) == 1
    assert witnesses[0].pivot == SAME_PROVIDER


def test_tier1_pivot_witness():
    s = load("scenarios/tier1_pivot.scn")
    witnesses = common_upstream_check(s.topology, s.objectives)
    assert [w.pivot for w in witnesses] == [600]


P2P_OBJECTIVE_SCENARIO = """\
as 1 stub
as 10 transit
as 20 transit
as 99 transit
as 5 stub
as 6 stub
link l1 1 10 p2p
link l2 1 20 c2p
link l3 10 99 c2p
link l4 20 99 c2p
link l5 5 99 c2p
link l6 6 99 c2p
originate 1 10.1.0.0/16
objective 1 5 10.1.0.0/16 l1
objective 1 6 10.1.0.0/16 l2
"""


def test_a_route_over_a_p2p_objective_link_does_not_go_up(tmp_path, capsys):
    """AS 10 learns AS 1's route over the peering l1, so it passes it only to
    customers: AS 99 never holds it, no route from AS 5 crosses AS 99 over
    l1, and there is no pivot.  No announcement over l1 reaches AS 5, so the
    planner answers Exhausted without a search."""
    s = parse_scenario(P2P_OBJECTIVE_SCENARIO)
    t = s.topology
    assert gen.legal_announcement_paths(t, 1, "l1", 5) == []
    assert gen.legal_announcement_paths(t, 1, "l2", 6) == [(1, 20, 99, 6)]
    assert common_upstream_check(t, s.objectives) == []
    state = propagate_to_convergence(t, s.te_config)
    assert [r.learned_on for r in state.candidates(99, P1)] == ["l4"]
    path = tmp_path / "p2p.scn"
    path.write_text(P2P_OBJECTIVE_SCENARIO, encoding="utf-8")
    assert main(["plan", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().out == "status exhausted tried=4 max-actions=3\n"


def test_legal_announcement_paths_are_valley_free_over_p2p_objective_links():
    """Every path the screen walks, from the destination over l1 or l2 to
    any other AS, is valley-free by `gen.is_valley_free`, which states the
    rule on its own; among the cases, l1 and/or l2 are made peerings."""
    rng = random.Random(2020)
    p2p_cases = paths_checked = peered_paths = 0
    for _ in range(300):
        t, dest, _objectives, _budget = gen.rand_planning_instance(rng)
        peered = rng.choice([(), ("l1",), ("l2",), ("l1", "l2")])
        links = tuple(l._replace(customer=None) if l.id in peered else l for l in t.links)
        t = Topology(t.roles, links, t.originations, t.catalogs)
        p2p_cases += bool(peered)
        for link_id in ("l1", "l2"):
            provider = t.link_by_id(link_id).other(dest)
            for target in t.roles:
                if target in (dest, provider):
                    continue
                for path in gen.legal_announcement_paths(t, dest, link_id, target):
                    assert path[:2] == (dest, provider) and path[-1] == target
                    assert len(set(path)) == len(path)
                    assert gen.is_valley_free(t, target, tuple(reversed(path[:-1]))), (peered, path)
                    paths_checked += 1
                    peered_paths += link_id in peered
    assert p2p_cases >= 200 and paths_checked >= 1000 and peered_paths >= 400, (
        p2p_cases, paths_checked, peered_paths)


def test_plan_dualprovider_sourceasn_objectives_two_prepend_attachments():
    s = load("scenarios/dualprovider_sourceasn_objectives.scn")
    result = plan_inbound_te(s.topology, 65001, s.objectives)
    assert isinstance(result, Plan)
    assert len(result.actions) == 2
    assert all(a.kind is ActionKind.ATTACH_COMMUNITY for a in result.actions)
    got = {(str(a.prefix), a.link_id, str(a.community)) for a in result.actions}
    assert got == {("10.2.0.0/16", "l1", "100:12"), ("10.2.0.0/16", "l2", "200:22")}
    assert result.side_effects == ()
    report = evaluate_plan(s.topology, 65001, result, s.objectives)
    assert all(report.satisfied)


def test_plan_deep_single_prepend_with_side_effects():
    s = load("scenarios/deep_objectives.scn")
    result = plan_inbound_te(s.topology, 65001, s.objectives)
    assert isinstance(result, Plan)
    assert [str(a) for a in result.actions] == ["attach-community 10.2.0.0/16 l1 100:32"]
    assert set(result.side_effects) == {
        (65102, P2, "l1", "l2"),
        (65103, P2, "l1", "l2"),
    }
    report = evaluate_plan(s.topology, 65001, result, s.objectives)
    assert all(report.satisfied)
    assert set(report.side_effects) == set(result.side_effects)


def test_plan_singleprovider_uses_lp_communities():
    s = load("scenarios/singleprovider_destprefix_objectives.scn")
    result = plan_inbound_te(s.topology, 65001, s.objectives)
    assert isinstance(result, Plan)
    assert result.actions
    cat = s.topology.catalogs[100]
    for a in result.actions:
        assert a.kind is ActionKind.ATTACH_COMMUNITY
        assert a.community in cat.lp_rules
    report = evaluate_plan(s.topology, 65001, result, s.objectives)
    assert all(report.satisfied)


def test_plan_dualprovider_destination_prefix_needs_selective_advertisement():
    # The captive stubs behind the far-side transits rule out prepending; the
    # reachability loss they suffer shows up as side effects.
    s = load("scenarios/dualprovider_destprefix_objectives.scn")
    result = plan_inbound_te(s.topology, 65001, s.objectives)
    assert isinstance(result, Plan)
    assert all(a.kind is ActionKind.WITHHOLD for a in result.actions)
    got = {(str(a.prefix), a.link_id) for a in result.actions}
    assert got == {("10.1.0.0/16", "l2"), ("10.2.0.0/16", "l1")}
    assert set(result.side_effects) == {
        (65103, P1, "l2", "unreachable"),
        (65104, P2, "l1", "unreachable"),
    }
    report = evaluate_plan(s.topology, 65001, result, s.objectives)
    assert all(report.satisfied)


def test_already_satisfied_objectives_give_empty_plan():
    s = load("scenarios/dualprovider_baseline.scn")
    objectives = (
        Objective(Flow(None, 65101, P1, 65001), "l1"),
        Objective(Flow(None, 65102, P1, 65001), "l2"),
    )
    result = plan_inbound_te(s.topology, 65001, objectives)
    assert isinstance(result, Plan)
    assert result.actions == ()
    assert result.side_effects == ()


def test_infeasible_same_provider_short_circuits():
    s = load("scenarios/singleprovider_split_objectives.scn")
    result = plan_inbound_te(s.topology, 65001, s.objectives)
    assert isinstance(result, Infeasible)
    assert result.witnesses[0].pivot == SAME_PROVIDER


def test_source_prefix_objective_rejected():
    s = load("scenarios/srcprefix_objective.scn")
    with pytest.raises(PlanningError) as err:
        plan_inbound_te(s.topology, 65001, s.objectives)
    assert "granularity" in str(err.value)


def test_objective_on_down_link_rejected():
    s = load("scenarios/failover_selective_l1down.scn")
    objectives = (Objective(Flow(None, 65101, P1, 65001), "l1"),)
    with pytest.raises(PlanningError) as err:
        plan_inbound_te(s.topology, 65001, objectives)
    assert "down" in str(err.value)


def test_objective_on_unknown_link_rejected():
    s = load("scenarios/dualprovider_baseline.scn")
    objectives = (Objective(Flow(None, 65101, P1, 65001), "nope"),)
    with pytest.raises(PlanningError) as err:
        plan_inbound_te(s.topology, 65001, objectives)
    assert str(err.value) == "unknown link id: nope"


def test_a_wildcard_objective_with_no_source_is_rejected():
    # `*` stands for every stub but the destination.  With no other stub it
    # covers no flow, so no plan could show it met: an input error.
    t = load("scenarios/dualprovider_baseline.scn").topology
    roles = {a: "stub" if a == 65001 else "transit" for a in t.roles}
    t = Topology(roles, t.links, t.originations, t.catalogs)
    objectives = (Objective(Flow(None, None, P1, 65001), "l1"),)
    message = "objective {*, *, 10.1.0.0/16, 65001} -> l1: no stub AS other than AS 65001 sources its traffic"
    empty_plan = Plan((), None, ())
    for call in (
        lambda: validate_objectives(t, 65001, objectives),
        lambda: plan_inbound_te(t, 65001, objectives),
        lambda: evaluate_plan(t, 65001, empty_plan, objectives),
    ):
        with pytest.raises(PlanningError) as err:
            call()
        assert str(err.value) == message
    # A named source still makes the objective plannable.
    named = (Objective(Flow(None, 100, P1, 65001), "l1"),)
    assert isinstance(plan_inbound_te(t, 65001, named), Plan)


def flow_to(src, prefix=P1, dest=65001):
    return Flow(None, src, prefix, dest)


# (id, dest, objectives, budget, plan for evaluate_plan or None, message):
# each planning-input error, on dualprovider_baseline.scn (stub 65001 over
# l1 to 100 and l2 to 200, originating 10.1.0.0/16 and 10.2.0.0/16).
PLANNING_INPUT_ERRORS = [
    ("unknown-destination", 4242, [Objective(flow_to(65101, dest=4242), "l1")], Budget(), None,
     "unknown destination AS 4242"),
    ("destination-originates-nothing", 65101, [Objective(flow_to(65102, dest=65101), "l5")], Budget(), None,
     "destination AS 65101 originates nothing"),
    ("no-objectives", 65001, [], Budget(), None, "no objectives given"),
    ("objective-for-another-destination", 65001, [Objective(flow_to(65101, dest=65102), "l1")], Budget(), None,
     "objective {*, 65101, 10.1.0.0/16, 65102} -> l1 does not target AS 65001"),
    ("link-not-incident", 65001, [Objective(flow_to(65101), "l3")], Budget(), None,
     "objective {*, 65101, 10.1.0.0/16, 65001} -> l3: link l3 is not incident to AS 65001"),
    ("unknown-source", 65001, [Objective(flow_to(4242), "l1")], Budget(), None,
     "objective {*, 4242, 10.1.0.0/16, 65001} -> l1: unknown source AS 4242"),
    ("source-is-destination", 65001, [Objective(flow_to(65001), "l1")], Budget(), None,
     "objective {*, 65001, 10.1.0.0/16, 65001} -> l1: source equals destination"),
    ("prefix-outside-originated-space", 65001, [Objective(flow_to(65101, Prefix.parse("10.3.0.0/16")), "l1")],
     Budget(), None,
     "objective {*, 65101, 10.3.0.0/16, 65001} -> l1: 10.3.0.0/16 is outside AS 65001's originated space"),
    ("negative-budget", 65001, [Objective(flow_to(65101), "l1")], Budget(max_actions=-1), None,
     "action budget must be >= 0, got -1"),
    ("plan-with-clashing-actions", 65001, [Objective(flow_to(65101), "l1")], Budget(),
     Plan((Action.withhold(P1, "l1"), Action.attach(P1, "l1", Community(100, 50))), None, ()),
     "plan contains invalid action references"),
]


@pytest.mark.parametrize(
    "dest, objectives, budget, plan, message",
    [c[1:] for c in PLANNING_INPUT_ERRORS],
    ids=[c[0] for c in PLANNING_INPUT_ERRORS],
)
def test_planning_input_error_table(dest, objectives, budget, plan, message):
    t = load("scenarios/dualprovider_baseline.scn").topology
    with pytest.raises(PlanningError) as err:
        if plan is None:
            plan_inbound_te(t, dest, objectives, budget)
        else:
            evaluate_plan(t, dest, plan, objectives)
    assert err.value.args == (message,)


def test_contradictory_objectives_rejected():
    s = load("scenarios/dualprovider_baseline.scn")
    objectives = (
        Objective(Flow(None, None, P1, 65001), "l1"),
        Objective(Flow(None, 65102, P1, 65001), "l2"),
    )
    with pytest.raises(PlanningError) as err:
        plan_inbound_te(s.topology, 65001, objectives)
    assert "contradictory" in str(err.value)


def test_transit_destination_rejected():
    s = load("scenarios/dualprovider_baseline.scn")
    objectives = (Objective(Flow(None, 65101, P1, 100), "l1"),)
    with pytest.raises(PlanningError):
        plan_inbound_te(s.topology, 100, objectives)


def test_sub_prefix_objective_plans_more_specific():
    s = load("scenarios/failover_morespecific.scn")
    sub = Prefix.parse("10.1.128.0/17")
    objectives = (Objective(Flow(None, 65101, sub, 65001), "l1"),)
    result = plan_inbound_te(s.topology, 65001, objectives)
    assert isinstance(result, Plan)
    report = evaluate_plan(s.topology, 65001, result, objectives)
    assert all(report.satisfied)


def screen_objectives(t, dest):
    """One objective per source AS other than `dest` and per link at `dest`,
    all on P1: every pair the screen can judge at `dest`."""
    links = [l.id for l in t.links if dest in (l.a, l.b)]
    return [Objective(Flow(None, src, P1, dest), l) for l in links for src in sorted(t.roles) if src != dest]


def test_the_screen_gives_the_path_listing_witnesses():
    """The screen's walk gives exactly the witnesses, pivots included, that
    listing every legal path gives (`gen.reference_upstream_check`), on
    planning instances with peered objective links, on random graphs with
    catalogs, parallel and down links, and on graphs with a
    customer->provider cycle, where a walk can meet an AS first on a state
    that cannot reach the source."""
    rng = random.Random(2929)
    pivots = {"planning": 0, "random": 0, "cycle": 0}

    def check(family, t, dest):
        objectives = screen_objectives(t, dest)
        witnesses = common_upstream_check(t, objectives)
        assert witnesses == gen.reference_upstream_check(t, objectives), (family, t, dest)
        pivots[family] += sum(w.pivot != SAME_PROVIDER for w in witnesses)

    for _ in range(300):
        t, dest, _objectives, _budget = gen.rand_planning_instance(rng)
        peered = rng.choice([(), ("l1",), ("l2",), ("l1", "l2")])
        links = tuple(l._replace(customer=None) if l.id in peered else l for l in t.links)
        check("planning", Topology(t.roles, links, t.originations, t.catalogs), dest)
    graphs = 0
    while graphs < 20:
        t = gen.rand_topology(rng, 8, with_catalogs=True)
        family = "random"
        if graphs % 2:
            t, family = gen.with_provider_cycle(rng, t), "cycle"
            if t is None:
                continue
        graphs += 1
        for dest in sorted(t.roles):
            check(family, t, dest)
    assert pivots["planning"] >= 40 and pivots["random"] >= 50 and pivots["cycle"] >= 500, pivots


def test_an_objective_over_a_down_link_gives_no_witness():
    """With l1 up, both objectives' paths funnel through AS 99.  With l1
    down, no announcement crosses it: the pair has no witness, whichever
    objective comes first, though the other objective's paths exist."""
    text = (
        "as 1 stub\nas 10 transit\nas 20 transit\nas 99 transit\nas 5 stub\nas 6 stub\n"
        "link l1 1 10 c2p\nlink l2 1 20 c2p\nlink l3 10 99 c2p\nlink l4 20 99 c2p\n"
        "link l5 5 99 c2p\nlink l6 6 99 c2p\noriginate 1 10.1.0.0/16\n"
        "objective 1 5 10.1.0.0/16 l1\nobjective 1 6 10.1.0.0/16 l2\n"
    )
    s = parse_scenario(text)
    assert [w.pivot for w in common_upstream_check(s.topology, s.objectives)] == [99]
    t = parse_scenario(text.replace("link l1 1 10 c2p", "link l1 1 10 c2p down")).topology
    assert not t.link_by_id("l1").up
    assert gen.legal_announcement_paths(t, 1, "l2", 6) == [(1, 20, 99, 6)]
    assert common_upstream_check(t, s.objectives) == []
    assert common_upstream_check(t, s.objectives[::-1]) == []


def ladder_scenario(depth):
    """Stub 1 over l1 to AS 1000 and over l2 to AS 2000; layers i = 0..depth
    of two transit ASes, 1000+i and 2000+i, each a customer of both ASes of
    the next layer; stubs 5 and 6 below 1000+depth and 2000+depth.  Each
    objective has 2^(depth-1) legal paths, and no AS but AS 1 is on every
    path of both."""
    lines = ["as 1 stub", "as 5 stub", "as 6 stub"]
    lines += [f"as {base + i} transit" for i in range(depth + 1) for base in (1000, 2000)]
    links = [(1, 1000), (1, 2000)]
    links += [(a + i, b + i + 1) for i in range(depth) for a in (1000, 2000) for b in (1000, 2000)]
    links += [(5, 1000 + depth), (6, 2000 + depth)]
    lines += [f"link l{n} {a} {b} c2p" for n, (a, b) in enumerate(links, 1)]
    lines += ["originate 1 10.1.0.0/16", "objective 1 5 10.1.0.0/16 l1", "objective 1 6 10.1.0.0/16 l2"]
    return "\n".join(lines) + "\n"


def test_the_ladder_plans_without_listing_its_paths(tmp_path):
    """At depth 24 (53 ASes) each objective has 8,388,608 legal paths; the
    screen finds no witness without listing them, and the search ends as
    Exhausted."""
    path = tmp_path / "ladder.scn"
    path.write_text(ladder_scenario(24), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "bgpsteer.cli", "plan", "--scenario", str(path), "--out", str(tmp_path / "out")]
    started = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - started
    assert done.returncode == 4, done.stderr
    assert done.stdout == "status exhausted tried=4 max-actions=3\n"
    assert wall < 10, wall


def test_exhausted_when_budget_too_small():
    s = load("scenarios/dualprovider_sourceasn_objectives.scn")
    result = plan_inbound_te(s.topology, 65001, s.objectives, Budget(max_actions=1))
    assert isinstance(result, Exhausted)
    assert result.max_actions == 1


def test_an_objective_no_announcement_reaches_is_decided_after_the_baseline(monkeypatch):
    # 65103 is a customer of 400 alone, and no valley-free path of an
    # announcement over l1 (to 100) reaches 400: only 200 does.  The planner
    # gives the search's answer with no restricted run, after the baseline.
    calls = []
    real = planner.propagate_to_convergence

    def counted(*args, **kwargs):
        calls.append(kwargs.get("prefixes"))
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "propagate_to_convergence", counted)
    text = Path("scenarios/dualprovider_destprefix_objectives.scn").read_text(encoding="utf-8")
    s = parse_scenario(text.replace("objective 65001 * 10.2.0.0/16 l2", "objective 65001 65103 10.2.0.0/16 l1"))
    assert planner._reach(s.topology, 65001, "l1") == {100, 300, 65101, 65102, 65104}
    for max_actions in (0, 3, 40):
        calls.clear()
        result = plan_inbound_te(s.topology, 65001, s.objectives, Budget(max_actions))
        atoms = _build_atoms(s.topology, 65001, s.objectives)
        assert result == Exhausted(_consistent_sets(s.topology, 65001, atoms, max_actions), max_actions)
        assert calls == [None]


def test_a_walk_that_switches_prefix_can_enter_outside_the_reach_set():
    # AS 5 peers with AS 20, which passes it the /16 (learned from its
    # customer AS 1) but not the /17 (learned from its peer AS 10).  So AS 5
    # lies outside l1's reach set, yet once the /17 goes out over l1 alone
    # its traffic for the /17 follows the /16 to AS 20, switches to the /17
    # there, and enters over l1.  A group of two prefixes is searched.
    s = parse_scenario(
        "as 1 stub\nas 10 transit\nas 20 transit\nas 5 stub\n"
        "link l1 1 10 c2p\nlink l2 1 20 c2p\nlink l3 10 20 p2p\nlink l4 5 20 p2p\n"
        "originate 1 10.1.0.0/16\nobjective 1 5 10.1.0.0/17 l1\n"
    )
    t = s.topology
    assert planner._reach(t, 1, "l1") == {10, 20}
    result = plan_inbound_te(t, 1, s.objectives)
    assert [str(a) for a in result.actions] == ["advertise-more-specific 10.1.0.0/17 l1"]
    assert all(evaluate_plan(t, 1, result, s.objectives).satisfied)


def test_an_objective_outside_its_links_reach_is_met_by_no_action_set():
    # Soundness of the rule that decides a one-prefix group: each objective
    # it calls unmeetable, planned on its own, has no action set of at most
    # three actions that meets it under full runs judged by single-flow
    # walks.  Every other instance widens gen's (LP overrides, peerings,
    # covering and unrelated prefixes).
    rng = random.Random(2701)
    decided = {"source": 0, "*": 0}
    for i in range(400):
        make = rand_grouped_instance if i % 2 else gen.rand_planning_instance
        t, dest, objectives, _budget = make(rng)
        for o in objectives:
            if not gen.instance_is_plannable(t, dest, [o]):
                continue
            if len(next(g for g in _prefix_groups(t, [o]) if o.flow.dst_prefix in g)) != 1:
                continue
            if not planner._reach(t, dest, o.required_link).isdisjoint(_objective_sources(t, dest, o)):
                continue
            assert gen.exhaustive_plan_search(t, dest, [o], Budget(max_actions=3)) == (False, None)
            assert isinstance(plan_inbound_te(t, dest, [o], Budget(max_actions=3)), Exhausted)
            decided["source" if o.flow.src_asn is not None else "*"] += 1
    assert decided["source"] >= 25 and decided["*"] >= 8, decided


def test_te_config_from_actions_rejects_an_undeclared_destination():
    s = load("scenarios/dualprovider_baseline.scn")
    with pytest.raises(PlanningError) as err:
        te_config_from_actions(s.topology, 4242, [])
    assert err.value.args == ("unknown destination AS 4242",)


def test_te_config_from_actions_rejects_dangling_attachment():
    s = load("scenarios/dualprovider_baseline.scn")
    actions = [
        Action.withhold(P2, "l1"),
        Action.attach(P2, "l1", s.topology.catalogs[100].communities().__iter__().__next__()),
    ]
    assert te_config_from_actions(s.topology, 65001, actions) is None


C100 = Community(100, 50)  # in provider 100's catalog (link l1), not in 200's (l2)


@pytest.mark.parametrize(
    "path, actions",
    [
        ("dualprovider_baseline", [Action.withhold(P1, "l9")]),
        ("failover_morespecific_l1down", [Action.withhold(P1, "l1")]),
        ("dualprovider_baseline", [Action.withhold(P1, "l1"), Action.withhold(P1, "l1")]),
        ("dualprovider_baseline", [Action.advertise_more_specific(P1, "l1")]),
        ("dualprovider_baseline", [Action.advertise_more_specific(Prefix.parse("10.3.0.0/24"), "l1")]),
        ("dualprovider_baseline", [Action.set_med(P2, "l1", 10), Action.withhold(P2, "l1")]),
        ("dualprovider_baseline", [Action.attach(P1, "l2", C100)]),
        ("dualprovider_baseline", [Action.attach(P1, "l1", C100), Action.attach(P1, "l1", C100)]),
        ("dualprovider_baseline", [Action.set_med(P1, "l1", 10), Action.set_med(P1, "l1", 20)]),
    ],
    ids=[
        "unknown-link", "down-link", "second-withhold", "more-specific-of-an-origination",
        "more-specific-outside-dest", "med-on-a-withheld-key", "community-off-catalog",
        "community-twice", "two-meds",
    ],
)
def test_te_config_from_actions_rejects_each_inconsistency(path, actions):
    t = load(f"scenarios/{path}.scn").topology
    assert te_config_from_actions(t, 65001, actions) is None
    # Without its last action the set is consistent.
    assert te_config_from_actions(t, 65001, actions[:-1]) is not None


def test_te_config_from_actions_expands_withholds_then_more_specifics_then_attachments():
    t = load("scenarios/dualprovider_baseline.scn").topology
    t = Topology(t.roles, t.links, {65001: t.originated_by(65001) | {COVER}}, t.catalogs)
    # P1 lies inside the origination COVER, so once withheld on l1 it may be
    # announced there again as a more-specific, which a community then tags.
    actions = [
        Action.attach(P1, "l1", C100),
        Action.advertise_more_specific(P1, "l1"),
        Action.withhold(P1, "l1"),
    ]
    te = te_config_from_actions(t, 65001, actions)
    assert te is not None
    assert [(ad.communities, ad.med) for ad in te.advertisements if (ad.prefix, ad.link_id) == (P1, "l1")] == [
        (frozenset({C100}), None)
    ]
    # Without the withhold, the more-specific finds P1 already announced.
    assert te_config_from_actions(t, 65001, actions[1:2]) is None


def test_a_prefix_withheld_on_every_link_is_announced_nowhere():
    s = load("scenarios/dualprovider_baseline.scn")
    t = s.topology
    te = te_config_from_actions(t, 65001, [Action.withhold(P2, "l1"), Action.withhold(P2, "l2")])
    assert te.withheld == {(65001, P2)}
    assert {ad.prefix for ad in te.advertisements} == {P1}
    state = propagate_to_convergence(t, te)
    assert [asn for asn, rib in state.loc_rib.items() if P2 in rib] == [65001]
    baseline = ingress_map(propagate_to_convergence(t, s.te_config), t, 65001).entries
    got = ingress_map(state, t, 65001).entries
    assert {link for (_src, p), link in got.items() if p == P2} == {"unreachable"}
    assert {k: v for k, v in got.items() if k[1] == P1} == {k: v for k, v in baseline.items() if k[1] == P1}


def test_a_prefix_withheld_on_every_link_falls_back_to_its_cover():
    # 10.2.0.0/16 lies inside dest's 10.0.0.0/8, which stays announced on l1
    # only: its traffic follows the cover, so 65102 (behind l2 alone) loses it.
    s = parse_scenario(
        "as 65001 stub\nas 100 transit\nas 200 transit\nas 65101 stub\nas 65102 stub\n"
        "link l1 65001 100 c2p\nlink l2 65001 200 c2p\n"
        "link l3 65101 100 c2p\nlink l4 65102 200 c2p\n"
        "originate 65001 10.0.0.0/8\noriginate 65001 10.2.0.0/16\n"
    )
    t = s.topology
    actions = [Action.withhold(P2, "l1"), Action.withhold(P2, "l2"), Action.withhold(COVER, "l2")]
    te = te_config_from_actions(t, 65001, actions)
    assert te.withheld == {(65001, P2)}
    state = propagate_to_convergence(t, te)
    assert state.best_route(65101, P2).prefix == COVER
    assert state.best_route(65102, P2) is None
    assert all(P2 not in state.loc_rib[asn] for asn in (100, 200, 65101, 65102))
    entries = ingress_map(state, t, 65001).entries
    assert {src: entries[src, P2] for src in (100, 200, 65101, 65102)} == {
        100: "l1", 200: "unreachable", 65101: "l1", 65102: "unreachable"
    }


def test_te_config_from_actions_explicit_everything():
    s = load("scenarios/dualprovider_baseline.scn")
    te = te_config_from_actions(s.topology, 65001, [])
    assert te is not None
    assert len(te.advertisements) == 4  # 2 prefixes x 2 links, all explicit


def test_lp_override_flag_tags_plan():
    s = load("scenarios/dualprovider_baseline.scn")
    t = s.topology._replace(lp_overrides={(65101, 400): 300})
    objectives = (Objective(Flow(None, 65101, P1, 65001), "l1"),)
    result = plan_inbound_te(t, 65001, objectives)
    assert isinstance(result, Plan)
    assert result.lp_constraint_violated
    # The plan is judged under the overrides it was found under.
    assert evaluate_plan(t, 65001, result, objectives).satisfied == (True,)
    assert not plan_inbound_te(s.topology, 65001, objectives).lp_constraint_violated


def test_planner_and_evaluate_plan_reject_an_lp_override_on_an_undeclared_as():
    s = load("scenarios/dualprovider_sourceasn_objectives.scn")
    plan = plan_inbound_te(s.topology, 65001, s.objectives)
    bad = s.topology._replace(lp_overrides={(65001, 4242): 300})
    message = r"LP override references undeclared AS \(65001, 4242\)"
    with pytest.raises(TopologyError, match=message):
        plan_inbound_te(bad, 65001, s.objectives)
    with pytest.raises(TopologyError, match=message):
        evaluate_plan(bad, 65001, plan, s.objectives)


def test_evaluate_plan_reports_unsatisfied():
    s = load("scenarios/dualprovider_baseline.scn")
    objectives = (Objective(Flow(None, 65101, P2, 65001), "l2"),)
    empty = Plan((), None, ())
    report = evaluate_plan(s.topology, 65001, empty, objectives)
    assert report.satisfied == (False,)


def test_side_effect_completeness():
    # side effects + objective-demanded moves == the full stub-source diff
    from bgpsteer import diff_ingress, ingress_map, propagate_to_convergence, te_config_from_actions

    s = load("scenarios/deep_objectives.scn")
    result = plan_inbound_te(s.topology, 65001, s.objectives)
    assert isinstance(result, Plan)
    # re-simulating the actions reproduces the predicted map exactly
    te = te_config_from_actions(s.topology, 65001, result.actions)
    resim = ingress_map(propagate_to_convergence(s.topology, te), s.topology, 65001)
    assert resim == result.predicted_map
    baseline_te = te_config_from_actions(s.topology, 65001, [])
    baseline = ingress_map(propagate_to_convergence(s.topology, baseline_te), s.topology, 65001)
    moves = diff_ingress(baseline, result.predicted_map)
    stub_moves = {m for m in moves if s.topology.roles[m[0]] == "stub"}
    demanded = set()
    for m in stub_moves:
        for o in s.objectives:
            if o.flow.dst_prefix == m[1] and o.required_link == m[3]:
                if o.flow.src_asn is None or o.flow.src_asn == m[0]:
                    demanded.add(m)
    assert set(result.side_effects) | demanded == stub_moves
    assert not set(result.side_effects) & demanded


def test_planner_deterministic():
    s = load("scenarios/deep_objectives.scn")
    a = plan_inbound_te(s.topology, 65001, s.objectives)
    b = plan_inbound_te(s.topology, 65001, s.objectives)
    assert a == b


def test_random_planner_vs_exhaustive_sample():
    rng = random.Random(31)
    checked = 0
    for _ in range(120):
        t, dest, objectives, budget = gen.rand_planning_instance(rng)
        if not gen.instance_is_plannable(t, dest, objectives):
            continue
        checked += 1
        result = plan_inbound_te(t, dest, objectives, budget)
        sat, best_cost = gen.exhaustive_plan_search(t, dest, objectives, budget)
        if isinstance(result, Plan):
            assert sat
            assert plan_cost(t, dest, result.actions) == best_cost
            assert all(evaluate_plan(t, dest, result, objectives).satisfied)
        else:
            assert not sat
    assert checked > 60


# ---------------------------------------------------------------------------
# The per-group search against full re-simulation of every candidate
# ---------------------------------------------------------------------------

COVER = Prefix.parse("10.0.0.0/8")
ELSEWHERE = Prefix.parse("192.168.0.0/16")
P1_HALF = Prefix.parse("10.1.128.0/17")


def reference_plan(t, dest, objectives, budget):
    """Enumerate every action set, sort by plan_cost, and simulate each
    candidate over the whole topology until one meets every objective.
    Returns the result and how many candidates oscillated."""
    witnesses = common_upstream_check(t, objectives)
    if witnesses:
        return Infeasible(tuple(witnesses)), 0
    baseline_te = te_config_from_actions(t, dest, [])
    baseline_map = ingress_map(propagate_to_convergence(t, baseline_te), t, dest)
    atoms = _build_atoms(t, dest, objectives)
    sources = [_objective_sources(t, dest, o) for o in objectives]
    candidates = []
    for size in range(0, budget.max_actions + 1):
        for combo in itertools.combinations(atoms, size):
            candidates.append((plan_cost(t, dest, combo), combo))
    candidates.sort(key=lambda cv: cv[0])
    tried = oscillating = 0
    for _cost, combo in candidates:
        te = te_config_from_actions(t, dest, combo)
        if te is None:
            continue
        tried += 1
        try:
            state = propagate_to_convergence(t, te)
        except OscillationError:
            oscillating += 1
            continue
        if not all(
            _objective_satisfied(ForwardingTable(state, t, o.flow.dst_prefix, dest), o, s)
            for o, s in zip(objectives, sources)
        ):
            continue
        predicted = ingress_map(state, t, dest)
        actions = tuple(sorted(combo, key=Action.sort_key))
        side = _side_effects(t, objectives, baseline_map, predicted)
        return Plan(actions, predicted, side, bool(t.lp_overrides)), oscillating
    return Exhausted(tried, budget.max_actions), oscillating


def rand_grouped_instance(rng):
    """A five-AS planning instance from gen, widened so that its prefixes
    form several groups: two originated prefixes, and sometimes a
    more-specific objective, a covering 10.0.0.0/8 (the destination's own or
    another AS's), an unrelated prefix, and a peering between the providers
    with LP overrides that can make candidates oscillate."""
    t, dest, objectives, budget = gen.rand_planning_instance(rng)
    others = [a for a in t.ases() if a != dest]
    originations = {dest: frozenset({P1, P2})}
    if rng.random() < 0.5:
        owner = dest if rng.random() < 0.5 else rng.choice(others)
        originations[owner] = originations.get(owner, frozenset()) | {COVER}
    if rng.random() < 0.5:
        owner = rng.choice(others)
        originations[owner] = originations.get(owner, frozenset()) | {ELSEWHERE}
    links = list(t.links)
    p1, p2 = (t.link_by_id(l).other(dest) for l in ("l1", "l2"))
    peered = p1 != p2 and not any({p1, p2} == set(l.endpoints()) for l in links)
    lp_overrides = {}
    if peered and rng.random() < 0.6:
        links.append(Link(f"l{len(links) + 1}", p1, p2, None))
        if rng.random() < 0.7:
            lp_overrides[rng.choice([(p1, p2), (p2, p1)])] = rng.choice([150, 250])
    objectives = list(objectives)
    if rng.random() < 0.4:
        src = rng.choice([a for a in others if t.roles[a] == "stub"] + [None])
        objectives.append(Objective(Flow(None, src, P1_HALF, dest), rng.choice(["l1", "l2"])))
    t = Topology(t.roles, tuple(links), originations, t.catalogs, lp_overrides)
    return t, dest, objectives, budget


def test_planner_matches_full_resimulation_of_every_candidate():
    rng = random.Random(4242)
    kinds = dict.fromkeys(
        ["plan", "overridden plan", "exhausted", "oscillating", "more-specific", "own cover", "other cover"],
        0,
    )
    for _ in range(70):
        t, dest, objectives, budget = rand_grouped_instance(rng)
        if not gen.instance_is_plannable(t, dest, objectives):
            continue
        try:
            expected, oscillating = reference_plan(t, dest, objectives, budget)
        except OscillationError as exc:
            with pytest.raises(OscillationError) as err:
                plan_inbound_te(t, dest, objectives, budget)
            assert str(err.value) == str(exc)
            continue
        got = plan_inbound_te(t, dest, objectives, budget)
        assert got == expected
        if isinstance(expected, Plan):
            assert got.predicted_map.to_csv() == expected.predicted_map.to_csv()
            assert all(evaluate_plan(t, dest, got, objectives).satisfied)
            kinds["plan"] += 1
            kinds["overridden plan"] += bool(t.lp_overrides)
        elif isinstance(expected, Exhausted):
            assert got.candidates_tried == expected.candidates_tried
            kinds["exhausted"] += 1
        kinds["oscillating"] += oscillating > 0
        kinds["own cover"] += COVER in t.originated_by(dest)
        kinds["other cover"] += any(COVER in ps for a, ps in t.originations.items() if a != dest)
        kinds["more-specific"] += any(o.flow.dst_prefix == P1_HALF for o in objectives)
    assert all(n >= 3 for n in kinds.values()) and kinds["overridden plan"] >= 10, kinds


def test_withheld_prefix_falls_back_to_the_destination_cover():
    # 65102 reaches 65001 only over l2.  Withholding 10.2.0.0/16 there sends
    # its traffic along 10.0.0.0/8, still over l2; only withholding both meets
    # the objective (unreachable sources do not count against it).  The
    # sibling 10.1.0.0/16 puts a prefix between the two in prefix order.
    s = parse_scenario(
        "as 65001 stub\nas 100 transit\nas 200 transit\nas 65101 stub\nas 65102 stub\n"
        "link l1 65001 100 c2p\nlink l2 65001 200 c2p\n"
        "link l3 65101 100 c2p\nlink l4 65102 200 c2p\n"
        "originate 65001 10.0.0.0/8\noriginate 65001 10.1.0.0/16\noriginate 65001 10.2.0.0/16\n"
        "objective 65001 * 10.2.0.0/16 l1\n"
    )
    budget = Budget(max_actions=2)
    expected, _ = reference_plan(s.topology, 65001, s.objectives, budget)
    got = plan_inbound_te(s.topology, 65001, s.objectives, budget)
    assert got == expected
    assert [str(a) for a in got.actions] == ["withhold 10.0.0.0/8 l2", "withhold 10.2.0.0/16 l2"]


# ---------------------------------------------------------------------------
# Search cost, tight budgets and computed counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, limit",
    [("dualprovider_destprefix_objectives", 100), ("dualprovider_sourceasn_objectives", 120)],
)
def test_planner_propagations_on_the_36_atom_goldens(monkeypatch, name, limit):
    # Each group with objectives judges its own parts in ascending cost and
    # stops at its cheapest satisfying one.
    calls = []
    real = planner.propagate_to_convergence

    def counted(*args, **kwargs):
        calls.append(kwargs.get("prefixes"))
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "propagate_to_convergence", counted)
    s = load(f"scenarios/{name}.scn")
    assert isinstance(plan_inbound_te(s.topology, 65001, s.objectives), Plan)
    assert len(calls) <= limit
    assert calls[0] is None and all(prefixes is not None for prefixes in calls[1:])


def rand_two_prefix_instance(rng):
    """A rand_grouped_instance with objectives on both 10.1/16 and 10.2/16."""
    t, dest, objectives, _budget = rand_grouped_instance(rng)
    stubs = [a for a in t.ases() if a != dest and t.roles[a] == "stub"]
    have = {o.flow.dst_prefix for o in objectives}
    objectives += [
        Objective(Flow(None, rng.choice(stubs + [None]), p, dest), rng.choice(["l1", "l2"]))
        for p in (P1, P2) if p not in have
    ]
    return t, dest, objectives


def test_the_search_judges_parts_in_cost_order_and_groups_find_their_first_in_turn(monkeypatch):
    # Over rand_grouped_instances with objectives on both 10.1/16 and 10.2/16,
    # every restricted run the planner makes is one judged part.  Each
    # group's judged costs strictly ascend; no group with a satisfying part
    # is judged while another searched group has none; and a group without
    # one is judged only once every searched group whose first objective
    # comes earlier has one.
    runs = []  # per run of the current call: (group, actions, state or None)
    real_te, real_run = planner.te_config_from_actions, planner.propagate_to_convergence
    last_actions = []

    def te_config(t, dest, actions):
        last_actions[:] = actions
        return real_te(t, dest, actions)

    def run(t, te, **kwargs):
        state = None
        try:
            state = real_run(t, te, **kwargs)
        finally:  # an oscillating part is judged too
            if kwargs.get("prefixes") is not None:
                runs.append((kwargs["prefixes"], tuple(last_actions), state))
        return state

    monkeypatch.setattr(planner, "te_config_from_actions", te_config)
    monkeypatch.setattr(planner, "propagate_to_convergence", run)
    rng = random.Random(3131)
    two_groups = 0
    for i in range(400):
        t, dest, objectives = rand_two_prefix_instance(rng)
        groups = _prefix_groups(t, objectives)
        first = {}  # group with objectives: the index of its first objective
        for k, o in enumerate(objectives):
            first.setdefault(next(g for g in groups if o.flow.dst_prefix in g), k)
        if len(first) < 2 or not gen.instance_is_plannable(t, dest, objectives):
            continue  # one group (a covering 10.0.0.0/8 joins them), or invalid objectives
        runs.clear()
        try:
            plan_inbound_te(t, dest, objectives, Budget(2 + i % 2))
        except OscillationError:
            continue  # the baseline oscillates
        searched = sorted({g for g, _actions, _state in runs}, key=first.__getitem__)
        two_groups += len(searched) == 2
        met, last = set(), {}
        for g, actions, state in runs:
            cost = plan_cost(t, dest, actions)
            assert g not in last or last[g] < cost
            last[g] = cost
            if g in met:
                assert met == set(searched)
            else:
                assert met >= set(searched[: searched.index(g)])
                if state is not None and all(
                    gen.objective_holds(state, t, dest, o) for o in objectives if o.flow.dst_prefix in g
                ):
                    met.add(g)
    assert two_groups >= 20, two_groups


def test_two_unmet_groups_match_the_exhaustive_search(monkeypatch):
    # Instances whose baseline leaves two groups unmet, at budgets that
    # leave each group at least one action.  A Plan costs what the cheapest
    # satisfying action set in the exhaustive search costs; an Exhausted
    # counts every consistent action set, none of which satisfies.
    judged = []  # the prefixes of each restricted run of the current call
    real_run = planner.propagate_to_convergence

    def run(t, te, **kwargs):
        if kwargs.get("prefixes") is not None:
            judged.append(kwargs["prefixes"])
        return real_run(t, te, **kwargs)

    monkeypatch.setattr(planner, "propagate_to_convergence", run)
    rng = random.Random(9191)
    kinds = dict.fromkeys(["plan", "exhausted", "judges two groups"], 0)
    for i in range(400):
        t, dest, objectives = rand_two_prefix_instance(rng)
        if not gen.instance_is_plannable(t, dest, objectives) or common_upstream_check(t, objectives):
            continue
        try:
            baseline = propagate_to_convergence(t, te_config_from_actions(t, dest, []))
        except OscillationError:
            continue
        unmet = {
            g for g in _prefix_groups(t, objectives) for o in objectives
            if o.flow.dst_prefix in g and not gen.objective_holds(baseline, t, dest, o)
        }
        if len(unmet) != 2:
            continue
        budget = Budget(2 + i % 2)  # cap = budget - 1 >= 1
        judged.clear()
        got = plan_inbound_te(t, dest, objectives, budget)
        sat, best_cost = gen.exhaustive_plan_search(t, dest, objectives, budget)
        if isinstance(got, Plan):
            assert sat and plan_cost(t, dest, got.actions) == best_cost
            kinds["plan"] += 1
        else:
            assert isinstance(got, Exhausted) and not sat
            atoms = _build_atoms(t, dest, objectives)
            assert got.candidates_tried == brute_force_consistent_counts(t, dest, atoms, budget.max_actions)[-1]
            kinds["exhausted"] += 1
        kinds["judges two groups"] += len(set(judged)) == 2
    assert kinds["plan"] >= 10 and kinds["exhausted"] >= 5 and kinds["judges two groups"] >= 20, kinds


P3 = Prefix.parse("10.3.0.0/16")


def rand_three_group_instance(rng):
    """A five-AS planning instance from gen whose destination originates
    three unrelated prefixes, two of which carry objectives.  When a loose
    budget finds a plan, the budget is one action short of it; `split` says
    whether that plan acts on both groups, so that the cheapest part of one
    no longer combines with the other's."""
    t, dest, _objectives, _budget = gen.rand_planning_instance(rng)
    t = Topology(t.roles, t.links, {dest: frozenset({P1, P2, P3})}, t.catalogs)
    sources = [a for a in t.ases() if a != dest and t.roles[a] == "stub"]
    objectives = []
    for prefix in rng.sample([P1, P2, P3], 2):
        for _ in range(rng.randint(1, 2)):
            src = rng.choice(sources + [None])
            objectives.append(Objective(Flow(None, src, prefix, dest), rng.choice(["l1", "l2"])))
    budget, split = Budget(max_actions=2), False
    if gen.instance_is_plannable(t, dest, objectives):
        loose = plan_inbound_te(t, dest, objectives, Budget(max_actions=4))
        if isinstance(loose, Plan) and loose.actions:
            budget = Budget(max_actions=len(loose.actions) - 1)
            split = len({a.prefix for a in loose.actions}) == 2
    return t, dest, objectives, budget, split


def test_three_groups_under_tight_budgets_match_full_resimulation():
    rng = random.Random(6161)
    kinds = dict.fromkeys(["plan", "exhausted", "split plan cut short"], 0)
    for _ in range(60):
        t, dest, objectives, budget, split = rand_three_group_instance(rng)
        if not gen.instance_is_plannable(t, dest, objectives):
            continue
        expected, _oscillating = reference_plan(t, dest, objectives, budget)
        got = plan_inbound_te(t, dest, objectives, budget)
        assert got == expected
        if isinstance(expected, Plan):
            assert got.predicted_map.to_csv() == expected.predicted_map.to_csv()
            kinds["plan"] += 1
        elif isinstance(expected, Exhausted):
            assert got.candidates_tried == expected.candidates_tried
            kinds["exhausted"] += 1
        kinds["split plan cut short"] += split
    assert all(n >= 3 for n in kinds.values()), kinds


def test_tight_budget_trades_a_cheaper_part_for_a_smaller_one():
    # Three links to one provider: pushing 65101 onto l3 takes a MED on l1
    # and on l2 (cost 2), or, for the /17, one more-specific on l3 (cost 2,
    # but it sorts after the MEDs).  192.168.0.0/16 is a third group without
    # objectives.  Budget 4 takes both groups' cheapest parts; budget 3 must
    # take the /17's larger-cost single action; budget 2 cannot meet both.
    s = parse_scenario(
        "as 65001 stub\nas 100 transit\nas 65101 stub\n"
        "link l1 65001 100 c2p\nlink l2 65001 100 c2p\nlink l3 65001 100 c2p\n"
        "link l4 65101 100 c2p\n"
        "originate 65001 10.1.0.0/16\noriginate 65001 10.2.0.0/16\n"
        "originate 65101 192.168.0.0/16\n"
        "objective 65001 65101 10.1.128.0/17 l3\nobjective 65001 65101 10.2.0.0/16 l3\n"
    )
    results = {}
    for n in (2, 3, 4):
        expected, _ = reference_plan(s.topology, 65001, s.objectives, Budget(n))
        got = results[n] = plan_inbound_te(s.topology, 65001, s.objectives, Budget(n))
        assert got == expected
    assert isinstance(results[2], Exhausted)
    assert [str(a) for a in results[3].actions] == [
        "set-med 10.2.0.0/16 l1 10",
        "set-med 10.2.0.0/16 l2 10",
        "advertise-more-specific 10.1.128.0/17 l3",
    ]
    assert [str(a) for a in results[4].actions] == [
        "set-med 10.1.0.0/16 l1 10",
        "set-med 10.1.0.0/16 l2 10",
        "set-med 10.2.0.0/16 l1 10",
        "set-med 10.2.0.0/16 l2 10",
    ]


def brute_force_consistent_counts(t, dest, atoms, max_actions):
    """Consistent action sets of at most n atoms, for n = 0..max_actions."""
    counts, total = [], 0
    for n in range(max_actions + 1):
        total += sum(
            te_config_from_actions(t, dest, combo) is not None
            for combo in itertools.combinations(atoms, n)
        )
        counts.append(total)
    return counts


def test_candidates_tried_counts_every_consistent_action_set():
    # _consistent_sets applies the per-key rule to each key's combinations;
    # the reference expands every whole action set.  Keys with MED atoms
    # (two links to one provider) and with more-specific atoms put the rule
    # to work on every kind of atom.
    cases = [load(p) for p in OBJECTIVE_GOLDENS if "dualprovider" not in p.stem]
    cases = [(s.topology, s.objectives[0].flow.dst_asn, s.objectives) for s in cases]
    rng = random.Random(77)
    while len(cases) < 15:
        t, dest, objectives, _budget = rand_grouped_instance(rng)
        if gen.instance_is_plannable(t, dest, objectives):
            cases.append((t, dest, objectives))
    keys_with = {kind: set() for kind in ActionKind}
    for case, (t, dest, objectives) in enumerate(cases):
        atoms = _build_atoms(t, dest, objectives)
        for a in atoms:
            keys_with[a.kind].add((case, a.prefix, a.link_id))
        expected = brute_force_consistent_counts(t, dest, atoms, 4)
        assert [_consistent_sets(t, dest, atoms, n) for n in range(5)] == expected
    assert len(keys_with[ActionKind.SET_MED]) >= 10, keys_with
    assert len(keys_with[ActionKind.ADVERTISE_MORE_SPECIFIC]) >= 5, keys_with
    # ... and through the planner: a budget of 1 is too small here.
    s = load("scenarios/dualprovider_sourceasn_objectives.scn")
    result = plan_inbound_te(s.topology, 65001, s.objectives, Budget(max_actions=1))
    atoms = _build_atoms(s.topology, 65001, s.objectives)
    assert result.candidates_tried == brute_force_consistent_counts(s.topology, 65001, atoms, 1)[1]


OBJECTIVE_GOLDENS = sorted(
    p for p in Path("scenarios").glob("*.scn") if "\nobjective " in p.read_text(encoding="utf-8")
)


@pytest.mark.parametrize("path", OBJECTIVE_GOLDENS, ids=lambda p: p.stem)
def test_enumeration_costs_equal_plan_cost(path):
    # Each group's lazily generated parts: every non-empty set of the
    # group's atoms up to the budget, once each, in ascending plan_cost.
    s = load(path)
    dest = s.objectives[0].flow.dst_asn
    atoms = _build_atoms(s.topology, dest, s.objectives)
    weights = [a.kind.weight for a in atoms]
    prepends = [_prepend_amount(s.topology, dest, a) for a in atoms]
    budget = Budget().max_actions
    for group in _prefix_groups(s.topology, s.objectives):
        members = [i for i, a in enumerate(atoms) if a.prefix in group]
        parts = _Parts(members, weights, prepends, budget)
        costed = []
        while parts.peek() is not None:
            costed.append(parts.pop())
        assert len(costed) == sum(math.comb(len(members), k) for k in range(1, budget + 1))
        assert len(set(costed)) == len(costed)
        for weight, prepend, indices in costed:
            assert set(indices) <= set(members)
            expected = plan_cost(s.topology, dest, [atoms[i] for i in indices])
            assert (weight, prepend, tuple(atoms[i].sort_key() for i in indices)) == expected
        assert costed == sorted(costed)


def off_atom_actions(t, dest):
    """Actions _build_atoms never generates: on unknown and down links,
    more-specifics of originated prefixes and outside dest's space, any
    catalog's communities and one in none, and a third MED value."""
    stray = Community(65535, 7)
    communities = {c for cat in t.catalogs.values() for c in cat.communities()} | {stray}
    up = sorted(l.id for l in t.up_links_of(dest))
    down = sorted(l.id for l in t.links if not l.up and dest in l.endpoints())
    actions = []
    for p in sorted(t.originated_by(dest), key=Prefix.sort_key):
        for link_id in up + down + ["no-such-link"]:
            actions += [Action.withhold(p, link_id), Action.advertise_more_specific(p, link_id)]
            actions += [Action.set_med(p, link_id, 30)]
            actions += [Action.attach(p, link_id, c) for c in sorted(communities, key=Community.sort_key)]
        for link_id in up:
            actions.append(Action.advertise_more_specific(ELSEWHERE, link_id))
            if p.length < 32:
                half = Prefix(p.base, p.length + 1)
                actions += [Action.advertise_more_specific(half, link_id), Action.set_med(half, link_id, 10)]
    return actions


def per_key_advertisements(t, dest, actions):
    """te_config_from_actions applied to each (prefix, link) key's actions on
    their own: None when some key's actions are inconsistent, else the
    baseline advertisements with each acted-on key's own result in place."""
    by_key = {}
    for a in actions:
        by_key.setdefault((a.prefix, a.link_id), []).append(a)
    ads = {(ad.prefix, ad.link_id): ad for ad in te_config_from_actions(t, dest, []).advertisements}
    for key, key_actions in by_key.items():
        te = te_config_from_actions(t, dest, key_actions)
        if te is None:
            return None
        ads.pop(key, None)
        ads.update({key: ad for ad in te.advertisements if (ad.prefix, ad.link_id) == key})
    return tuple(ads[key] for key in sorted(ads, key=lambda k: (k[0].sort_key(), k[1])))


def reference_atoms(t, dest, objectives):
    """Every single action on dest's up links, built one (prefix, link) key
    at a time and then sorted by Action.sort_key."""
    links = sorted(t.up_links_of(dest), key=lambda l: l.id)
    providers = [l.other(dest) for l in links]
    origs = sorted(t.originated_by(dest))
    atoms = []
    for p in origs:
        for l in links:
            atoms.append(Action.withhold(p, l.id))
            cat = t.catalogs.get(l.other(dest))
            atoms += [Action.attach(p, l.id, c) for c in (cat.communities() if cat else ())]
            if providers.count(l.other(dest)) >= 2:
                atoms += [Action.set_med(p, l.id, 10), Action.set_med(p, l.id, 20)]
    for sp in sorted({o.flow.dst_prefix for o in objectives} - set(origs)):
        atoms += [Action.advertise_more_specific(sp, l.id) for l in links]
    return sorted(atoms, key=Action.sort_key)


def grouped_instances(rng, n):
    """The objective goldens, then seeded grouped instances with a down link
    at the destination, up to n in all."""
    instances = []
    for path in OBJECTIVE_GOLDENS:
        s = load(path)
        instances.append((s.topology, s.objectives[0].flow.dst_asn, s.objectives))
    while len(instances) < n:
        t, dest, objectives, _budget = rand_grouped_instance(rng)
        provider = t.link_by_id("l1").other(dest)
        down = Link(f"l{len(t.links) + 1}", dest, provider, dest, up=False)
        t = Topology(t.roles, t.links + (down,), t.originations, t.catalogs)
        instances.append((t, dest, objectives))
    return instances


def test_build_atoms_lists_every_single_action_in_sort_key_order():
    # The search's costs compare atom indices, so the order is load-bearing.
    for t, dest, objectives in grouped_instances(random.Random(8081), 40):
        atoms = _build_atoms(t, dest, objectives)
        assert atoms == reference_atoms(t, dest, objectives)
        assert all(type(a) is Action for a in atoms)


def test_compiled_atoms_prepends_costs_and_sources_match_a_reference():
    # `_origin` compiles the community and MED atoms, their prepend counts
    # and the stub sources once per (topology, destination); the withhold
    # and more-specific atoms are built per plan.  The
    # reference derives them here from the sessions and catalogs alone.
    rng = random.Random(6271)
    instances = [(s.topology, s.objectives[0].flow.dst_asn, s.objectives) for s in map(load, OBJECTIVE_GOLDENS)]
    while len(instances) < len(OBJECTIVE_GOLDENS) + 300:
        t, dest, objectives, _budget = gen.rand_planning_instance(rng)
        if rng.random() < 0.3:  # one more objective, on a more-specific
            o = objectives[0]
            half = Prefix(o.flow.dst_prefix.base, o.flow.dst_prefix.length + 1)
            objectives = [*objectives, Objective(Flow(None, o.flow.src_asn, half, dest), o.required_link)]
        instances.append((t, dest, objectives))
    with_med = with_prepend = with_more_specific = 0
    for t, dest, objectives in instances:
        sessions = t.sessions[dest].all
        neighbors = [s.neighbor for s in sessions]
        originated = t.originated_by(dest)
        prepend_of = {}
        for p in originated:
            for s in sessions:
                prepend_of[Action.withhold(p, s.link_id)] = 0
                cat = t.catalogs.get(s.neighbor)
                for c in cat.communities() if cat else ():
                    rule = cat.prepend_rules.get(c)
                    prepend_of[Action.attach(p, s.link_id, c)] = rule[1] if rule else 0
                if neighbors.count(s.neighbor) > 1:
                    for med in (10, 20):
                        prepend_of[Action.set_med(p, s.link_id, med)] = 0
        for o in objectives:
            if o.flow.dst_prefix not in originated:
                for s in sessions:
                    prepend_of[Action.advertise_more_specific(o.flow.dst_prefix, s.link_id)] = 0
        expected = sorted(prepend_of, key=Action.sort_key)
        atoms = _build_atoms(t, dest, objectives)
        assert atoms == expected
        assert _prepend_counts(t, dest, atoms) == [prepend_of[a] for a in atoms]
        with_med += any(a.kind is ActionKind.SET_MED for a in atoms)
        with_prepend += any(prepend_of.values())
        with_more_specific += any(a.kind is ActionKind.ADVERTISE_MORE_SPECIFIC for a in atoms)
        for _ in range(5):
            chosen = rng.sample(atoms, min(len(atoms), rng.randint(1, 3)))
            assert plan_cost(t, dest, chosen) == (
                sum(a.kind.weight for a in chosen),
                sum(prepend_of[a] for a in chosen),
                tuple(sorted(a.sort_key() for a in chosen)),
            )
        stubs = tuple(sorted(a for a, role in t.roles.items() if role == "stub" and a != dest))
        for o in objectives:
            src = o.flow.src_asn
            assert _objective_sources(t, dest, o) == (stubs if src is None else (src,))
    assert with_med >= 50 and with_prepend >= 200 and with_more_specific >= 50, (
        with_med, with_prepend, with_more_specific
    )


def test_te_config_from_actions_ignores_the_order_of_its_actions():
    # It expands in phase order only: within a phase each action reads its
    # own (prefix, link) key, so no order of one action list may change the
    # result, and the advertisements always come out sorted by key.
    rng = random.Random(6007)
    outcomes = {True: 0, False: 0}
    for t, dest, objectives in grouped_instances(rng, 40):
        by_key = {}
        for a in _build_atoms(t, dest, objectives) + off_atom_actions(t, dest):
            by_key.setdefault((a.prefix, a.link_id), []).append(a)
        keys = sorted(by_key)
        for _ in range(30):
            actions = [
                a
                for key in rng.sample(keys, rng.randint(1, min(2, len(keys))))
                for a in rng.sample(by_key[key], rng.randint(1, min(3, len(by_key[key]))))
            ][:5]
            te, *others = [te_config_from_actions(t, dest, order) for order in itertools.permutations(actions)]
            assert all(other == te for other in others), actions
            outcomes[te is None] += 1
            if te is not None:
                keys_out = [(ad.prefix, ad.link_id) for ad in te.advertisements]
                assert keys_out == sorted(set(keys_out)), actions
    assert min(outcomes.values()) >= 200, outcomes


def test_te_config_from_actions_checks_each_key_on_its_own():
    # _consistent_sets counts consistent sets key by key, and the planner's
    # per-group search relies on the same per-key rule.
    rng = random.Random(4099)
    instances = grouped_instances(rng, 40)
    outcomes = {True: 0, False: 0}
    for t, dest, objectives in instances:
        atoms = _build_atoms(t, dest, objectives)
        pools = []
        for actions in (atoms, atoms + off_atom_actions(t, dest)):
            by_key = {}
            for a in actions:
                by_key.setdefault((a.prefix, a.link_id), []).append(a)
            pools.append((by_key, sorted(by_key, key=lambda k: (k[0].sort_key(), k[1]))))
        for _ in range(150):
            by_key, keys = rng.choice(pools)
            actions = [
                rng.choice(by_key[key])
                for key in rng.sample(keys, rng.randint(1, min(3, len(keys))))
                for _ in range(rng.randint(1, 3))
            ]
            rng.shuffle(actions)
            te = te_config_from_actions(t, dest, actions)
            expected = per_key_advertisements(t, dest, actions)
            assert (te is None) == (expected is None), actions
            if te is not None:
                assert te.advertisements == expected, actions
            outcomes[te is None] += 1
    assert min(outcomes.values()) >= 500, outcomes


# ---------------------------------------------------------------------------
# A baseline that meets every objective
# ---------------------------------------------------------------------------


def test_a_baseline_that_meets_every_objective_is_simulated_once_per_call(monkeypatch):
    # The planner answers the empty plan from its baseline run and that
    # run's ingress map, with no atoms built, and evaluate_plan re-checks
    # that plan with one run and no ingress map, since it has no side
    # effects to diff.  Both answers equal the reference built here from
    # two separate full runs: the planner's predicted map rebuilt from the
    # baseline's entries and diffed against them, and the re-check's side
    # effects diffed against a second run of the baseline.
    runs, maps, atoms = [], [], []
    real_run, real_map, real_atoms = planner.propagate_to_convergence, planner.ingress_map, planner._build_atoms

    def run(t, te, **kwargs):
        runs.append(kwargs.get("prefixes"))
        return real_run(t, te, **kwargs)

    def counted_map(*args):
        maps.append(args)
        return real_map(*args)

    def counted_atoms(*args):
        atoms.append(args)
        return real_atoms(*args)

    monkeypatch.setattr(planner, "propagate_to_convergence", run)
    monkeypatch.setattr(planner, "ingress_map", counted_map)
    monkeypatch.setattr(planner, "_build_atoms", counted_atoms)
    rng = random.Random(2323)
    met = 0
    for _ in range(160):
        t, dest, objectives, budget = gen.rand_planning_instance(rng)
        if not gen.instance_is_plannable(t, dest, objectives) or common_upstream_check(t, objectives):
            continue
        baseline = te_config_from_actions(t, dest, [])
        first, second = propagate_to_convergence(t, baseline), propagate_to_convergence(t, baseline)
        sources = [_objective_sources(t, dest, o) for o in objectives]
        satisfied = tuple(
            _objective_satisfied(ForwardingTable(first, t, o.flow.dst_prefix, dest), o, s)
            for o, s in zip(objectives, sources)
        )
        if not all(satisfied):
            continue
        met += 1
        base_map, new_map = ingress_map(second, t, dest), ingress_map(first, t, dest)
        predicted = IngressMap(dest, dict(new_map.entries))
        expected_plan = Plan((), predicted, _side_effects(t, objectives, new_map, predicted), bool(t.lp_overrides))
        expected_report = EvaluationReport(
            satisfied, _side_effects(t, objectives, base_map, new_map), first.rounds_used
        )

        del runs[:], maps[:]
        got = plan_inbound_te(t, dest, objectives, budget)
        assert runs == [None] and len(maps) == 1 and atoms == []
        assert got == expected_plan
        assert got.predicted_map.to_csv() == new_map.to_csv()

        del runs[:], maps[:]
        report = evaluate_plan(t, dest, got, objectives)
        assert runs == [None] and maps == []
        assert report == expected_report
    assert met >= 30, met
