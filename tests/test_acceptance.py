"""Acceptance criteria, one test per criterion, one printed verdict line each.

Criterion 9's randomized suites are seeded and sized at 1000 cases apiece;
their wall-clock total is asserted below 60 seconds at the end.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import random
import time

import pytest

import gen
from bgpsteer import (
    ActionKind,
    Infeasible,
    Plan,
    Prefix,
    SAME_PROVIDER,
    evaluate_plan,
    ingress_map,
    parse_scenario,
    plan_inbound_te,
    propagate_to_convergence,
    resolve_forwarding,
)
from bgpsteer.planner import plan_cost
from bgpsteer.routes import best_of, prepend_path
from bgpsteer.topology import LOCAL

P1 = Prefix.parse("10.1.0.0/16")
P2 = Prefix.parse("10.2.0.0/16")
P1SUB = Prefix.parse("10.1.128.0/17")

_suite_times: dict[str, float] = {}


def verdict(n: str, name: str, ok: bool, extra: str = "") -> None:
    tail = f" ({extra})" if extra else ""
    print(f"{'PASS' if ok else 'FAIL'}  criterion {n}: {name}{tail}")
    assert ok, f"criterion {n}: {name}"


def run_scenario(path: str):
    s = parse_scenario(open(path).read())
    return s, propagate_to_convergence(s.topology, s.te_config)


def timed(name: str):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            _suite_times[name] = time.perf_counter() - self.t0

    return _Timer()


def test_criterion_1_dualprovider_baseline_ingress_map():
    t0 = time.perf_counter()
    s, state = run_scenario("scenarios/dualprovider_baseline.scn")
    m = ingress_map(state, s.topology, 65001)
    elapsed = time.perf_counter() - t0
    expected = {
        (65101, P1): "l1",
        (65101, P2): "l1",
        (65102, P1): "l2",
        (65102, P2): "l2",
    }
    got = {k: v for k, v in m.entries.items() if k[0] in (65101, 65102)}
    ok = got == expected and elapsed < 1.0
    verdict("1", "dual-provider baseline ingress map", ok, f"{elapsed * 1000:.0f} ms")


def test_criterion_2_dest_prefix_prepend_paths_verbatim():
    s, state = run_scenario("scenarios/dualprovider_prepend_p2.scn")
    best_p2 = state.selected(65101, P2)
    best_p1 = state.selected(65101, P1)
    rejected = {r.as_path for r in state.candidates(65101, P2)}
    ok = (
        best_p2.as_path == (400, 200, 65001)
        and best_p1.as_path == (100, 65001)
        and (100, 100, 100, 65001) in rejected
    )
    verdict("2", "prepended candidate rejected verbatim", ok)


def test_criterion_3_lp_communities_split_and_flip():
    s, state = run_scenario("scenarios/singleprovider_lp_pair.scn")
    m = ingress_map(state, s.topology, 65001)
    straight = all(
        m.entries[(src, P1)] == "l1" and m.entries[(src, P2)] == "l2"
        for src in (100, 300, 65101, 65102)
    )
    sf, statef = run_scenario("scenarios/singleprovider_lp_pair_flipped.scn")
    mf = ingress_map(statef, sf.topology, 65001)
    flipped = all(
        mf.entries[(src, P1)] == "l2" and mf.entries[(src, P2)] == "l1"
        for src in (100, 300, 65101, 65102)
    )
    verdict("3", "LP communities split prefixes and flip symmetrically", straight and flipped)


def test_criterion_4_source_asn_plan():
    s = parse_scenario(open("scenarios/dualprovider_sourceasn_objectives.scn").read())
    result = plan_inbound_te(s.topology, 65001, s.objectives)
    ok = isinstance(result, Plan)
    if ok:
        attachments = {(str(a.prefix), a.link_id, str(a.community)) for a in result.actions}
        ok = (
            len(result.actions) == 2
            and all(a.kind is ActionKind.ATTACH_COMMUNITY for a in result.actions)
            and attachments == {("10.2.0.0/16", "l1", "100:12"), ("10.2.0.0/16", "l2", "200:22")}
            and result.side_effects == ()
        )
        report = evaluate_plan(s.topology, 65001, result, s.objectives)
        ok = ok and report.satisfied == (True, True, True, True)
    verdict("4", "source-ASN plan: two prepend attachments, no side effects", ok)


def test_criterion_5_deep_topology_side_effects():
    s = parse_scenario(open("scenarios/deep_objectives.scn").read())
    result = plan_inbound_te(s.topology, 65001, s.objectives)
    ok = isinstance(result, Plan)
    if ok:
        report = evaluate_plan(s.topology, 65001, result, s.objectives)
        ok = all(report.satisfied) and set(result.side_effects) == {
            (65102, P2, "l1", "l2"),
            (65103, P2, "l1", "l2"),
        }
    verdict("5", "deep topology: objectives met, side effects exactly S2/S3", ok)


def test_criterion_6_infeasibility_witnesses():
    s3 = parse_scenario(open("scenarios/singleprovider_split_objectives.scn").read())
    r3 = plan_inbound_te(s3.topology, 65001, s3.objectives)
    same = isinstance(r3, Infeasible) and [w.pivot for w in r3.witnesses] == [SAME_PROVIDER]
    st = parse_scenario(open("scenarios/tier1_pivot.scn").read())
    rt = plan_inbound_te(st.topology, 65001, st.objectives)
    pivot = isinstance(rt, Infeasible) and [w.pivot for w in rt.witnesses] == [600]
    verdict("6", "same-provider and tier-1 pivot witnesses", same and pivot)


def test_criterion_7_failover():
    s, state = run_scenario("scenarios/failover_morespecific.scn")
    up = resolve_forwarding(state, s.topology, 65101, P1SUB)
    sd, stated = run_scenario("scenarios/failover_morespecific_l1down.scn")
    down = resolve_forwarding(stated, sd.topology, 65101, P1SUB)
    ss, states = run_scenario("scenarios/failover_selective_l1down.scn")
    gone = resolve_forwarding(states, ss.topology, 65101, P1)
    ok = up[-1] == "l1" and down[-1] == "l2" and gone is None
    verdict("7", "more-specific fails over, plain selective goes dark", ok)


def test_criterion_8_med():
    s, state = run_scenario("scenarios/med_basic.scn")
    m = ingress_map(state, s.topology, 65001)
    same_provider = m.entries[(65101, P1)] == "l1"
    ss, states = run_scenario("scenarios/med_scope.scn")
    ms = ingress_map(states, ss.topology, 65001)
    scoped = ms.entries[(65101, P1)] == "l1"  # med 10 on the other side is ignored
    verdict("8", "MED ranks same-provider links only", same_provider and scoped)


# --- criterion 9: randomized property suites --------------------------------

CASES = 1000


@pytest.fixture(scope="module")
def pool_plain():
    rng = random.Random(90001)
    pool = []
    with timed("gen-plain"):
        while len(pool) < CASES:
            t = gen.rand_topology(rng)
            te = gen.rand_te(rng, t)
            state = propagate_to_convergence(t, te)
            pool.append((t, te, state))
    return pool


@pytest.fixture(scope="module")
def pool_policy():
    rng = random.Random(90002)
    pool = []
    with timed("gen-policy"):
        attempts = 0
        from bgpsteer import OscillationError

        while len(pool) < CASES and attempts < CASES * 2:
            attempts += 1
            t = gen.rand_topology(rng, with_catalogs=True)
            te = gen.rand_te(rng, t, with_communities=True, with_lp_overrides=True)
            try:
                state = propagate_to_convergence(t, te)
            except OscillationError:
                continue
            pool.append((t, te, state))
    assert len(pool) >= CASES
    return pool


def test_criterion_9a_valley_free(pool_plain):
    with timed("valley-free"):
        checked = 0
        for t, _te, state in pool_plain:
            for asn, by_prefix in state.loc_rib.items():
                for route in by_prefix.values():
                    if route.learned_on == LOCAL:
                        continue
                    assert gen.is_valley_free(t, asn, route.as_path)
            checked += 1
    verdict("9a", "valley-free invariant", checked >= CASES, f"{checked} cases")


def test_criterion_9b_lp_dominance(pool_plain):
    from bgpsteer import Route

    rng = random.Random(90003)
    with timed("lp-dominance"):
        for _ in range(CASES):
            n = rng.randint(2, 6)
            lps = rng.sample(range(10, 500), n)
            cands = []
            for i, lp in enumerate(lps):
                path = tuple(rng.sample(range(10, 900), rng.randint(1, 5)))
                cands.append(Route(P1, path, lp, rng.choice([None, 10]), frozenset(), f"l{i}", path[-1]))
            assert best_of(cands).local_pref == max(lps)
    verdict("9b", "LP dominance (argmax form)", True, f"{CASES} cases")


def test_criterion_9c_prepend_monotonicity():
    from bgpsteer import Route

    rng = random.Random(90004)
    with timed("prepend-monotonicity"):
        done = 0
        while done < CASES:
            n = rng.randint(2, 5)
            cands = []
            for i in range(n):
                path = tuple(rng.sample(range(10, 900), rng.randint(1, 4)))
                cands.append(Route(P1, path, 100, rng.choice([None, 10, 20]), frozenset(), f"l{i}", path[-1]))
            winner = best_of(cands)
            losers = [c for c in cands if c is not winner]
            if not losers:
                continue
            loser = rng.choice(losers)
            bumped = prepend_path(loser, loser.first_hop, rng.randint(1, 3))
            assert best_of([bumped if c is loser else c for c in cands]) is not bumped
            done += 1
    verdict("9c", "prepend monotonicity (argmax form)", True, f"{done} cases")


def test_criterion_9d_strip_invariant(pool_policy):
    with timed("strip"):
        checked = 0
        for t, _te, state in pool_policy:
            owned = {owner: cat.communities() for owner, cat in t.catalogs.items()}
            for _asn, by_prefix in state.loc_rib.items():
                for r in by_prefix.values():
                    if r.learned_on == LOCAL:
                        continue
                    for transited in set(r.as_path):
                        assert not (r.communities & owned.get(transited, frozenset()))
            checked += 1
    verdict("9d", "community strip invariant", checked >= CASES, f"{checked} cases")


def test_criterion_9e_determinism(pool_policy):
    with timed("determinism"):
        checked = 0
        for t, te, state in pool_policy:
            again = propagate_to_convergence(t, te)
            assert again == state
            assert again.dump() == state.dump()
            checked += 1
    verdict("9e", "double-run determinism", checked >= CASES, f"{checked} cases")


def test_criterion_9f_oracle_equivalence(pool_plain):
    with timed("oracle"):
        checked = 0
        for t, te, state in pool_plain:
            assert state.loc_rib == gen.oracle_loc_ribs(t, te)
            checked += 1
    verdict("9f", "converged RIBs equal the constructive oracle", checked >= CASES, f"{checked} cases")


def test_criterion_9g_9h_planner_suites():
    rng = random.Random(90005)
    plans = sound = agreed = instances = 0
    with timed("planner"):
        while instances < CASES:
            t, dest, objectives, budget = gen.rand_planning_instance(rng)
            if not gen.instance_is_plannable(t, dest, objectives):
                continue
            instances += 1
            result = plan_inbound_te(t, dest, objectives, budget)
            sat, best_cost = gen.exhaustive_plan_search(t, dest, objectives, budget)
            if isinstance(result, Plan):
                plans += 1
                assert sat and plan_cost(t, dest, result.actions) == best_cost
                report = evaluate_plan(t, dest, result, objectives)
                assert all(report.satisfied)
                sound += 1
            else:
                assert not sat  # witness soundness / exhaustion honesty
            agreed += 1
    verdict("9g", "planner soundness on every emitted plan", sound == plans, f"{plans} plans / {instances} instances")
    verdict("9h", "planner agrees with exhaustive search", agreed == instances, f"{instances} instances")


def test_criterion_9_total_time():
    total = sum(_suite_times.values())
    detail = ", ".join(f"{k}={v:.1f}s" for k, v in sorted(_suite_times.items()))
    verdict("9", "randomized suites within 60 s", total < 60.0, f"total {total:.1f}s: {detail}")
