"""Provider-side community policies.

A transit provider's catalog maps community values to one of three actions
on the routes it learns from its customers:

* LP set inside the provider network, applied where the route enters
  (`ingress_transform`);
* suppression of the route toward selected neighbors (customers are always
  still served), and
* extra self-prepending toward selected neighbors, both applied where the
  provider exports the route (`egress_times`).

Communities carrying these instructions are local to the provider and are
stripped from the route at the provider's egress (`egress_apply`).  They stay
on the installed route until then, so the egress reads the same communities
the ingress saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, TYPE_CHECKING

from .routes import Community, Route
from .topology import Finding, Rel, is_number, is_word

if TYPE_CHECKING:
    from .topology import Topology

PREPEND_MIN = 1
PREPEND_MAX = 3

ALL_UPSTREAMS = "all"


@dataclass(frozen=True, slots=True)
class PeerSelector:
    """Which neighbors an action targets: a specific ASN, every upstream
    (peers + providers), or every neighbor tagged with a region."""

    kind: str  # "asn" | "all-upstreams" | "region"
    asn: int | None = None
    region: str | None = None

    @classmethod
    def specific(cls, asn: int) -> "PeerSelector":
        return cls("asn", asn=asn)

    @classmethod
    def all_upstreams(cls) -> "PeerSelector":
        return cls("all-upstreams")

    @classmethod
    def for_region(cls, tag: str) -> "PeerSelector":
        return cls("region", region=tag)

    def __str__(self) -> str:
        if self.kind == "asn":
            return str(self.asn)
        if self.kind == "region":
            return f"region:{self.region}"
        return ALL_UPSTREAMS


@dataclass(frozen=True)
class PolicyCatalog:
    owner: int
    lp_rules: Mapping[Community, int] = field(default_factory=dict)
    suppress_rules: Mapping[Community, PeerSelector] = field(default_factory=dict)
    prepend_rules: Mapping[Community, tuple[PeerSelector, int]] = field(default_factory=dict)
    region_of: Mapping[int, str] = field(default_factory=dict)
    drops_community_updates: bool = False

    def is_empty(self) -> bool:
        return not (
            self.lp_rules
            or self.suppress_rules
            or self.prepend_rules
            or self.region_of
            or self.drops_community_updates
        )

    def communities(self) -> frozenset[Community]:
        return self._communities

    @cached_property
    def _communities(self) -> frozenset[Community]:
        return frozenset(self.lp_rules) | frozenset(self.suppress_rules) | frozenset(self.prepend_rules)

    def validate(self, t: "Topology") -> list[Finding]:
        findings: list[Finding] = []

        def err(msg: str, *subject) -> None:
            findings.append(Finding("error", f"AS {self.owner}: {msg}", subject))

        seen: set[Community] = set()
        for c in sorted([*self.lp_rules, *self.suppress_rules, *self.prepend_rules]):
            if c in seen:
                err(f"community {c} already mapped by another rule", "rule", self.owner, c)
            seen.add(c)
        # ingress_transform installs a catalog LP unchecked (Route._replace).
        for c, lp in sorted(self.lp_rules.items()):
            if lp < 0:
                err(f"LP {lp} for {c} is negative", "rule", self.owner, c)
        for c, (_, count) in sorted(self.prepend_rules.items()):
            if not PREPEND_MIN <= count <= PREPEND_MAX:
                err(f"prepend count {count} for {c} outside {PREPEND_MIN}..{PREPEND_MAX}", "rule", self.owner, c)
        # Neighbor-ness counts down links too; a selector over a failed link
        # is dormant, not invalid.
        neighbors = {link.other(self.owner) for link in t.links if self.owner in link.endpoints()}
        selectors = list(self.suppress_rules.items())
        selectors += [(c, sel) for c, (sel, _) in self.prepend_rules.items()]
        for c, sel in selectors:
            if sel.kind == "asn" and sel.asn not in neighbors:
                err(f"selector names non-neighbor AS {sel.asn}", "rule", self.owner, c)
            if sel.kind == "region" and not is_word(sel.region):
                err(f"selector region tag {sel.region!r} is not one word (no whitespace or '#')", "rule", self.owner, c)
        for asn in sorted(self.region_of):
            if asn not in neighbors:
                err(f"region tag on non-neighbor AS {asn}", "region", self.owner, asn)
            if not is_word(self.region_of[asn]):
                err(
                    f"region tag {self.region_of[asn]!r} of AS {asn} is not one word (no whitespace or '#')",
                    "region", self.owner, asn,
                )
        return findings

    def expand_selector(self, sel: PeerSelector, neighbors: Mapping[int, Rel], *, exclude_customers: bool) -> set[int]:
        if sel.kind == "asn":
            chosen = {sel.asn} if sel.asn in neighbors else set()
        elif sel.kind == "region":
            chosen = {a for a in neighbors if self.region_of.get(a) == sel.region}
        else:
            chosen = {a for a, rel in neighbors.items() if rel is not Rel.CUSTOMER}
        if exclude_customers:
            chosen = {a for a in chosen if neighbors[a] is not Rel.CUSTOMER}
        return chosen


def parse_community(text: str) -> Community:
    """Parse the "high:low" notation; both parts are 16-bit decimals."""
    high_s, sep, low_s = text.partition(":")
    if not sep or not is_number(high_s) or not is_number(low_s):
        raise ValueError(f"malformed community: {text!r}")
    high, low = int(high_s), int(low_s)
    if high > 0xFFFF or low > 0xFFFF:
        raise ValueError(f"community component over 16 bits: {text!r}")
    return Community(high, low)


def ingress_transform(cat: PolicyCatalog, r: Route) -> Route:
    """Apply the owner's catalog to a route received from a customer: the
    lowest matching LP rule sets the route's LP.  Unknown communities are
    inert, and the other rules act at the owner's egress (`egress_times`)."""
    lps = [cat.lp_rules[c] for c in r.communities if c in cat.lp_rules]
    return r._replace(local_pref=min(lps)) if lps else r


def egress_times(cat: PolicyCatalog, r: Route, neighbors: Mapping[int, Rel]) -> dict[int, int | None]:
    """How many times the owner adds itself to the AS-path of `r`, a route
    it learned from a customer, toward each neighbor that the catalog's rules
    single out: None where a suppression rule withholds the route, else 1 (the
    normal AS-path addition) plus the largest matching prepend count.  Every
    other neighbor gets 1.  `neighbors` is the owner's `neighbor_rels`.
    Suppression never targets customers and outranks a prepend."""
    times: dict[int, int | None] = {}
    suppressed: set[int] = set()
    for c in r.communities:
        if c in cat.suppress_rules:
            suppressed |= cat.expand_selector(cat.suppress_rules[c], neighbors, exclude_customers=True)
        elif c in cat.prepend_rules:
            sel, count = cat.prepend_rules[c]
            for asn in cat.expand_selector(sel, neighbors, exclude_customers=False):
                times[asn] = max(times.get(asn, 1), 1 + count)
    for asn in suppressed:
        times[asn] = None
    return times


def egress_apply(r: Route, provider: int, times: int, catalog: PolicyCatalog | None = None) -> Route:
    """Turn an installed route into the wire form sent to a neighbor: the
    provider is prepended `times` times (`egress_times`), the provider's own
    catalog communities are stripped, and LP is zeroed since it never
    crosses the AS boundary."""
    communities = r.communities
    if catalog is not None and communities:
        communities = communities - catalog.communities()
    return tuple.__new__(
        Route, (r.prefix, (provider,) * times + r.as_path, 0, r.med, communities, r.learned_on, r.origin_as)
    )
