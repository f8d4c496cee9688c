"""Provider-side ingress community policies.

A transit provider's catalog maps community values to one of three actions
applied when the provider receives routes from a customer:

* LP set inside the provider network,
* suppression of the route toward selected neighbors (customers are always
  still served),
* extra self-prepending when exporting toward selected neighbors.

Communities carrying these instructions are local to the provider and are
stripped from the route at the provider's egress.

`AnnotatedRoute` is a NamedTuple: it equals and sorts like the tuple of its
fields, and a changed copy is `ar._replace(...)`.  Its defaults are shared
immutable empties, so `AnnotatedRoute(route)` is the plain entry.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, TYPE_CHECKING

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
        for c in sorted(
            list(self.lp_rules) + list(self.suppress_rules) + list(self.prepend_rules),
            key=Community.sort_key,
        ):
            if c in seen:
                err(f"community {c} already mapped by another rule", "rule", self.owner, c)
            seen.add(c)
        # ingress_transform installs a catalog LP unchecked (Route._replace).
        for c, lp in sorted(self.lp_rules.items(), key=lambda kv: kv[0].sort_key()):
            if lp < 0:
                err(f"LP {lp} for {c} is negative", "rule", self.owner, c)
        for c, (_, count) in sorted(self.prepend_rules.items(), key=lambda kv: kv[0].sort_key()):
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


class _EmptySchedule(abc.Mapping):
    """The prepend schedule of a route that triggered none: empty, immutable,
    and one shared instance, which pickling and copying keep."""

    __slots__ = ()

    def __getitem__(self, neighbor: int) -> int:
        raise KeyError(neighbor)

    def __iter__(self) -> Iterator[int]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def get(self, neighbor: int, default: int | None = None) -> int | None:
        return default

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        return "NO_SCHEDULE"


# A plain entry's suppression set and prepend schedule: one shared instance
# each, so the engine can build a plain entry as the literal tuple
# (route, None, NO_SUPPRESSION, NO_SCHEDULE).
NO_SUPPRESSION: frozenset[int] = frozenset()
NO_SCHEDULE: Mapping[int, int] = _EmptySchedule()


class AnnotatedRoute(NamedTuple):
    """A received route plus the catalog actions it triggered at ingress."""

    route: Route
    lp_override: int | None = None
    suppressed_toward: frozenset[int] = NO_SUPPRESSION
    prepend_schedule: Mapping[int, int] = NO_SCHEDULE


def plain(route: Route) -> AnnotatedRoute:
    """`route` with no catalog action; every plain entry shares the same
    empty, immutable suppression set and prepend schedule."""
    return AnnotatedRoute(route)


def parse_community(text: str) -> Community:
    """Parse the "high:low" notation; both parts are 16-bit decimals."""
    high_s, sep, low_s = text.partition(":")
    if not sep or not is_number(high_s) or not is_number(low_s):
        raise ValueError(f"malformed community: {text!r}")
    high, low = int(high_s), int(low_s)
    if high > 0xFFFF or low > 0xFFFF:
        raise ValueError(f"community component over 16 bits: {text!r}")
    return Community(high, low)


def ingress_transform(cat: PolicyCatalog, r: Route, neighbors: Mapping[int, Rel]) -> AnnotatedRoute:
    """Apply the owner's catalog to a route received from a customer.

    Unknown communities are inert.  The lowest matching LP rule sets the
    route's LP; when two prepend rules target the same neighbor, the larger
    count wins.  Suppression never targets customers.
    """
    lp_override: int | None = None
    suppressed: set[int] = set()
    schedule: dict[int, int] = {}
    for c in sorted(r.communities, key=Community.sort_key):
        if c in cat.lp_rules:
            lp = cat.lp_rules[c]
            lp_override = lp if lp_override is None else min(lp_override, lp)
        elif c in cat.suppress_rules:
            suppressed |= cat.expand_selector(cat.suppress_rules[c], neighbors, exclude_customers=True)
        elif c in cat.prepend_rules:
            sel, count = cat.prepend_rules[c]
            for asn in cat.expand_selector(sel, neighbors, exclude_customers=False):
                schedule[asn] = max(schedule.get(asn, 0), count)
    if lp_override is not None:
        r = r._replace(local_pref=lp_override)
    return AnnotatedRoute(r, lp_override, frozenset(suppressed), schedule)


def egress_times(ar: AnnotatedRoute, neighbor: int) -> int | None:
    """How many times the provider adds itself to the AS-path toward
    `neighbor`: 1 + schedule[neighbor] (the 1 is the normal AS-path
    addition), or None when the route is suppressed toward the neighbor.
    egress_apply's output depends on the neighbor only through this value."""
    if neighbor in ar.suppressed_toward:
        return None
    return 1 + ar.prepend_schedule.get(neighbor, 0)


def egress_apply(ar: AnnotatedRoute, provider: int, neighbor: int, catalog: PolicyCatalog | None = None) -> Route | None:
    """Turn an installed route into the wire form sent to `neighbor`.

    None when the neighbor is suppressed.  Otherwise the provider is
    prepended egress_times(ar, neighbor) times, the provider's own catalog
    communities are stripped, and LP is zeroed since it never crosses the AS
    boundary.
    """
    times = egress_times(ar, neighbor)
    if times is None:
        return None
    r = ar.route
    communities = r.communities
    if catalog is not None:
        communities = communities - catalog.communities()
    return tuple.__new__(
        Route, (r.prefix, (provider,) * times + r.as_path, 0, r.med, communities, r.learned_on, r.origin_as)
    )
