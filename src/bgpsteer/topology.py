"""AS-level topology: ASes, business relationships, links, prefix originations.

The topology is immutable once built and safe to share across workers.
Relationships are stored per link; a c2p link records which endpoint is the
customer.  Multiple links between the same AS pair are allowed (dual-homed
customers buying two circuits from one provider).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, TYPE_CHECKING

if TYPE_CHECKING:
    from .policies import PolicyCatalog

MIN_ASN = 1
MAX_ASN = 4_294_967_295

LOCAL = "local"  # learned_on marker for locally originated routes


class TopologyError(ValueError):
    """Raised when an operation receives a topology that fails validation."""


def is_number(text: str) -> bool:
    """True for a non-empty run of ASCII digits.  str.isdigit() alone also
    accepts digits such as '²', which int() rejects, and other scripts'
    decimal digits, which int() reads."""
    return text.isascii() and text.isdigit()


def is_word(text: str) -> bool:
    """True when `text` reads back from a scenario file as the one token it
    was written as: non-empty, with no whitespace and no '#', which starts a
    comment.  Link ids and region tags must be words."""
    return isinstance(text, str) and "#" not in text and text.split() == [text]


def check_asn(value: int) -> int:
    if not isinstance(value, int) or not MIN_ASN <= value <= MAX_ASN:
        raise ValueError(f"ASN out of range: {value!r}")
    return value


def _mask(length: int) -> int:
    return ((1 << length) - 1) << (32 - length) if length else 0


class Prefix(tuple):
    """IPv4 prefix as (base address, length); host bits must be zero.

    A tuple, so hashing, equality and ordering are the tuple's own: a
    `Prefix` equals, hashes and sorts like the bare tuple (base, length)."""

    __slots__ = ()

    def __new__(cls, base: int, length: int) -> "Prefix":
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        if not 0 <= base < 2**32:
            raise ValueError("prefix base is not a 32-bit value")
        if base & ~_mask(length):
            raise ValueError(f"host bits set below /{length}")
        return tuple.__new__(cls, (base, length))

    base = property(itemgetter(0), doc="The network address, as a 32-bit int.")
    length = property(itemgetter(1), doc="The prefix length, 0..32.")

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Prefix(base={self[0]}, length={self[1]})"

    def mask(self) -> int:
        return _mask(self[1])

    def contains(self, other: "Prefix") -> bool:
        """True when `other` is inside (or equal to) this prefix."""
        return other.length >= self.length and (other.base & self.mask()) == self.base

    def is_strict_subprefix_of(self, other: "Prefix") -> bool:
        return other.contains(self) and self != other

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        addr, sep, length_s = text.partition("/")
        if not sep:
            raise ValueError(f"prefix missing /length: {text!r}")
        octets = addr.split(".")
        if len(octets) != 4 or not all(is_number(o) for o in octets):
            raise ValueError(f"bad IPv4 address: {addr!r}")
        values = [int(o) for o in octets]
        if any(v > 255 for v in values):
            raise ValueError(f"bad IPv4 address: {addr!r}")
        if not is_number(length_s):
            raise ValueError(f"bad prefix length: {length_s!r}")
        base = (values[0] << 24) | (values[1] << 16) | (values[2] << 8) | values[3]
        return cls(base, int(length_s))

    def __str__(self) -> str:
        b = self.base
        return f"{b >> 24}.{(b >> 16) & 0xFF}.{(b >> 8) & 0xFF}.{b & 0xFF}/{self.length}"

    def sort_key(self) -> tuple[int, int]:
        return (self.base, self.length)


class Rel(Enum):
    """What the *other* AS is, from this AS's point of view."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"


# Default LP values.  Only the ordering is load-bearing (customer routes
# above peers above providers); the numbers themselves are conventions.
LP_CUSTOMER = 200
LP_PEER = 100
LP_PROVIDER = 50


def default_local_pref(rel: Rel) -> int:
    """LP assigned to a route by who it was learned from."""
    if rel is Rel.CUSTOMER:
        return LP_CUSTOMER
    if rel is Rel.PEER:
        return LP_PEER
    return LP_PROVIDER


def export_permitted(learned_rel: Rel | None, to_rel: Rel) -> bool:
    """Valley-free export rule.  learned_rel is None for local originations;
    customer routes and own prefixes go to everyone, peer and provider routes
    only down to customers."""
    if learned_rel is None or learned_rel is Rel.CUSTOMER:
        return True
    return to_rel is Rel.CUSTOMER


@dataclass(frozen=True, slots=True)
class Link:
    """A physical inter-domain link.  For c2p links, `customer` names the
    endpoint buying transit; for p2p it is None."""

    id: str
    a: int
    b: int
    customer: int | None  # None => peer-to-peer
    up: bool = True

    def __post_init__(self) -> None:
        if self.id == LOCAL:
            raise ValueError(f"{LOCAL!r} is reserved and cannot name a link")
        if not is_word(self.id):
            raise ValueError(f"link id {self.id!r} is not one word (no whitespace or '#')")
        if self.a == self.b:
            raise ValueError(f"link {self.id}: endpoints must differ")
        if self.customer is not None and self.customer not in (self.a, self.b):
            raise ValueError(f"link {self.id}: customer is not an endpoint")

    def endpoints(self) -> tuple[int, int]:
        return (self.a, self.b)

    def other(self, asn: int) -> int:
        if asn == self.a:
            return self.b
        if asn == self.b:
            return self.a
        raise ValueError(f"AS {asn} is not on link {self.id}")

    def rel_from(self, asn: int) -> Rel:
        """Relationship of the other endpoint as seen from `asn`."""
        self.other(asn)  # membership check
        if self.customer is None:
            return Rel.PEER
        return Rel.PROVIDER if self.customer == asn else Rel.CUSTOMER


@dataclass(frozen=True)
class Finding:
    """One validation result.  `subject` names what it is about, so that a
    reader of a scenario file can point at the record that introduced it:
    ("link", id), ("prefix", prefix), ("catalog", owner),
    ("rule", owner, community) or ("region", owner, peer)."""

    severity: str  # "error" | "warning"
    message: str
    subject: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    """A topology's findings; `errors` and `warnings` are computed on first
    read, once."""

    findings: tuple[Finding, ...]

    @cached_property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @cached_property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    def ok(self) -> bool:
        return not self.errors


_REL_RANK = {Rel.CUSTOMER: 0, Rel.PEER: 1, Rel.PROVIDER: 2}
_LEARNED_RELS = (None, *Rel)  # what a route was learned from; None: a local route


class Session(NamedTuple):
    """One up link as its exporting end sees it, with what the receiving end
    does to a route that arrives over it."""

    link_id: str
    neighbor: int  # the receiving end
    rel: Rel  # the neighbor, as seen from the exporter
    local_pref: int  # the neighbor's default LP for routes over this link
    # The neighbor's catalog when the exporter is its customer, else None.
    catalog: "PolicyCatalog | None"


@dataclass(frozen=True, slots=True)
class Sessions:
    """One AS's up links as sessions, compiled for export.

    * `all`: a session per up link, sorted by link id;
    * `by_learned`: link id, or LOCAL for the AS's own routes -> (the
      sessions a route learned there is exported on, the sessions it is
      not): the valley-free split, and the one place export reads it;
    * `catalog`: the AS's own catalog, whose communities its egress strips
      and whose rules it applies to routes learned over `customer_links`;
    * `neighbor_rels`: neighbor ASN -> relationship over the up links, which
      the catalog's selectors expand over.  A neighbor reached over both a
      c2p and a p2p link counts as a customer if any link says so;
    * `customer_links`: the ids of the links whose other end is a customer."""

    all: tuple[Session, ...]
    by_learned: Mapping[str, tuple[tuple[Session, ...], tuple[Session, ...]]]
    catalog: "PolicyCatalog | None"
    neighbor_rels: Mapping[int, Rel]
    customer_links: frozenset[str]

    @classmethod
    def build(cls, sessions: Iterable[Session], catalog: "PolicyCatalog | None") -> "Sessions":
        ordered = tuple(sorted(sessions, key=lambda s: s.link_id))
        neighbor_rels: dict[int, Rel] = {}
        for s in ordered:
            known = neighbor_rels.get(s.neighbor)
            if known is None or _REL_RANK[s.rel] < _REL_RANK[known]:
                neighbor_rels[s.neighbor] = s.rel
        # One copy of each distinct split, shared by the learned
        # relationships that give it.
        by_mask: dict[tuple[bool, ...], tuple[tuple[Session, ...], tuple[Session, ...]]] = {}
        split = {}
        for rel in _LEARNED_RELS:
            mask = tuple(export_permitted(rel, s.rel) for s in ordered)
            if mask not in by_mask:
                send = tuple(s for s, ok in zip(ordered, mask) if ok)
                withhold = tuple(s for s, ok in zip(ordered, mask) if not ok)
                by_mask[mask] = (send if withhold else ordered, withhold)
            split[rel] = by_mask[mask]
        customer_links = frozenset(s.link_id for s in ordered if s.rel is Rel.CUSTOMER)
        by_learned = {s.link_id: split[s.rel] for s in ordered}
        by_learned[LOCAL] = split[None]
        return cls(ordered, by_learned, catalog, neighbor_rels, customer_links)


@dataclass(frozen=True)
class Topology:
    """AS graph.  `roles` maps ASN -> "stub" | "transit".  Immutability is
    load-bearing: `links_by_id`, `sessions`, `validation` and the tables in
    `compiled` are computed once, on first use, and cached."""

    roles: Mapping[int, str]
    links: tuple[Link, ...]
    originations: Mapping[int, frozenset[Prefix]]
    catalogs: Mapping[int, "PolicyCatalog"] = field(default_factory=dict)

    @cached_property
    def links_by_id(self) -> Mapping[str, Link]:
        """Link id -> link: the first link with that id, down links too."""
        by_id: dict[str, Link] = {}
        for link in self.links:
            by_id.setdefault(link.id, link)
        return by_id

    @cached_property
    def sessions(self) -> Mapping[int, Sessions]:
        """ASN -> its up links compiled for propagation, for every declared AS
        (empty `Sessions` for an AS with no up link): what never changes with
        the TE config.  That is the default LP a receiver assigns
        (`default_local_pref` of the sender's relationship) and its catalog
        where the sender is its customer, the sender's own catalog and
        neighbor table, and the valley-free export split.  The neighbor and
        relationship lookups read it."""
        per_as: dict[int, list[Session]] = {asn: [] for asn in self.roles}
        for link in self.links:
            if not link.up:
                continue
            for asn, neighbor in ((link.a, link.b), (link.b, link.a)):
                sender_rel = link.rel_from(neighbor)
                applies = sender_rel is Rel.CUSTOMER and neighbor in self.catalogs
                per_as.setdefault(asn, []).append(Session(
                    link.id,
                    neighbor,
                    link.rel_from(asn),
                    default_local_pref(sender_rel),
                    self.catalogs[neighbor] if applies else None,
                ))
        return {asn: Sessions.build(s, self.catalogs.get(asn)) for asn, s in per_as.items()}

    @cached_property
    def validation(self) -> ValidationReport:
        """validate_topology's report, computed once; `require_valid` reads it."""
        return validate_topology(self)

    @cached_property
    def compiled(self) -> dict:
        """Tables that modules above this one derive from the topology alone,
        each under a key of its own and built when it is first asked for;
        the topology is immutable, so none goes stale."""
        return {}

    def ases(self) -> list[int]:
        return sorted(self.roles)

    def link_by_id(self, link_id: str) -> Link:
        link = self.links_by_id.get(link_id)
        if link is None:
            raise KeyError(f"unknown link id: {link_id}")
        return link

    def up_links_of(self, asn: int) -> list[Link]:
        """The up links of `asn`, in `links` order."""
        return [link for link in self.links if link.up and asn in link.endpoints()]

    def neighbor_rels(self, asn: int) -> dict[int, Rel]:
        """Neighbor ASN -> relationship over up links (`Sessions.neighbor_rels`),
        a fresh dict; empty for an unknown ASN."""
        own = self.sessions.get(asn)
        return {} if own is None else dict(own.neighbor_rels)

    def originated_by(self, asn: int) -> frozenset[Prefix]:
        return self.originations.get(asn, frozenset())


def relationship_between(t: Topology, a: int, b: int) -> set[tuple[str, Rel]]:
    """All up links between a and b, with b's role as seen from a."""
    if a not in t.roles:
        raise KeyError(f"unknown AS: {a}")
    if b not in t.roles:
        raise KeyError(f"unknown AS: {b}")
    if a == b:
        raise ValueError("relationship_between: the two ASes must differ")
    return {(s.link_id, s.rel) for s in t.sessions[a].all if s.neighbor == b}


def _provider_cycle(t: Topology) -> list[int] | None:
    """A cycle in the customer->provider digraph of the up links, if any,
    running from customer to provider and closing on its first AS.  A down
    link carries no route, so it closes no cycle."""
    customers: dict[int, set[int]] = {asn: set() for asn in t.roles}
    for link in t.links:
        if link.customer is None or not link.up:
            continue
        provider = link.other(link.customer)
        if link.customer in customers and provider in customers:
            customers[provider].add(link.customer)
    # Each AS's predecessors are its customers, so a reported cycle runs
    # from each AS to its provider.
    try:
        TopologicalSorter(customers).prepare()
    except CycleError as exc:
        return exc.args[1]
    return None


def validate_topology(t: Topology) -> ValidationReport:
    """Structural checks.  Errors make the topology unusable for simulation;
    warnings flag shapes (provider cycles) where convergence is not guaranteed."""
    findings: list[Finding] = []

    def err(msg: str, *subject) -> None:
        findings.append(Finding("error", msg, subject))

    def warn(msg: str) -> None:
        findings.append(Finding("warning", msg))

    for asn, role in t.roles.items():
        if role not in ("stub", "transit"):
            err(f"AS {asn}: unknown role {role!r}")
        try:
            check_asn(asn)
        except ValueError as exc:
            err(str(exc))

    seen_ids: set[str] = set()
    for link in t.links:
        if link.id in seen_ids:
            err(f"duplicate link id {link.id!r}", "link", link.id)
        seen_ids.add(link.id)
        for end in link.endpoints():
            if end not in t.roles:
                err(f"link {link.id}: undeclared AS {end}", "link", link.id)

    pair_kinds: dict[frozenset[int], set[str]] = {}
    for link in t.links:
        kind = "p2p" if link.customer is None else f"c2p:{link.customer}"
        pair_kinds.setdefault(frozenset(link.endpoints()), set()).add(kind)
    for pair, kinds in sorted(pair_kinds.items(), key=lambda kv: sorted(kv[0])):
        if len(kinds) > 1:
            a, b = sorted(pair)
            warn(f"ASes {a} and {b} have parallel links with differing relationships")

    owners: dict[Prefix, int] = {}
    for asn in sorted(t.originations):
        if asn not in t.roles:
            err(f"origination by undeclared AS {asn}")
            continue
        for p in t.originations[asn]:
            if p in owners and owners[p] != asn:
                err(f"prefix {p} of AS {asn} already originated by AS {owners[p]}", "prefix", p)
            owners[p] = asn

    for asn in sorted(t.catalogs):
        cat = t.catalogs[asn]
        if asn not in t.roles:
            err(f"policy catalog owned by undeclared AS {asn}")
            continue
        if not cat.is_empty() and t.roles[asn] != "transit":
            err(f"catalog on non-transit AS {asn}", "catalog", asn)
        findings.extend(cat.validate(t))

    cycle = _provider_cycle(t)
    if cycle is not None:
        chain = " -> ".join(str(a) for a in cycle)
        warn(f"customer->provider cycle: {chain} (convergence not guaranteed)")

    return ValidationReport(tuple(findings))


def require_valid(t: Topology) -> None:
    report = t.validation
    if not report.ok():
        msgs = "; ".join(f.message for f in report.errors)
        raise TopologyError(f"invalid topology: {msgs}")
