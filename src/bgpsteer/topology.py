"""AS-level topology: ASes, business relationships, links, prefix originations.

The topology is immutable once built and safe to share across workers.
Relationships are stored per link; a c2p link records which endpoint is the
customer.  Multiple links between the same AS pair are allowed (dual-homed
customers buying two circuits from one provider).
"""

from __future__ import annotations

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
# One shared empty frozenset: each frozenset() call builds a new one.
EMPTY: frozenset = frozenset()


class _EmptyMap(dict):
    """The type of EMPTY_MAP: an empty dict whose mutators raise.  Lookups run
    at dict speed, and it pickles and copies as the one module-level
    instance, which a `MappingProxyType` cannot."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("EMPTY_MAP is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> str:
        return "EMPTY_MAP"


# The one shared empty mapping: the default of every mapping field.
EMPTY_MAP: Mapping = _EmptyMap()


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


class _LinkFields(NamedTuple):
    id: str
    a: int
    b: int
    customer: int | None  # None => peer-to-peer
    up: bool = True


class Link(_LinkFields):
    """A physical inter-domain link.  For c2p links, `customer` names the
    endpoint buying transit; for p2p it is None.  `Link(...)` checks the
    id and the endpoints; `_make` and `_replace` check nothing."""

    __slots__ = ()

    def __new__(cls, id: str, a: int, b: int, customer: int | None, up: bool = True) -> "Link":
        if id == LOCAL:
            raise ValueError(f"{LOCAL!r} is reserved and cannot name a link")
        if not is_word(id):
            raise ValueError(f"link id {id!r} is not one word (no whitespace or '#')")
        if a == b:
            raise ValueError(f"link {id}: endpoints must differ")
        if customer is not None and customer not in (a, b):
            raise ValueError(f"link {id}: customer is not an endpoint")
        return tuple.__new__(cls, (id, a, b, customer, up))

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


class Finding(NamedTuple):
    """One validation result.  `subject` names what it is about, so that a
    reader of a scenario file can point at the record that introduced it:
    ("link", id), ("prefix", prefix), ("catalog", owner),
    ("rule", owner, community), ("region", owner, peer) or
    ("lp-override", receiver, sender)."""

    message: str
    subject: tuple = ()


class ValidationReport(NamedTuple):
    """A topology's findings, each list in the order they were found."""

    errors: tuple[Finding, ...]
    warnings: tuple[Finding, ...]

    def ok(self) -> bool:
        return not self.errors


_CLEAN = ValidationReport((), ())  # the one report of a topology with no findings
_REL_RANK = {Rel.CUSTOMER: 0, Rel.PEER: 1, Rel.PROVIDER: 2}
_LEARNED_RELS = (None, *Rel)  # what a route was learned from; None: a local route


class Session(NamedTuple):
    """One up link as its exporting end sees it, with what the receiving end
    does to a route that arrives over it."""

    link_id: str
    neighbor: int  # the receiving end
    rel: Rel  # the neighbor, as seen from the exporter
    local_pref: int  # the neighbor's LP for routes over this link
    # The neighbor's catalog when the exporter is its customer, else None.
    catalog: "PolicyCatalog | None"


class Sessions(NamedTuple):
    """One AS's up links as sessions, compiled for export.

    * `all`: a session per up link, sorted by link id;
    * `by_learned`: link id, or LOCAL for the AS's own routes -> (the
      sessions a route learned there is exported on, the sessions it is
      not): the valley-free split, and the one place export reads it;
    * `catalog`: the AS's own catalog, whose rules it applies to the routes
      learned from a customer: those the split withholds from no link;
    * `strip`: the catalog's communities, which its egress strips; EMPTY for
      an AS with no catalog;
    * `neighbor_rels`: `neighbor_rels_of` the sessions, which the catalog's
      selectors expand over; empty for an AS with no catalog, which has no
      selector to expand."""

    all: tuple[Session, ...]
    by_learned: Mapping[str, tuple[tuple[Session, ...], tuple[Session, ...]]]
    catalog: "PolicyCatalog | None"
    strip: frozenset
    neighbor_rels: Mapping[int, Rel]

    @classmethod
    def build(cls, sessions: Iterable[Session], catalog: "PolicyCatalog | None") -> "Sessions":
        ordered = tuple(sorted(sessions, key=lambda s: s.link_id))
        # One copy of each distinct split, shared by the learned
        # relationships that give it.
        by_mask: dict[tuple[bool, ...], tuple[tuple[Session, ...], tuple[Session, ...]]] = {}
        split = {}
        for rel in _LEARNED_RELS:
            mask = tuple(export_permitted(rel, s.rel) for s in ordered)
            if mask not in by_mask:
                send = tuple(s for s, ok in zip(ordered, mask) if ok)
                withhold = tuple(s for s, ok in zip(ordered, mask) if not ok)
                by_mask[mask] = (send if withhold else ordered, withhold if send else ordered)
            split[rel] = by_mask[mask]
        by_learned = {s.link_id: split[s.rel] for s in ordered}
        by_learned[LOCAL] = split[None]
        if catalog is None:
            return cls(ordered, by_learned, None, EMPTY, EMPTY_MAP)
        return cls(ordered, by_learned, catalog, catalog.communities(), neighbor_rels_of(ordered))


def neighbor_rels_of(sessions: Iterable[Session]) -> dict[int, Rel]:
    """Neighbor ASN -> relationship over `sessions`.  A neighbor reached over
    both a c2p and a p2p link counts as a customer if any link says so, else
    as a peer if any link says so."""
    rels: dict[int, Rel] = {}
    for s in sessions:
        known = rels.get(s.neighbor)
        if known is None or _REL_RANK[s.rel] < _REL_RANK[known]:
            rels[s.neighbor] = s.rel
    return rels


class _TopologyFields(NamedTuple):
    roles: Mapping[int, str]
    links: tuple[Link, ...]
    originations: Mapping[int, frozenset[Prefix]]
    catalogs: Mapping[int, "PolicyCatalog"] = EMPTY_MAP
    lp_overrides: Mapping[tuple[int, int], int] = EMPTY_MAP


class Topology(_TopologyFields):
    """AS graph.  `roles` maps ASN -> "stub" | "transit".  Besides the
    providers' catalogs it holds each AS's standing import policy that
    overrides path length: `lp_overrides` maps (receiver, sender) -> the LP
    the receiver assigns to every route the sender sends it.

    Immutability is load-bearing: `links_by_id`, `sessions`, `validation`
    and the tables in `compiled` are computed once, on first use, and kept
    in the instance's `__dict__`.  So the mappings a topology is built from
    must not change after it is built.  A changed copy,
    `t._replace(field=value)`, starts with none of them."""

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
        the TE config.  That is the LP a receiver assigns (its LP override
        for the sender, else `default_local_pref` of the sender's
        relationship) and its catalog where the sender is its customer, the
        sender's own catalog (with the communities its egress strips and its
        neighbor table), and the valley-free export split.  The neighbor and
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
                    self.lp_overrides.get((neighbor, asn), default_local_pref(sender_rel)),
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
        """Neighbor ASN -> relationship over up links (`neighbor_rels_of` its
        sessions), a fresh dict; empty for an unknown ASN."""
        own = self.sessions.get(asn)
        return {} if own is None else neighbor_rels_of(own.all)

    def originated_by(self, asn: int) -> frozenset[Prefix]:
        return self.originations.get(asn, EMPTY)


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
    errors: list[Finding] = []
    warnings: list[Finding] = []

    def err(msg: str, *subject) -> None:
        errors.append(Finding(msg, subject))

    def warn(msg: str) -> None:
        warnings.append(Finding(msg))

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
        errors.extend(cat.validate(t))

    for (receiver, sender), lp in t.lp_overrides.items():
        subject = ("lp-override", receiver, sender)
        if receiver not in t.roles or sender not in t.roles:
            err(f"LP override references undeclared AS ({receiver}, {sender})", *subject)
        elif lp < 0:
            err("LP override must be >= 0", *subject)

    cycle = _provider_cycle(t)
    if cycle is not None:
        chain = " -> ".join(str(a) for a in cycle)
        warn(f"customer->provider cycle: {chain} (convergence not guaranteed)")

    return ValidationReport(tuple(errors), tuple(warnings)) if errors or warnings else _CLEAN


def require_valid(t: Topology) -> None:
    report = t.validation
    if not report.ok():
        msgs = "; ".join(f.message for f in report.errors)
        raise TopologyError(f"invalid topology: {msgs}")
