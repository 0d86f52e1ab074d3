"""A BGP-style path-vector routing substrate.

The paper's workflow starts from a control-plane simulator that computes the
network's forwarding state from router configurations (Section 2.3); Rela
itself only consumes the resulting forwarding paths.  To reproduce the whole
workflow end to end we implement a simplified but recognizable BGP:

* routers originate prefixes;
* routes propagate over eBGP sessions (physically adjacent routers in
  different ASes) and an implicit iBGP full mesh inside each AS;
* import policies can deny routes or set local preference (which is how the
  Figure 1 change iterations go wrong);
* best-route selection follows the classic order: highest local preference,
  then shortest AS path, then lowest IGP cost to the exit, with ties kept as
  an ECMP set.

The output is, per router and prefix, the set of selected routes, which
:mod:`repro.network.fib` turns into forwarding tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Iterable

from repro.errors import RoutingError
from repro.network.addressing import Prefix
from repro.network.igp import shortest_path_costs
from repro.network.policy import PolicyAction, RoutePolicy, permit_all
from repro.network.topology import Topology

DEFAULT_LOCAL_PREF = 100


@dataclass(frozen=True, slots=True)
class Route:
    """One BGP route as held in a router's RIB."""

    prefix: Prefix
    origin: str
    as_path: tuple[int, ...] = ()
    local_pref: int = DEFAULT_LOCAL_PREF
    #: The physically adjacent neighbor this route was learned from over
    #: eBGP, or the iBGP peer holding the exit, or ``None`` when originated
    #: locally.
    learned_from: str | None = None
    #: The router at which traffic exits toward the prefix (the eBGP exit or
    #: the originating router).
    exit_router: str = ""

    def key(self) -> tuple[int, int]:
        """Selection key fragments that are comparable network-wide."""
        return (-self.local_pref, len(self.as_path))


@dataclass(slots=True)
class RouterConfig:
    """Per-router configuration consumed by the routing computation."""

    name: str
    originated: list[Prefix] = field(default_factory=list)
    import_policies: dict[str, RoutePolicy] = field(default_factory=dict)
    export_policies: dict[str, RoutePolicy] = field(default_factory=dict)
    default_local_pref: int = DEFAULT_LOCAL_PREF

    def originate(self, prefix: Prefix | str) -> None:
        """Originate a prefix from this router."""
        self.originated.append(Prefix.coerce(prefix))

    def set_import_policy(self, neighbor: str, policy: RoutePolicy) -> None:
        """Attach an import policy for routes learned from ``neighbor``."""
        self.import_policies[neighbor] = policy

    def set_export_policy(self, neighbor: str, policy: RoutePolicy) -> None:
        """Attach an export policy for routes advertised to ``neighbor``."""
        self.export_policies[neighbor] = policy

    def import_policy(self, neighbor: str) -> RoutePolicy:
        return self.import_policies.get(neighbor, permit_all())

    def export_policy(self, neighbor: str) -> RoutePolicy:
        return self.export_policies.get(neighbor, permit_all())


class NetworkConfig:
    """The collection of all router configurations."""

    def __init__(self, configs: Iterable[RouterConfig] = ()):
        self._configs: dict[str, RouterConfig] = {}
        for config in configs:
            self._configs[config.name] = config

    def router(self, name: str) -> RouterConfig:
        """Get (or lazily create) the configuration of a router."""
        if name not in self._configs:
            self._configs[name] = RouterConfig(name=name)
        return self._configs[name]

    def routers(self) -> list[RouterConfig]:
        return list(self._configs.values())

    def copy(self) -> "NetworkConfig":
        """A deep copy, so change iterations can be derived from a base config."""
        clone = NetworkConfig()
        for name, config in self._configs.items():
            clone._configs[name] = RouterConfig(
                name=name,
                originated=list(config.originated),
                import_policies=dict(config.import_policies),
                export_policies=dict(config.export_policies),
                default_local_pref=config.default_local_pref,
            )
        return clone


#: Selected routes: router name -> prefix -> list of equally-good routes.
SelectedRoutes = dict[str, dict[Prefix, list[Route]]]


#: Shared permissive policy used when a neighbor has no explicit policy.
#: :class:`RoutePolicy` evaluation is read-only, so one instance is safe to
#: share across every router and round.
_PERMIT_ALL = permit_all()


class BGPComputation:
    """Fixed-point computation of BGP route propagation and selection."""

    def __init__(self, topology: Topology, config: NetworkConfig, *, max_rounds: int | None = None):
        self.topology = topology
        self.config = config
        self.max_rounds = max_rounds or (2 * topology.num_routers + 10)
        self._igp_costs: dict[str, dict[str, int]] = {}
        self._asn_cache: dict[str, int] | None = None
        self._session_cache: dict[str, list[tuple[str, bool]]] = {}
        self._config_cache: dict[str, RouterConfig] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _asn(self, router: str) -> int:
        cache = self._asn_cache
        if cache is None:
            cache = self._asn_cache = {entry.name: entry.asn for entry in self.topology}
        return cache[router]

    def _router_config(self, name: str) -> RouterConfig:
        cached = self._config_cache.get(name)
        if cached is None:
            cached = self._config_cache[name] = self.config.router(name)
        return cached

    def _igp_cost(self, source: str, target: str) -> int:
        if source == target:
            return 0
        if source not in self._igp_costs:
            self._igp_costs[source] = shortest_path_costs(self.topology, source)
        return self._igp_costs[source].get(target, 1 << 30)

    def _sessions(self, router: str) -> list[tuple[str, bool]]:
        """Peers of ``router`` as (peer, is_ebgp) pairs.

        eBGP sessions exist between physically adjacent routers in different
        ASes; iBGP sessions form an implicit full mesh within an AS.  The
        session set depends only on the (immutable) topology, so it is
        memoized per router.
        """
        cached = self._session_cache.get(router)
        if cached is not None:
            return cached
        sessions: list[tuple[str, bool]] = []
        own_asn = self._asn(router)
        for neighbor in sorted(self.topology.neighbors(router)):
            if self._asn(neighbor) != own_asn:
                sessions.append((neighbor, True))
        for other in self.topology.routers_in_asn(own_asn):
            if other.name != router:
                sessions.append((other.name, False))
        self._session_cache[router] = sessions
        return sessions

    # ------------------------------------------------------------------
    # Main computation
    # ------------------------------------------------------------------
    def compute(self) -> SelectedRoutes:
        """Run route propagation to a fixed point and return selected routes.

        The fixed point is driven as a *wavefront*: per round, best-route
        selection is recomputed only for ``(router, prefix)`` pairs whose
        Adj-RIB-in changed in the previous round, and a router re-advertises
        a prefix only when its selection for that prefix actually changed.
        This is an exactness-preserving pruning of the textbook
        all-pairs-every-round sweep: re-advertising an *unchanged* selection
        is idempotent — the same best route exports and imports to the same
        value, which the previous round already wrote into the peer's rib, so
        the write comparison fails and nothing changes.  Skipping that work
        leaves the per-round rib evolution, the convergence round count and
        the final fixed point identical while cutting the steady-state cost
        from ``O(routers × sessions × prefixes)`` per round to the size of
        the actual change wavefront — the property that makes per-contingency
        recomputation affordable in k-failure sweeps.
        """
        # Adj-RIB-in per router: (peer or None) -> prefix -> Route
        ribs: dict[str, dict[str | None, dict[Prefix, Route]]] = {
            router.name: {None: {}} for router in self.topology
        }
        for config in self.config.routers():
            if not self.topology.has_router(config.name):
                raise RoutingError(f"configuration references unknown router {config.name!r}")
            for prefix in config.originated:
                ribs[config.name][None][prefix] = Route(
                    prefix=prefix,
                    origin=config.name,
                    as_path=(),
                    local_pref=config.default_local_pref,
                    learned_from=None,
                    exit_router=config.name,
                )

        sessions = {name: self._sessions(name) for name in ribs}
        selection: SelectedRoutes = {name: {} for name in ribs}
        dirty: set[tuple[str, Prefix]] = {
            (name, prefix)
            for name, per_peer in ribs.items()
            for routes in per_peer.values()
            for prefix in routes
        }
        for _round in range(self.max_rounds):
            frontier = self._reselect(ribs, selection, dirty)
            if not frontier:
                break
            dirty = set()
            changed = False
            for name, prefix, routes in frontier:
                for peer, is_ebgp in sessions[name]:
                    advertised = self._pick_advertised(name, routes, is_ebgp)
                    if advertised is None:
                        continue
                    exported = self._apply_export(name, peer, advertised)
                    if exported is None:
                        continue
                    imported = self._apply_import(name, peer, exported, is_ebgp)
                    if imported is None:
                        continue
                    peer_rib = ribs[peer].setdefault(name, {})
                    if peer_rib.get(prefix) != imported:
                        peer_rib[prefix] = imported
                        dirty.add((peer, prefix))
                        changed = True
            if not changed:
                break
        # Fold any dirt left by a max_rounds exhaustion so the returned
        # selection always reflects the final ribs.
        self._reselect(ribs, selection, dirty)
        return selection

    def _reselect(
        self,
        ribs: dict[str, dict[str | None, dict[Prefix, Route]]],
        selection: SelectedRoutes,
        dirty: set[tuple[str, Prefix]],
    ) -> list[tuple[str, Prefix, list[Route]]]:
        """Recompute selection for ``dirty`` pairs; return the ones that changed."""
        frontier: list[tuple[str, Prefix, list[Route]]] = []
        for name, prefix in sorted(dirty, key=lambda pair: (pair[0], str(pair[1]))):
            candidates: list[Route] = []
            for routes in ribs[name].values():
                route = routes.get(prefix)
                if route is not None:
                    candidates.append(route)
            best = self._select(name, candidates)
            if selection[name].get(prefix) != best:
                selection[name][prefix] = best
                frontier.append((name, prefix, best))
        return frontier

    def _pick_advertised(self, router: str, routes: list[Route], is_ebgp: bool) -> Route | None:
        """The single best route ``router`` advertises to a peer.

        Routes learned over iBGP are not re-advertised to iBGP peers, which is
        the standard loop-avoidance rule for a full mesh.
        """
        own_asn = self._asn(router)
        for route in routes:
            if is_ebgp:
                return route
            learned_over_ibgp = (
                route.learned_from is not None and self._asn(route.learned_from) == own_asn
            )
            if not learned_over_ibgp:
                return route
        return None

    def _apply_export(self, router: str, peer: str, route: Route) -> Route | None:
        policy = self._router_config(router).export_policies.get(peer, _PERMIT_ALL)
        action, local_pref = policy.evaluate(route.prefix)
        if action is PolicyAction.DENY:
            return None
        if local_pref is not None:
            route = replace(route, local_pref=local_pref)
        return route

    def _apply_import(self, router: str, peer: str, route: Route, is_ebgp: bool) -> Route | None:
        peer_asn = self._asn(peer)
        sender_asn = self._asn(router)
        as_path = route.as_path
        if is_ebgp:
            # The sender prepends its own ASN; the receiver rejects routes
            # whose AS path already contains its ASN (loop prevention).
            as_path = (sender_asn,) + as_path
            if peer_asn in as_path:
                return None
            exit_router = peer
            local_pref = self._router_config(peer).default_local_pref
        else:
            exit_router = route.exit_router
            local_pref = route.local_pref
        policy = self._router_config(peer).import_policies.get(router, _PERMIT_ALL)
        action, override = policy.evaluate(route.prefix)
        if action is PolicyAction.DENY:
            return None
        if override is not None:
            local_pref = override
        return Route(
            prefix=route.prefix,
            origin=route.origin,
            as_path=as_path,
            local_pref=local_pref,
            learned_from=router,
            exit_router=exit_router,
        )

    def _select(self, router: str, routes: list[Route]) -> list[Route]:
        """Best-route selection with ECMP ties."""

        def full_key(route: Route) -> tuple[int, int, int]:
            local_pref, as_len = route.key()
            return (local_pref, as_len, self._igp_cost(router, route.exit_router))

        best_key = min(full_key(route) for route in routes)
        chosen = [route for route in routes if full_key(route) == best_key]
        chosen.sort(key=lambda route: (route.exit_router, route.learned_from or ""))
        return chosen
