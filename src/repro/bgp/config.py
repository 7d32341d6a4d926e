"""Router configuration: model, textual parser, and runtime changes.

Configuration is deliberately a first-class, *changeable* object: the
paper's third fault class is operator mistakes, i.e. "seemingly valid
configuration changes" whose system-wide interaction is faulty.  DiCE
explores the consequences of a :class:`ConfigChange` before (or as) it is
applied; the hijack experiment applies an ``add network`` change that is
locally valid and globally catastrophic.

The textual syntax is BIRD-flavoured::

    router r1 {
        local as 65001;
        router id 10.0.1.1;
        network 10.1.0.0/16;
        default local pref 100;
        neighbor r2 {
            as 65002;
            import filter imp_r2;
            export filter exp_r2;
            hold time 90;
        }
        bug community_crash;
    }
    filter imp_r2 { accept; }
    filter exp_r2 { accept; }
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bgp import faults
from repro.bgp.damping import DampingParams
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.policy import ACCEPT_ALL, Filter
from repro.bgp.policy_lang import (
    FilterDef,
    Parser,
    Token,
    tokenize,
)


@dataclass(frozen=True)
class NeighborConfig:
    """One configured BGP neighbor."""

    peer: str
    peer_as: int
    import_filter: str = "accept_all"
    export_filter: str = "accept_all"
    hold_time: int = 90
    # MED to attach on eBGP export toward this neighbor (None = none).
    export_med: int | None = None

    def is_ibgp(self, local_as: int) -> bool:
        """True when this neighbor is in our own AS."""
        return self.peer_as == local_as


@dataclass(frozen=True)
class RouterConfig:
    """Full configuration of one router."""

    name: str
    local_as: int
    router_id: IPv4Address
    networks: tuple[Prefix, ...] = ()
    neighbors: tuple[NeighborConfig, ...] = ()
    filters: dict[str, Filter] = field(default_factory=dict)
    default_local_pref: int = 100
    always_compare_med: bool = False
    enabled_bugs: frozenset[str] = frozenset()
    # Minimum route advertisement interval (0 = advertise immediately).
    mrai: float = 0.0
    # Route-flap damping (RFC 2439); None disables.
    damping: "DampingParams | None" = None

    def __post_init__(self):
        if not 1 <= self.local_as <= 0xFFFF:
            raise ValueError(f"local AS out of range: {self.local_as}")
        names = [n.peer for n in self.neighbors]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate neighbor in {self.name!r} config")
        for bug in self.enabled_bugs:
            if bug not in faults.ALL_BUGS:
                raise ValueError(f"unknown bug {bug!r}")

    def neighbor(self, peer: str) -> NeighborConfig:
        """The neighbor entry for ``peer`` (KeyError when absent)."""
        for neighbor in self.neighbors:
            if neighbor.peer == peer:
                return neighbor
        raise KeyError(f"{self.name!r} has no neighbor {peer!r}")

    def get_filter(self, name: str) -> Filter:
        """Look up a filter by name; ``accept_all`` is always available."""
        if name in self.filters:
            return self.filters[name]
        if name == "accept_all":
            return ACCEPT_ALL
        raise KeyError(f"{self.name!r} has no filter {name!r}")

    def bug_enabled(self, bug: str) -> bool:
        """True when the named injected bug is active on this router."""
        return bug in self.enabled_bugs


# --------------------------------------------------------------------------
# Runtime configuration changes (the operator-mistake surface)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigChange:
    """Base class for applicable configuration changes."""

    def apply(self, config: RouterConfig) -> RouterConfig:
        """Return the changed configuration (never mutates)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Operator-log style one-liner."""
        raise NotImplementedError


@dataclass(frozen=True)
class AddNetwork(ConfigChange):
    """Originate an additional prefix — the hijack-scenario change."""

    prefix: Prefix

    def apply(self, config: RouterConfig) -> RouterConfig:
        if self.prefix in config.networks:
            return config
        return replace(config, networks=config.networks + (self.prefix,))

    def describe(self) -> str:
        return f"add network {self.prefix}"


@dataclass(frozen=True)
class RemoveNetwork(ConfigChange):
    """Stop originating a prefix."""

    prefix: Prefix

    def apply(self, config: RouterConfig) -> RouterConfig:
        networks = tuple(p for p in config.networks if p != self.prefix)
        return replace(config, networks=networks)

    def describe(self) -> str:
        return f"remove network {self.prefix}"


@dataclass(frozen=True)
class SetNeighborFilter(ConfigChange):
    """Swap the import or export filter used for one neighbor."""

    peer: str
    direction: str  # "import" | "export"
    filter_name: str

    def apply(self, config: RouterConfig) -> RouterConfig:
        """The changed configuration; a filter the router does not
        define is refused here, as the config parser refuses one, not
        left to crash the router on its next UPDATE."""
        if self.direction not in ("import", "export"):
            raise ValueError(f"bad direction {self.direction!r}")
        config.get_filter(self.filter_name)  # KeyError when undefined
        updated = []
        found = False
        for neighbor in config.neighbors:
            if neighbor.peer == self.peer:
                found = True
                key = f"{self.direction}_filter"
                neighbor = replace(neighbor, **{key: self.filter_name})
            updated.append(neighbor)
        if not found:
            raise KeyError(f"no neighbor {self.peer!r}")
        return replace(config, neighbors=tuple(updated))

    def describe(self) -> str:
        return f"set {self.direction} filter {self.filter_name} for {self.peer}"


@dataclass(frozen=True)
class AddFilter(ConfigChange):
    """Define (or redefine) a named filter."""

    filter: Filter

    def apply(self, config: RouterConfig) -> RouterConfig:
        filters = dict(config.filters)
        filters[self.filter.name] = self.filter
        return replace(config, filters=filters)

    def describe(self) -> str:
        return f"define filter {self.filter.name}"


# --------------------------------------------------------------------------
# Textual configuration parser
# --------------------------------------------------------------------------


class _ConfigParser(Parser):
    """Parses router blocks and, in place, the filters beside them."""

    def __init__(self, source: str):
        super().__init__(tokenize(source))
        # Every filter a neighbor names: (router, name token).
        self._filter_refs: list[tuple[str, Token]] = []

    def _expect_word(self, *words: str) -> str:
        token = self._peek()
        if token.kind in ("ident", "keyword") and token.text in words:
            return self._advance().text
        raise self._error(f"expected {' or '.join(words)!r}")

    def parse(self) -> list[RouterConfig]:
        routers: list[dict] = []
        filter_defs: dict[str, FilterDef] = {}
        while not self._check("eof"):
            if self._check("ident", "router"):
                routers.append(self._parse_router())
            elif self._check("keyword", "filter"):
                self._parse_filter_into(filter_defs)
            else:
                raise self._error("expected 'router' or 'filter'")
        for router, token in self._filter_refs:
            if token.text not in filter_defs and token.text != ACCEPT_ALL.name:
                raise self._error(
                    f"router {router!r} names undefined filter {token.text!r}",
                    token,
                )
        filters = {
            name: Filter(definition) for name, definition in filter_defs.items()
        }
        return [
            RouterConfig(**fields, filters=dict(filters)) for fields in routers
        ]

    def _parse_router(self) -> dict:
        self._expect_word("router")
        name = self._expect("ident").text
        self._expect("punct", "{")
        fields: dict = {
            "name": name,
            "local_as": None,
            "router_id": None,
            "networks": [],
            "neighbors": [],
            "default_local_pref": 100,
            "always_compare_med": False,
            "enabled_bugs": set(),
        }
        while not self._check("punct", "}"):
            word = self._expect_word(
                "local", "router", "network", "neighbor", "default", "med", "bug"
            )
            if word == "neighbor":
                fields["neighbors"].append(self._parse_neighbor(name))
                continue
            if word == "local":
                self._expect_word("as")
                fields["local_as"] = self._expect_int()
            elif word == "router":
                self._expect_word("id")
                fields["router_id"] = IPv4Address(self._parse_dotted())
            elif word == "network":
                fields["networks"].append(self._parse_prefix())
            elif word == "default":
                self._expect_word("local")
                self._expect_word("pref")
                fields["default_local_pref"] = self._expect_int()
            elif word == "med":
                self._expect_word("compare")
                self._expect_word("always")
                fields["always_compare_med"] = True
            elif word == "bug":
                bug = self._expect("ident").text
                if bug not in faults.ALL_BUGS:
                    raise self._error(f"unknown bug {bug!r}")
                fields["enabled_bugs"].add(bug)
            self._expect("punct", ";")
        self._expect("punct", "}")
        if fields["local_as"] is None:
            raise self._error(f"router {name!r} missing 'local as'")
        if fields["router_id"] is None:
            raise self._error(f"router {name!r} missing 'router id'")
        fields["networks"] = tuple(fields["networks"])
        fields["neighbors"] = tuple(fields["neighbors"])
        fields["enabled_bugs"] = frozenset(fields["enabled_bugs"])
        return fields

    def _parse_filter_name(self, router: str) -> str:
        token = self._expect("ident")
        self._filter_refs.append((router, token))
        return token.text

    def _parse_neighbor(self, router: str) -> NeighborConfig:
        peer = self._expect("ident").text
        self._expect("punct", "{")
        peer_as = None
        import_filter = "accept_all"
        export_filter = "accept_all"
        hold_time = 90
        export_med = None
        while not self._check("punct", "}"):
            word = self._expect_word("as", "import", "export", "hold", "med")
            if word == "as":
                peer_as = self._expect_int()
            elif word == "import":
                self._expect_word("filter")
                import_filter = self._parse_filter_name(router)
            elif word == "export":
                if self._expect_word("filter", "med") == "filter":
                    export_filter = self._parse_filter_name(router)
                else:
                    export_med = self._expect_int()
            elif word == "hold":
                self._expect_word("time")
                hold_time = self._expect_int()
            elif word == "med":
                export_med = self._expect_int()
            self._expect("punct", ";")
        self._expect("punct", "}")
        if peer_as is None:
            raise self._error(f"neighbor {peer!r} missing 'as'")
        return NeighborConfig(
            peer=peer,
            peer_as=peer_as,
            import_filter=import_filter,
            export_filter=export_filter,
            hold_time=hold_time,
            export_med=export_med,
        )


def parse_config(source: str) -> list[RouterConfig]:
    """Parse a configuration file into router configs.

    Filters defined anywhere in the file are visible to every router, as
    in a shared site-wide policy include.  A duplicate filter name, and
    a neighbor naming a filter the file never defines (``accept_all``
    is always defined), are refused with a
    :class:`~repro.bgp.policy_lang.PolicySyntaxError`.
    """
    return _ConfigParser(source).parse()
