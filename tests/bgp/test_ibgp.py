"""iBGP behaviour: sessions inside one AS."""

from repro import IPv4Address, LiveSystem, NeighborConfig, Prefix, RouterConfig
from repro.net.link import LinkProfile

P_EXT = Prefix("10.5.0.0/16")


def build_mixed_as():
    """ext(AS 65001) -- a(AS 65100) == b(AS 65100) -- cust(AS 65002).

    a and b share an AS (iBGP between them); ext and cust are eBGP.
    """
    configs = [
        RouterConfig(
            name="ext", local_as=65001, router_id=IPv4Address("1.1.1.1"),
            networks=(P_EXT,),
            neighbors=(NeighborConfig(peer="a", peer_as=65100),),
        ),
        RouterConfig(
            name="a", local_as=65100, router_id=IPv4Address("2.2.2.1"),
            neighbors=(
                NeighborConfig(peer="ext", peer_as=65001),
                NeighborConfig(peer="b", peer_as=65100),
            ),
        ),
        RouterConfig(
            name="b", local_as=65100, router_id=IPv4Address("2.2.2.2"),
            networks=(Prefix("10.100.0.0/16"),),
            neighbors=(
                NeighborConfig(peer="a", peer_as=65100),
                NeighborConfig(peer="cust", peer_as=65002),
            ),
        ),
        RouterConfig(
            name="cust", local_as=65002, router_id=IPv4Address("3.3.3.3"),
            neighbors=(NeighborConfig(peer="b", peer_as=65100),),
        ),
    ]
    links = [
        ("ext", "a", LinkProfile.lan()),
        ("a", "b", LinkProfile.lan()),
        ("b", "cust", LinkProfile.lan()),
    ]
    live = LiveSystem.build(configs, links, seed=6)
    live.converge()
    return live


class TestIbgp:
    def test_ibgp_session_established(self):
        live = build_mixed_as()
        assert "b" in live.router("a").established_peers()

    def test_as_path_not_prepended_on_ibgp(self):
        """iBGP export must not add the local AS to the path."""
        live = build_mixed_as()
        route = live.router("b").loc_rib.get(P_EXT)
        assert route is not None
        assert list(route.attributes.as_path.asns()) == [65001]

    def test_local_pref_carried_over_ibgp(self):
        """LOCAL_PREF is significant (and preserved) inside the AS."""
        live = build_mixed_as()
        route = live.router("b").loc_rib.get(P_EXT)
        assert route.attributes.local_pref is not None

    def test_ebgp_export_prepends_once_per_as(self):
        """cust sees [65100, 65001]: one hop per AS, not per router."""
        live = build_mixed_as()
        route = live.router("cust").loc_rib.get(P_EXT)
        assert route is not None
        assert list(route.attributes.as_path.asns()) == [65100, 65001]

    def test_ibgp_route_source_tagged(self):
        live = build_mixed_as()
        route = live.router("b").loc_rib.get(P_EXT)
        assert route.source == "ibgp"

    def test_no_ibgp_reflection(self):
        """An iBGP-learned route is not re-advertised to iBGP peers
        (full-mesh assumption, no route reflectors)."""
        live = build_mixed_as()
        b = live.router("b")
        # b learned b's own prefix locally; a learned it over iBGP.
        # a must not advertise it back over iBGP (only session a-b
        # exists inside the AS, so check Adj-RIB-Out of a toward b).
        assert b.adj_rib_in["a"].get(Prefix("10.100.0.0/16")) is None

    def test_ibgp_loop_detection_unaffected(self, router_events):
        """The local AS never appears in iBGP paths, so ingress loop
        checks pass inside the AS."""
        build_mixed_as()
        assert ("a", "b") in router_events("session_established")
        assert router_events("loop_rejected") == []
