"""Tests for router configuration: model, parser, runtime changes."""

import pytest

from repro.bgp import faults
from repro.bgp.config import (
    AddFilter,
    AddNetwork,
    NeighborConfig,
    RemoveNetwork,
    RouterConfig,
    SetNeighborFilter,
    parse_config,
)
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.policy import Filter
from repro.bgp.policy_lang import PolicySyntaxError

CONFIG_TEXT = """
router r1 {
    local as 65001;
    router id 10.0.1.1;
    network 10.1.0.0/16;
    network 10.11.0.0/16;
    default local pref 120;
    med compare always;
    neighbor r2 {
        as 65002;
        import filter imp_r2;
        export filter exp_r2;
        hold time 60;
        med 33;
    }
    neighbor r3 {
        as 65003;
    }
    bug community_crash;
}
filter imp_r2 {
    if bgp_path ~ [ 666 ] then reject;
    bgp_local_pref = 200;
    accept;
}
filter exp_r2 { accept; }
"""


def base_config(**overrides):
    fields = dict(
        name="r1",
        local_as=65001,
        router_id=IPv4Address("10.0.0.1"),
        networks=(Prefix("10.1.0.0/16"),),
        neighbors=(NeighborConfig(peer="r2", peer_as=65002),),
    )
    fields.update(overrides)
    return RouterConfig(**fields)


class TestModel:
    def test_neighbor_lookup(self):
        config = base_config()
        assert config.neighbor("r2").peer_as == 65002
        with pytest.raises(KeyError):
            config.neighbor("ghost")

    def test_duplicate_neighbors_rejected(self):
        with pytest.raises(ValueError):
            base_config(
                neighbors=(
                    NeighborConfig(peer="r2", peer_as=1),
                    NeighborConfig(peer="r2", peer_as=2),
                )
            )

    def test_as_range_validated(self):
        with pytest.raises(ValueError):
            base_config(local_as=0)
        with pytest.raises(ValueError):
            base_config(local_as=70000)

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError):
            base_config(enabled_bugs=frozenset({"not_a_bug"}))

    def test_accept_all_always_available(self):
        config = base_config()
        assert config.get_filter("accept_all").evaluate is not None
        with pytest.raises(KeyError):
            config.get_filter("missing")

    def test_ibgp_detection(self):
        neighbor = NeighborConfig(peer="x", peer_as=65001)
        assert neighbor.is_ibgp(65001)
        assert not neighbor.is_ibgp(65002)


class TestParser:
    def test_full_parse(self):
        configs = parse_config(CONFIG_TEXT)
        assert len(configs) == 1
        config = configs[0]
        assert config.name == "r1"
        assert config.local_as == 65001
        assert config.router_id == IPv4Address("10.0.1.1")
        assert Prefix("10.1.0.0/16") in config.networks
        assert config.default_local_pref == 120
        assert config.always_compare_med is True
        assert config.bug_enabled(faults.BUG_COMMUNITY_CRASH)

    def test_neighbor_details(self):
        config = parse_config(CONFIG_TEXT)[0]
        r2 = config.neighbor("r2")
        assert r2.peer_as == 65002
        assert r2.import_filter == "imp_r2"
        assert r2.export_filter == "exp_r2"
        assert r2.hold_time == 60
        assert r2.export_med == 33
        r3 = config.neighbor("r3")
        assert r3.import_filter == "accept_all"

    def test_filters_compiled_and_shared(self):
        config = parse_config(CONFIG_TEXT)[0]
        assert "imp_r2" in config.filters
        assert "exp_r2" in config.filters

    def test_missing_local_as_rejected(self):
        with pytest.raises(PolicySyntaxError):
            parse_config("router r1 { router id 1.2.3.4; }")

    def test_missing_router_id_rejected(self):
        with pytest.raises(PolicySyntaxError):
            parse_config("router r1 { local as 65001; }")

    def test_unknown_bug_in_text_rejected(self):
        text = (
            "router r1 { local as 1; router id 1.2.3.4; bug nope; }"
        )
        with pytest.raises(PolicySyntaxError):
            parse_config(text)

    def test_multiple_routers(self):
        text = """
        router a { local as 1; router id 1.1.1.1; }
        router b { local as 2; router id 2.2.2.2; }
        """
        configs = parse_config(text)
        assert [config.name for config in configs] == ["a", "b"]

    def test_garbage_rejected(self):
        with pytest.raises(PolicySyntaxError):
            parse_config("banana")

    def test_duplicate_filter_rejected(self):
        text = """
        router a { local as 1; router id 1.1.1.1; }
        filter f { accept; }
        filter f { reject; }
        """
        with pytest.raises(PolicySyntaxError, match="duplicate filter 'f'"):
            parse_config(text)

    def test_filters_parse_in_place_between_routers(self):
        text = """
        filter f { if net ~ [ 10.0.0.0/8{8,24} ] then { reject; } accept; }
        router a { local as 1; router id 1.1.1.1;
                   neighbor b { as 2; import filter f; } }
        filter g { bgp_local_pref = 7; accept; }
        router b { local as 2; router id 2.2.2.2;
                   neighbor a { as 1; export filter g; } }
        """
        a, b = parse_config(text)
        assert sorted(a.filters) == sorted(b.filters) == ["f", "g"]
        assert a.get_filter("f") is b.get_filter("f")

    @pytest.mark.parametrize("direction", ["import", "export"])
    def test_undefined_filter_rejected(self, direction):
        """A neighbor naming a filter the file never defines is a config
        typo, refused where it is written rather than crashing the
        router on its first UPDATE."""
        text = f"""
        router r1 {{ local as 1; router id 1.1.1.1;
                    neighbor r2 {{ as 2; }} }}
        router r2 {{ local as 2; router id 2.2.2.2;
                    neighbor r1 {{ as 1; {direction} filter typo; }} }}
        """
        with pytest.raises(PolicySyntaxError,
                           match="router 'r2' .*filter 'typo'") as caught:
            parse_config(text)
        assert caught.value.line == 5

    def test_accept_all_needs_no_definition(self):
        text = """
        router r1 { local as 1; router id 1.1.1.1;
                    neighbor r2 { as 2; import filter accept_all; } }
        """
        (config,) = parse_config(text)
        assert config.neighbor("r2").import_filter == "accept_all"


class TestChanges:
    def test_add_network(self):
        config = base_config()
        changed = AddNetwork(Prefix("10.9.0.0/16")).apply(config)
        assert Prefix("10.9.0.0/16") in changed.networks
        assert Prefix("10.9.0.0/16") not in config.networks

    def test_add_network_idempotent(self):
        config = base_config()
        change = AddNetwork(Prefix("10.1.0.0/16"))
        assert change.apply(config).networks == config.networks

    def test_remove_network(self):
        config = base_config()
        changed = RemoveNetwork(Prefix("10.1.0.0/16")).apply(config)
        assert changed.networks == ()

    def test_set_neighbor_filter(self):
        config = AddFilter(Filter.compile("filter strict { reject; }")).apply(
            base_config()
        )
        changed = SetNeighborFilter("r2", "import", "strict").apply(config)
        assert changed.neighbor("r2").import_filter == "strict"
        assert SetNeighborFilter("r2", "export", "accept_all").apply(
            config
        ).neighbor("r2").export_filter == "accept_all"

    @pytest.mark.parametrize("direction", ["import", "export"])
    def test_set_neighbor_filter_undefined_filter(self, direction):
        """A filter the router does not define is refused when the
        change is applied, as the config parser refuses one."""
        with pytest.raises(KeyError, match="'r1' has no filter 'typo'"):
            SetNeighborFilter("r2", direction, "typo").apply(base_config())

    def test_set_neighbor_filter_unknown_peer(self):
        with pytest.raises(KeyError):
            SetNeighborFilter("ghost", "import", "x").apply(base_config())

    def test_set_neighbor_filter_bad_direction(self):
        with pytest.raises(ValueError):
            SetNeighborFilter("r2", "sideways", "x").apply(base_config())

    def test_add_filter(self):
        config = base_config()
        new_filter = Filter.compile("filter strict { reject; }")
        changed = AddFilter(new_filter).apply(config)
        assert changed.get_filter("strict") is new_filter

    def test_describe_strings(self):
        assert "10.9.0.0/16" in AddNetwork(Prefix("10.9.0.0/16")).describe()
        assert "import" in SetNeighborFilter("r2", "import", "f").describe()
