"""Tests for the deterministic random service."""

from repro.util.rng import RandomService, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        for name in ("x", "y", "link/a/b"):
            seed = derive_seed(123, name)
            assert 0 <= seed < 2**64


class TestRandomService:
    def test_same_stream_same_draws(self):
        a = RandomService(5).stream("jitter")
        b = RandomService(5).stream("jitter")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_are_cached(self):
        service = RandomService(5)
        assert service.stream("x") is service.stream("x")

    def test_streams_independent_of_creation_order(self):
        """Adding a new consumer must not perturb existing streams."""
        first = RandomService(9)
        draw_before = first.stream("loss").random()
        second = RandomService(9)
        second.stream("extra-consumer")  # created before "loss"
        draw_after = second.stream("loss").random()
        assert draw_before == draw_after

    def test_seed_property(self):
        assert RandomService(77).seed == 77
