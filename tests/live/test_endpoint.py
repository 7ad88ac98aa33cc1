"""Endpoint: the typed falkon:// address and its deprecation shim."""

import warnings

import pytest

from repro.live.endpoint import Endpoint, EndpointLike, as_endpoint


class TestParsing:
    def test_url_form(self):
        ep = Endpoint.parse("falkon://10.0.0.1:9000")
        assert ep.host == "10.0.0.1"
        assert ep.port == 9000
        assert ep.url == "falkon://10.0.0.1:9000"

    def test_bare_host_port(self):
        assert Endpoint.parse("localhost:7000") == Endpoint("localhost", 7000)

    def test_parse_accepts_endpoint_and_refuses_tuple(self):
        ep = Endpoint("h", 1)
        assert Endpoint.parse(ep) is ep
        with pytest.raises(TypeError, match="no longer supported"):
            Endpoint.parse(("h", 1))

    def test_parse_list_comma_forms(self):
        eps = Endpoint.parse_list("falkon://a:1,b:2, falkon://c:3")
        assert eps == [Endpoint("a", 1), Endpoint("b", 2), Endpoint("c", 3)]

    def test_parse_list_accepts_iterables(self):
        eps = Endpoint.parse_list([Endpoint("a", 1), "b:2", "falkon://c:3"])
        assert eps == [Endpoint("a", 1), Endpoint("b", 2), Endpoint("c", 3)]
        with pytest.raises(TypeError, match="no longer supported"):
            Endpoint.parse_list(["a:1", ("c", 3)])

    @pytest.mark.parametrize("bad", [
        "", "nohost", "falkon://", "falkon://h:", "h:notaport",
        "http://h:1", "falkon://h:70000",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Endpoint.parse(bad)


class TestTupleCompatibility:
    def test_address_property(self):
        assert Endpoint("h", 9).address == ("h", 9)

    def test_ordered_and_hashable(self):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        assert a < b
        assert len({a, b, Endpoint("a", 1)}) == 2


class TestTupleRemoval:
    """The (host, port) shim served its one-release deprecation window
    and is gone: constructor addresses must be Endpoints or URL
    strings, and tuples are rejected with a migration hint."""

    def test_tuple_raises_with_migration_hint(self):
        with pytest.raises(TypeError, match="no longer supported"):
            as_endpoint(("h", 5), owner="TestOwner")

    def test_endpoint_and_url_pass_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_endpoint(Endpoint("h", 5)) == Endpoint("h", 5)
            assert as_endpoint("falkon://h:5") == Endpoint("h", 5)
            assert as_endpoint("h:5") == Endpoint("h", 5)

    def test_non_address_raises(self):
        with pytest.raises(TypeError):
            as_endpoint(42)

    def test_live_client_accepts_endpoint_without_warning(self):
        from repro.live import LiveDispatcher, LiveClient

        disp = LiveDispatcher()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                client = LiveClient(disp.endpoint)
            client.close()
        finally:
            disp.close()

    def test_every_entry_point_refuses_a_tuple(self):
        from repro.live import LiveDispatcher, ShardRouter

        with pytest.raises(TypeError, match="no longer supported"):
            ShardRouter([("127.0.0.1", 1)])
        with LiveDispatcher(shard_id="a") as dispatcher:
            with pytest.raises(TypeError, match="no longer supported"):
                dispatcher.add_peer("b", ("127.0.0.1", 1))
        with pytest.raises(TypeError):
            iter(Endpoint("h", 9))

    def test_live_client_rejects_tuple(self):
        from repro.live import LiveDispatcher, LiveClient

        disp = LiveDispatcher()
        try:
            with pytest.raises(TypeError, match="no longer supported"):
                LiveClient(disp.address)
        finally:
            disp.close()
