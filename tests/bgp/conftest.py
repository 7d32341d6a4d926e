"""Fixtures shared by the BGP tests."""

import logging
import re

import pytest

_PEER = re.compile(r"\bpeer=(\S+)")


@pytest.fixture
def router_events(caplog):
    """Capture the routers' ``DEBUG`` records from here on.

    Returns ``events(name)``: the ``(router, peer)`` pair of each record
    of event ``name``, in order (``peer`` is None for an event without
    one).
    """
    caplog.set_level(logging.DEBUG, logger="repro.bgp.router")

    def events(name):
        found = []
        for record in caplog.records:
            if record.name != "repro.bgp.router":
                continue
            message = record.getMessage()
            event, router, _ = message.split(" ", 2)
            if event == name:
                peer = _PEER.search(message)
                found.append((router, peer and peer.group(1)))
        return found

    return events
