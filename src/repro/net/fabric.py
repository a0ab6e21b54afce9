"""The cluster fabric: hosts, links, and RPC round trips.

A :class:`Fabric` holds named :class:`Host` objects and the
:class:`~repro.net.transports.TransportSpec` connecting each pair.  Two
ways to use it:

* ``fabric.sample_rtt(...)`` — pure latency sampling for callers that
  account time themselves (the fast path).
* ``yield from fabric.rpc(...)`` — a simulation sub-process that holds
  the client NIC for the serialization interval, so concurrent RPCs from
  the same host queue realistically.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from ..errors import HostUnreachableError, NetworkError
from ..sim import Environment, RandomStreams, Resource
from .transports import TransportSpec

__all__ = ["Host", "Fabric"]


class Host:
    """A server on the fabric with a single NIC queue."""

    def __init__(self, env: Environment, name: str, nic_queues: int = 1) -> None:
        self.env = env
        self.name = name
        #: Concurrent in-flight sends allowed (QPs / channels).
        self.nic = Resource(env, capacity=nic_queues)

    def __repr__(self) -> str:
        return f"<Host {self.name!r}>"


class Fabric:
    """Hosts plus pairwise transports."""

    def __init__(self, env: Environment, streams: RandomStreams) -> None:
        self.env = env
        self._rng = streams.stream("net.fabric")
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[Tuple[str, str], TransportSpec] = {}
        #: (src, dst) -> (source host, transport), resolved once per
        #: route by :meth:`rpc`; :meth:`connect` clears it.
        self._routes: Dict[Tuple[str, str], Tuple[Host, TransportSpec]] = {}

    # -- topology ----------------------------------------------------------

    def add_host(self, name: str, nic_queues: int = 1) -> Host:
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(self.env, name, nic_queues=nic_queues)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise HostUnreachableError(f"unknown host {name!r}") from None

    def connect(self, a: str, b: str, transport: TransportSpec) -> None:
        """Create a bidirectional link between hosts ``a`` and ``b``."""
        if a == b:
            raise NetworkError("cannot connect a host to itself")
        self.host(a)
        self.host(b)
        self._links[self._key(a, b)] = transport
        self._routes.clear()

    def transport_between(self, a: str, b: str) -> TransportSpec:
        try:
            return self._links[self._key(a, b)]
        except KeyError:
            raise HostUnreachableError(
                f"no link between {a!r} and {b!r}"
            ) from None

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # -- latency sampling ----------------------------------------------------

    def sample_one_way(self, src: str, dst: str, nbytes: int) -> float:
        """Sampled one-way latency in µs for an ``nbytes`` message."""
        return self.transport_between(src, dst).one_way_us(nbytes, self._rng)

    def sample_rtt(
        self,
        src: str,
        dst: str,
        request_bytes: int,
        response_bytes: int,
        server_us: float = 0.0,
    ) -> float:
        """Sampled round-trip latency in µs."""
        return self.transport_between(src, dst).round_trip_us(
            request_bytes, response_bytes, self._rng, server_us=server_us
        )

    # -- simulation processes -------------------------------------------------

    def rpc(
        self,
        src: str,
        dst: str,
        request_bytes: int,
        response_bytes: int,
        server_us: float = 0.0,
        payload: Optional[object] = None,
    ) -> Generator:
        """A sub-process performing one RPC; returns ``payload``.

        Holds the source NIC while the request serializes so concurrent
        senders on one host contend.  Use as ``result = yield from
        fabric.rpc(...)`` inside a simulation process.
        """
        env = self.env
        route = self._routes.get((src, dst))
        if route is None:
            source = self.host(src)
            self.host(dst)
            route = (source, self.transport_between(src, dst))
            self._routes[(src, dst)] = route
        source, transport = route

        request = source.nic.try_acquire()
        if request is None:
            request = source.nic.request()
            yield request
        try:
            serialization_us = transport.serialization_us(request_bytes)
            if not env.try_advance(serialization_us):
                yield env.timeout(serialization_us)
        finally:
            source.nic.release(request)

        remaining = max(
            0.0,
            transport.one_way_us(request_bytes, self._rng)
            - transport.serialization_us(request_bytes)
            + server_us
            + transport.one_way_us(response_bytes, self._rng),
        )
        if not env.try_advance(remaining):
            yield env.timeout(remaining)
        return payload

    def __repr__(self) -> str:
        return (
            f"<Fabric hosts={len(self._hosts)} links={len(self._links)}>"
        )
