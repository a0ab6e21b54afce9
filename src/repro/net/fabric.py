"""The cluster fabric: hosts, links, and RPC round trips.

A :class:`Fabric` holds named :class:`Host` objects and the
:class:`~repro.net.transports.TransportSpec` connecting each pair.  Two
ways to use it:

* ``fabric.sample_rtt(...)`` — pure latency sampling for callers that
  account time themselves (the fast path); ``sample_one_way`` prices
  one message the same way.
* ``yield from fabric.rpc(...)`` — a simulation sub-process that holds
  the client NIC for the serialization interval, so concurrent RPCs from
  the same host queue realistically.

This module is where a message is priced at run time: each RPC shape —
route, request bytes, response bytes — is priced once from its
:class:`~repro.net.transports.TransportSpec`, cached per shape, and a
call draws only the jitter tails.
"""

from __future__ import annotations

from math import exp
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
        #: (src, dst, request bytes, response bytes) -> its price,
        #: computed on first use by :meth:`_price`; :meth:`connect`
        #: clears it.
        self._prices: Dict[Tuple[str, str, int, int], tuple] = {}

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
        self._prices.clear()

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

    def _price(
        self, src: str, dst: str, request_bytes: int, response_bytes: int
    ) -> Tuple[Resource, float, float, float, float, float]:
        """Price one RPC shape, on its first use, and cache the price.

        The price is a plain tuple: the source NIC, held while the
        request serializes; the request's serialization time; the
        one-way latencies of the request and of the response before
        their tails; and the transport's tail sigma and scale, both 0.0
        when it draws no tail.  A call adds one tail,
        ``scale * exp(gauss(0.0, sigma))``, to each one-way latency it
        uses, request first.  Raises :class:`HostUnreachableError` for
        an unknown host or a missing link, and ``ValueError`` for a
        negative size.
        """
        source = self.host(src)
        self.host(dst)
        transport = self.transport_between(src, dst)
        jittered = transport.jittered
        price = self._prices[(src, dst, request_bytes, response_bytes)] = (
            source.nic,
            transport.serialization_us(request_bytes),
            transport.base_one_way_us(request_bytes),
            transport.base_one_way_us(response_bytes),
            transport.jitter_sigma if jittered else 0.0,
            transport.jitter_scale_us if jittered else 0.0,
        )
        return price

    # -- latency sampling ----------------------------------------------------

    def sample_one_way(self, src: str, dst: str, nbytes: int) -> float:
        """Sampled one-way latency in µs for an ``nbytes`` message.

        The request leg of the shape ``(nbytes, 0)``'s price
        (:meth:`_price`) plus one jitter tail.
        """
        price = self._prices.get((src, dst, nbytes, 0))
        if price is None:
            price = self._price(src, dst, nbytes, 0)
        _nic, _serialization_us, latency, _response_us, sigma, scale = price
        if sigma:
            latency += scale * exp(self._rng.gauss(0.0, sigma))
        return latency

    def sample_rtt(
        self,
        src: str,
        dst: str,
        request_bytes: int,
        response_bytes: int,
        server_us: float = 0.0,
    ) -> float:
        """Sampled round-trip latency in µs.

        The shape's price (:meth:`_price`) plus the two jitter tails,
        request first, summed as request + server time + response: for
        the same draws, the float that :meth:`sample_one_way` of the
        request plus ``server_us`` plus :meth:`sample_one_way` of the
        response gives.
        """
        price = self._prices.get((src, dst, request_bytes, response_bytes))
        if price is None:
            price = self._price(src, dst, request_bytes, response_bytes)
        _nic, _serialization_us, request_us, response_us, sigma, scale = (
            price
        )
        if sigma:
            gauss = self._rng.gauss
            request_us += scale * exp(gauss(0.0, sigma))
            response_us += scale * exp(gauss(0.0, sigma))
        return request_us + server_us + response_us

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

        The shape is priced once (:meth:`_price`); a call draws the two
        jitter tails after the serialization, request first.  A NIC
        token is taken only when something could see it: with a
        scheduler installed, a request waiting or no slot free, the
        call queues for one as usual; otherwise it takes one only if
        the serialization cannot advance the clock in place.  On the
        in-place path no process runs between where the token would be
        taken and returned, and returning it would wake no one, so its
        absence cannot be observed (the rule
        :meth:`~repro.blockdev.BlockDevice.read` follows).
        """
        env = self.env
        price = self._prices.get((src, dst, request_bytes, response_bytes))
        if price is None:
            price = self._price(src, dst, request_bytes, response_bytes)
        nic, serialization_us, request_us, response_us, sigma, scale = price

        token = None
        if (
            env.scheduler is not None
            or nic._queue
            or len(nic._users) >= nic.capacity
        ):
            token = nic.request()
            yield token
        try:
            if not env.try_advance(serialization_us):
                if token is None:
                    token = nic.try_acquire()
                yield env.timeout(serialization_us)
        finally:
            if token is not None:
                nic.release(token)

        if sigma:
            gauss = self._rng.gauss
            request_us += scale * exp(gauss(0.0, sigma))
            response_us += scale * exp(gauss(0.0, sigma))
        remaining = max(
            0.0, request_us - serialization_us + server_us + response_us
        )
        if not env.try_advance(remaining):
            yield env.timeout(remaining)
        return payload

    def __repr__(self) -> str:
        return (
            f"<Fabric hosts={len(self._hosts)} links={len(self._links)}>"
        )
