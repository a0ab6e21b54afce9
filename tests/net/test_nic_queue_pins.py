"""A pin for the source NIC under contention.

Benchmark runs seldom make an RPC wait for its NIC.  At seed 42,
``repro.bench fig3 table1 cluster`` issues 61,697 RPCs and 242 of them
wait (0.4 %): 1 of 15,686 in Fig 3's RAMCloud cell and 241 of 30,164
in its Memcached cell; none of Table I's 15,847, and the cluster cell
has no fabric.  238 of the 242 are page reads queued behind a
page write that holds the token across its serialization.  Which
RPCs wait depends on the whole run, so the paths around the NIC token
in ``Fabric.rpc`` are pinned here in isolation.  Two processes on one
host share a one-queue NIC: a bulk sender whose 64 KB requests
serialize for longer than the gap to the next event, so each holds the
token across its timeout, and a small sender whose requests find the
NIC busy and wait for it, or serialize in place when it is free.  An
observer samples the clock and the NIC's count and queue length every
half microsecond.  Completion times, every jitter draw and every NIC
sample hash to a constant recorded before the NIC stopped taking a
token for in-place serialization, and the same run under the
``FifoSchedule`` reference must give it too.
"""

import hashlib
import random

from repro.net import RDMA_FDR, Fabric
from repro.sim import Environment, RandomStreams

SEED = 42
PIN = (
    "7f7f81dfb4bf86427b835175966d8ccd"
    "2fdc59f3ffc1aa800f12c09184cceaf4"
)


class LoggedRandom(random.Random):
    """A ``random.Random`` that logs every Gaussian it draws."""

    def __init__(self, state):
        super().__init__()
        self.setstate(state)
        self.draws = []

    def gauss(self, mu=0.0, sigma=1.0):
        drawn = super().gauss(mu, sigma)
        self.draws.append((mu, sigma, drawn))
        return drawn


def contended_run():
    env = Environment()
    fabric = Fabric(env, RandomStreams(SEED))
    fabric.add_host("client", nic_queues=1)
    fabric.add_host("server")
    fabric.connect("client", "server", RDMA_FDR)
    rng = fabric._rng = LoggedRandom(fabric._rng.getstate())
    nic = fabric.host("client").nic
    log = []

    def sample(who, what):
        log.append((who, what, env.now, nic.count, nic.queue_length))

    def sender(name, start_us, think_us, request_bytes, response_bytes,
               server_us, count):
        yield env.timeout(start_us)
        for index in range(count):
            sample(name, f"issue {index}")
            yield from fabric.rpc(
                "client", "server", request_bytes, response_bytes,
                server_us=server_us,
            )
            sample(name, f"done {index}")
            yield env.timeout(think_us)

    def observer(period_us, ticks):
        for _ in range(ticks):
            sample("observer", "tick")
            yield env.timeout(period_us)

    env.process(sender("bulk", 0.0, 5.0, 64 * 1024, 64, 2.0, 4))
    env.process(sender("small", 1.0, 2.0, 64, 4096, 1.8, 16))
    env.process(observer(0.5, 160))
    env.run()
    return (tuple(log), tuple(rng.draws), env.now), log


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def test_contended_nic_matches_pin_and_reference(fifo_reference):
    outputs, log = contended_run()
    # The run takes every path: a bulk request holds the token across
    # its serialization timeout while the small sender queues for it.
    assert any(
        who == "small" and what.startswith("issue") and count == 1
        for who, what, _now, count, _queued in log
    )
    assert any(queued > 0 for *_rest, queued in log)
    pinned = digest(outputs)
    assert pinned == PIN
    with fifo_reference():
        assert digest(contended_run()[0]) == pinned
