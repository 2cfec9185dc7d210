"""Input-buffer and virtual-channel state for a router port (§2.3, §4.1).

The paper's routers are input-buffered with 4 virtual channels per port
and 4 flits per VC; buffer depth *in flits* is constant across network
configurations (§2.3).  Flow control is credit-based per VC.
:class:`InputPort` owns one :class:`VirtualChannel` per VC; its maximum
occupancy is what the winning BFM congestion metric (§3.2.1) reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.noc.flit import Flit, MessageClass

if TYPE_CHECKING:
    from repro.noc.router import Router

__all__ = ["VirtualChannel", "InputPort", "vc_candidates"]

#: Virtual channels each message class may allocate.  Dependent protocol
#: classes are kept on disjoint VCs for protocol-level deadlock freedom
#: (paper §2.3); synthetic traffic may use any VC.
_VC_MAP_4 = {
    MessageClass.REQUEST: (0,),
    MessageClass.FORWARD: (1,),
    MessageClass.RESPONSE: (2, 3),
    MessageClass.SYNTHETIC: (0, 1, 2, 3),
}


#: Memo for :func:`vc_candidates` — it sits on the per-flit allocation
#: path of every router, and its result is a pure function of its two
#: small-integer arguments.
_VC_CANDIDATES_MEMO: dict[tuple[int, int], tuple[int, ...]] = {}


def vc_candidates(message_class: int, vcs_per_port: int) -> tuple[int, ...]:
    """Virtual channels ``message_class`` may use on a port.

    For the canonical 4-VC router the protocol classes get disjoint VC
    sets; for other VC counts the classes are spread modulo the VC count
    (synthetic traffic always gets every VC).
    """
    key = (message_class, vcs_per_port)
    cached = _VC_CANDIDATES_MEMO.get(key)
    if cached is not None:
        return cached
    if message_class == MessageClass.SYNTHETIC:
        result = tuple(range(vcs_per_port))
    elif vcs_per_port == 4:
        result = _VC_MAP_4[message_class]
    else:
        result = (message_class % vcs_per_port,)
    _VC_CANDIDATES_MEMO[key] = result
    return result


class VirtualChannel:
    """One VC FIFO plus its wormhole allocation state and link state.

    ``fifo`` is a plain list, head at index 0: it never holds more than
    ``depth`` flits, so ``del fifo[0]`` moves at most a few pointers,
    and an empty list is far smaller than a ``deque``'s first block —
    a 4-subnet fabric has thousands of VCs.

    ``out_port``/``out_vc`` record the output VC the packet at the front
    of this buffer holds; wormhole switching keeps them allocated from
    head to tail flit.  ``router``, ``port`` and ``bit`` locate the VC
    (its router, its :class:`InputPort` and its bit in the router's
    occupancy mask), so a link delivers a flit straight into it.

    The link into this VC keeps its state here, beside the buffer it
    describes: ``free`` is the credit count its sender holds (buffer
    slots neither occupied nor claimed by a flit in flight), so a flit
    sent here costs ``free -= 1`` and a flit departing from here
    returns ``free += 1``; ``owned`` is true while a packet upstream
    holds this VC as its output VC.  Mesh-edge VCs have no sender and
    keep ``free`` at ``depth``.
    """

    __slots__ = ("fifo", "out_port", "out_vc", "depth", "router", "port",
                 "bit", "free", "owned")

    def __init__(
        self,
        depth: int,
        router: "Router",
        port: "InputPort",
        bit: int,
    ) -> None:
        self.fifo: list[Flit] = []
        self.depth = depth
        self.out_port = -1
        self.out_vc = -1
        self.router = router
        self.port = port
        self.bit = bit
        self.free = depth
        self.owned = False

    @property
    def occupancy(self) -> int:
        """Number of buffered flits."""
        return len(self.fifo)

    @property
    def has_allocation(self) -> bool:
        """Whether the packet at the front holds an output VC."""
        return self.out_port >= 0

    def release_allocation(self) -> None:
        """Drop the output-VC allocation (after the tail flit departs)."""
        self.out_port = -1
        self.out_vc = -1

    @property
    def position(self) -> tuple[int, int]:
        """``(in_port, vc)`` of this VC at its router."""
        return divmod(self.bit.bit_length() - 1, self.router.vcs_per_port)


class InputPort:
    """All VCs of one router input port, with an occupancy counter.

    ``occupancy`` (total flits across VCs) is maintained incrementally
    because the BFM congestion metric reads it every cycle.  Flits
    arrive only through :meth:`repro.noc.network.SubnetNetwork.
    deliver_arrivals`; ``index`` is the port's number at ``router``.
    """

    __slots__ = ("vcs", "occupancy")

    def __init__(
        self,
        vcs_per_port: int,
        flits_per_vc: int,
        router: "Router",
        index: int,
    ) -> None:
        base = index * vcs_per_port
        self.vcs = [
            VirtualChannel(flits_per_vc, router, self, 1 << (base + vc))
            for vc in range(vcs_per_port)
        ]
        self.occupancy = 0

    def pop(self, vc: int) -> Flit:
        """Dequeue the front flit of virtual channel ``vc``."""
        flit = self.vcs[vc].fifo.pop(0)
        self.occupancy -= 1
        return flit

    @property
    def is_empty(self) -> bool:
        """True when no VC holds any flit."""
        return self.occupancy == 0
