"""Deterministic dimension-ordered (X-Y) look-ahead routing (§4.1).

:class:`XYRouting` implements the routing function of the paper's
Table 1 router configuration.

X-Y routing first corrects the X coordinate, then Y, and finally ejects
at the LOCAL port.  Look-ahead routing (Galles' SGI Spider scheme, used
by the paper's routers) computes a flit's output port one hop ahead: a
router receiving a head flit already knows which of its output ports the
flit takes, and computes the port the flit will take at the *next*
router.
"""

from __future__ import annotations

from itertools import chain

from repro.noc.topology import ConcentratedMesh, Port

__all__ = ["XYRouting"]


class XYRouting:
    """X-Y deterministic routing over a concentrated mesh.

    The route table is precomputed for every (current, destination) node
    pair at construction, making per-flit lookups O(1) in the simulation
    hot loop.
    """

    def __init__(self, mesh: ConcentratedMesh) -> None:
        self._mesh = mesh
        n = mesh.num_nodes
        cols = mesh.cols
        # Node ids run row by row (node == y * cols + x), so the row of
        # ``current`` is, for each destination row dy: WEST for every
        # dx left of current, the vertical move (or LOCAL) at its own
        # column, EAST for every dx to its right.
        rows = []
        for current in range(n):
            cx, cy = mesh.coordinates(current)
            west = [Port.WEST] * cx
            east = [Port.EAST] * (cols - cx - 1)
            row: list[int] = []
            for dy in range(mesh.rows):
                row += west
                if dy < cy:
                    row.append(Port.NORTH)
                elif dy > cy:
                    row.append(Port.SOUTH)
                else:
                    row.append(Port.LOCAL)
                row += east
            rows.append(tuple(row))
        self._rows = tuple(rows)
        # _table[current * n + dst] -> output port at `current`.
        self._table = list(chain.from_iterable(rows))
        self._n = n

    @property
    def mesh(self) -> ConcentratedMesh:
        """Topology this routing function is defined over."""
        return self._mesh

    @property
    def table(self) -> list[int]:
        """Flat route table: ``table[current * num_nodes + dst]`` (the
        :attr:`rows` concatenated)."""
        return self._table

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Route table by node: ``rows[current][dst]`` is
        ``output_port(current, dst)``.

        A router holds its neighbours' rows for look-ahead routing and
        an NI its own node's row for the injection route.
        """
        return self._rows

    @property
    def num_nodes(self) -> int:
        """Stride of the flat route table."""
        return self._n

    def output_port(self, current: int, dst: int) -> int:
        """Output port taken at ``current`` for a packet headed to ``dst``."""
        return self._table[current * self._n + dst]

    def next_hop(self, current: int, dst: int) -> int | None:
        """Next router on the path, or ``None`` if ejecting here."""
        port = self.output_port(current, dst)
        if port == Port.LOCAL:
            return None
        return self._mesh.neighbor(current, port)

    def path(self, src: int, dst: int) -> list[int]:
        """Full router path from ``src`` to ``dst`` inclusive."""
        path = [src]
        current = src
        while current != dst:
            nxt = self.next_hop(current, dst)
            if nxt is None:
                raise RuntimeError("X-Y routing must always progress")
            path.append(nxt)
            current = nxt
        return path
