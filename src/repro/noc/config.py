"""Configuration records for networks, routers, and Multi-NoC fabrics.

The defaults reproduce the paper's Table 1 / Section 4 setup: an 8x8
concentrated mesh for a 256-core processor, 2 GHz two-stage routers with
4 virtual channels per port and 4 flits per VC, and a constant aggregate
datapath of 512 bits split evenly among subnets.

Named constructors build the exact configurations evaluated in the paper
(``1NT-512b``, ``2NT-256b``, ``4NT-128b``, ``8NT-64b``, and the 64-core
variants used in Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.util.validation import check_positive

__all__ = [
    "RouterTimingConfig",
    "PowerGatingConfig",
    "CongestionConfig",
    "NocConfig",
    "AGGREGATE_WIDTH_BITS_256_CORE",
    "AGGREGATE_WIDTH_BITS_64_CORE",
    "CONTROL_PACKET_BITS",
    "DATA_PACKET_BITS",
    "SYNTHETIC_PACKET_BITS",
]

#: Aggregate datapath (bits) sustaining 8 GB/s per core at 2 GHz for 256
#: cores on an 8x8 concentrated mesh (paper Section 2.2).
AGGREGATE_WIDTH_BITS_256_CORE = 512

#: Aggregate datapath for the 64-core, 4x4 concentrated mesh (Section 6.6).
AGGREGATE_WIDTH_BITS_64_CORE = 256

#: Control packet payload: 72-bit header only (paper Section 4.1).
CONTROL_PACKET_BITS = 72

#: Data packet: 64-byte cache block plus 72-bit header.
DATA_PACKET_BITS = 64 * 8 + 72

#: Synthetic-workload packet size (paper Section 4.1).
SYNTHETIC_PACKET_BITS = 512


@dataclass(frozen=True)
class RouterTimingConfig:
    """Timing of the two-stage speculative router pipeline.

    ``pipeline_cycles`` covers route computation / VC allocation /
    speculative switch allocation plus switch traversal; ``link_cycles``
    is the inter-router wire traversal.
    """

    pipeline_cycles: int = 2
    link_cycles: int = 1

    @property
    def hop_cycles(self) -> int:
        """Zero-load latency contributed by one hop."""
        return self.pipeline_cycles + self.link_cycles

    def __post_init__(self) -> None:
        check_positive("pipeline_cycles", self.pipeline_cycles)
        check_positive("link_cycles", self.link_cycles)


@dataclass(frozen=True)
class PowerGatingConfig:
    """Power-gating constants from the paper's SPICE analysis (§4.3).

    ``wakeup_cycles`` is the full T-wakeup delay; ``hidden_wakeup_cycles``
    is the portion hidden by look-ahead routing (wakeup signal from the
    upstream router).  ``breakeven_cycles`` is T-breakeven: the minimum
    sleep length for a switch-off to save energy.  ``idle_detect_cycles``
    is T-idle-detect: how long buffers must stay empty before the
    buffer-empty condition is set.
    """

    enabled: bool = True
    wakeup_cycles: int = 10
    hidden_wakeup_cycles: int = 3
    breakeven_cycles: int = 12
    idle_detect_cycles: int = 4
    #: Keep subnet 0 always on (Catnap keeps the 0th subnet active).
    keep_subnet0_active: bool = True

    def __post_init__(self) -> None:
        check_positive("wakeup_cycles", self.wakeup_cycles)
        if not 0 <= self.hidden_wakeup_cycles <= self.wakeup_cycles:
            raise ValueError(
                "hidden_wakeup_cycles must be within [0, wakeup_cycles]"
            )
        check_positive("breakeven_cycles", self.breakeven_cycles)
        check_positive("idle_detect_cycles", self.idle_detect_cycles)


@dataclass(frozen=True)
class CongestionConfig:
    """Thresholds and timing for local/regional congestion detection.

    Defaults are the best-performing thresholds reported in §4.1:
    BFM 9 flits, BFA 2 flits, Delay 1.5 cycles, IQOcc 4 flits; the 1-bit
    OR network updates regional status every 6 cycles (SPICE: 2.7 ns at
    2 GHz).
    """

    metric: str = "bfm"
    bfm_threshold_flits: int = 9
    bfa_threshold_flits: float = 2.0
    delay_threshold_cycles: float = 1.5
    iqocc_threshold_flits: int = 4
    injection_rate_threshold: float = 0.20
    injection_rate_window: int = 64
    delay_sample_period: int = 8
    #: Minimum cycles a congested status is held before it may reset.
    hold_cycles: int = 6
    rcs_update_period: int = 6
    #: Use the regional OR network (False = local-only variants).
    use_regional: bool = True
    #: Regions per mesh axis for the OR network: 1 = one global region,
    #: 2 = the paper's four quadrants, 4 = sixteen fine regions.
    rcs_divisions: int = 2

    _KNOWN_METRICS = ("bfm", "bfa", "ir", "iqocc", "delay")

    def __post_init__(self) -> None:
        if self.metric not in self._KNOWN_METRICS:
            raise ValueError(
                f"metric must be one of {self._KNOWN_METRICS}, "
                f"got {self.metric!r}"
            )
        check_positive("bfm_threshold_flits", self.bfm_threshold_flits)
        check_positive("rcs_update_period", self.rcs_update_period)
        check_positive("rcs_divisions", self.rcs_divisions)


@dataclass(frozen=True)
class NocConfig:
    """Full description of a (possibly multi-) network-on-chip.

    Attributes
    ----------
    mesh_cols, mesh_rows:
        Dimensions of the concentrated mesh of routers.
    tiles_per_node:
        Cores sharing one network interface (concentration factor).
    num_subnets:
        Number of physical subnetworks; 1 models a Single-NoC.
    link_width_bits:
        Datapath width of **each** subnet.
    vcs_per_port, flits_per_vc:
        Input-buffer organization (constant in flits across configs,
        per paper §2.3).
    injection_queue_flits:
        Capacity of the shared NI injection queue, in flits.
    frequency_ghz, voltage_v:
        Operating point (see ``repro.power.technology`` for Table 2).
    selection_policy:
        ``"catnap"``, ``"round_robin"``, ``"random"``, ``"ir"`` (the
        Catnap discipline driven by the IR metric), or
        ``"class_partition"`` (CCNoC-style specialization, §7.2).
    """

    mesh_cols: int = 8
    mesh_rows: int = 8
    tiles_per_node: int = 4
    num_subnets: int = 1
    link_width_bits: int = 512
    vcs_per_port: int = 4
    flits_per_vc: int = 4
    injection_queue_flits: int = 16
    frequency_ghz: float = 2.0
    voltage_v: float = 0.750
    selection_policy: str = "catnap"
    timing: RouterTimingConfig = field(default_factory=RouterTimingConfig)
    gating: PowerGatingConfig = field(
        default_factory=lambda: PowerGatingConfig(enabled=False)
    )
    congestion: CongestionConfig = field(default_factory=CongestionConfig)

    def __post_init__(self) -> None:
        check_positive("mesh_cols", self.mesh_cols)
        check_positive("mesh_rows", self.mesh_rows)
        check_positive("num_subnets", self.num_subnets)
        check_positive("link_width_bits", self.link_width_bits)
        check_positive("vcs_per_port", self.vcs_per_port)
        check_positive("flits_per_vc", self.flits_per_vc)
        if self.selection_policy == "class_partition" and self.num_subnets < 2:
            # Responses take the upper half of the subnets, which is
            # empty with a single subnet.
            raise ValueError(
                "selection_policy 'class_partition' needs at least 2 "
                f"subnets, got num_subnets={self.num_subnets}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of mesh nodes (router positions per subnet)."""
        return self.mesh_cols * self.mesh_rows

    @property
    def num_cores(self) -> int:
        """Number of processor cores attached to the fabric."""
        return self.num_nodes * self.tiles_per_node

    @property
    def aggregate_width_bits(self) -> int:
        """Total datapath width across all subnets."""
        return self.num_subnets * self.link_width_bits

    @property
    def buffer_depth_flits(self) -> int:
        """Input-buffer depth per port in flits (constant across configs)."""
        return self.vcs_per_port * self.flits_per_vc

    def flits_per_packet(self, packet_bits: int) -> int:
        """Number of flits needed to carry ``packet_bits`` on one subnet."""
        check_positive("packet_bits", packet_bits)
        return -(-packet_bits // self.link_width_bits)

    @property
    def name(self) -> str:
        """Short configuration label, e.g. ``4NT-128b`` or ``4NT-128b-PG``."""
        label = f"{self.num_subnets}NT-{self.link_width_bits}b"
        if self.gating.enabled:
            label += "-PG"
        return label

    def with_power_gating(self, enabled: bool = True) -> "NocConfig":
        """Return a copy with power gating turned on (or off)."""
        return replace(self, gating=replace(self.gating, enabled=enabled))

    def with_policy(self, policy: str) -> "NocConfig":
        """Return a copy using a different subnet-selection policy."""
        return replace(self, selection_policy=policy)

    # ------------------------------------------------------------------
    # Named paper configurations
    # ------------------------------------------------------------------
    @staticmethod
    def single_noc_512(power_gating: bool = False) -> "NocConfig":
        """1NT-512b: the bandwidth-equivalent Single-NoC baseline."""
        return NocConfig(
            num_subnets=1,
            link_width_bits=512,
            voltage_v=0.750,
            gating=PowerGatingConfig(enabled=power_gating),
        )

    @staticmethod
    def single_noc_128(power_gating: bool = False) -> "NocConfig":
        """1NT-128b: the under-provisioned Single-NoC (Figure 2)."""
        return NocConfig(
            num_subnets=1,
            link_width_bits=128,
            voltage_v=0.625,
            gating=PowerGatingConfig(enabled=power_gating),
        )

    @staticmethod
    def multi_noc(
        num_subnets: int = 4,
        power_gating: bool = False,
        selection_policy: str = "catnap",
        aggregate_width_bits: int = AGGREGATE_WIDTH_BITS_256_CORE,
    ) -> "NocConfig":
        """N-subnet Multi-NoC with constant aggregate width.

        With the default four subnets this is the paper's ``4NT-128b``
        design at 0.625 V (Table 2's highlighted Multi-NoC row).
        """
        if aggregate_width_bits % num_subnets:
            raise ValueError(
                "aggregate width must divide evenly among subnets"
            )
        width = aggregate_width_bits // num_subnets
        return NocConfig(
            num_subnets=num_subnets,
            link_width_bits=width,
            voltage_v=0.625 if width <= 128 else 0.750,
            selection_policy=selection_policy,
            gating=PowerGatingConfig(enabled=power_gating),
        )

    @staticmethod
    def mesh_64_core(
        num_subnets: int = 2, power_gating: bool = False
    ) -> "NocConfig":
        """64-core 4x4 concentrated mesh used in Figure 14."""
        if AGGREGATE_WIDTH_BITS_64_CORE % num_subnets:
            raise ValueError("aggregate width must divide among subnets")
        width = AGGREGATE_WIDTH_BITS_64_CORE // num_subnets
        return NocConfig(
            mesh_cols=4,
            mesh_rows=4,
            num_subnets=num_subnets,
            link_width_bits=width,
            voltage_v=0.625 if width <= 128 else 0.750,
            gating=PowerGatingConfig(enabled=power_gating),
        )
