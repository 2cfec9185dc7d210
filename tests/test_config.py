"""Tests for fabric configuration records."""

from __future__ import annotations

import pytest

from repro.noc.config import (
    AGGREGATE_WIDTH_BITS_256_CORE,
    DATA_PACKET_BITS,
    CongestionConfig,
    NocConfig,
    PowerGatingConfig,
    RouterTimingConfig,
)


class TestRouterTimingConfig:
    def test_hop_cycles(self):
        assert RouterTimingConfig(2, 1).hop_cycles == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            RouterTimingConfig(pipeline_cycles=0)


class TestPowerGatingConfig:
    def test_paper_constants(self):
        gating = PowerGatingConfig()
        assert gating.wakeup_cycles == 10
        assert gating.hidden_wakeup_cycles == 3
        assert gating.breakeven_cycles == 12
        assert gating.idle_detect_cycles == 4

    def test_hidden_must_not_exceed_wakeup(self):
        with pytest.raises(ValueError):
            PowerGatingConfig(wakeup_cycles=5, hidden_wakeup_cycles=6)


class TestCongestionConfig:
    def test_paper_thresholds(self):
        cc = CongestionConfig()
        assert cc.bfm_threshold_flits == 9
        assert cc.bfa_threshold_flits == 2.0
        assert cc.delay_threshold_cycles == 1.5
        assert cc.iqocc_threshold_flits == 4
        assert cc.rcs_update_period == 6

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            CongestionConfig(metric="bogus")


class TestNocConfig:
    def test_default_is_table1(self):
        config = NocConfig()
        assert config.num_nodes == 64
        assert config.num_cores == 256
        assert config.vcs_per_port == 4
        assert config.flits_per_vc == 4
        assert config.buffer_depth_flits == 16
        assert config.frequency_ghz == 2.0

    def test_flits_per_packet(self):
        config = NocConfig(link_width_bits=128)
        assert config.flits_per_packet(512) == 4
        assert config.flits_per_packet(72) == 1
        assert config.flits_per_packet(DATA_PACKET_BITS) == 5
        assert config.flits_per_packet(128) == 1
        assert config.flits_per_packet(129) == 2

    def test_flits_per_packet_rejects_zero(self):
        with pytest.raises(ValueError):
            NocConfig().flits_per_packet(0)

    def test_name_labels(self):
        assert NocConfig.single_noc_512().name == "1NT-512b"
        assert NocConfig.multi_noc(4).name == "4NT-128b"
        assert NocConfig.multi_noc(4, power_gating=True).name == (
            "4NT-128b-PG"
        )

    def test_aggregate_width_constant(self):
        for count in (1, 2, 4, 8):
            config = NocConfig.multi_noc(count)
            assert (
                config.aggregate_width_bits
                == AGGREGATE_WIDTH_BITS_256_CORE
            )

    def test_multi_noc_voltage_scaling_rule(self):
        assert NocConfig.multi_noc(4).voltage_v == 0.625
        assert NocConfig.multi_noc(1).voltage_v == 0.750
        assert NocConfig.multi_noc(2).voltage_v == 0.750

    def test_multi_noc_rejects_uneven_split(self):
        with pytest.raises(ValueError):
            NocConfig.multi_noc(3)

    def test_mesh_64_core(self):
        config = NocConfig.mesh_64_core(2)
        assert config.num_cores == 64
        assert config.link_width_bits == 128
        assert config.mesh_cols == config.mesh_rows == 4

    def test_with_power_gating_copy(self):
        base = NocConfig.single_noc_512()
        gated = base.with_power_gating()
        assert not base.gating.enabled
        assert gated.gating.enabled

    def test_with_policy_copy(self):
        config = NocConfig.multi_noc(4).with_policy("round_robin")
        assert config.selection_policy == "round_robin"

    def test_class_partition_needs_two_subnets(self):
        with pytest.raises(ValueError) as err:
            NocConfig(num_subnets=1, selection_policy="class_partition")
        assert "class_partition" in str(err.value)
        assert "num_subnets=1" in str(err.value)
        config = NocConfig.multi_noc(2).with_policy("class_partition")
        assert config.selection_policy == "class_partition"

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            NocConfig(mesh_cols=0)
        with pytest.raises(ValueError):
            NocConfig(num_subnets=0)
