"""Closed-loop acceptance E2E: the criteria ISSUE 7 names.

Two gateways with overlapping coverage hear a 4-node deployment; the
server must deliver every heard uplink exactly once, pick the true
max-SNR gateway per device, and move at least one device to a faster SF
and at least one to a slower SF via ADR downlinks.
"""

import pytest

from repro.server.scenario import (
    GatewayProfile,
    MultiGatewayPhy,
    overlapping_profiles,
    run_scenario,
)
from repro.mac.phy import SingleUserPhy, Transmission
from repro.phy.params import LoRaParams

DURATION_S = 60.0


@pytest.fixture(scope="module")
def report():
    """One closed-loop run shared by the acceptance checks."""
    return run_scenario(n_gateways=2, duration_s=DURATION_S, seed=0)


class TestAcceptance:
    def test_overlap_means_multiple_copies_per_uplink(self, report):
        # Both gateways hear every node (the far offset attenuates but
        # does not erase), so ingested copies exceed unique deliveries.
        assert report.server.n_ingested == 2 * report.server.n_delivered

    def test_exactly_once_delivery(self, report):
        seen = [
            (u.frame.device_addr, u.fcnt32) for u in report.server.delivered
        ]
        assert len(seen) == len(set(seen))
        assert report.server.n_delivered == len(seen)
        assert report.server.n_duplicates == report.server.n_delivered

    def test_best_gateway_matches_ground_truth(self, report):
        # The phy recorded per-gateway SNR truth; every delivered frame
        # must have been attributed to that node's max-SNR gateway.
        assert report.best_gateway_truth == {0: 0, 1: 1, 2: 0, 3: 1}
        for uplink in report.server.delivered:
            node = uplink.frame.device_addr
            assert uplink.frame.gateway_id == report.best_gateway_truth[node]

    def test_adr_moves_devices_both_directions(self, report):
        faster, slower = report.moved_faster(), report.moved_slower()
        assert len(faster) >= 1 and len(slower) >= 1
        # Strong-link nodes speed up, weak-link nodes slow down.
        assert faster == [0, 1]
        assert slower == [2, 3]
        assert all(report.final_sf[n] < 10 for n in faster)
        assert all(report.final_sf[n] > 10 for n in slower)
        assert report.n_commands >= len(faster) + len(slower)

    def test_session_accounting_clean(self, report):
        server = report.server
        assert server.n_devices == 4
        assert server.n_replays == 0
        assert server.n_resets == 0
        assert server.sessions_jsonl.count("\n") == 4


class TestGeometry:
    def test_round_robin_profiles(self):
        profiles = overlapping_profiles(2, [0, 1, 2, 3])
        assert profiles[0].offsets_db == {0: 0.0, 2: 0.0}
        assert profiles[1].offsets_db == {1: 0.0, 3: 0.0}
        assert profiles[0].offset_for(1) == -4.0

    def test_phy_rejects_duplicate_gateways(self):
        with pytest.raises(ValueError, match="duplicate"):
            MultiGatewayPhy(
                SingleUserPhy(LoRaParams()), [GatewayProfile(0), GatewayProfile(0)]
            )

    def test_phy_records_per_gateway_receptions(self):
        phy = MultiGatewayPhy(
            SingleUserPhy(LoRaParams()),
            [
                GatewayProfile(0, offsets_db={1: 0.0}, default_offset_db=-100.0),
                GatewayProfile(1, offsets_db={1: -3.0}, default_offset_db=-100.0),
            ],
        )
        decoded = phy.resolve(
            [Transmission(node_id=1, snr_db=0.0, n_payload_bits=64)]
        )
        assert decoded == {1}
        by_gateway = {r.gateway_id: r.snr_db for r in phy.last_receptions}
        assert by_gateway == {0: 0.0, 1: -3.0}
