"""Unit tests for packet traversal."""

import numpy as np
import pytest

from repro.trace import TraversalStats, trace_occlusion_batch
from repro.trace.packets import occlusion_packet, trace_occlusion_packets


class TestPackets:
    def test_matches_single_ray_traversal(self, small_bvh, small_workload):
        reference = trace_occlusion_batch(small_bvh, small_workload.rays)
        packets = trace_occlusion_packets(small_bvh, small_workload.rays, 32)
        assert np.array_equal(reference, packets)

    @pytest.mark.parametrize("size", [1, 7, 32, 64])
    def test_any_packet_size_correct(self, small_bvh, small_workload, size):
        rays = small_workload.rays.subset(np.arange(min(96, len(small_workload))))
        reference = trace_occlusion_batch(small_bvh, rays)
        assert np.array_equal(
            reference, trace_occlusion_packets(small_bvh, rays, size)
        )

    def test_packet_size_one_equals_single_fetches(self, small_bvh, small_workload):
        rays = small_workload.rays.subset(np.arange(48))
        single = TraversalStats()
        trace_occlusion_batch(small_bvh, rays, stats=single)
        packet = TraversalStats()
        trace_occlusion_packets(small_bvh, rays, 1, stats=packet)
        # A 1-ray packet visits exactly the nodes a lone ray visits.
        # (Near-first ordering differs, so compare totals loosely.)
        assert packet.node_fetches <= single.node_fetches * 1.5

    def test_coherent_packets_share_fetches(self, small_bvh, small_workload):
        """The packet amortization the related work exploits."""
        rays = small_workload.rays.subset(np.arange(128))
        single = TraversalStats()
        trace_occlusion_batch(small_bvh, rays, stats=single)
        packet = TraversalStats()
        trace_occlusion_packets(small_bvh, rays, 32, stats=packet)
        # AO rays from neighbouring pixels are coherent: a packet must
        # fetch fewer nodes in total...
        assert packet.node_fetches < single.node_fetches
        # ...while performing at least as many box tests (every active
        # member tests every visited node).
        assert packet.box_tests >= single.box_tests * 0.5

    def test_empty_packet(self, small_bvh, small_workload):
        out = occlusion_packet(small_bvh, small_workload.rays, [])
        assert out.shape == (0,)

    def test_invalid_packet_size(self, small_bvh, small_workload):
        with pytest.raises(ValueError):
            trace_occlusion_packets(small_bvh, small_workload.rays, 0)

    def test_stats_hits_match(self, small_bvh, small_workload):
        rays = small_workload.rays.subset(np.arange(64))
        stats = TraversalStats()
        hits = trace_occlusion_packets(small_bvh, rays, 16, stats=stats)
        assert stats.hits == int(hits.sum())
        assert stats.rays == 64

