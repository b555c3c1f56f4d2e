#include "scramnet/hierarchy.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

namespace scrnet::scramnet {

RingHierarchy::RingHierarchy(sim::Simulation& sim, HierarchyConfig cfg)
    : sim_(sim), cfg_(cfg) {
  if (cfg_.leaf_rings < 2) throw std::invalid_argument("hierarchy: need >=2 rings");
  for (u32 r = 0; r < cfg_.leaf_rings; ++r) {
    Ring& leaf = leaves_.emplace_back(sim_, cfg_.leaf);
    leaf.set_uplink([this, r](u32 src, u32 word_addr, std::span<const u32> words,
                              SimTime done) { bridge(r, src, word_addr, words, done); });
  }
}

// Every leg is computed now, at the source packet's injection, so each
// medium's busy-until time advances in injection order.
void RingHierarchy::bridge(u32 ring, u32 src, u32 word_addr,
                           std::span<const u32> words, SimTime done) {
  const RingConfig& leaf = cfg_.leaf;
  const u32 m = leaf.nodes;
  const u32 k = cfg_.leaf_rings;

  // 1. The source leaf's own walk reaches its bridge (local node 0)
  // m - src hops downstream; the bridge stores and forwards the packet.
  const SimTime at_bridge = done + static_cast<SimTime>((m - src) % m) * leaf.hop_latency;
  const SimTime bb_start = std::max(at_bridge + cfg_.bridge_latency, backbone_free_);
  const SimTime bb_done =
      bb_start + leaf.packet_occupancy(static_cast<u32>(words.size()) * 4u);
  backbone_free_ = bb_done;
  backbone_packets_.inc();

  // 2. The backbone reaches bridge j hops downstream at bb_done + j*hop;
  // that bridge applies the packet and re-serializes it onto its own leaf.
  auto payload = std::make_shared<const std::vector<u32>>(words.begin(), words.end());
  for (u32 j = 1; j < k; ++j) {
    Ring& dst = leaves_[(ring + j) % k];
    const SimTime at = bb_done + static_cast<SimTime>(j) * cfg_.backbone_hop;
    sim_.post_at(at, [&dst, word_addr, payload] {
      dst.deliver(0, word_addr, payload->data(), static_cast<u32>(payload->size()));
    });
    dst.inject_packet(0, word_addr, words, at + cfg_.bridge_latency);
  }
}

SimTime RingHierarchy::full_propagation_bound() const {
  const RingConfig& leaf = cfg_.leaf;
  const SimTime occ = leaf.packet_occupancy(
      leaf.mode == PacketMode::kFixed4 ? 4u : leaf.max_var_packet_bytes);
  // Worst path: full leaf traversal to the bridge, backbone all the way
  // round, bridge down, full leaf traversal again; three serializations.
  return 3 * occ + 2 * cfg_.bridge_latency +
         static_cast<SimTime>(2 * (leaf.nodes - 1)) * leaf.hop_latency +
         static_cast<SimTime>(cfg_.leaf_rings - 1) * cfg_.backbone_hop;
}

}  // namespace scrnet::scramnet
