// Two-level SCRAMNet ring hierarchy (Section 2 of the paper: "For systems
// larger than 256 nodes, a hierarchy of rings can be used").
//
// K leaf rings of M nodes each are joined by a backbone ring whose members
// are the leaf rings' bridge nodes (local node 0 of each leaf). The
// replicated memory is global: a write anywhere is reflected into every
// bank in the system. Propagation:
//
//   source leaf ring  ->  bridge (store-and-forward)  ->  backbone ring
//                     ->  other bridges               ->  their leaf rings
//
// Each leaf is an ordinary scramnet::Ring, so a host attaches with
// SimHostPort(h.leaf_of(n), h.local_of(n), proc) and gets the flat ring's
// timing, DMA, interrupts and same-picosecond node order. The hierarchy
// adds only the backbone: one busy-until time plus the bridge legs, all
// scheduled when the source packet finishes serializing on its leaf.
#pragma once

#include <deque>
#include <span>

#include "common/stats.h"
#include "scramnet/config.h"
#include "scramnet/ring.h"
#include "sim/simulation.h"

namespace scrnet::scramnet {

struct HierarchyConfig {
  u32 leaf_rings = 3;
  RingConfig leaf;                  // every leaf; nodes includes the bridge
  SimTime backbone_hop = ns(600);   // longer cable runs between cabinets
  SimTime bridge_latency = us(2);   // store-and-forward + re-framing
};

class RingHierarchy {
 public:
  RingHierarchy(sim::Simulation& sim, HierarchyConfig cfg);
  RingHierarchy(const RingHierarchy&) = delete;
  RingHierarchy& operator=(const RingHierarchy&) = delete;

  u32 nodes() const { return cfg_.leaf_rings * cfg_.leaf.nodes; }

  /// Which leaf ring a global node lives on / its local index there.
  u32 ring_of(u32 node) const { return node / cfg_.leaf.nodes; }
  u32 local_of(u32 node) const { return node % cfg_.leaf.nodes; }
  bool is_bridge(u32 node) const { return local_of(node) == 0; }
  /// The leaf Ring a host on `node` attaches to, at index local_of(node).
  Ring& leaf_of(u32 node) { return leaves_[ring_of(node)]; }

  /// Host access by global node id (see Ring::host_write / host_read).
  void host_write(u32 node, u32 word_addr, u32 value) {
    leaf_of(node).host_write(local_of(node), word_addr, value);
  }
  u32 host_read(u32 node, u32 word_addr) {
    return leaf_of(node).host_read(local_of(node), word_addr);
  }

  /// Host packets forwarded onto the backbone (every one of them is).
  u64 backbone_packets() const { return backbone_packets_.get(); }

  /// Worst-case write propagation (farthest leaf-to-leaf path).
  SimTime full_propagation_bound() const;

 private:
  /// Carry a host packet that finished serializing on leaf `ring` at
  /// `done` to every other leaf.
  void bridge(u32 ring, u32 src, u32 word_addr, std::span<const u32> words,
              SimTime done);

  sim::Simulation& sim_;
  HierarchyConfig cfg_;
  std::deque<Ring> leaves_;    // stable addresses: events point at them
  SimTime backbone_free_ = 0;  // backbone medium busy-until
  Counter backbone_packets_;
};

}  // namespace scrnet::scramnet
