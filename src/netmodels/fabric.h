// Baseline cluster fabrics (Fast Ethernet / ATM / Myrinet) -- the networks
// the paper compares SCRAMNet against in Figures 2, 3, 5 and 6 -- and the
// link under the RDMA NIC model (rdma.h).
//
// A Fabric connects `hosts` workstations through a single switch with one
// full-duplex link per host (the paper's testbed is a 4-node cluster). The
// technologies differ only in how a payload is framed on the wire and in
// whether the switch cuts through, so each one is a LinkConfig preset over
// the same occupancy model. transmit() models NIC + wire + switch timing
// and delivers the frame into the destination host's RX mailbox at the
// simulated arrival instant. Host software costs (TCP/IP stack, native
// APIs) live in separate layers on top.
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "common/units.h"
#include "sim/mailbox.h"
#include "sim/simulation.h"

namespace scrnet::netmodels {

struct Frame {
  u32 src = 0;
  u32 dst = 0;
  std::vector<u8> payload;  // includes any protocol headers added above L2
};

/// One technology's link and switch: rate, framing and forwarding mode.
/// Build one from a preset below (or RdmaConfig::link) and adjust fields.
struct LinkConfig {
  double mbits_per_s = 0.0;
  u32 mtu = 0;                  // max payload bytes per frame
  u32 header_bytes = 0;         // per-frame header + trailer bytes
  u32 min_frame = 0;            // payload + header padded up to this
  u32 gap_bytes = 0;            // preamble + inter-frame gap on the wire
  bool aal5_cells = false;      // framed PDU rides in 53-byte cells of 48
  SimTime propagation = 0;      // host <-> switch cable, each way
  SimTime switch_latency = 0;   // routing decision / pipeline fill
  bool store_and_forward = false;  // else cut-through (forward after header)

  /// Bytes the frame occupies on the wire, framing and gaps included.
  u64 wire_bytes(usize payload_bytes) const {
    u64 framed = std::max<u64>(payload_bytes + header_bytes, min_frame);
    if (aal5_cells) framed = ceil_div<u64>(framed, 48) * 53;
    return framed + gap_bytes;
  }

  /// Switched Fast Ethernet (100BASE-TX), full-duplex, 1500-byte MTU. MAC
  /// header 14 + FCS 4 framing, 64-byte minimum frame, preamble 8 + IFG 12.
  /// 1998-era workgroup switches were commonly cut-through, which is what
  /// the paper's measured slopes imply; store-and-forward is an ablation.
  static LinkConfig fast_ethernet() {
    return {.mbits_per_s = 100.0, .mtu = 1500, .header_bytes = 18,
            .min_frame = 64, .gap_bytes = 20, .propagation = ns(500),
            .switch_latency = us(4)};
  }

  /// ATM (OC-3c, 155.52 Mb/s) with AAL5: payload + 8-byte trailer, padded
  /// to a multiple of 48 and carried in 53-byte cells. The switch is cell
  /// cut-through; the PDU is available when its last cell lands.
  static LinkConfig atm() {
    return {.mbits_per_s = 155.52, .mtu = 9180,  // classical IP over ATM
            .header_bytes = 8, .aal5_cells = true, .propagation = ns(500),
            .switch_latency = us(2)};
  }

  /// Myrinet: 1.28 Gb/s links, source-routed wormhole crossbar. 16 bytes of
  /// route + type + CRC; the MTU is the native API's per-operation cap.
  static LinkConfig myrinet() {
    return {.mbits_per_s = 1280.0, .mtu = 8192, .header_bytes = 16,
            .propagation = ns(300), .switch_latency = ns(550)};
  }
};

/// Injection point for deterministic fault plans (fault/plan.h). The fabric
/// consults the hook once per frame at delivery-scheduling time; the hook
/// may drop the frame (partition / fail-stop loss) or stretch its arrival
/// (congestion). Implementations must be deterministic functions of the
/// endpoints and virtual time -- the sweep engine depends on it.
class FaultHook {
 public:
  struct Verdict {
    bool drop = false;
    SimTime extra_delay = 0;
  };
  virtual ~FaultHook() = default;
  virtual Verdict on_frame(u32 src, u32 dst, SimTime arrival) = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, u32 hosts, const LinkConfig& link)
      : sim_(sim), hosts_(hosts), link_(link), in_busy_(hosts, 0), out_busy_(hosts, 0) {
    assert(link.mbits_per_s > 0.0 && link.mtu > 0);
    rx_.reserve(hosts);
    for (u32 h = 0; h < hosts; ++h) rx_.push_back(std::make_unique<sim::Mailbox<Frame>>(sim));
  }
  virtual ~Fabric() = default;

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  u32 hosts() const { return hosts_; }
  sim::Mailbox<Frame>& rx(u32 host) { return *rx_[host]; }

  /// Maximum payload bytes a single frame may carry.
  u32 mtu_payload() const { return link_.mtu; }

  /// Hand a frame to the source NIC. Returns immediately (the NIC queues);
  /// wire/switch timing is modeled by route(), ending in an rx() push.
  void transmit(Frame f) {
    const std::optional<SimTime> t = route(f.src, f.dst, f.payload.size());
    if (!t) return;
    auto fp = std::make_shared<Frame>(std::move(f));
    sim_.post_at(*t, [this, fp] {
      delivered_.inc();
      bytes_.inc(fp->payload.size());
      rx_[fp->dst]->push(std::move(*fp));
    });
  }

  u64 frames_delivered() const { return delivered_.get(); }
  u64 bytes_delivered() const { return bytes_.get(); }
  u64 frames_dropped() const { return dropped_.get(); }

  /// Install (or clear, with nullptr) the fault hook. Not owned; must
  /// outlive the fabric or be cleared first.
  void set_fault_hook(FaultHook* h) { fault_ = h; }

 protected:
  /// Occupancy-model one frame of `payload_bytes` from src to dst and
  /// return its arrival instant, or nullopt if the fault hook dropped it
  /// (counted in frames_dropped()). The frame serializes on the source
  /// uplink; its head reaches the output port after propagation plus the
  /// switch latency (plus its own wire time if the switch stores and
  /// forwards), stalls there while the port drains an earlier frame, and
  /// lands one wire time and one propagation later.
  std::optional<SimTime> route(u32 src, u32 dst, usize payload_bytes) {
    assert(src < hosts_ && dst < hosts_);
    assert(payload_bytes <= link_.mtu);
    const SimTime wire = wire_time_bits(link_.wire_bytes(payload_bytes) * 8, link_.mbits_per_s);
    const SimTime tx_start = std::max(sim_.now(), in_busy_[src]);
    in_busy_[src] = tx_start + wire;
    SimTime ready = tx_start + link_.propagation + link_.switch_latency;
    if (link_.store_and_forward) ready += wire;
    const SimTime out_start = std::max(ready, out_busy_[dst]);
    out_busy_[dst] = out_start + wire;
    SimTime arrive = out_start + wire + link_.propagation;
    if (fault_ != nullptr) {
      const FaultHook::Verdict v = fault_->on_frame(src, dst, arrive);
      if (v.drop) {
        dropped_.inc();
        return std::nullopt;
      }
      arrive += v.extra_delay;
    }
    return arrive;
  }

  sim::Simulation& sim_;
  u32 hosts_;
  LinkConfig link_;
  std::vector<SimTime> in_busy_;   // host -> switch link
  std::vector<SimTime> out_busy_;  // switch -> host link
  std::vector<std::unique_ptr<sim::Mailbox<Frame>>> rx_;
  Counter delivered_, bytes_, dropped_;
  FaultHook* fault_ = nullptr;
};

}  // namespace scrnet::netmodels
