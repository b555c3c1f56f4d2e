// The BillBoard Protocol API exactly as the paper presents it (Section 3):
//
//   "The BBP API is quite simple. It provides 5 functions for
//    initialization (bbp_init), sending (bbp_Send), receiving (bbp_Recv)
//    and multicasting messages (bbp_Mcast) and checking for newly arrived
//    messages (bbp_MsgAvail)."
//
// These are thin veneers over bbp::Endpoint so examples and benchmarks can
// be written against the published interface.
#pragma once

#include <memory>

#include "bbp/endpoint.h"

namespace scrnet::bbp {

class Bbp {
 public:
  Bbp() = default;

  /// bbp_init: join a BBP session of `nprocs` processes as rank `me`.
  Status init(scramnet::MemPort& port, u32 nprocs, u32 me, Config cfg = {}) {
    if (ep_) return Status::InvalidArg("bbp_init: already initialized");
    try {
      ep_ = std::make_unique<Endpoint>(port, nprocs, me, cfg);
    } catch (const std::invalid_argument& e) {
      return Status::InvalidArg(e.what());
    }
    return Status::Ok();
  }

  /// bbp_Send: blocking point-to-point send.
  Status Send(u32 dest, std::span<const u8> payload) {
    if (!ep_) return Status::Unavailable("bbp: not initialized");
    return ep_->send(dest, payload);
  }

  /// bbp_Recv: blocking receive from `src`; returns message info.
  Result<RecvInfo> Recv(u32 src, std::span<u8> buf) {
    if (!ep_) return Status::Unavailable("bbp: not initialized");
    return ep_->recv(src, buf);
  }

  /// bbp_Mcast: single-step multicast to an explicit destination list.
  Status Mcast(std::span<const u32> dests, std::span<const u8> payload) {
    if (!ep_) return Status::Unavailable("bbp: not initialized");
    return ep_->mcast(dests, payload);
  }

  /// bbp_MsgAvail: has any message arrived? (one poll pass)
  bool MsgAvail() { return ep_ && ep_->msg_avail().has_value(); }

  /// Access the full endpoint for operations beyond the 5-call API.
  Endpoint& endpoint() {
    assert(ep_);
    return *ep_;
  }

 private:
  std::unique_ptr<Endpoint> ep_;
};

}  // namespace scrnet::bbp
