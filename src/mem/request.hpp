// Memory request/response packets exchanged between SMs, the interconnect
// and the memory partitions.
#pragma once

#include "common/simstate.hpp"
#include "common/types.hpp"

namespace gpusim {

/// A cache-line read request travelling SM -> crossbar -> partition.
/// (The evaluated kernels are modelled as read-dominated, as in the paper's
/// bandwidth analysis; writes would follow the same path.)
struct MemRequestPacket {
  u64 line_addr = 0;  ///< Line-aligned byte address.
  AppId app = kInvalidApp;
  SmId sm = kInvalidSm;
  WarpId warp = -1;
  PartitionId dest = -1;
  Cycle ready = 0;  ///< Earliest cycle the packet may be consumed (NoC latency).
};

/// A fill/ack travelling partition -> crossbar -> SM.
struct MemResponsePacket {
  u64 line_addr = 0;
  AppId app = kInvalidApp;
  SmId sm = kInvalidSm;
  WarpId warp = -1;
  Cycle ready = 0;
};

// SimState element serialization (ADL hooks used by BoundedQueue,
// CrossbarChannel and the ring helpers in simstate-aware components).

template <typename Sink>
void write_item(Sink& s, const MemRequestPacket& p) {
  s.put_u64(p.line_addr);
  s.put_i32(p.app);
  s.put_i32(p.sm);
  s.put_i32(p.warp);
  s.put_i32(p.dest);
  s.put_u64(p.ready);
}
inline void read_item(StateReader& r, MemRequestPacket& p) {
  p.line_addr = r.get_u64();
  p.app = r.get_i32();
  p.sm = r.get_i32();
  p.warp = r.get_i32();
  p.dest = r.get_i32();
  p.ready = r.get_u64();
}

template <typename Sink>
void write_item(Sink& s, const MemResponsePacket& p) {
  s.put_u64(p.line_addr);
  s.put_i32(p.app);
  s.put_i32(p.sm);
  s.put_i32(p.warp);
  s.put_u64(p.ready);
}
inline void read_item(StateReader& r, MemResponsePacket& p) {
  p.line_addr = r.get_u64();
  p.app = r.get_i32();
  p.sm = r.get_i32();
  p.warp = r.get_i32();
  p.ready = r.get_u64();
}

}  // namespace gpusim
