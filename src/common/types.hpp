// Fundamental type aliases and identifiers used across the simulator.
#pragma once

#include <cstdint>
#include <limits>

namespace gpusim {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Simulation time, in SM (core) clock cycles.
using Cycle = u64;

/// Index of a concurrently running application (0-based slot in the workload).
using AppId = i32;
/// Index of a streaming multiprocessor.
using SmId = i32;
/// Index of a memory partition (L2 slice + memory controller).
using PartitionId = i32;
/// Index of a warp context within one SM.
using WarpId = i32;

inline constexpr AppId kInvalidApp = -1;
inline constexpr SmId kInvalidSm = -1;
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/// Maximum number of concurrently running applications the counter
/// structures are sized for.  The paper evaluates up to four (Fig. 6) and
/// sizes its hardware-cost table for N = 4; we allow a few more for
/// experimentation.
inline constexpr int kMaxApps = 8;

}  // namespace gpusim
