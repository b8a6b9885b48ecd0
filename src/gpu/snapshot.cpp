#include "gpu/snapshot.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/build_info.hpp"
#include "common/sim_error.hpp"
#include "common/simstate.hpp"

namespace gpusim {

namespace {

constexpr char kMagic[8] = {'G', 'P', 'U', 'S', 'I', 'M', 'S', 'S'};
constexpr u32 kEndianProbe = 0x01020304;

u64 hash_bytes(const u8* data, std::size_t size) {
  Hasher h;
  h.put_u64(size);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    u64 word = 0;
    for (int b = 0; b < 8; ++b) word |= static_cast<u64>(data[i + b]) << (8 * b);
    h.put_u64(word);
  }
  for (; i < size; ++i) h.put_u8(data[i]);
  return h.digest();
}

SimError io_error(const std::string& path, const char* what) {
  return SimError(SimErrorKind::kSnapshot, "gpu.snapshot", what)
      .detail("path", path);
}

}  // namespace

u64 simulation_fingerprint(const GpuConfig& cfg,
                           const std::vector<AppLaunch>& launches,
                           u64 harness_context) {
  Hasher h;
  h.put_tag("FPRT");
  h.put_u64(harness_context);
  cfg.write_fingerprint(h);
  h.put_i32(static_cast<i32>(launches.size()));
  for (const AppLaunch& launch : launches) {
    launch.profile.write_fingerprint(h);
    h.put_u64(launch.seed);
    h.put_bool(launch.restart_on_finish);
  }
  return h.digest();
}

u64 simulation_fingerprint(const Simulation& sim, u64 harness_context) {
  const Gpu& gpu = sim.gpu();
  std::vector<AppLaunch> launches;
  for (AppId a = 0; a < gpu.num_apps(); ++a) {
    const AppRuntime& rt = gpu.runtime(a);
    launches.push_back({rt.profile(), rt.app_seed(), rt.restart_on_finish()});
  }
  return simulation_fingerprint(gpu.config(), launches, harness_context);
}

void write_snapshot_file(const std::string& path, const Simulation& sim,
                         u64 fingerprint) {
  const std::vector<u8> payload = sim.snapshot();

  StateWriter w;
  for (char c : kMagic) w.put_u8(static_cast<u8>(c));
  w.put_u32(kSnapshotVersion);
  w.put_u32(kEndianProbe);
  w.put_u64(fingerprint);
  w.put_u64(build_fingerprint());
  w.put_u64(sim.gpu().now());
  w.put_u64(sim.state_hash());
  w.put_u64(payload.size());
  w.put_u64(hash_bytes(payload.data(), payload.size()));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) SIM_FAIL(io_error(tmp, "cannot open snapshot temp file"));
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.bytes().size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) SIM_FAIL(io_error(tmp, "short write to snapshot temp file"));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    SIM_FAIL(io_error(path, "cannot publish snapshot file")
                 .detail("error", ec.message()));
  }
}

namespace {

/// Reads the whole file and splits header fields; shared by header-only and
/// full restores.
SnapshotHeader parse(const std::string& path, std::vector<u8>& bytes,
                     std::size_t& payload_offset) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) SIM_FAIL(io_error(path, "cannot open snapshot file"));
  const std::streamsize size = in.tellg();
  in.seekg(0);
  bytes.resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) SIM_FAIL(io_error(path, "cannot read snapshot file"));

  StateReader r(bytes);
  for (char c : kMagic) {
    if (r.remaining() == 0 || r.get_u8() != static_cast<u8>(c)) {
      SIM_FAIL(io_error(path, "not a gpusim snapshot (bad magic)"));
    }
  }
  SnapshotHeader hdr;
  hdr.version = r.get_u32();
  SIM_CHECK(hdr.version == kSnapshotVersion,
            io_error(path, "unsupported snapshot version")
                .detail("file_version", hdr.version)
                .detail("supported_version", kSnapshotVersion));
  const u32 endian = r.get_u32();
  SIM_CHECK(endian == kEndianProbe,
            io_error(path, "snapshot endianness probe mismatch")
                .detail("probe", endian));
  hdr.fingerprint = r.get_u64();
  hdr.build = r.get_u64();
  hdr.cycle = r.get_u64();
  hdr.state_hash = r.get_u64();
  hdr.payload_size = r.get_u64();
  hdr.payload_hash = r.get_u64();
  payload_offset = bytes.size() - r.remaining();
  SIM_CHECK(r.remaining() == hdr.payload_size,
            io_error(path, "snapshot payload size mismatch (truncated file?)")
                .detail("expected", hdr.payload_size)
                .detail("actual", r.remaining()));
  return hdr;
}

}  // namespace

SnapshotHeader read_snapshot_header(const std::string& path) {
  std::vector<u8> bytes;
  std::size_t payload_offset = 0;
  return parse(path, bytes, payload_offset);
}

SnapshotHeader restore_snapshot_file(const std::string& path, Simulation& sim,
                                     u64 fingerprint) {
  std::vector<u8> bytes;
  std::size_t payload_offset = 0;
  const SnapshotHeader hdr = parse(path, bytes, payload_offset);

  SIM_CHECK(hdr.fingerprint == fingerprint,
            io_error(path,
                     "snapshot fingerprint mismatch — different config, "
                     "workload or harness setup")
                .detail("file_fingerprint", hdr.fingerprint)
                .detail("expected_fingerprint", fingerprint));
  const u64 payload_hash =
      hash_bytes(bytes.data() + payload_offset, hdr.payload_size);
  SIM_CHECK(payload_hash == hdr.payload_hash,
            io_error(path, "snapshot payload corrupted (integrity hash "
                           "mismatch)")
                .detail("stored", hdr.payload_hash)
                .detail("computed", payload_hash));

  StateReader r(bytes.data() + payload_offset,
                static_cast<std::size_t>(hdr.payload_size));
  sim.load(r);
  r.require_end();

  const u64 restored_hash = sim.state_hash();
  SIM_CHECK(restored_hash == hdr.state_hash,
            io_error(path,
                     "restored state hash differs from the hash recorded at "
                     "save time (save/load asymmetry)")
                .detail("stored", hdr.state_hash)
                .detail("restored", restored_hash)
                .cycle(sim.gpu().now()));
  return hdr;
}

}  // namespace gpusim
