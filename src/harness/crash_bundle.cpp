#include "harness/crash_bundle.hpp"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/build_info.hpp"
#include "common/config_io.hpp"
#include "common/jsonl.hpp"
#include "gpu/simulator.hpp"
#include "gpu/snapshot.hpp"

namespace gpusim {

namespace {

namespace fs = std::filesystem;

std::string schema_name() {
  return "gpusim-crash-bundle-v" + std::to_string(kCrashBundleSchema);
}

std::string sanitize_name(const std::string& label) {
  std::string name;
  name.reserve(label.size());
  for (char c : label) {
    const bool safe = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                      c == '-' || c == '_' || c == '.' || c == '+';
    name += safe ? c : '_';
  }
  return name.empty() ? std::string("unnamed") : name;
}

SimError manifest_error(const std::string& bundle_dir, const char* what) {
  return SimError(SimErrorKind::kSnapshot, "harness.crash_bundle", what)
      .detail("bundle", bundle_dir);
}

void write_manifest(std::ostream& os, const RunConfig& rc,
                    const std::string& identity, u64 fingerprint,
                    const SimError& err, Cycle failure_cycle,
                    u64 failure_state_hash, bool have_anchor,
                    const std::string& final_dir) {
  os << "{\n";
  os << "  \"schema\": \"" << json_escape(schema_name()) << "\",\n";
  os << "  \"build_fingerprint\": " << build_fingerprint() << ",\n";
  os << "  \"build_line\": \""
     << json_escape(build_fingerprint_line(kSnapshotVersion)) << "\",\n";
  os << "  \"mode\": \"" << json_escape(rc.crash_bundle_mode) << "\",\n";
  os << identity;
  os << "  \"watchdog_cycles\": " << rc.watchdog_cycles << ",\n";
  os << "  \"governor\": \"" << (rc.governor ? "on" : "off") << "\",\n";
  os << "  \"fingerprint\": " << fingerprint << ",\n";
  os << "  \"failure_cycle\": " << failure_cycle << ",\n";
  os << "  \"failure_state_hash\": " << failure_state_hash << ",\n";
  os << "  \"error_kind\": \"" << json_escape(to_string(err.kind()))
     << "\",\n";
  os << "  \"error_component\": \"" << json_escape(err.component())
     << "\",\n";
  os << "  \"error_message\": \"" << json_escape(err.message()) << "\",\n";
  os << "  \"snapshot\": \"snapshot.simstate\",\n";
  os << "  \"anchor\": \"" << (have_anchor ? "anchor.simstate" : "")
     << "\",\n";
  os << "  \"replay\": \"" << json_escape("gpusim_cli --triage " + final_dir)
     << "\"\n";
  os << "}\n";
}

}  // namespace

std::string write_crash_bundle(const RunConfig& rc, const std::string& identity,
                               const std::string& label, const Simulation& sim,
                               const SimError& err,
                               const std::string& anchor_snapshot_path)
    noexcept {
  fs::path tmp;
  try {
    const std::string& bundle_root = rc.crash_bundle_dir;
    std::error_code ec;
    fs::create_directories(bundle_root, ec);

    // Pick a fresh directory name; concurrent sweep jobs may crash on the
    // same workload, so probe with numeric suffixes.
    const Cycle failure_cycle = sim.gpu().now();
    const std::string base = rc.crash_bundle_mode + "-" +
                             sanitize_name(label) + "-c" +
                             std::to_string(failure_cycle);
    std::string name = base;
    fs::path dir = fs::path(bundle_root) / name;
    for (int i = 2; fs::exists(dir, ec) && i < 10'000; ++i) {
      name = base + "-" + std::to_string(i);
      dir = fs::path(bundle_root) / name;
    }

    tmp = fs::path(bundle_root) / (".tmp-" + name);
    fs::remove_all(tmp, ec);
    fs::create_directories(tmp);

    const u64 fingerprint = corun_fingerprint(sim, identity);
    write_snapshot_file((tmp / "snapshot.simstate").string(), sim,
                        fingerprint);
    bool have_anchor = false;
    if (!anchor_snapshot_path.empty() &&
        fs::exists(anchor_snapshot_path, ec)) {
      have_anchor = fs::copy_file(anchor_snapshot_path,
                                  tmp / "anchor.simstate",
                                  fs::copy_options::overwrite_existing, ec);
    }
    save_config((tmp / "config.txt").string(), rc.gpu);
    {
      std::ofstream events(tmp / "events.txt", std::ios::trunc);
      events << build_fingerprint_line(kSnapshotVersion) << "\n\n"
             << "error:\n" << err.what() << "\n\n"
             << sim.gpu().flight_recorder().render_timeline(256) << "\n"
             << sim.gpu().dump_state();
      if (!events.good()) {
        throw std::runtime_error("short write to events.txt");
      }
    }
    {
      // The manifest is written last inside the temp dir: its presence is
      // the bundle's completeness marker.
      std::ofstream manifest(tmp / "manifest.json", std::ios::trunc);
      write_manifest(manifest, rc, identity, fingerprint, err, failure_cycle,
                     sim.state_hash(), have_anchor, dir.string());
      manifest.flush();
      if (!manifest.good()) {
        throw std::runtime_error("short write to manifest.json");
      }
    }
    fs::rename(tmp, dir);
    std::fprintf(stderr,
                 "gpusim: crash bundle written to %s (inspect with: "
                 "gpusim_cli --triage %s)\n",
                 dir.string().c_str(), dir.string().c_str());
    return dir.string();
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "gpusim: crash-bundle emission failed (%s) — the original "
                 "error still propagates\n",
                 e.what());
  } catch (...) {
    std::fprintf(stderr,
                 "gpusim: crash-bundle emission failed — the original error "
                 "still propagates\n");
  }
  if (!tmp.empty()) {
    std::error_code ec;
    fs::remove_all(tmp, ec);
  }
  return std::string();
}

CrashBundleManifest read_crash_bundle_manifest(
    const std::string& bundle_dir) {
  const fs::path manifest_path = fs::path(bundle_dir) / "manifest.json";
  std::error_code ec;
  SIM_CHECK(fs::is_regular_file(manifest_path, ec),
            manifest_error(bundle_dir,
                           "bundle has no manifest.json — incomplete or not "
                           "a crash bundle"));
  std::ifstream in(manifest_path);
  SIM_CHECK(in.good(),
            manifest_error(bundle_dir, "cannot open manifest.json"));

  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // String values are escaped, so `"key":` can only match a key; unknown
  // keys are ignored (forward compatibility).
  const auto require_string = [&](const char* key) {
    const std::optional<std::string> value = json_string_field(text, key);
    SIM_CHECK(value.has_value(),
              manifest_error(bundle_dir,
                             "manifest.json is missing a required string key")
                  .detail("key", key));
    return *value;
  };
  const auto require_u64 = [&](const char* key) {
    const std::optional<u64> value = json_u64_field(text, key);
    SIM_CHECK(value.has_value(),
              manifest_error(bundle_dir,
                             "manifest.json is missing a required numeric "
                             "key")
                  .detail("key", key));
    return *value;
  };
  const auto optional_string = [&](const char* key) {
    return json_string_field(text, key).value_or("");
  };

  CrashBundleManifest m;
  m.schema = require_string("schema");
  SIM_CHECK(m.schema == schema_name(),
            manifest_error(bundle_dir, "unsupported crash-bundle schema")
                .detail("file_schema", m.schema)
                .detail("supported", schema_name()));
  m.build = require_u64("build_fingerprint");
  m.build_line = optional_string("build_line");
  m.corun = parse_corun_identity(text);
  m.corun.rc.crash_bundle_mode = require_string("mode");
  m.corun.rc.watchdog_cycles = require_u64("watchdog_cycles");
  m.corun.rc.governor = require_string("governor") != "off";
  m.fingerprint = require_u64("fingerprint");
  m.failure_cycle = require_u64("failure_cycle");
  m.failure_state_hash = require_u64("failure_state_hash");
  m.error_kind = require_string("error_kind");
  m.error_component = optional_string("error_component");
  m.error_message = optional_string("error_message");
  m.snapshot_file = require_string("snapshot");
  SIM_CHECK(!m.snapshot_file.empty() &&
                m.snapshot_file.find('/') == std::string::npos &&
                m.snapshot_file.find("..") == std::string::npos,
            manifest_error(bundle_dir,
                           "manifest snapshot file name must be a plain "
                           "file inside the bundle")
                .detail("snapshot", m.snapshot_file));
  m.anchor_file = optional_string("anchor");
  SIM_CHECK(m.anchor_file.find('/') == std::string::npos &&
                m.anchor_file.find("..") == std::string::npos,
            manifest_error(bundle_dir,
                           "manifest anchor file name must be a plain file "
                           "inside the bundle")
                .detail("anchor", m.anchor_file));
  m.replay = optional_string("replay");

  SIM_CHECK(fs::is_regular_file(fs::path(bundle_dir) / m.snapshot_file, ec),
            manifest_error(bundle_dir,
                           "bundle snapshot file named by the manifest is "
                           "missing")
                .detail("snapshot", m.snapshot_file));
  return m;
}

}  // namespace gpusim
