#include "harness/crash_bundle.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
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

std::string join_space(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += ' ';
    out += p;
  }
  return out;
}

std::string join_space_ints(const std::vector<int>& parts) {
  std::string out;
  for (int v : parts) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v);
  }
  return out;
}

SimError manifest_error(const std::string& bundle_dir, const char* what) {
  return SimError(SimErrorKind::kSnapshot, "harness.crash_bundle", what)
      .detail("bundle", bundle_dir);
}

void write_manifest(std::ostream& os, const TriageContext& ctx,
                    const SimError& err, Cycle failure_cycle,
                    u64 failure_state_hash, bool have_anchor,
                    const std::string& final_dir) {
  std::string models;
  if (ctx.dase) models += "dase";
  if (ctx.mise) models += models.empty() ? "mise" : " mise";
  if (ctx.asm_model) models += models.empty() ? "asm" : " asm";
  os << "{\n";
  os << "  \"schema\": \"" << json_escape(schema_name()) << "\",\n";
  os << "  \"build_fingerprint\": " << build_fingerprint() << ",\n";
  os << "  \"build_line\": \""
     << json_escape(build_fingerprint_line(kSnapshotVersion)) << "\",\n";
  os << "  \"mode\": \"" << json_escape(ctx.mode) << "\",\n";
  os << "  \"label\": \"" << json_escape(ctx.label) << "\",\n";
  os << "  \"apps\": \"" << json_escape(join_space(ctx.apps)) << "\",\n";
  os << "  \"base_seed\": " << ctx.base_seed << ",\n";
  os << "  \"co_run_cycles\": " << ctx.co_run_cycles << ",\n";
  os << "  \"policy\": \"" << json_escape(ctx.policy) << "\",\n";
  os << "  \"models\": \"" << models << "\",\n";
  os << "  \"faults\": \"" << json_escape(ctx.faults) << "\",\n";
  os << "  \"watchdog_cycles\": " << ctx.watchdog_cycles << ",\n";
  os << "  \"governor\": \"" << (ctx.governor ? "on" : "off") << "\",\n";
  os << "  \"sm_split\": \"" << join_space_ints(ctx.sm_split) << "\",\n";
  os << "  \"fingerprint\": " << ctx.fingerprint << ",\n";
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

/// Key-per-line tolerant parse: returns true and fills `value` (raw, still
/// JSON-escaped for strings) when `line` carries `key`.
bool line_value(const std::string& line, const std::string& key,
                std::string& value, bool& is_string) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t at = pos + needle.size();
  while (at < line.size() && (line[at] == ' ' || line[at] == '\t')) ++at;
  if (at >= line.size()) return false;
  if (line[at] == '"') {
    // Scan to the closing unescaped quote.
    std::string raw;
    for (std::size_t i = at + 1; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) {
        raw += line[i];
        raw += line[i + 1];
        ++i;
        continue;
      }
      if (line[i] == '"') {
        value = raw;
        is_string = true;
        return true;
      }
      raw += line[i];
    }
    return false;  // unterminated string: treat the key as absent
  }
  std::string raw;
  while (at < line.size() && line[at] != ',' && line[at] != '\n' &&
         line[at] != '}') {
    raw += line[at++];
  }
  while (!raw.empty() && (raw.back() == ' ' || raw.back() == '\t')) {
    raw.pop_back();
  }
  value = raw;
  is_string = false;
  return true;
}

std::vector<std::string> split_space(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream ss(text);
  std::string tok;
  while (ss >> tok) out.push_back(tok);
  return out;
}

}  // namespace

std::string write_crash_bundle(const std::string& bundle_root,
                               const Simulation& sim, const GpuConfig& cfg,
                               const SimError& err, const TriageContext& ctx,
                               const std::string& anchor_snapshot_path)
    noexcept {
  fs::path tmp;
  try {
    std::error_code ec;
    fs::create_directories(bundle_root, ec);

    // Pick a fresh directory name; concurrent sweep jobs may crash on the
    // same workload, so probe with numeric suffixes.
    const Cycle failure_cycle = sim.gpu().now();
    const std::string base = ctx.mode + "-" + sanitize_name(ctx.label) +
                             "-c" + std::to_string(failure_cycle);
    std::string name = base;
    fs::path dir = fs::path(bundle_root) / name;
    for (int i = 2; fs::exists(dir, ec) && i < 10'000; ++i) {
      name = base + "-" + std::to_string(i);
      dir = fs::path(bundle_root) / name;
    }

    tmp = fs::path(bundle_root) / (".tmp-" + name);
    fs::remove_all(tmp, ec);
    fs::create_directories(tmp);

    write_snapshot_file((tmp / "snapshot.simstate").string(), sim,
                        ctx.fingerprint);
    bool have_anchor = false;
    if (!anchor_snapshot_path.empty() &&
        fs::exists(anchor_snapshot_path, ec)) {
      have_anchor = fs::copy_file(anchor_snapshot_path,
                                  tmp / "anchor.simstate",
                                  fs::copy_options::overwrite_existing, ec);
    }
    save_config((tmp / "config.txt").string(), cfg);
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
      write_manifest(manifest, ctx, err, failure_cycle, sim.state_hash(),
                     have_anchor, dir.string());
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

  // One pass over the lines; later duplicates win (harmless), unknown keys
  // are ignored (forward compatibility).
  std::vector<std::pair<std::string, std::string>> strings;
  std::vector<std::pair<std::string, std::string>> numbers;
  static const char* kStringKeys[] = {
      "schema",  "build_line", "mode",           "label",
      "apps",    "policy",     "models",         "faults",
      "sm_split", "error_kind", "error_component", "error_message",
      "snapshot", "anchor",     "replay",         "governor"};
  static const char* kNumberKeys[] = {
      "build_fingerprint", "base_seed",     "co_run_cycles",
      "watchdog_cycles",   "fingerprint",   "failure_cycle",
      "failure_state_hash"};
  std::string line;
  while (std::getline(in, line)) {
    std::string value;
    bool is_string = false;
    for (const char* key : kStringKeys) {
      if (line_value(line, key, value, is_string) && is_string) {
        strings.emplace_back(key, json_unescape(value));
      }
    }
    for (const char* key : kNumberKeys) {
      if (line_value(line, key, value, is_string) && !is_string) {
        numbers.emplace_back(key, value);
      }
    }
  }

  const auto get_string = [&](const char* key,
                              std::string* out) -> bool {
    bool found = false;
    for (const auto& [k, v] : strings) {
      if (k == key) {
        *out = v;
        found = true;
      }
    }
    return found;
  };
  const auto require_string = [&](const char* key) {
    std::string out;
    if (!get_string(key, &out)) {
      SIM_FAIL(manifest_error(bundle_dir,
                              "manifest.json is missing a required string "
                              "key")
                   .detail("key", key));
    }
    return out;
  };
  const auto require_u64 = [&](const char* key) {
    for (const auto& [k, v] : numbers) {
      if (k != key) continue;
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
      SIM_CHECK(end != nullptr && end != v.c_str() && *end == '\0',
                manifest_error(bundle_dir,
                               "manifest.json has an unparsable numeric "
                               "value")
                    .detail("key", key)
                    .detail("value", v));
      return static_cast<u64>(parsed);
    }
    SIM_FAIL(manifest_error(bundle_dir,
                            "manifest.json is missing a required numeric "
                            "key")
                 .detail("key", key));
  };

  CrashBundleManifest m;
  m.schema = require_string("schema");
  SIM_CHECK(m.schema == schema_name(),
            manifest_error(bundle_dir, "unsupported crash-bundle schema")
                .detail("file_schema", m.schema)
                .detail("supported", schema_name()));
  m.build = require_u64("build_fingerprint");
  get_string("build_line", &m.build_line);
  m.ctx.mode = require_string("mode");
  m.ctx.label = require_string("label");
  m.ctx.apps = split_space(require_string("apps"));
  SIM_CHECK(!m.ctx.apps.empty(),
            manifest_error(bundle_dir, "manifest names no applications"));
  m.ctx.base_seed = require_u64("base_seed");
  m.ctx.co_run_cycles = require_u64("co_run_cycles");
  m.ctx.policy = require_string("policy");
  const std::vector<std::string> models =
      split_space(require_string("models"));
  m.ctx.dase = m.ctx.mise = m.ctx.asm_model = false;
  for (const std::string& name : models) {
    if (name == "dase") m.ctx.dase = true;
    if (name == "mise") m.ctx.mise = true;
    if (name == "asm") m.ctx.asm_model = true;
  }
  get_string("faults", &m.ctx.faults);
  m.ctx.watchdog_cycles = require_u64("watchdog_cycles");
  // Optional for backward compatibility: bundles written before the policy
  // governor existed replay with it enabled (the current default).
  std::string governor = "on";
  get_string("governor", &governor);
  m.ctx.governor = (governor != "off");
  for (const std::string& tok : split_space(require_string("sm_split"))) {
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    SIM_CHECK(end != nullptr && *end == '\0' && v >= 0 && v <= 1'000'000,
              manifest_error(bundle_dir,
                             "manifest sm_split entry is not a valid SM "
                             "count")
                  .detail("entry", tok));
    m.ctx.sm_split.push_back(static_cast<int>(v));
  }
  m.ctx.fingerprint = require_u64("fingerprint");
  m.failure_cycle = require_u64("failure_cycle");
  m.failure_state_hash = require_u64("failure_state_hash");
  m.error_kind = require_string("error_kind");
  get_string("error_component", &m.error_component);
  get_string("error_message", &m.error_message);
  m.snapshot_file = require_string("snapshot");
  SIM_CHECK(!m.snapshot_file.empty() &&
                m.snapshot_file.find('/') == std::string::npos &&
                m.snapshot_file.find("..") == std::string::npos,
            manifest_error(bundle_dir,
                           "manifest snapshot file name must be a plain "
                           "file inside the bundle")
                .detail("snapshot", m.snapshot_file));
  get_string("anchor", &m.anchor_file);
  SIM_CHECK(m.anchor_file.find('/') == std::string::npos &&
                m.anchor_file.find("..") == std::string::npos,
            manifest_error(bundle_dir,
                           "manifest anchor file name must be a plain file "
                           "inside the bundle")
                .detail("anchor", m.anchor_file));
  get_string("replay", &m.replay);

  SIM_CHECK(fs::is_regular_file(fs::path(bundle_dir) / m.snapshot_file, ec),
            manifest_error(bundle_dir,
                           "bundle snapshot file named by the manifest is "
                           "missing")
                .detail("snapshot", m.snapshot_file));
  return m;
}

}  // namespace gpusim
