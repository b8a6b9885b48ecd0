// TelemetryHub contracts at the unit level: one record per estimation
// interval with per-app/per-tap shape, cumulative (resume-safe) DRAM
// columns, an exact TELE save/load round-trip, batch path resolution, and
// the flush writers producing the documented file shapes.  The end-to-end
// halves of these contracts (kill+resume byte-identity, on/off stdout
// identity, Perfetto loadability) live in tools/check_telemetry.sh and
// tools/check_determinism.sh.
#include "telemetry/hub.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/simstate.hpp"
#include "dase/dase_model.hpp"
#include "gpu/gpu.hpp"
#include "gpu/simulator.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "kernels/app_registry.hpp"
#include "telemetry/registry.hpp"

namespace gpusim {
namespace {

namespace fs = std::filesystem;

constexpr Cycle kInterval = 5'000;  // short epochs keep the test fast

struct HubRig {
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<DaseModel> dase;
  std::unique_ptr<TelemetryHub> hub;
};

HubRig make_rig() {
  GpuConfig cfg;
  cfg.estimation_interval = kInterval;
  HubRig rig;
  rig.sim = std::make_unique<Simulation>(
      cfg, std::vector<AppLaunch>{AppLaunch{*find_app("SD"), 11},
                                  AppLaunch{*find_app("SA"), 12}});
  rig.sim->gpu().set_partition(even_partition(rig.sim->gpu().num_sms(), 2));
  rig.dase = std::make_unique<DaseModel>();
  rig.sim->add_observer(rig.dase.get());
  rig.hub = std::make_unique<TelemetryHub>(
      std::vector<TelemetryEstimatorTap>{{"DASE", rig.dase.get()}},
      [] { return u64{0}; });
  rig.sim->add_observer(rig.hub.get());
  return rig;
}

TEST(TelemetryHubTest, OneRecordPerIntervalWithFullShape) {
  HubRig rig = make_rig();
  rig.sim->run(5 * kInterval);

  const TelemetryHub& hub = *rig.hub;
  EXPECT_EQ(hub.epochs_seen(), 5u);
  ASSERT_EQ(hub.records().size(), 5u);
  EXPECT_EQ(hub.records_dropped(), 0u);
  const int num_sms = rig.sim->gpu().num_sms();
  for (std::size_t i = 0; i < hub.records().size(); ++i) {
    const TelemetryRecord& r = hub.records()[i];
    EXPECT_EQ(r.epoch, i);
    EXPECT_EQ(r.start, i * kInterval);
    EXPECT_EQ(r.length, kInterval);
    ASSERT_EQ(r.apps.size(), 2u);
    int sms = 0;
    for (const TelemetryAppSample& a : r.apps) {
      EXPECT_GE(a.num_sms, 1);
      sms += a.num_sms;
      ASSERT_EQ(a.estimates.size(), 1u) << "one sample per tap";
    }
    EXPECT_EQ(sms, num_sms);
    if (i > 0) {
      // DRAM columns are cumulative grand totals so a resumed run replays
      // them exactly; exporters diff neighbours for rates.
      EXPECT_GE(r.dram_requests, hub.records()[i - 1].dram_requests);
    }
  }
  // A memory-heavy co-run must have issued and touched DRAM by now.
  EXPECT_GT(hub.records().back().apps[0].instructions, 0u);
  EXPECT_GT(hub.records().back().dram_requests, 0u);
}

TEST(TelemetryHubTest, SaveLoadRoundTripIsByteExact) {
  HubRig rig = make_rig();
  rig.sim->run(3 * kInterval);

  StateWriter w;
  rig.hub->save_state(w);
  const std::vector<u8> bytes = w.bytes();

  // A fresh hub (as built on resume, before load) must adopt the state
  // exactly: re-serialization and the determinism hash both match.
  TelemetryHub fresh(
      std::vector<TelemetryEstimatorTap>{{"DASE", rig.dase.get()}},
      [] { return u64{0}; });
  StateReader r(bytes);
  fresh.load_state(r);
  StateWriter w2;
  fresh.save_state(w2);
  EXPECT_EQ(w2.bytes(), bytes);

  Hasher ha, hb;
  rig.hub->hash_state(ha);
  fresh.hash_state(hb);
  EXPECT_EQ(ha.digest(), hb.digest());
  EXPECT_EQ(fresh.records().size(), rig.hub->records().size());
  EXPECT_EQ(fresh.epochs_seen(), rig.hub->epochs_seen());
  EXPECT_EQ(fresh.trace_events().size(), rig.hub->trace_events().size());
}

TEST(TelemetryHubTest, BatchPathResolutionSanitizesLabels) {
  EXPECT_EQ(telemetry_file_for("d", "SD+SA", ".trace.json"),
            "d/SD_SA.trace.json");
  EXPECT_EQ(telemetry_file_for("d", "BS,AA even/7", ".x"), "d/BS_AA_even_7.x");

  TelemetryPaths batch;
  batch.dir = "out/tel";
  const TelemetryPaths resolved = resolve_telemetry_paths(batch, "SD+SA");
  EXPECT_EQ(resolved.series, "out/tel/SD_SA.telemetry.jsonl");
  EXPECT_EQ(resolved.trace, "out/tel/SD_SA.trace.json");
  EXPECT_EQ(resolved.metrics, "out/tel/SD_SA.metrics.prom");
  EXPECT_TRUE(resolved.dir.empty()) << "dir must not survive resolution";

  TelemetryPaths single;
  single.series = "a.jsonl";
  const TelemetryPaths passthrough = resolve_telemetry_paths(single, "SD+SA");
  EXPECT_EQ(passthrough.series, "a.jsonl");
  EXPECT_TRUE(passthrough.trace.empty());
  EXPECT_FALSE(TelemetryPaths{}.any());
  EXPECT_TRUE(single.any());
}

TEST(TelemetryHubTest, FlushWritesDocumentedFileShapes) {
  HubRig rig = make_rig();
  rig.sim->run(4 * kInterval);

  const fs::path dir =
      fs::temp_directory_path() /
      ("gpusim_hub_flush_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  TelemetryFlushContext ctx;
  ctx.label = "SD+SA";
  ctx.apps = {"SD", "SA"};
  ctx.estimators = {"DASE"};
  ctx.interval_length = kInterval;
  ctx.final_cycle = rig.sim->gpu().now();
  ctx.ipc_alone = {1.0, 1.0};

  TelemetryPaths paths;
  paths.series = (dir / "t.jsonl").string();
  paths.trace = (dir / "t.trace.json").string();
  paths.metrics = (dir / "t.prom").string();
  flush_telemetry(*rig.hub, rig.sim->gpu(), paths, ctx);

  // JSONL: schema-versioned header line + exactly one line per record.
  std::ifstream series(paths.series);
  ASSERT_TRUE(series.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(series, line));
  EXPECT_NE(line.find("\"schema\":\"gpusim-telemetry-v1\""), std::string::npos)
      << line;
  std::size_t body_lines = 0;
  while (std::getline(series, line)) {
    ++body_lines;
    EXPECT_NE(line.find("\"estimates\""), std::string::npos);
  }
  EXPECT_EQ(body_lines, rig.hub->records().size());

  // Trace: a traceEvents array with epoch spans and thread-name metadata.
  std::ifstream trace(paths.trace);
  ASSERT_TRUE(trace.is_open());
  std::stringstream tbuf;
  tbuf << trace.rdbuf();
  const std::string t = tbuf.str();
  EXPECT_EQ(t.rfind("{", 0), 0u);
  EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(t.find("epoch"), std::string::npos);
  EXPECT_NE(t.find("thread_name"), std::string::npos);

  // Metrics: the Prometheus snapshot carries the headline families.
  std::ifstream prom(paths.metrics);
  ASSERT_TRUE(prom.is_open());
  std::stringstream pbuf;
  pbuf << prom.rdbuf();
  const std::string p = pbuf.str();
  EXPECT_NE(p.find("# TYPE gpusim_intervals_total counter"),
            std::string::npos);
  EXPECT_NE(p.find("gpusim_estimation_error"), std::string::npos);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(TelemetryHubTest, RunnerResultIsIdenticalWithTelemetryOnAndOff) {
  // The harness-level transparency half: ExperimentRunner attaches the hub
  // unconditionally, so asking for output files cannot change the result.
  Workload w;
  w.apps.push_back(*find_app("SD"));
  w.apps.push_back(*find_app("SA"));

  RunConfig rc;
  rc.co_run_cycles = 120'000;
  ExperimentRunner off(rc);
  const std::string off_json =
      SweepRunner::to_json(off.run(w, ModelSet{.dase = true}));

  const fs::path dir =
      fs::temp_directory_path() /
      ("gpusim_hub_runner_" + std::to_string(::getpid()));
  rc.telemetry.series = (dir / "r.jsonl").string();
  rc.telemetry.trace = (dir / "r.trace.json").string();
  rc.telemetry.metrics = (dir / "r.prom").string();
  ExperimentRunner on(rc);
  const std::string on_json =
      SweepRunner::to_json(on.run(w, ModelSet{.dase = true}));

  EXPECT_EQ(on_json, off_json);
  EXPECT_GT(fs::file_size(rc.telemetry.series), 0u);
  EXPECT_GT(fs::file_size(rc.telemetry.trace), 0u);
  EXPECT_GT(fs::file_size(rc.telemetry.metrics), 0u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace gpusim
