// Churn-storm resilience bench: the same bursty membership storm executed
// twice by the multi-group server — once with per-event rekeying (the
// batcher in zero-window passthrough, so event-arrival -> key attribution
// is measured identically) and once with the adaptive coalescing pipeline —
// and the two outcomes contrasted.
//
// Headline metrics (all virtual-time, hence deterministic and CI-gateable):
// sustained rekeys/sec, keys-per-membership-event amortization
// (rekeys_per_event), and p99 event-arrival -> new-key latency per mode.
// The bench enforces the robustness acceptance criteria itself: every group
// must converge in BOTH modes, batched rekeys_per_event must stay below
// 0.5, and the batched p99 must be strictly lower than the unbatched p99 —
// any miss fails the exit code, so CI catches a regressed pipeline even
// before the perf gate compares numbers.
//
// Unless --threads pins a single count, both modes sweep --scale (default
// 1,2,4) over the same scenario and verify that every run's canonical JSON
// is byte-identical to that mode's first run — the determinism regression
// runs inside the bench on every invocation, exactly like bench/multi_group.
//
// The report carries one ServerResult document per mode under the
// "churn_storm" section and stamps schema sgk-bench/3 (the batch payload);
// tools/bench_gate watches the per-mode aggregate/batch cells plus the
// "table" rows emitted here.
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/bench_io.h"
#include "obs/metrics.h"
#include "obs/wallclock.h"
#include "server/server.h"

namespace {

using sgk::ProtocolKind;

/// One rekey mode's outcome across the scale sweep: the first run's
/// deterministic document plus the byte-compare verdict over later runs.
struct ModeOutcome {
  std::string label;
  sgk::server::ServerResult result;  // first run
  sgk::obs::Json json;               // first run's canonical document
  std::string dump;
  std::size_t failures = 0;  // hosted - converged on the first run
  bool determinism_ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::size_t groups = 30;
  std::size_t members = 5;
  int events = 24;
  int burst = 6;
  double window_min_ms = 4.0;
  double window_max_ms = 256.0;
  double budget_ms = 3000.0;
  std::vector<ProtocolKind> protocols;
  sgk::parse_protocols("all", protocols);
  std::vector<int> scale = {1, 2, 4};
  sgk::FlagTable flags(opts);
  flags.add("--groups N", groups, "groups hosted", sgk::at_least(1));
  flags.add("--members N", members, "members per group", sgk::at_least(2));
  flags.add("--events N", events,
            "storm events per group, a multiple of --burst", sgk::at_least(1));
  flags.add("--burst N", burst, "events per burst", sgk::at_least(1));
  flags.add("--window-min MS", window_min_ms, "smallest batching window",
            sgk::at_least(0));
  flags.add("--window-max MS", window_max_ms,
            "largest batching window, >= --window-min");
  flags.add("--budget MS", budget_ms, "event-to-key latency budget");
  flags.add("--protocol P", protocols,
            "all (round-robin mix), or one of gdh|ckd|tgdh|str|bd");
  flags.add("--scale N,...", scale,
            "thread counts to sweep and byte-compare", sgk::at_least(1));
  if (const auto status = flags.parse(argc, argv)) return *status;
  if (window_max_ms < window_min_ms)
    return flags.fail("--window-max", "must be >= --window-min, got");
  if (events % burst != 0)
    return flags.fail("--events", "must be a multiple of --burst");
  if (flags.given("--threads") && !flags.given("--scale"))
    scale = {opts.threads};

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("churn_storm");
  report.set_schema(sgk::obs::kBenchSchemaBatch);
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("groups", sgk::obs::Json(static_cast<std::uint64_t>(groups)));
    params.set("members", sgk::obs::Json(static_cast<std::uint64_t>(members)));
    params.set("events", sgk::obs::Json(static_cast<std::int64_t>(events)));
    params.set("burst", sgk::obs::Json(static_cast<std::int64_t>(burst)));
    params.set("window_min_ms", sgk::obs::Json(window_min_ms));
    params.set("window_max_ms", sgk::obs::Json(window_max_ms));
    params.set("latency_budget_ms", sgk::obs::Json(budget_ms));
    // Deliberately no thread count here: the deterministic sections must be
    // byte-identical for any --threads/--scale.
    report.add_section("params", std::move(params));
  }

  // Both modes run the batcher so event-arrival -> key latency is attributed
  // the same way; "unbatched" pins the window to zero, which flushes every
  // event on the next simulator turn — per-event rekeying with batch
  // accounting.
  auto config_for = [&](int threads, bool batched) {
    sgk::server::ServerConfig cfg;
    cfg.groups = groups;
    cfg.members_per_group = members;
    cfg.churn_events = events;
    cfg.threads = threads;
    cfg.seed = opts.seed;
    cfg.protocols = protocols;
    cfg.storm = sgk::server::StormKind::kBursty;
    cfg.burst_size = burst;
    cfg.batch.enabled = true;
    cfg.batch.min_window_ms = batched ? window_min_ms : 0.0;
    cfg.batch.max_window_ms = batched ? window_max_ms : 0.0;
    cfg.batch.latency_budget_ms = budget_ms;
    return cfg;
  };

  std::vector<ModeOutcome> modes;
  std::vector<std::pair<int, double>> wall_ms;  // (threads, host ms) batched
  for (const bool batched : {false, true}) {
    ModeOutcome mode;
    mode.label = batched ? "batched" : "unbatched";
    for (std::size_t run = 0; run < scale.size(); ++run) {
      const int threads = scale[run];
      const std::uint64_t t0 = opts.wallclock ? sgk::obs::wall_now_ns() : 0;
      sgk::server::GroupServer server(config_for(threads, batched));
      sgk::server::ServerResult result = server.run();
      if (opts.wallclock && batched) {
        const std::uint64_t t1 = sgk::obs::wall_now_ns();
        wall_ms.emplace_back(threads, static_cast<double>(t1 - t0) / 1e6);
      }

      const sgk::obs::Json json = result.to_json(/*with_groups=*/false);
      const std::string dump = json.dump(2);
      if (run == 0) {
        mode.failures = result.groups_hosted - result.groups_converged;
        for (const auto& g : result.groups) {
          if (g.converged) continue;
          std::cout << "FAIL " << mode.label << " group g" << g.id << " ("
                    << sgk::to_string(g.protocol) << "):\n";
          for (const std::string& v : g.violations)
            std::cout << "       " << v << "\n";
        }
        std::cout << mode.label << ": " << result.groups_converged << "/"
                  << result.groups_hosted << " converged, " << result.rekeys
                  << " rekeys for " << result.events_applied
                  << " events (" << std::fixed << std::setprecision(3)
                  << result.rekeys_per_event << " keys/event), "
                  << result.batch_flushes << " flushes, "
                  << result.batch_coalesced << " coalesced, "
                  << result.batch_shed << " shed\n"
                  << "  event-to-key p50 " << std::setprecision(1)
                  << result.batch_event_to_key_p50_ms << "ms p99 "
                  << result.batch_event_to_key_p99_ms << "ms  rekeys/sec "
                  << std::setprecision(2) << result.rekeys_per_sec
                  << "  makespan " << std::setprecision(1)
                  << result.virtual_makespan_ms << "ms  degraded "
                  << result.degraded_entries << " in / "
                  << result.degraded_exits << " out\n";
        mode.result = std::move(result);
        mode.json = json;
        mode.dump = dump;
      } else if (dump != mode.dump) {
        mode.determinism_ok = false;
        const auto mismatch = std::mismatch(dump.begin(), dump.end(),
                                            mode.dump.begin(),
                                            mode.dump.end());
        std::cout << "DETERMINISM VIOLATION (" << mode.label << "): --threads "
                  << threads << " diverges from --threads " << scale[0]
                  << " at byte " << (mismatch.first - dump.begin()) << "\n"
                  << "       repro: churn_storm --groups=" << groups
                  << " --members=" << members << " --events=" << events
                  << " --burst=" << burst << " --seed=" << opts.seed
                  << " --scale=" << scale[0] << "," << threads << "\n";
      } else {
        std::cout << "determinism ok (" << mode.label << "): --threads "
                  << threads << " == --threads " << scale[0] << " ("
                  << mode.dump.size() << " bytes)\n";
      }
    }
    modes.push_back(std::move(mode));
  }

  const ModeOutcome& unbatched = modes[0];
  const ModeOutcome& batched = modes[1];

  // Robustness acceptance criteria, enforced here so a regressed pipeline
  // fails CI even before bench_gate compares numbers against the baseline.
  bool criteria_ok = true;
  auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "criterion ok:  " : "criterion FAIL: ") << what << "\n";
    criteria_ok = criteria_ok && ok;
  };
  check(unbatched.failures == 0 && batched.failures == 0,
        "all groups converge in both modes");
  {
    std::ostringstream what;
    what << "batched keys/event " << std::fixed << std::setprecision(3)
         << batched.result.rekeys_per_event << " < 0.5";
    check(batched.result.rekeys_per_event < 0.5, what.str());
  }
  {
    std::ostringstream what;
    what << "batched p99 " << std::fixed << std::setprecision(1)
         << batched.result.batch_event_to_key_p99_ms << "ms < unbatched p99 "
         << unbatched.result.batch_event_to_key_p99_ms << "ms";
    check(batched.result.batch_event_to_key_p99_ms <
              unbatched.result.batch_event_to_key_p99_ms,
          what.str());
  }

  {
    sgk::obs::Json storm = sgk::obs::Json::object();
    storm.set("unbatched", unbatched.json);
    storm.set("batched", batched.json);
    sgk::obs::Json contrast = sgk::obs::Json::object();
    contrast.set("rekeys_saved",
                 sgk::obs::Json(unbatched.result.rekeys >= batched.result.rekeys
                                    ? unbatched.result.rekeys -
                                          batched.result.rekeys
                                    : 0));
    contrast.set(
        "p99_speedup",
        sgk::obs::Json(batched.result.batch_event_to_key_p99_ms > 0.0
                           ? unbatched.result.batch_event_to_key_p99_ms /
                                 batched.result.batch_event_to_key_p99_ms
                           : 0.0));
    contrast.set("criteria_ok", sgk::obs::Json(criteria_ok));
    storm.set("contrast", std::move(contrast));
    report.add_section("churn_storm", std::move(storm));
  }

  {
    // "table" rows feed the CI gate alongside the per-mode cells it reads
    // from the churn_storm section directly. All are lower-is-better; the
    // keys/event ratio rides in an elapsed_ms cell like every gated number.
    sgk::obs::Json table = sgk::obs::Json::array();
    auto row = [&](const char* event, double value) {
      sgk::obs::Json r = sgk::obs::Json::object();
      r.set("protocol", sgk::obs::Json("mix"));
      r.set("event", sgk::obs::Json(event));
      r.set("elapsed_ms", sgk::obs::Json(value));
      table.push(std::move(r));
    };
    row("storm_keys_per_event", batched.result.rekeys_per_event);
    row("storm_event_to_key_p99", batched.result.batch_event_to_key_p99_ms);
    row("storm_event_to_key_p99_unbatched",
        unbatched.result.batch_event_to_key_p99_ms);
    row("storm_makespan", batched.result.virtual_makespan_ms);
    report.add_section("table", std::move(table));
  }

  if (opts.wallclock && !wall_ms.empty()) {
    // Host-time scaling for the batched sweep (stdout only: wall numbers
    // must not leak into the deterministic sections).
    const double base = wall_ms.front().second;
    const int base_threads = wall_ms.front().first;
    std::cout << "\nwall-clock scaling, batched mode (host ms; baseline "
              << base_threads << " thread" << (base_threads == 1 ? "" : "s")
              << ")\n";
    std::cout << std::setw(8) << "threads" << std::setw(12) << "wall_ms"
              << std::setw(10) << "speedup" << std::setw(12) << "efficiency"
              << "\n";
    for (const auto& [threads, ms] : wall_ms) {
      const double speedup = ms > 0.0 ? base / ms : 0.0;
      const double eff = speedup * static_cast<double>(base_threads) / threads;
      std::cout << std::setw(8) << threads << std::setw(12) << std::fixed
                << std::setprecision(1) << ms << std::setw(10)
                << std::setprecision(2) << speedup << std::setw(12) << eff
                << "\n";
    }
  }

  const bool wrote = session.finish(report);
  const bool determinism_ok =
      unbatched.determinism_ok && batched.determinism_ok;
  return criteria_ok && determinism_ok && wrote ? 0 : 1;
}
