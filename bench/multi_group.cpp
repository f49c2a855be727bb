// Multi-group server bench: thousands of concurrent secure groups hosted by
// one GroupServer (src/server), executed across worker threads with
// bit-for-bit deterministic output (ROADMAP item 4's "heavy traffic"
// regime).
//
// Headline metrics (all virtual-time, hence deterministic and CI-gateable):
// groups/sec onboarded, aggregate rekeys/sec, per-group p50/p99
// event-to-key latency under contention. With --wallclock the bench also
// measures real host seconds per thread count and prints the scaling
// table (speedup and efficiency vs. the single-threaded run); wall numbers
// live only on stdout, so the report stays byte-identical across thread
// counts and with or without --wallclock.
//
// Unless --threads pins a single count, the bench sweeps --scale (default
// 1,2,4,8) over the same scenario and verifies that every run's canonical
// JSON is byte-identical to the first — the determinism regression runs
// inside the bench itself on every invocation.
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_io.h"
#include "obs/metrics.h"
#include "obs/wallclock.h"
#include "server/server.h"

using sgk::ProtocolKind;

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::size_t groups = 1000;
  std::size_t members = 4;
  int events = 2;
  double window_ms = 50.0;
  double fault_rate = 0.0;
  bool per_group = false;
  std::vector<ProtocolKind> protocols;
  sgk::parse_protocols("all", protocols);
  std::vector<int> scale = {1, 2, 4, 8};
  sgk::FlagTable flags(opts);
  flags.add("--groups N", groups, "groups hosted", sgk::at_least(1));
  flags.add("--members N", members, "members per group", sgk::at_least(2));
  flags.add("--events N", events, "churn events per group", sgk::at_least(0));
  flags.add("--window MS", window_ms, "virtual epoch window", sgk::above(0));
  flags.add("--fault-rate R", fault_rate, "wire-fault rate in every group",
            sgk::at_least(0, 1));
  flags.add("--protocol P", protocols,
            "all (round-robin mix), or one of gdh|ckd|tgdh|str|bd");
  flags.add("--scale N,...", scale,
            "thread counts to sweep and byte-compare", sgk::at_least(1));
  flags.add("--per-group", per_group, "add per-group rows to the report");
  if (const auto status = flags.parse(argc, argv)) return *status;
  // --threads pins one count; otherwise the scale list is swept and every
  // run's canonical JSON must match the first byte-for-byte.
  if (flags.given("--threads") && !flags.given("--scale"))
    scale = {opts.threads};

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("multi_group");
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("groups", sgk::obs::Json(static_cast<std::uint64_t>(groups)));
    params.set("members", sgk::obs::Json(static_cast<std::uint64_t>(members)));
    params.set("events", sgk::obs::Json(static_cast<std::int64_t>(events)));
    params.set("window_ms", sgk::obs::Json(window_ms));
    params.set("fault_rate", sgk::obs::Json(fault_rate));
    // Deliberately no thread count here: the deterministic sections must be
    // byte-identical for any --threads/--scale.
    report.add_section("params", std::move(params));
  }

  auto config_for = [&](int threads) {
    sgk::server::ServerConfig cfg;
    cfg.groups = groups;
    cfg.members_per_group = members;
    cfg.churn_events = events;
    cfg.threads = threads;
    cfg.seed = opts.seed;
    cfg.epoch_window_ms = window_ms;
    cfg.protocols = protocols;
    cfg.rates = sgk::fault::FaultRates::uniform(fault_rate);
    cfg.per_group_metrics = per_group;
    return cfg;
  };

  std::string canonical;       // first run's deterministic JSON
  int canonical_threads = 0;
  bool determinism_ok = true;
  std::size_t failures = 0;
  std::vector<std::pair<int, double>> wall_ms;  // (threads, host ms)
  sgk::obs::Json multi;                         // first run's section

  for (std::size_t run = 0; run < scale.size(); ++run) {
    const int threads = scale[run];
    const std::uint64_t t0 = opts.wallclock ? sgk::obs::wall_now_ns() : 0;
    sgk::server::GroupServer server(config_for(threads));
    sgk::server::ServerResult result = server.run();
    if (opts.wallclock) {
      const std::uint64_t t1 = sgk::obs::wall_now_ns();
      wall_ms.emplace_back(threads,
                           static_cast<double>(t1 - t0) / 1e6);
    }

    const sgk::obs::Json json = result.to_json(/*with_groups=*/per_group);
    const std::string dump = json.dump(2);
    if (run == 0) {
      canonical = dump;
      canonical_threads = threads;
      multi = json;
      failures = result.groups_hosted - result.groups_converged;
      for (const auto& g : result.groups) {
        if (g.converged) continue;
        std::cout << "FAIL group g" << g.id << " ("
                  << sgk::to_string(g.protocol) << "):\n";
        for (const std::string& v : g.violations)
          std::cout << "       " << v << "\n";
      }
      std::cout << "multi_group: " << result.groups_hosted << " groups, "
                << result.groups_converged << " converged, "
                << result.rekeys << " rekeys over " << std::fixed
                << std::setprecision(1) << result.virtual_makespan_ms
                << "ms virtual (" << result.epochs_executed << " epochs)\n"
                << "  groups/sec " << std::setprecision(2)
                << result.groups_per_sec << "  rekeys/sec "
                << result.rekeys_per_sec << "  onboard p50 "
                << result.onboard_p50_ms << "ms p99 " << result.onboard_p99_ms
                << "ms  event-to-key p50 " << result.event_to_key_p50_ms
                << "ms p99 " << result.event_to_key_p99_ms << "ms\n";
    } else if (dump != canonical) {
      determinism_ok = false;
      const auto mismatch =
          std::mismatch(dump.begin(), dump.end(), canonical.begin(),
                        canonical.end());
      std::cout << "DETERMINISM VIOLATION: --threads " << threads
                << " diverges from --threads " << canonical_threads
                << " at byte "
                << (mismatch.first - dump.begin()) << "\n"
                << "       repro: multi_group --groups=" << groups
                << " --members=" << members << " --events=" << events
                << " --seed=" << opts.seed << " --scale="
                << canonical_threads << "," << threads << "\n";
    } else {
      std::cout << "determinism ok: --threads " << threads << " == --threads "
                << canonical_threads << " (" << canonical.size()
                << " bytes)\n";
    }
  }

  report.add_section("multi_group", std::move(multi));

  {
    // "table" rows feed the CI gate (tools/bench_gate) alongside the
    // aggregate cells it reads from the multi_group section directly.
    sgk::obs::Json table = sgk::obs::Json::array();
    const sgk::obs::Json* protos = report.json().find("multi_group");
    if (protos != nullptr) {
      if (const sgk::obs::Json* rows = protos->find("protocols")) {
        for (const sgk::obs::Json& row : rows->as_array()) {
          const sgk::obs::Json* proto = row.find("protocol");
          const sgk::obs::Json* onboard = row.find("onboard_p50_ms");
          const sgk::obs::Json* p99 = row.find("event_to_key_p99_ms");
          if (proto == nullptr) continue;
          if (onboard != nullptr) {
            sgk::obs::Json r = sgk::obs::Json::object();
            r.set("protocol", *proto);
            r.set("event", sgk::obs::Json("mg_onboard_p50"));
            r.set("elapsed_ms", *onboard);
            table.push(std::move(r));
          }
          if (p99 != nullptr) {
            sgk::obs::Json r = sgk::obs::Json::object();
            r.set("protocol", *proto);
            r.set("event", sgk::obs::Json("mg_event_to_key_p99"));
            r.set("elapsed_ms", *p99);
            table.push(std::move(r));
          }
        }
      }
    }
    report.add_section("table", std::move(table));
  }

  if (opts.wallclock && !wall_ms.empty()) {
    // Host-time scaling table (stdout only: wall numbers must not leak into
    // the deterministic sections).
    const double base = wall_ms.front().second;
    const int base_threads = wall_ms.front().first;
    std::cout << "\nwall-clock scaling (host ms; baseline " << base_threads
              << " thread" << (base_threads == 1 ? "" : "s") << ")\n";
    std::cout << std::setw(8) << "threads" << std::setw(12) << "wall_ms"
              << std::setw(10) << "speedup" << std::setw(12) << "efficiency"
              << "\n";
    for (const auto& [threads, ms] : wall_ms) {
      const double speedup = ms > 0.0 ? base / ms : 0.0;
      const double eff =
          speedup * static_cast<double>(base_threads) / threads;
      std::cout << std::setw(8) << threads << std::setw(12) << std::fixed
                << std::setprecision(1) << ms << std::setw(10)
                << std::setprecision(2) << speedup << std::setw(12) << eff
                << "\n";
    }
  }

  const bool wrote = session.finish(report);
  return failures == 0 && determinism_ok && wrote ? 0 : 1;
}
