// Chaos soak: robustness of the key agreement protocols under cascaded
// membership churn and injected wire faults (extension experiment X2; the
// paper's section 7 leaves fault-tolerance measurements as future work).
//
// For every (protocol, seed) pair the soak runs one deterministic chaos
// scenario (harness/chaos.h): a group of --group-size members suffers
// --events randomized membership faults — joins, leaves, daemon crashes,
// partitions, heals, rekeys — with gaps short enough to land inside the
// previous event's agreement, while every daemon-to-daemon copy is subject
// to --fault-rate drop/delay/duplication. A run passes when every surviving
// member converges to the same key at the same epoch (ct_equal) with no
// epoch regression and no agreement running forever.
//
// Each failing run prints a one-line repro command; re-running it replays
// the identical schedule (the whole run is a pure function of the flags).
//
// Usage: chaos_soak [--protocol all|gdh|ckd|tgdh|str|bd] [--seeds N]
//                   [--fault-rate R] [--group-size N] [--events N]
//                   [--seed BASE] [--json out.json] [--trace out.trace.json]
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/bench_io.h"
#include "harness/chaos.h"
#include "obs/metrics.h"

using sgk::ProtocolKind;

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }

  std::vector<ProtocolKind> protocols;
  sgk::parse_protocols("all", protocols);
  int seeds = 16;
  double fault_rate = 0.1;
  std::size_t group_size = 8;
  int events = 6;
  try {
    for (std::size_t i = 0; i < opts.rest.size(); ++i) {
      std::string value;
      if (sgk::take_flag(opts.rest, i, "--protocol", value)) {
        if (!sgk::parse_protocols(value, protocols)) {
          std::cerr << "error: unknown protocol '" << value << "'\n";
          return 2;
        }
      } else if (sgk::take_flag(opts.rest, i, "--seeds", value)) {
        seeds = std::stoi(value);
      } else if (sgk::take_flag(opts.rest, i, "--fault-rate", value)) {
        fault_rate = std::stod(value);
      } else if (sgk::take_flag(opts.rest, i, "--group-size", value)) {
        group_size = std::stoul(value);
      } else if (sgk::take_flag(opts.rest, i, "--events", value)) {
        events = std::stoi(value);
      } else {
        std::cerr << "error: unknown argument '" << opts.rest[i] << "'\n";
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (seeds < 1 || events < 0 || group_size < 2 || fault_rate < 0.0 ||
      fault_rate > 1.0) {
    std::cerr << "error: need --seeds >= 1, --events >= 0, --group-size >= 2, "
                 "--fault-rate in [0,1]\n";
    return 2;
  }

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("chaos_soak");
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("seeds", sgk::obs::Json(static_cast<std::int64_t>(seeds)));
    params.set("fault_rate", sgk::obs::Json(fault_rate));
    params.set("group_size",
               sgk::obs::Json(static_cast<std::uint64_t>(group_size)));
    params.set("events", sgk::obs::Json(static_cast<std::int64_t>(events)));
    report.add_section("params", std::move(params));
  }

  int total_runs = 0, failures = 0;
  sgk::obs::Json chaos = sgk::obs::Json::object();
  sgk::obs::Json table = sgk::obs::Json::array();
  for (ProtocolKind kind : protocols) {
    const char* proto = sgk::to_string(kind);
    std::vector<double> converge_ms;
    std::uint64_t restarts = 0, stale = 0, churn = 0;
    int converged = 0;
    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = opts.seed + static_cast<std::uint64_t>(s);
      sgk::ChaosConfig cfg;
      cfg.protocol = kind;
      cfg.seed = seed;
      cfg.initial_size = group_size;
      cfg.events = events;
      cfg.rates = sgk::fault::FaultRates::uniform(fault_rate);
      const sgk::ChaosResult r = sgk::run_chaos(cfg);
      ++total_runs;
      restarts += r.restarts;
      stale += r.stale_dropped;
      churn += r.churn_applied;
      if (r.converged) {
        ++converged;
        converge_ms.push_back(r.convergence_ms);
        std::cout << "ok   " << std::left << std::setw(9) << proto
                  << " seed=" << std::setw(4) << seed << std::fixed
                  << std::setprecision(1) << " converge=" << r.convergence_ms
                  << "ms epoch=" << r.final_epoch
                  << " members=" << r.final_size << " restarts=" << r.restarts
                  << " stale=" << r.stale_dropped << " churn=" << r.churn_applied
                  << " key=" << r.fingerprint << "\n";
      } else {
        ++failures;
        std::cout << "FAIL " << std::left << std::setw(9) << proto
                  << " seed=" << seed << ":\n";
        for (const std::string& v : r.violations)
          std::cout << "       " << v << "\n";
        std::ostringstream repro;
        repro << "chaos_soak --protocol=" << sgk::lower_name(kind)
              << " --seeds=1 --seed=" << seed << " --fault-rate=" << fault_rate
              << " --group-size=" << group_size << " --events=" << events;
        std::cout << "       repro: " << repro.str() << "\n";
      }
      if (sgk::obs::MetricsRegistry* mr = sgk::obs::metrics()) {
        mr->histogram(std::string("chaos/convergence_ms/") + proto)
            .observe(r.convergence_ms);
        if (!r.converged)
          mr->counter(std::string("chaos/failures/") + proto).add();
      }
    }
    sgk::obs::Json entry = sgk::obs::Json::object();
    entry.set("runs", sgk::obs::Json(static_cast<std::int64_t>(seeds)));
    entry.set("converged", sgk::obs::Json(static_cast<std::int64_t>(converged)));
    entry.set("restarts", sgk::obs::Json(restarts));
    entry.set("stale_dropped", sgk::obs::Json(stale));
    entry.set("churn_applied", sgk::obs::Json(churn));
    entry.set("convergence_median_ms", sgk::obs::Json(sgk::quantile(converge_ms, 0.5)));
    entry.set("convergence_p95_ms", sgk::obs::Json(sgk::quantile(converge_ms, 0.95)));
    chaos.set(proto, std::move(entry));

    // "table" rows feed the CI gate (tools/bench_gate): the median
    // convergence time per protocol is the watched trajectory cell.
    sgk::obs::Json row = sgk::obs::Json::object();
    row.set("protocol", sgk::obs::Json(proto));
    row.set("event", sgk::obs::Json("chaos_converge"));
    row.set("elapsed_ms", sgk::obs::Json(sgk::quantile(converge_ms, 0.5)));
    table.push(std::move(row));
  }
  report.add_section("chaos", std::move(chaos));
  report.add_section("table", std::move(table));

  std::cout << "\nchaos_soak: " << total_runs << " runs, "
            << total_runs - failures << " converged, " << failures
            << " failed (fault rate " << fault_rate << ", " << events
            << " events/run)\n";

  const bool wrote = session.finish(report);
  return failures == 0 && wrote ? 0 : 1;
}
