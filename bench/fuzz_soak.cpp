// Fuzz soak: adversarial wire robustness of the key agreement protocols
// (extension experiment X3; see docs/adversarial_robustness.md).
//
// For every (protocol, mutation rate, seed) triple the soak runs one
// deterministic chaos scenario (harness/fuzz.h) in which every stamped frame
// and client unicast is mutated with the given probability by the
// structure-aware FrameMutator — bit flips, truncation/extension,
// length-prefix lies, out-of-range bignums, tag swaps, sender spoofing,
// epoch shifts, cross-frame replay. A run passes the tentpole invariant when
// no member crashes, no agreement wedges, and every surviving member
// converges to the same key at the same epoch; every rejected frame is
// counted by typed reason (frames_rejected/<proto>/<reason> counters in the
// --json report).
//
// Seed parity selects the verification regime: even seeds verify signatures
// (the full mutation menu — signatures catch what structure cannot), odd
// seeds run unsigned with the detectable-only menu (strict validation alone
// must hold the line). Each failing run prints a one-line repro command that
// replays the identical schedule bit-for-bit.
//
// Usage: fuzz_soak [--protocol all|gdh|ckd|tgdh|str|bd] [--seeds N]
//                  [--rates R1,R2,...] [--group-size N] [--events N]
//                  [--seed BASE] [--json out.json] [--trace out.trace.json]
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/bench_io.h"
#include "harness/fuzz.h"
#include "obs/metrics.h"

namespace {

using sgk::ProtocolKind;

std::vector<double> parse_rates(const std::string& csv) {
  std::vector<double> rates;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) rates.push_back(std::stod(item));
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }

  std::vector<ProtocolKind> protocols;
  sgk::parse_protocols("all", protocols);
  int seeds = 32;
  std::vector<double> rates = {0.02, 0.05};
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
      } else if (sgk::take_flag(opts.rest, i, "--rates", value)) {
        rates = parse_rates(value);
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
  if (seeds < 1 || events < 0 || group_size < 2 || rates.empty()) {
    std::cerr << "error: need --seeds >= 1, --events >= 0, --group-size >= 2, "
                 "non-empty --rates\n";
    return 2;
  }
  for (double r : rates)
    if (r <= 0.0 || r > 1.0) {
      std::cerr << "error: every rate must be in (0,1]\n";
      return 2;
    }

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("fuzz_soak");
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("seeds", sgk::obs::Json(static_cast<std::int64_t>(seeds)));
    sgk::obs::Json jrates = sgk::obs::Json::array();
    for (double r : rates) jrates.push(sgk::obs::Json(r));
    params.set("rates", std::move(jrates));
    params.set("group_size",
               sgk::obs::Json(static_cast<std::uint64_t>(group_size)));
    params.set("events", sgk::obs::Json(static_cast<std::int64_t>(events)));
    report.add_section("params", std::move(params));
  }

  int total_runs = 0, failures = 0, crashes = 0;
  sgk::obs::Json fuzz = sgk::obs::Json::object();
  sgk::obs::Json table = sgk::obs::Json::array();
  for (ProtocolKind kind : protocols) {
    const char* proto = sgk::to_string(kind);
    sgk::obs::Json per_rate = sgk::obs::Json::object();
    for (double rate : rates) {
      std::ostringstream rate_fmt;
      rate_fmt << rate;
      const std::string rate_str = rate_fmt.str();
      std::vector<double> converge_ms;
      std::uint64_t mutated = 0, rejected = 0, recoveries = 0;
      int converged = 0;
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = opts.seed + static_cast<std::uint64_t>(s);
        sgk::FuzzConfig cfg;
        cfg.chaos.protocol = kind;
        cfg.chaos.seed = seed;
        cfg.chaos.initial_size = group_size;
        cfg.chaos.events = events;
        cfg.chaos.mutation_rate = rate;
        // Parity regime: even seeds keep signatures on and face the full
        // mutation menu; odd seeds drop signatures and face the menu strict
        // validation alone provably catches.
        cfg.chaos.verify_signatures = seed % 2 == 0;
        const sgk::FuzzResult r = sgk::run_fuzz(cfg);
        ++total_runs;
        mutated += r.chaos.frames_mutated;
        rejected += r.chaos.frames_rejected;
        recoveries += r.chaos.recoveries;
        if (r.crashed) ++crashes;
        if (r.survived) {
          ++converged;
          converge_ms.push_back(r.chaos.convergence_ms);
          std::cout << "ok   " << std::left << std::setw(9) << proto
                    << " rate=" << rate_str << " seed=" << std::setw(4) << seed
                    << (seed % 2 == 0 ? " sig=on " : " sig=off") << std::fixed
                    << std::setprecision(1)
                    << " converge=" << r.chaos.convergence_ms
                    << "ms mutated=" << r.chaos.frames_mutated
                    << " rejected=" << r.chaos.frames_rejected
                    << " recoveries=" << r.chaos.recoveries
                    << " key=" << r.chaos.fingerprint << "\n";
        } else {
          ++failures;
          std::cout << "FAIL " << std::left << std::setw(9) << proto
                    << " rate=" << rate_str << " seed=" << seed << ":\n";
          for (const std::string& v : r.chaos.violations)
            std::cout << "       " << v << "\n";
          std::ostringstream repro;
          repro << "fuzz_soak --protocol=" << sgk::lower_name(kind)
                << " --seeds=1 --seed=" << seed << " --rates=" << rate_str
                << " --group-size=" << group_size << " --events=" << events;
          std::cout << "       repro: " << repro.str() << "\n";
        }
        if (sgk::obs::MetricsRegistry* mr = sgk::obs::metrics()) {
          mr->histogram(std::string("fuzz/convergence_ms/") + proto)
              .observe(r.chaos.convergence_ms);
          if (!r.survived)
            mr->counter(std::string("fuzz/failures/") + proto).add();
        }
      }
      sgk::obs::Json entry = sgk::obs::Json::object();
      entry.set("runs", sgk::obs::Json(static_cast<std::int64_t>(seeds)));
      entry.set("converged",
                sgk::obs::Json(static_cast<std::int64_t>(converged)));
      entry.set("frames_mutated", sgk::obs::Json(mutated));
      entry.set("frames_rejected", sgk::obs::Json(rejected));
      entry.set("recoveries", sgk::obs::Json(recoveries));
      entry.set("convergence_median_ms",
                sgk::obs::Json(sgk::quantile(converge_ms, 0.5)));
      entry.set("convergence_p95_ms",
                sgk::obs::Json(sgk::quantile(converge_ms, 0.95)));
      per_rate.set(rate_str, std::move(entry));

      // "table" rows feed the CI gate (tools/bench_gate): the median
      // convergence time per (protocol, rate) is the watched cell.
      sgk::obs::Json row = sgk::obs::Json::object();
      row.set("protocol", sgk::obs::Json(proto));
      row.set("event", sgk::obs::Json("fuzz_converge@" + rate_str));
      row.set("elapsed_ms", sgk::obs::Json(sgk::quantile(converge_ms, 0.5)));
      table.push(std::move(row));
    }
    fuzz.set(proto, std::move(per_rate));
  }
  report.add_section("fuzz", std::move(fuzz));
  report.add_section("table", std::move(table));

  std::cout << "\nfuzz_soak: " << total_runs << " runs, "
            << total_runs - failures << " survived, " << failures
            << " failed, " << crashes << " crashed\n";

  const bool wrote = session.finish(report);
  return failures == 0 && crashes == 0 && wrote ? 0 : 1;
}
