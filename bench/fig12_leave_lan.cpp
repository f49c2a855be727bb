// Reproduces Figure 12: average time to establish a secure membership after
// a LEAVE, on the 13-machine LAN testbed, for DH-512 and DH-1024, group
// sizes 2..50 (size before the leave), all five protocols plus the bare
// membership service.
//
// Test scenarios follow section 6.1.2: STR removes the middle member (its
// average case); the other protocols remove a uniformly random member, which
// realizes CKD's 1/n probability of losing the controller (visible as spikes
// that average out over seeds).
//
// Expected shape (paper section 6.1.4):
//  * 512-bit: TGDH clearly best (sub-linear), BD worst at every size,
//    STR/CKD/GDH linear with STR's slope steepest.
//  * 1024-bit: STR most expensive, TGDH remains the leader, BD no longer
//    worst and close to GDH for smaller groups.
//
// Usage: fig12_leave_lan [max_size] [--seeds k] [--csv out_prefix]
//                        [--json out.json] [--trace out.trace.json]
#include <iostream>
#include <string>

#include "harness/bench_io.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 1;
  }
  std::size_t max_size = 50;
  int seeds = 3;
  std::string csv_prefix;
  for (std::size_t i = 0; i < opts.rest.size(); ++i) {
    if (opts.rest[i] == "--csv" && i + 1 < opts.rest.size()) {
      csv_prefix = opts.rest[++i];
    } else if (opts.rest[i] == "--seeds" && i + 1 < opts.rest.size()) {
      if (!sgk::parse_count(opts.rest[++i], seeds))
        return sgk::reject_argument(opts.rest[i]);
    } else if (!sgk::parse_count(opts.rest[i], max_size)) {
      return sgk::reject_argument(opts.rest[i]);
    }
  }

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("fig12_leave_lan");
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("max_size", sgk::obs::Json(static_cast<std::uint64_t>(max_size)));
    params.set("seeds", sgk::obs::Json(static_cast<std::int64_t>(seeds)));
    params.set("topology", sgk::obs::Json("lan"));
    params.set("event", sgk::obs::Json("leave"));
    report.add_section("params", std::move(params));
  }

  sgk::obs::Json sweeps = sgk::obs::Json::object();
  for (sgk::DhBits bits : {sgk::DhBits::k512, sgk::DhBits::k1024}) {
    const char* label = bits == sgk::DhBits::k512 ? "512" : "1024";
    sgk::SweepConfig cfg;
    cfg.dh_bits = bits;
    cfg.max_size = max_size;
    cfg.seeds = seeds;
    cfg.seed_base = opts.seed;
    sgk::SweepResult result = sgk::sweep_leave(cfg);
    sgk::print_sweep_table(std::cout,
                           std::string("Figure 12: leave, LAN, DH ") + label +
                               " bits (avg total time, ms)",
                           result, 4);
    sgk::print_sweep_summary(std::cout, result);
    sweeps.set(std::string("leave_") + label, sgk::sweep_to_json(result));
    if (!csv_prefix.empty()) {
      std::string csv_err;
      if (!sgk::write_sweep_csv(csv_prefix + "_leave_" + label + ".csv", result,
                                &csv_err))
        std::cerr << "error: " << csv_err << "\n";
    }
    std::cout << "\n";
  }
  report.add_section("sweeps", std::move(sweeps));

  return session.finish(report) ? 0 : 1;
}
