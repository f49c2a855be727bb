// Reproduces Figure 11: average time to establish a secure membership after
// a JOIN, on the 13-machine LAN testbed, for DH-512 and DH-1024, group sizes
// 2..50, all five protocols plus the bare membership service.
//
// Expected shape (paper section 6.1.3):
//  * 512-bit: BD cheapest-ish for small groups but deteriorates rapidly,
//    doubling every 13 members (CPU contention), worst past ~30; STR/TGDH
//    close and best at scale; GDH/CKD linear with GDH above CKD.
//  * 1024-bit: GDH worst (expensive exponentiations dominate); BD stays
//    competitive up to ~24 members.
#include <iostream>
#include <string>

#include "harness/bench_io.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::size_t max_size = 50;
  std::string csv_prefix;
  sgk::FlagTable flags(opts);
  flags.add("max_size", max_size, "largest group size in the sweep");
  flags.add("--csv PREFIX", csv_prefix,
            "also write PREFIX_join_<bits>.csv per key size");
  if (const auto status = flags.parse(argc, argv)) return *status;

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("fig11_join_lan");
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("max_size", sgk::obs::Json(static_cast<std::uint64_t>(max_size)));
    params.set("topology", sgk::obs::Json("lan"));
    params.set("event", sgk::obs::Json("join"));
    report.add_section("params", std::move(params));
  }

  sgk::obs::Json sweeps = sgk::obs::Json::object();
  for (sgk::DhBits bits : {sgk::DhBits::k512, sgk::DhBits::k1024}) {
    const char* label = bits == sgk::DhBits::k512 ? "512" : "1024";
    sgk::SweepConfig cfg;
    cfg.dh_bits = bits;
    cfg.max_size = max_size;
    cfg.seed_base = opts.seed;
    sgk::SweepResult result = sgk::sweep_join(cfg);
    sgk::print_sweep_table(std::cout,
                           std::string("Figure 11: join, LAN, DH ") + label +
                               " bits (avg total time, ms)",
                           result, 4);
    sgk::print_sweep_summary(std::cout, result);
    sweeps.set(std::string("join_") + label, sgk::sweep_to_json(result));
    if (!csv_prefix.empty()) {
      std::string csv_err;
      if (!sgk::write_sweep_csv(csv_prefix + "_join_" + label + ".csv", result,
                                &csv_err))
        std::cerr << "error: " << csv_err << "\n";
    }
    std::cout << "\n";
  }
  report.add_section("sweeps", std::move(sweeps));

  return session.finish(report) ? 0 : 1;
}
