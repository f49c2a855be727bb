// Host cost of growing one group by joins, against group size.
//
// For each protocol and each n in --sizes, a fresh deployment on the
// paper's 13-machine LAN grows a group (512-bit DH) to n members, one join
// at a time (each join runs to quiescence), and the bench prints the host
// wall time of that build beside exact work counts:
//
//   verify_ops       signature checks, summed over the members (counted per
//                    receiver, whatever the verify memo saves)
//   verify_hits/miss the deployment's verify memo: a miss is one SHA-256 and
//                    one modexp, a hit neither
//   decodes          protocol-frame decodes asked for, summed over receivers
//   decode_misses    decodes actually run (the decode memo shares the rest)
//   stamped          messages the network sequenced
//   sim_events       simulator events executed
//
// The counts are deterministic per seed and go to --json; the wall time is
// the host's and is printed only. A build whose members do not all hold
// the same key at the same epoch fails the bench (exit 1).
//
//   scale_wall --protocol tgdh --sizes 64,128,256
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "fault/invariants.h"
#include "fault/plan.h"
#include "harness/bench_io.h"
#include "obs/wallclock.h"
#include "server/deployment.h"
#include "sim/topology.h"

namespace {

struct Build {
  double wall_s = 0;
  std::uint64_t verify_ops = 0;
  std::uint64_t verify_hits = 0;
  std::uint64_t verify_misses = 0;
  std::uint64_t decodes = 0;
  std::uint64_t decode_misses = 0;
  std::uint64_t stamped = 0;
  std::uint64_t sim_events = 0;
  bool agreed = false;
};

Build grow(sgk::ProtocolKind kind, std::size_t n, std::uint64_t seed) {
  sgk::MemberConfig member;
  member.protocol = kind;
  member.seed = seed;
  Build b;
  const std::uint64_t t0 = sgk::obs::wall_now_ns();
  sgk::server::Deployment d(sgk::lan_testbed(13), sgk::SpreadParams{}, member);
  for (std::size_t i = 0; i < n; ++i) {
    d.apply(sgk::fault::ChurnOp{d.sim().now(), sgk::fault::ChurnKind::kJoin, 0});
    d.sim().run();
  }
  b.wall_s = static_cast<double>(sgk::obs::wall_now_ns() - t0) / 1e9;

  for (const sgk::SecureGroupMember* m : d.alive())
    b.verify_ops += m->counters().verify_ops;
  b.verify_hits = d.net().verify_memo().hits();
  b.verify_misses = d.net().verify_memo().misses();
  b.decodes = d.net().decode_memo().hits() + d.net().decode_memo().misses();
  b.decode_misses = d.net().decode_memo().misses();
  b.stamped = d.net().messages_stamped();
  b.sim_events = d.sim().executed();

  sgk::fault::InvariantChecker checker;
  const sgk::server::Deployment::Audit audit = d.audit(checker);
  b.agreed = checker.ok() && audit.final_size == n &&
             audit.first_keyed != nullptr;
  for (const sgk::SecureGroupMember* m : d.alive())
    b.agreed = b.agreed && m->key_epoch() == audit.final_epoch;
  return b;
}

sgk::obs::Json count(std::uint64_t v) { return sgk::obs::Json(v); }

}  // namespace

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::vector<sgk::ProtocolKind> protocols;
  sgk::parse_protocols("all", protocols);
  std::vector<int> sizes = {8, 16, 32};
  sgk::FlagTable flags(opts);
  flags.add("--protocol P", protocols,
            "all (the paper's five), or one of gdh|ckd|tgdh|str|bd");
  flags.add("--sizes N,...", sizes, "group sizes to grow to",
            sgk::at_least(2, sgk::kMaxWireMembers));
  if (const auto status = flags.parse(argc, argv)) return *status;

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("scale_wall");
  sgk::obs::Json rows = sgk::obs::Json::array();
  bool all_agreed = true;

  std::cout << std::left << std::setw(9) << "protocol" << std::right
            << std::setw(6) << "n" << std::setw(10) << "wall_s"
            << std::setw(12) << "verify_ops" << std::setw(12) << "verify_hits"
            << std::setw(12) << "verify_miss" << std::setw(10) << "decodes"
            << std::setw(14) << "decode_misses" << std::setw(9) << "stamped"
            << std::setw(12) << "sim_events" << "\n";
  for (const sgk::ProtocolKind kind : protocols) {
    for (const int size : sizes) {
      const auto n = static_cast<std::size_t>(size);
      const Build b = grow(kind, n, opts.seed);
      all_agreed = all_agreed && b.agreed;
      std::cout << std::left << std::setw(9) << sgk::to_string(kind)
                << std::right << std::setw(6) << n << std::setw(10)
                << std::fixed << std::setprecision(3) << b.wall_s
                << std::setw(12) << b.verify_ops << std::setw(12)
                << b.verify_hits << std::setw(12) << b.verify_misses
                << std::setw(10) << b.decodes << std::setw(14)
                << b.decode_misses << std::setw(9) << b.stamped
                << std::setw(12) << b.sim_events
                << (b.agreed ? "" : "  FAIL: members disagree") << "\n";
      sgk::obs::Json row = sgk::obs::Json::object();
      row.set("protocol", sgk::obs::Json(sgk::to_string(kind)));
      row.set("n", count(n));
      row.set("verify_ops", count(b.verify_ops));
      row.set("verify_hits", count(b.verify_hits));
      row.set("verify_misses", count(b.verify_misses));
      row.set("decodes", count(b.decodes));
      row.set("decode_misses", count(b.decode_misses));
      row.set("stamped", count(b.stamped));
      row.set("sim_events", count(b.sim_events));
      row.set("agreed", sgk::obs::Json(b.agreed));
      rows.push(std::move(row));
    }
  }
  report.add_section("scale_wall", std::move(rows));
  const bool wrote = session.finish(report);
  return all_agreed && wrote ? 0 : 1;
}
