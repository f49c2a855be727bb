// Ablations of the design choices DESIGN.md calls out.
//
//  1. GDH factor-out ordering: the paper (6.2.2) attributes much of GDH's
//     WAN cost to its factor-out/token messages traveling in agreed order.
//     We can't toggle the protocol's ordering at runtime, but we can isolate
//     communication by zeroing compute costs and compare GDH against CKD
//     (which uses plain unicasts for its responses) on the WAN.
//  2. Key-confirmation recomputation in TGDH/STR (on = the measured system,
//     off = Table 1's optimized counting).
//  3. Dual- vs single-CPU machines: the contention cliff that makes BD's
//     cost double every 13 members.
//  4. RSA public exponent 3 vs 65537: the verification-cost argument for
//     e=3 in section 6.1.1.
//
// Usage: ablation [--json out.json] [--trace out.trace.json] [--wallclock]
#include <iomanip>
#include <iostream>

#include "harness/bench_io.h"
#include "harness/experiment.h"

namespace sgk {
namespace {

double join_time_at(ExperimentConfig ec, std::size_t n) {
  Experiment exp(std::move(ec));
  exp.grow_to(n - 1);
  return exp.measure_join().elapsed_ms;
}

double leave_time_at(ExperimentConfig ec, std::size_t n, LeavePolicy policy) {
  Experiment exp(std::move(ec));
  exp.grow_to(n);
  return exp.measure_leave(policy).elapsed_ms;
}

void communication_only_wan() {
  std::cout << "== Ablation 1: communication-only WAN join (compute zeroed) ==\n";
  std::cout << "isolates rounds/ordering; GDH pays its extra agreed rounds\n";
  for (ProtocolKind kind :
       {ProtocolKind::kGdh, ProtocolKind::kCkd, ProtocolKind::kTgdh,
        ProtocolKind::kStr, ProtocolKind::kBd}) {
    ExperimentConfig ec;
    ec.topology = wan_testbed();
    ec.protocol = kind;
    ec.cost = CostModel::free();
    std::cout << "  " << std::left << std::setw(6) << to_string(kind)
              << std::fixed << std::setprecision(1) << join_time_at(ec, 20)
              << " ms\n";
  }
  std::cout << "\n";
}

void key_confirmation_ablation() {
  std::cout << "== Ablation 2: TGDH/STR key-confirmation recomputation ==\n";
  std::cout << std::left << std::setw(8) << "proto" << std::setw(14)
            << "with (ms)" << std::setw(14) << "without (ms)" << "\n";
  for (ProtocolKind kind : {ProtocolKind::kTgdh, ProtocolKind::kStr}) {
    double with_conf, without_conf;
    {
      ExperimentConfig ec;
      ec.protocol = kind;
      ec.key_confirmation = true;
      with_conf = leave_time_at(ec, 30, LeavePolicy::kMiddle);
    }
    {
      ExperimentConfig ec;
      ec.protocol = kind;
      ec.key_confirmation = false;
      without_conf = leave_time_at(ec, 30, LeavePolicy::kMiddle);
    }
    std::cout << std::left << std::setw(8) << to_string(kind) << std::setw(14)
              << std::fixed << std::setprecision(2) << with_conf
              << std::setw(14) << without_conf << "\n";
  }
  std::cout << "\n";
}

void cpu_contention_ablation() {
  std::cout << "== Ablation 3: BD join vs machine CPU count ==\n";
  std::cout << "the paper's doubling at multiples of 13 is CPU contention\n";
  std::cout << std::left << std::setw(6) << "n" << std::setw(16)
            << "dual-CPU (ms)" << std::setw(16) << "single-CPU" << std::setw(16)
            << "quad-CPU" << "\n";
  for (std::size_t n : {13u, 26u, 39u, 50u}) {
    std::cout << std::left << std::setw(6) << n;
    for (int cores : {2, 1, 4}) {
      Topology topo;
      SiteId site = topo.add_site("LAN");
      for (int i = 0; i < 13; ++i) topo.add_machine(site, cores, 1.0);
      ExperimentConfig ec;
      ec.topology = topo;
      ec.protocol = ProtocolKind::kBd;
      std::cout << std::setw(16) << std::fixed << std::setprecision(1)
                << join_time_at(ec, n);
    }
    std::cout << "\n";
  }
  std::cout << "\n";
}

void rsa_exponent_ablation() {
  std::cout << "== Ablation 4: RSA verification, e=3 vs e=65537 ==\n";
  CostModel cost = CostModel::paper2002();
  std::cout << "  verify(1024, e=3):     " << std::fixed << std::setprecision(3)
            << cost.rsa_verify_ms(1024, 2) << " ms\n";
  std::cout << "  verify(1024, e=65537): " << cost.rsa_verify_ms(1024, 17)
            << " ms\n";
  std::cout << "  BD at n=50 performs ~2(n-1)=98 verifications per member per"
               " re-key:\n";
  std::cout << "    e=3:     " << 98 * cost.rsa_verify_ms(1024, 2) << " ms\n";
  std::cout << "    e=65537: " << 98 * cost.rsa_verify_ms(1024, 17) << " ms\n";
}

void signature_scheme_ablation() {
  std::cout << "\n== Ablation 5: RSA(e=3) vs DSA protocol signatures ==\n";
  std::cout << "the paper avoids DSA because every protocol message is "
               "verified by all receivers\n";
  std::cout << std::left << std::setw(8) << "proto" << std::setw(16)
            << "RSA join (ms)" << std::setw(16) << "DSA join (ms)" << "\n";
  for (ProtocolKind kind : {ProtocolKind::kBd, ProtocolKind::kGdh,
                            ProtocolKind::kTgdh}) {
    double rsa_ms, dsa_ms;
    {
      ExperimentConfig ec;
      ec.protocol = kind;
      rsa_ms = join_time_at(ec, 30);
    }
    {
      ExperimentConfig ec;
      ec.protocol = kind;
      ec.signature = SigScheme::kDsa;
      dsa_ms = join_time_at(ec, 30);
    }
    std::cout << std::left << std::setw(8) << to_string(kind) << std::setw(16)
              << std::fixed << std::setprecision(1) << rsa_ms << std::setw(16)
              << dsa_ms << "\n";
  }
}

void tree_balance_ablation() {
  std::cout << "\n== Ablation 6: TGDH vs eagerly-balanced TGDH (footnote 7) ==\n";
  std::cout << "after heavy subtractive churn, the plain tree goes ragged;\n"
               "the balanced variant pays extra leave messages for minimal "
               "heights\n";
  std::cout << std::left << std::setw(12) << "variant" << std::setw(18)
            << "churn leaves (ms)" << std::setw(18) << "join after (ms)"
            << std::setw(14) << "leave msgs" << "\n";
  for (ProtocolKind kind : {ProtocolKind::kTgdh, ProtocolKind::kTgdhBalanced}) {
    ExperimentConfig ec;
    ec.protocol = kind;
    ec.seed = 17;
    Experiment exp(ec);
    // Heavy clustered churn leaves the plain tree one level taller.
    exp.grow_to(33);
    double leave_ms = 0;
    std::uint64_t leave_msgs = 0;
    int leaves = 0;
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 4; ++i) {
        EventResult r = exp.measure_leave(LeavePolicy::kOldest);
        leave_ms += r.elapsed_ms;
        leave_msgs += r.total.messages();
        ++leaves;
      }
    }
    double join_ms = 0;
    for (int i = 0; i < 4; ++i) join_ms += exp.measure_join().elapsed_ms;
    std::cout << std::left << std::setw(12) << to_string(kind) << std::setw(18)
              << std::fixed << std::setprecision(1) << leave_ms / leaves
              << std::setw(18) << join_ms / 4 << std::setw(14) << leave_msgs
              << "\n";
  }
}

}  // namespace
}  // namespace sgk

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }
  if (!opts.rest.empty()) return sgk::reject_argument(opts.rest.front());
  sgk::ObsSession session(opts);
  sgk::communication_only_wan();
  sgk::key_confirmation_ablation();
  sgk::cpu_contention_ablation();
  sgk::rsa_exponent_ablation();
  sgk::signature_scheme_ablation();
  sgk::tree_balance_ablation();
  sgk::obs::RunReport report("ablation");
  return session.finish(report) ? 0 : 1;
}
