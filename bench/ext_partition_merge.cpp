// Extension experiment: partition and merge costs.
//
// The paper's section 7 lists "more complex group operations such as
// partition and merge" as future work; the conceptual costs are in Table 1.
// This bench measures them with the same methodology as the join/leave
// figures: elapsed time from the network event until every (surviving /
// merged) member holds the new key, on the LAN testbed, DH-512.
//
//  * partition: the network splits so that l of the n members land in a
//    separate component; we report the slower component's re-key time
//    (sweep over l = n/4 and n/2).
//  * merge: the previously partitioned components heal; the merged group of
//    n members re-keys. GDH's merge takes m+3 rounds so it should scale
//    worst in rounds; BD restarts from scratch; TGDH/STR merge trees.
//
// Usage: ext_partition_merge [n] [--seed <n>]
#include <iomanip>
#include <iostream>

#include "harness/bench_io.h"
#include "harness/experiment.h"

namespace sgk {
namespace {

void run(std::size_t n, std::uint64_t seed) {
  std::cout << "Partition & merge, LAN, DH-512, group of " << n << " members\n";
  std::cout << std::left << std::setw(8) << "proto" << std::setw(18)
            << "split l=n/4 (ms)" << std::setw(18) << "merge back (ms)"
            << std::setw(18) << "split l=n/2 (ms)" << std::setw(18)
            << "merge back (ms)" << "\n";
  for (ProtocolKind kind :
       {ProtocolKind::kGdh, ProtocolKind::kTgdh, ProtocolKind::kStr,
        ProtocolKind::kBd, ProtocolKind::kCkd}) {
    std::cout << std::left << std::setw(8) << to_string(kind) << std::flush;
    for (std::size_t l : {n / 4, n / 2}) {
      ExperimentConfig ec;
      // One member per machine so machine partitions == member partitions.
      ec.topology = lan_testbed(static_cast<int>(n));
      ec.protocol = kind;
      ec.seed = seed;
      Experiment exp(ec);
      exp.grow_to(n);
      std::vector<std::vector<MachineId>> parts(2);
      for (std::size_t i = 0; i < n; ++i)
        parts[i < n - l ? 0 : 1].push_back(static_cast<MachineId>(i));
      EventResult split = exp.measure_partition(parts);
      EventResult merge = exp.measure_merge();
      std::cout << std::setw(18) << std::fixed << std::setprecision(2)
                << split.elapsed_ms << std::setw(18) << merge.elapsed_ms
                << std::flush;
    }
    std::cout << "\n";
  }
}

}  // namespace
}  // namespace sgk

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 1;
  }
  std::size_t n = 24;
  for (std::size_t i = 0; i < opts.rest.size(); ++i)
    if (i >= 1 || !sgk::parse_count(opts.rest[i], n))
      return sgk::reject_argument(opts.rest[i]);
  const std::uint64_t seed = opts.seed_set ? opts.seed : 11;
  sgk::run(n, seed);
  std::cout << "\nSame experiment on the WAN testbed (13 machines; the split "
               "separates the two remote sites):\n";
  using namespace sgk;
  std::cout << std::left << std::setw(8) << "proto" << std::setw(18)
            << "split (ms)" << std::setw(18) << "merge back (ms)" << "\n";
  for (ProtocolKind kind :
       {ProtocolKind::kGdh, ProtocolKind::kTgdh, ProtocolKind::kStr,
        ProtocolKind::kBd, ProtocolKind::kCkd}) {
    ExperimentConfig ec;
    ec.topology = wan_testbed();
    ec.protocol = kind;
    ec.seed = seed;
    Experiment exp(ec);
    exp.grow_to(26);
    // JHU machines 0..10 vs {UCI, ICU} machines 11, 12.
    std::vector<std::vector<MachineId>> parts(2);
    for (MachineId m = 0; m <= 10; ++m) parts[0].push_back(m);
    parts[1] = {11, 12};
    EventResult split = exp.measure_partition(parts);
    EventResult merge = exp.measure_merge();
    std::cout << std::left << std::setw(8) << to_string(kind) << std::setw(18)
              << std::fixed << std::setprecision(1) << split.elapsed_ms
              << std::setw(18) << merge.elapsed_ms << "\n";
  }
  return 0;
}
