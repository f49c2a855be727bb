// Tests of the experiment harness and sweeps (the machinery behind the
// figure benches).
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bench_io.h"
#include "harness/report.h"
#include "harness/sweep.h"

namespace sgk {
namespace {

TEST(Experiment, GrowAndMeasureJoin) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kTgdh;
  Experiment exp(cfg);
  exp.grow_to(4);
  EXPECT_EQ(exp.group_size(), 4u);
  EventResult r = exp.measure_join();
  EXPECT_EQ(r.group_size, 5u);
  EXPECT_GT(r.elapsed_ms, 0.0);
  EXPECT_GT(r.membership_ms, 0.0);
  EXPECT_LT(r.membership_ms, r.elapsed_ms);
  EXPECT_GT(r.total.exp_total(), 0u);
  EXPECT_GT(r.total.multicasts, 0u);
}

TEST(Experiment, MeasureLeavePolicies) {
  for (LeavePolicy policy : {LeavePolicy::kRandom, LeavePolicy::kMiddle,
                             LeavePolicy::kOldest, LeavePolicy::kNewest}) {
    ExperimentConfig cfg;
    cfg.protocol = ProtocolKind::kStr;
    Experiment exp(cfg);
    exp.grow_to(6);
    EventResult r = exp.measure_leave(policy);
    EXPECT_EQ(r.group_size, 5u);
    EXPECT_GT(r.elapsed_ms, 0.0);
  }
}

TEST(Experiment, MeasureMultiLeave) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kGdh;
  Experiment exp(cfg);
  exp.grow_to(10);
  EventResult r = exp.measure_multi_leave(4);
  EXPECT_EQ(r.group_size, 6u);
  EXPECT_GT(r.elapsed_ms, 0.0);
  // One controller broadcast handles the whole partition event.
  EXPECT_EQ(r.total.multicasts, 1u);
}

TEST(Experiment, MeasurePartitionAndMerge) {
  ExperimentConfig cfg;
  cfg.topology = lan_testbed(6);
  cfg.protocol = ProtocolKind::kTgdh;
  Experiment exp(cfg);
  exp.grow_to(6);
  std::vector<std::vector<MachineId>> parts = {{0, 1, 2}, {3, 4, 5}};
  EventResult split = exp.measure_partition(parts);
  EXPECT_GT(split.elapsed_ms, 0.0);
  EXPECT_EQ(split.group_size, 6u);  // all members alive, two views
  EventResult merge = exp.measure_merge();
  EXPECT_GT(merge.elapsed_ms, 0.0);
  EXPECT_EQ(merge.group_size, 6u);
}

TEST(Experiment, MembershipBaselineIsCheapest) {
  // The membership-only series must lower-bound every protocol.
  for (ProtocolKind kind : {ProtocolKind::kBd, ProtocolKind::kTgdh}) {
    ExperimentConfig base;
    base.protocol = ProtocolKind::kNone;
    Experiment baseline(base);
    baseline.grow_to(5);
    double base_ms = baseline.measure_join().elapsed_ms;

    ExperimentConfig cfg;
    cfg.protocol = kind;
    Experiment exp(cfg);
    exp.grow_to(5);
    EXPECT_GT(exp.measure_join().elapsed_ms, base_ms);
  }
}

TEST(Experiment, DeterministicAcrossRuns) {
  auto run = [] {
    ExperimentConfig cfg;
    cfg.protocol = ProtocolKind::kGdh;
    cfg.seed = 5;
    Experiment exp(cfg);
    exp.grow_to(6);
    return exp.measure_join().elapsed_ms;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Experiment, SeedChangesLeaveChoice) {
  auto run = [](std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.protocol = ProtocolKind::kCkd;
    cfg.seed = seed;
    Experiment exp(cfg);
    exp.grow_to(8);
    double total = 0;
    for (int i = 0; i < 3; ++i) total += exp.measure_leave(LeavePolicy::kRandom).elapsed_ms;
    return total;
  };
  // Different seeds pick different leavers; with CKD the controller-leave
  // case is much more expensive, so totals differ across seeds somewhere.
  EXPECT_NE(run(1), run(3));
}

TEST(Sweep, JoinSweepShapes) {
  SweepConfig cfg;
  cfg.max_size = 6;
  cfg.protocols = {ProtocolKind::kGdh, ProtocolKind::kNone};
  SweepResult r = sweep_join(cfg);
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_EQ(r.series[0].label, "GDH");
  EXPECT_EQ(r.series[1].label, "Membership service");
  ASSERT_EQ(r.series[0].values.size(), 5u);  // sizes 2..6
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_GT(r.series[0].values[i], r.series[1].values[i]);
}

TEST(Sweep, LeaveSweepShapes) {
  SweepConfig cfg;
  cfg.max_size = 6;
  cfg.protocols = {ProtocolKind::kTgdh};
  SweepResult r = sweep_leave(cfg);
  ASSERT_EQ(r.series.size(), 1u);
  for (double v : r.series[0].values) EXPECT_GT(v, 0.0);
}

TEST(Report, TableAndCsvRender) {
  SweepResult r;
  r.min_size = 2;
  r.max_size = 4;
  r.series = {Series{"A", {1.0, 2.0, 3.0}, {}}, Series{"B", {4.0, 5.0, 6.0}, {}}};
  std::ostringstream table;
  print_sweep_table(table, "title", r);
  EXPECT_NE(table.str().find("title"), std::string::npos);
  EXPECT_NE(table.str().find("A"), std::string::npos);
  std::ostringstream csv;
  print_sweep_csv(csv, r);
  EXPECT_NE(csv.str().find("size,A,B"), std::string::npos);
  EXPECT_NE(csv.str().find("2,1.000,4.000"), std::string::npos);
  std::ostringstream summary;
  print_sweep_summary(summary, r);
  EXPECT_NE(summary.str().find("fastest at n=2: A"), std::string::npos);
}

TEST(Report, CsvFileWrite) {
  SweepResult r;
  r.min_size = 2;
  r.max_size = 3;
  r.series = {Series{"X", {1.5, 2.5}, {}}};
  const std::string path = ::testing::TempDir() + "/sweep_test.csv";
  ASSERT_TRUE(write_sweep_csv(path, r));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "size,X");
}

TEST(Report, CsvWriteErrorNamesPath) {
  SweepResult r;
  r.min_size = 2;
  r.max_size = 2;
  r.series = {Series{"X", {1.0}, {}}};
  const std::string path =
      ::testing::TempDir() + "/no-such-dir-xyz/sweep_test.csv";
  std::string error;
  EXPECT_FALSE(write_sweep_csv(path, r, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

/// A bench command line with one flag of every kind the FlagTable handles.
struct FlagBench {
  BenchOptions opts;
  ProtocolKind kind = ProtocolKind::kTgdh;
  std::size_t n = 16;
  std::vector<ProtocolKind> protocols = {ProtocolKind::kGdh};
  std::vector<int> scale = {1, 2};
  std::vector<double> rates = {0.02};
  double rate = 0.1;
  int seeds = 16;
  std::string csv;
  bool per_group = false;
  FlagTable flags{opts};
  std::string out, err;  // captured stdout / stderr of the last parse

  FlagBench() {
    flags.add("protocol", kind, "protocol to trace");
    flags.add("n", n, "group size", at_least(2));
    flags.add("--protocol P", protocols, "all, or one protocol");
    flags.add("--scale N,...", scale, "thread counts", at_least(1));
    flags.add("--rates R,...", rates, "mutation rates", above(0, 1));
    flags.add("--rate R", rate, "fault rate", at_least(0, 1));
    flags.add("--seeds N", seeds, "runs per protocol", at_least(1));
    flags.add("--csv PREFIX", csv, "csv prefix");
    flags.add("--per-group", per_group, "per-group rows");
  }
  FlagBench(const FlagBench&) = delete;
  FlagBench& operator=(const FlagBench&) = delete;

  std::optional<int> parse(std::vector<const char*> args) {
    args.insert(args.begin(), "/path/to/bench");
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const std::optional<int> status =
        flags.parse(static_cast<int>(args.size()), args.data());
    out = testing::internal::GetCapturedStdout();
    err = testing::internal::GetCapturedStderr();
    return status;
  }
};

TEST(BenchIo, FlagTableParsesBothValueFormsAndPositionalSlots) {
  FlagBench b;
  EXPECT_EQ(b.parse({"tgdh-bal", "12", "--json", "out.json", "--csv=p",
                     "--trace", "t.json", "--seed=7", "--wallclock",
                     "--protocol=STR", "--scale", "1,4", "--rates=0.05,1",
                     "--rate", "0", "--per-group"}),
            std::nullopt);
  EXPECT_EQ(b.err, "");
  EXPECT_EQ(b.opts.json_path, "out.json");
  EXPECT_EQ(b.opts.trace_path, "t.json");
  EXPECT_TRUE(b.opts.observing());
  EXPECT_EQ(b.opts.seed, 7u);
  EXPECT_TRUE(b.opts.wallclock);
  EXPECT_EQ(b.opts.threads, 1);
  EXPECT_EQ(b.kind, ProtocolKind::kTgdhBalanced);
  EXPECT_EQ(b.n, 12u);
  EXPECT_EQ(b.csv, "p");
  EXPECT_EQ(b.protocols, std::vector<ProtocolKind>{ProtocolKind::kStr});
  EXPECT_EQ(b.scale, (std::vector<int>{1, 4}));
  EXPECT_EQ(b.rates, (std::vector<double>{0.05, 1.0}));
  EXPECT_EQ(b.rate, 0.0);
  EXPECT_TRUE(b.per_group);
  EXPECT_EQ(b.seeds, 16);

  EXPECT_TRUE(b.flags.given("--seed"));
  EXPECT_TRUE(b.flags.given("n"));
  EXPECT_TRUE(b.flags.given("--scale"));
  EXPECT_FALSE(b.flags.given("--threads"));
  EXPECT_FALSE(b.flags.given("--seeds"));
}

TEST(BenchIo, FlagTableRejectsEveryMalformedValueWithExitTwo) {
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases = {
      {{"--seed", "1x"}, "--seed: not a non-negative integer '1x'"},
      {{"--seed=-1"}, "--seed: not a non-negative integer '-1'"},
      {{"--threads", "2x"}, "--threads: not an integer '2x'"},
      {{"--threads", "0"}, "--threads: must be >= 1, got '0'"},
      {{"--seeds=0"}, "--seeds: must be >= 1, got '0'"},
      {{"--rate", "nan"}, "--rate: not a finite number 'nan'"},
      {{"--rate=inf"}, "--rate: not a finite number 'inf'"},
      {{"--rate", "0.1x"}, "--rate: not a finite number '0.1x'"},
      {{"--rate", "1.5"}, "--rate: must be in [0, 1], got '1.5'"},
      {{"--rates", "0.05,0"}, "--rates: must be in (0, 1], got '0.05,0'"},
      {{"--rates", "0.05x"}, "--rates: not a finite number '0.05x'"},
      {{"--scale="}, "--scale: not an integer ''"},
      {{"--protocol", "nope"}, "--protocol: unknown protocol 'nope'"},
      {{"all"}, "protocol: must name one protocol, got 'all'"},
      {{"TGDH", "1"}, "n: must be >= 2, got '1'"},
      {{"TGDH", "8x"}, "n: not a non-negative integer '8x'"},
      {{"TGDH", "8", "9"}, "unknown argument '9'"},
      {{"TGDH", "3", "--csv"}, "--csv: missing value"},
      {{"--json"}, "--json: missing value"},
      {{"--wallclock=yes"}, "--wallclock: takes no value 'yes'"},
      {{"--bogus-flag"}, "unknown argument '--bogus-flag'"},
      {{"-x"}, "protocol: unknown protocol '-x'"},
  };
  for (const auto& [args, message] : cases) {
    FlagBench b;
    EXPECT_EQ(b.parse(args), 2) << message;
    EXPECT_EQ(b.err.substr(0, b.err.find('\n')), "error: " + message);
    EXPECT_NE(b.err.find("\nusage: bench [protocol] [n] [--protocol P]"),
              std::string::npos)
        << b.err;
    EXPECT_EQ(b.out, "");
  }
}

TEST(BenchIo, FlagTableHelpPrintsUsageAndExitsZero) {
  FlagBench b;
  EXPECT_EQ(b.parse({"--seeds", "3", "--help", "--bogus-flag"}), 0);
  EXPECT_EQ(b.err, "");
  EXPECT_EQ(b.out.rfind("usage: bench [protocol] [n] [--protocol P]", 0), 0u)
      << b.out;
  EXPECT_NE(b.out.find("  --seeds N           runs per protocol (default 16, "
                       ">= 1)\n"),
            std::string::npos)
      << b.out;
  EXPECT_NE(b.out.find("--protocol P        all, or one protocol "
                       "(default gdh)"),
            std::string::npos)
      << b.out;
  EXPECT_NE(b.out.find("--rates R,...       mutation rates (default 0.02, in "
                       "(0, 1])"),
            std::string::npos)
      << b.out;
  FlagBench toggle;
  EXPECT_EQ(toggle.parse({"--help=1"}), 2);
}

TEST(BenchIo, FlagTableFailNamesTheFlagAndItsValue) {
  FlagBench b;
  ASSERT_EQ(b.parse({"--rate=0.5"}), std::nullopt);
  testing::internal::CaptureStderr();
  EXPECT_EQ(b.flags.fail("--rate", "must exceed --seeds, got"), 2);
  EXPECT_EQ(b.flags.fail("--seeds", "must be odd, got"), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("error: --rate: must exceed --seeds, got '0.5'\n", 0),
            0u)
      << err;
  EXPECT_NE(err.find("error: --seeds: must be odd, got '16'\n"),
            std::string::npos)
      << err;
}

TEST(BenchIo, SweepToJsonEmitsMedianAndP95) {
  SweepResult r;
  r.min_size = 2;
  r.max_size = 3;
  Series s;
  s.label = "GDH";
  s.values = {2.0, 5.0};  // means of the sample sets below
  s.samples = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  r.series = {s};
  const obs::Json doc = sweep_to_json(r);
  EXPECT_DOUBLE_EQ(doc.at("min_size").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("sizes").at(std::size_t{1}).as_number(), 3.0);
  const obs::Json& entry = doc.at("series").at(std::size_t{0});
  EXPECT_EQ(entry.at("label").as_string(), "GDH");
  EXPECT_DOUBLE_EQ(entry.at("mean_ms").at(std::size_t{0}).as_number(), 2.0);
  EXPECT_DOUBLE_EQ(entry.at("median_ms").at(std::size_t{0}).as_number(), 2.0);
  EXPECT_DOUBLE_EQ(entry.at("median_ms").at(std::size_t{1}).as_number(), 5.0);
  // p95 with 3 samples interpolates toward the max.
  EXPECT_NEAR(entry.at("p95_ms").at(std::size_t{1}).as_number(), 5.9, 1e-9);
}

TEST(Sweep, SamplesBackTheAverages) {
  SweepConfig cfg;
  cfg.max_size = 4;
  cfg.seeds = 2;
  cfg.protocols = {ProtocolKind::kTgdh};
  SweepResult r = sweep_leave(cfg);
  ASSERT_EQ(r.series.size(), 1u);
  const Series& s = r.series[0];
  ASSERT_EQ(s.samples.size(), s.values.size());
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    ASSERT_EQ(s.samples[i].size(), 2u);
    const double mean = (s.samples[i][0] + s.samples[i][1]) / 2.0;
    EXPECT_NEAR(mean, s.values[i], 1e-9);
  }
}

TEST(Experiment, WanJoinSlowerThanLan) {
  auto measure = [](Topology topo) {
    ExperimentConfig cfg;
    cfg.topology = std::move(topo);
    cfg.protocol = ProtocolKind::kTgdh;
    Experiment exp(cfg);
    exp.grow_to(4);
    return exp.measure_join().elapsed_ms;
  };
  EXPECT_GT(measure(wan_testbed()), 10 * measure(lan_testbed()));
}

TEST(Experiment, DhBitsAffectCost) {
  auto measure = [](DhBits bits) {
    ExperimentConfig cfg;
    cfg.dh_bits = bits;
    cfg.protocol = ProtocolKind::kGdh;
    Experiment exp(cfg);
    exp.grow_to(8);
    return exp.measure_join().elapsed_ms;
  };
  EXPECT_GT(measure(DhBits::k1024), measure(DhBits::k512));
}

}  // namespace
}  // namespace sgk
