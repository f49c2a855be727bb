// Shared command-line handling and observability plumbing for the bench
// binaries: every bench parses its command line through one FlagTable and
// gains `--json <path>` (schema-versioned BENCH_*.json RunReport), `--trace
// <path>` (Chrome trace_event file for Perfetto / chrome://tracing) and
// `--help` through this header. See docs/observability.md.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "harness/sweep.h"
#include "obs/run_report.h"

namespace sgk {

/// Flags shared by every bench binary, declared on every FlagTable.
struct BenchOptions {
  std::string json_path;   // --json <path>
  std::string trace_path;  // --trace <path>
  /// --seed <n>: base seed for the bench's randomized choices. Recorded in
  /// the RunReport ("seed" section) so a BENCH_*.json names the run it came
  /// from and any result can be reproduced from the file alone.
  std::uint64_t seed = 1;
  /// --wallclock: also profile real host-clock ns/op at the instrumented
  /// sites (see obs/wallclock.h). Off by default; without it no host clock
  /// is read and all output stays byte-identical to a flagless run.
  bool wallclock = false;
  /// --threads <n>: worker threads for benches that parallelize (others
  /// ignore it). Recorded inside the report's "wallclock" env — wall
  /// trajectories from different thread counts must never be compared
  /// silently (tools/bench_gate refuses) — and deliberately NOT in any
  /// deterministic section: the same scenario at any thread count must
  /// produce byte-identical v1 report bytes.
  int threads = 1;

  bool observing() const { return !json_path.empty() || !trace_path.empty(); }
};

inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// Accepted values of a numeric flag, or of each entry of a list flag:
/// at least `lo` (above it when `lo_open`) and at most `hi`.
struct Range {
  double lo = -kUnbounded;
  double hi = kUnbounded;
  bool lo_open = false;
};
/// [lo, hi]
inline Range at_least(double lo, double hi = kUnbounded) { return {lo, hi}; }
/// (lo, hi]
inline Range above(double lo, double hi = kUnbounded) { return {lo, hi, true}; }

/// What a flag parses into, bound by reference. (unsigned long and unsigned
/// long long cover std::size_t and std::uint64_t on any platform.)
using FlagTarget = std::variant<
    std::reference_wrapper<bool>, std::reference_wrapper<int>,
    std::reference_wrapper<unsigned long>,
    std::reference_wrapper<unsigned long long>,
    std::reference_wrapper<double>, std::reference_wrapper<std::string>,
    std::reference_wrapper<ProtocolKind>,
    std::reference_wrapper<std::vector<ProtocolKind>>,
    std::reference_wrapper<std::vector<int>>,
    std::reference_wrapper<std::vector<double>>>;

/// The declarative command line of a bench binary: each flag is declared
/// once with its name, target, range and one-line help, and the target's
/// value at declaration is its default. The constructor declares the
/// BenchOptions flags and --help.
///
/// A name starting with "--" is a flag, given as `--flag value` or
/// `--flag=value`; any other name is the next positional slot. A metavar for
/// the usage text may follow the name after a space ("--csv PREFIX"). Numbers
/// must parse whole (util/parse_number.h) and fall in the range; bool targets
/// are toggles and refuse a value; `std::vector` targets take a
/// comma-separated list; a `ProtocolKind` list takes "all" or one protocol
/// name, case-insensitive.
class FlagTable {
 public:
  explicit FlagTable(BenchOptions& opts);
  // The --help flag binds a member, so a copy would parse into the original.
  FlagTable(const FlagTable&) = delete;
  FlagTable& operator=(const FlagTable&) = delete;

  void add(std::string_view spec, FlagTarget target, std::string help,
           Range range = {});

  /// Parses argv. Returns nothing when the bench should run; otherwise the
  /// status for `main` to return: 0 after --help (usage on stdout), 2 after a
  /// usage error (`error: <flag>: <why> '<value>'` and the synopsis on
  /// stderr).
  std::optional<int> parse(int argc, const char* const* argv);

  /// Whether the flag or positional slot `name` appeared on the command line.
  bool given(std::string_view name) const;

  /// Reports a usage error that spans two flags, in parse()'s format with
  /// the value of flag `name`, and returns 2 for `main` to return.
  int fail(std::string_view name, const std::string& why) const;

 private:
  struct Flag {
    std::string spec;   // name and metavar, e.g. "--csv PREFIX"
    std::string help;   // with the default and range appended
    std::string value;  // as given on the command line, else the default
    FlagTarget target;
    Range range;
    bool given = false;
  };

  Flag* find(std::string_view name);
  const Flag& declared(std::string_view name) const;
  std::string synopsis() const;
  int usage_error(const std::string& message) const;

  std::vector<Flag> flags_;
  std::size_t shared_flags_ = 0;  // the constructor's, kept last in flags_
  std::string program_ = "bench";
  bool help_ = false;
};

/// `--protocol` values: "all" (the paper's five protocols) or one protocol
/// name, case-insensitive. Returns false for an unknown name.
bool parse_protocols(const std::string& name, std::vector<ProtocolKind>& out);

/// Lower-case protocol name, as `--protocol` spells it in repro lines.
std::string lower_name(ProtocolKind kind);

/// Scoped installation of the process-global metrics registry and tracer.
/// While an ObsSession with observing options is alive, the harness and the
/// instrumented simulator record into its sinks; `finish` folds the collected
/// state into a RunReport and writes the files the flags requested. When the
/// options request nothing, the session is a no-op and `finish` only prints
/// nothing and succeeds.
///
/// With `--wallclock` the session additionally installs a WallProfiler
/// (self-calibrating at construction), so the WallScope sites record real
/// ns/op while the run proceeds. `finish` then prints a per-site summary
/// table on stdout and, when --json was also given, bumps the report schema
/// to kBenchSchemaWallclock and appends the "wallclock" section — the only
/// part of the report allowed to differ between two identical runs.
class ObsSession {
 public:
  explicit ObsSession(const BenchOptions& opts);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  obs::Tracer* tracer() const { return tracer_.get(); }
  obs::WallProfiler* wall() const { return wall_.get(); }

  /// Adds the metrics + span-rollup (and, with --wallclock, wallclock)
  /// sections to `report`, then writes the --json and --trace files.
  /// Failures are reported on stderr; returns false if any write failed.
  bool finish(obs::RunReport& report);

 private:
  const BenchOptions opts_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::WallProfiler> wall_;
  obs::MetricsRegistry* prev_metrics_ = nullptr;
  obs::Tracer* prev_tracer_ = nullptr;
  obs::WallProfiler* prev_wall_ = nullptr;
};

/// Serializes a sweep for the BENCH_*.json "sweeps" entries: sizes plus, per
/// series, the mean curve and per-size median / p95 over seeds (the median is
/// what the CI perf gate compares against its committed baseline).
obs::Json sweep_to_json(const SweepResult& result);

}  // namespace sgk
