// Shared command-line handling and observability plumbing for the bench
// binaries: every bench gains `--json <path>` (schema-versioned BENCH_*.json
// RunReport) and `--trace <path>` (Chrome trace_event file for Perfetto /
// chrome://tracing) through this header. See docs/observability.md.
#pragma once

#include <charconv>
#include <cstdint>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "harness/sweep.h"
#include "obs/run_report.h"

namespace sgk {

/// Observability flags shared by every bench binary. Flags this parser does
/// not recognize (and all positional arguments) pass through in `rest`, in
/// their original order, so each bench keeps its own argument handling.
struct BenchOptions {
  std::string json_path;   // --json <path>
  std::string trace_path;  // --trace <path>
  /// --seed <n>: base seed for the bench's randomized choices. Recorded in
  /// the RunReport ("seed" section) so a BENCH_*.json names the run it came
  /// from and any result can be reproduced from the file alone.
  std::uint64_t seed = 1;
  bool seed_set = false;   // --seed was given explicitly
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
  bool threads_set = false;  // --threads was given explicitly
  std::vector<std::string> rest;

  bool observing() const { return !json_path.empty() || !trace_path.empty(); }

  /// Parses argv (argv[0] is skipped). Recognized flags accept both
  /// `--flag value` and `--flag=value`. Returns false and fills `error` when
  /// a recognized flag is missing or has a malformed argument.
  static bool parse(int argc, char** argv, BenchOptions& out,
                    std::string& error);
};

// ---- bench-specific argument helpers (the flags in BenchOptions::rest) ----

/// Matches `--flag value` and `--flag=value` at rest[i]; advances `i` past
/// the value. Throws std::runtime_error when `--flag` has no value.
bool take_flag(const std::vector<std::string>& rest, std::size_t& i,
               const std::string& flag, std::string& value);

/// `--protocol` values: "all" (the paper's five protocols) or one protocol
/// name, case-insensitive. Returns false for an unknown name.
bool parse_protocols(const std::string& name, std::vector<ProtocolKind>& out);

/// `--scale` values: a comma-separated list of thread counts. Throws
/// std::runtime_error on an empty list or an entry below 1.
std::vector<int> parse_scale(const std::string& list);

/// Parses `text` as a whole decimal number; false on anything else (empty,
/// trailing characters, out of range), so a typo never becomes a size.
template <typename Int>
bool parse_count(const std::string& text, Int& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Prints `error: unknown argument '<arg>'` and returns the usage-error exit
/// status (2) for `main` to return.
int reject_argument(const std::string& arg);

/// Quantile of a sample with linear interpolation between order statistics
/// (the convention docs/observability.md documents); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

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
