// Calibrated wall-clock profiling beside the virtual clock.
//
// Everything else in this repo measures *virtual* cost-model time — faithful
// to the paper's methodology but blind to how fast the code actually runs.
// The WallProfiler is the second clock: RAII scoped timers around the real
// hot paths (modular exponentiation, sign/verify, validated decode, frame
// framing) aggregate host-clock nanoseconds into the same log-linear
// histograms the metrics layer uses, so every bench can print real ns/op
// per primitive and per membership event *beside* its virtual-ms numbers
// (the stdout profile and the Perfetto wall track; perfbench/ reads the
// same sites).
//
// Two hard rules keep the dual-clock design honest:
//
//  * Determinism is untouched. The profiler never feeds anything back into
//    simulation, metrics, or tracing state, and nothing it measures enters
//    a RunReport: a bench's `--json` output is byte-identical with or
//    without `--wallclock`. Instrumentation sites check the thread-local
//    pointer (null by default), so a run without the flag does no clock
//    reads at all and its output is byte-identical to a build without this
//    file.
//
//  * This file is the only sanctioned host-clock boundary. The gka_lint
//    rules GKA303/GKA304 reject `system_clock`/`steady_clock` tokens in any
//    other file under src/ or bench/; callers time things through WallScope
//    or wall_now_ns(), never by reading a clock themselves.
//
// Timer noise handling (see docs/observability.md, "Wall-clock mode"):
// construction self-calibrates by measuring the scope-timer's own overhead
// (min of k batch means, after warmup) and that overhead is subtracted from
// every recorded interval, clamped at zero so a measured duration is never
// negative. Cross-machine comparisons should use ratios, not absolute ns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace sgk::obs {

/// Monotonic host-clock read in integer nanoseconds since an unspecified
/// epoch. The single place in the tree (outside tests) where a real clock is
/// read; everything else receives timestamps from here.
inline std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Result of the startup self-calibration.
struct WallCalibration {
  /// Per-interval timer overhead (ns) subtracted from every recorded scope:
  /// the apparent duration of an empty back-to-back read pair, min of
  /// `batches` batch means so scheduler preemption cannot inflate it.
  double overhead_ns = 0;
  /// Smallest nonzero delta ever observed between consecutive reads.
  double resolution_ns = 0;
  /// Batches measured for the min-of-k estimate.
  int batches = 0;
};

class WallProfiler {
 public:
  /// Wall spans kept for the Chrome trace's wall-clock track. Aggregation
  /// into histograms is unbounded; the span buffer is capped so a long soak
  /// cannot grow the trace without bound (drops are counted).
  static constexpr std::size_t kMaxSpans = 1 << 16;

  /// Runs self-calibration (a few hundred microseconds) and stamps the
  /// profiler's epoch; spans are stored relative to it.
  WallProfiler();

  const WallCalibration& calibration() const { return cal_; }

  /// Records the closed raw-clock interval [t0_ns, t1_ns] against `site`:
  /// subtracts the calibrated timer overhead, clamps at zero, aggregates
  /// into the site histogram, and (buffer permitting) keeps the span for
  /// the trace's wall track.
  void record(const std::string& site, std::uint64_t t0_ns,
              std::uint64_t t1_ns);

  /// Aggregates an already-computed duration without a trace span (used by
  /// tests and by callers that timed across non-contiguous intervals).
  void observe(const std::string& site, double ns);

  /// Per-site histogram of calibrated ns/op; nullptr for an unknown site.
  const Histogram* site(const std::string& name) const;
  const std::map<std::string, Histogram>& sites() const { return sites_; }

  std::uint64_t spans_recorded() const { return spans_.size(); }
  std::uint64_t spans_dropped() const { return dropped_; }

  /// Chrome trace_event entries for the wall-clock track: every buffered
  /// span as a complete event on pid 1 ("wall clock (host)"), timestamps in
  /// host microseconds relative to the profiler epoch. Appended beside the
  /// virtual-time events (pid 0) so Perfetto shows both timelines of the
  /// same run.
  Json trace_events_json() const;

 private:
  struct SpanRec {
    const std::string* site;  // key in sites_ (stable: std::map nodes)
    std::uint64_t start_ns;   // relative to epoch_ns_
    double dur_ns;            // overhead-subtracted
  };

  WallCalibration cal_;
  std::uint64_t epoch_ns_ = 0;
  std::map<std::string, Histogram> sites_;
  std::vector<SpanRec> spans_;
  std::uint64_t dropped_ = 0;
};

/// Measures the scope-timer overhead and clock resolution. Exposed for the
/// calibration sanity tests; WallProfiler's constructor calls it.
WallCalibration calibrate_wall_timer();

/// Ambient profiler used by instrumentation sites; nullptr (the default)
/// disables wall-clock profiling entirely — no clock is read. Thread-local:
/// worker threads of a parallel run have their own (null) slot, so the main
/// thread's session profiler is never written cross-thread.
WallProfiler* wall_profiler();
void set_wall_profiler(WallProfiler* profiler);

/// RAII scoped timer: two clock reads around the protected region when a
/// profiler is installed, a single global-pointer test when not. `site`
/// must outlive the scope (string literals at every in-tree call site).
class WallScope {
 public:
  explicit WallScope(const char* site)
      : profiler_(wall_profiler()), site_(site) {
    if (profiler_ != nullptr) t0_ = wall_now_ns();
  }
  WallScope(const WallScope&) = delete;
  WallScope& operator=(const WallScope&) = delete;
  ~WallScope() {
    if (profiler_ != nullptr) profiler_->record(site_, t0_, wall_now_ns());
  }

 private:
  WallProfiler* profiler_;
  const char* site_;
  std::uint64_t t0_ = 0;
};

}  // namespace sgk::obs
