#include "obs/wallclock.h"

#include <algorithm>

namespace sgk::obs {

namespace {

// Thread-local like the metrics/tracer sinks: worker threads of a parallel
// multi-group run see nullptr (no clock reads) unless an executor installs a
// profiler, so the main thread's session profiler is never written
// cross-thread.
thread_local WallProfiler* g_wall_profiler = nullptr;

}  // namespace

WallProfiler* wall_profiler() { return g_wall_profiler; }
void set_wall_profiler(WallProfiler* profiler) { g_wall_profiler = profiler; }

WallCalibration calibrate_wall_timer() {
  WallCalibration cal;

  // Warm the clock path (first reads can fault in the vDSO page and train
  // the branch predictors; they are not representative).
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 2048; ++i) sink = wall_now_ns();

  // Resolution: smallest nonzero delta between consecutive reads. On a
  // coarse clock many consecutive reads tie, so spin until the value moves.
  double resolution = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const std::uint64_t a = wall_now_ns();
    std::uint64_t b = a;
    for (int spin = 0; spin < 100000 && b == a; ++spin) b = wall_now_ns();
    if (b <= a) continue;
    const double delta = static_cast<double>(b - a);
    if (resolution == 0 || delta < resolution) resolution = delta;
  }
  cal.resolution_ns = resolution;

  // Overhead: the apparent duration of an empty scope, i.e. of two
  // back-to-back reads. Batch means absorb coarse-clock quantization; the
  // min over batches discards any batch inflated by preemption or a
  // frequency dip — the same min-of-k methodology the docs prescribe for
  // micro-measurements.
  constexpr int kBatches = 32;
  constexpr int kPairsPerBatch = 256;
  double overhead = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    std::uint64_t total = 0;
    for (int i = 0; i < kPairsPerBatch; ++i) {
      const std::uint64_t t0 = wall_now_ns();
      const std::uint64_t t1 = wall_now_ns();
      total += t1 - t0;
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(kPairsPerBatch);
    if (batch == 0 || mean < overhead) overhead = mean;
  }
  (void)sink;
  // Sanity clamp: a plausible vDSO clock read costs tens of ns; anything
  // past a microsecond means the estimate itself was perturbed, and a
  // too-large subtraction would zero out real work.
  cal.overhead_ns = std::clamp(overhead, 0.0, 1000.0);
  cal.batches = kBatches;
  return cal;
}

WallProfiler::WallProfiler() : cal_(calibrate_wall_timer()) {
  epoch_ns_ = wall_now_ns();
  spans_.reserve(1024);
}

void WallProfiler::record(const std::string& site, std::uint64_t t0_ns,
                          std::uint64_t t1_ns) {
  const double raw =
      t1_ns > t0_ns ? static_cast<double>(t1_ns - t0_ns) : 0.0;
  const double ns = std::max(0.0, raw - cal_.overhead_ns);
  const auto it = sites_.try_emplace(site).first;
  it->second.observe(ns);
  if (spans_.size() < kMaxSpans) {
    const std::uint64_t rel = t0_ns > epoch_ns_ ? t0_ns - epoch_ns_ : 0;
    spans_.push_back(SpanRec{&it->first, rel, ns});
  } else {
    ++dropped_;
  }
}

void WallProfiler::observe(const std::string& site, double ns) {
  sites_[site].observe(std::max(0.0, ns));
}

const Histogram* WallProfiler::site(const std::string& name) const {
  const auto it = sites_.find(name);
  return it == sites_.end() ? nullptr : &it->second;
}

Json WallProfiler::trace_events_json() const {
  Json events = Json::array();
  {
    Json meta = Json::object();
    meta.set("ph", Json("M"));
    meta.set("name", Json("process_name"));
    meta.set("pid", Json(1));
    meta.set("tid", Json(0));
    Json args = Json::object();
    args.set("name", Json("wall clock (host)"));
    meta.set("args", std::move(args));
    events.push(std::move(meta));
  }
  for (const SpanRec& s : spans_) {
    Json e = Json::object();
    e.set("name", Json(*s.site));
    e.set("cat", Json("wall"));
    e.set("ph", Json("X"));
    e.set("pid", Json(1));
    e.set("tid", Json(0));
    e.set("ts", Json(static_cast<double>(s.start_ns) / 1000.0));  // host us
    e.set("dur", Json(s.dur_ns / 1000.0));
    events.push(std::move(e));
  }
  return events;
}

}  // namespace sgk::obs
