// Unit tests for the observability layer: histogram bucket geometry and
// quantiles, span nesting / phase tiling under virtual time, and Chrome
// trace export round-tripped through the JSON parser.
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "harness/bench_io.h"
#include "harness/experiment.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "obs/wallclock.h"

namespace sgk::obs {
namespace {

// ---------------------------------------------------------------------------
// Json

TEST(Json, ScalarRoundTrip) {
  Json doc = Json::object();
  doc.set("b", Json(true));
  doc.set("n", Json(42.5));
  doc.set("i", Json(std::uint64_t{9007199254740992ull}));
  doc.set("s", Json("esc \"quotes\" and \n newline"));
  doc.set("z", Json(nullptr));
  Json back = Json::parse(doc.dump());
  EXPECT_TRUE(back.at("b").as_bool());
  EXPECT_DOUBLE_EQ(back.at("n").as_number(), 42.5);
  EXPECT_DOUBLE_EQ(back.at("i").as_number(), 9007199254740992.0);
  EXPECT_EQ(back.at("s").as_string(), "esc \"quotes\" and \n newline");
  EXPECT_TRUE(back.at("z").is_null());
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json doc = Json::object();
  doc.set("zeta", Json(1));
  doc.set("alpha", Json(2));
  const std::string text = doc.dump();
  EXPECT_LT(text.find("zeta"), text.find("alpha"));
}

TEST(Json, ParseRejectsTrailingGarbage) {
  EXPECT_THROW(Json::parse("{} x"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse(""), JsonError);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, BucketBoundariesArePowerOfTwoDecades) {
  // Bucket 0 is underflow: everything below 2^kMinExp.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMinExp) / 2), 0);
  // The first resolved bucket starts exactly at 2^kMinExp.
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMinExp)), 1);
  // Overflow: anything at/above 2^kMaxExp lands in the last bucket.
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMaxExp)),
            Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBucketCount - 1);

  // Each decade [2^e, 2^{e+1}) splits into kSubBuckets equal parts: check the
  // decade [1, 2) explicitly.
  const int base = Histogram::bucket_index(1.0);
  EXPECT_EQ(Histogram::bucket_index(1.24), base);
  EXPECT_EQ(Histogram::bucket_index(1.25), base + 1);
  EXPECT_EQ(Histogram::bucket_index(1.75), base + 3);
  EXPECT_EQ(Histogram::bucket_index(2.0), base + 4);

  // bucket_bounds is the inverse: every bound's lower edge maps back to the
  // same bucket, and consecutive buckets tile the line with no gaps.
  for (int i = 1; i + 1 < Histogram::kBucketCount; ++i) {
    const auto [lo, hi] = Histogram::bucket_bounds(i);
    EXPECT_EQ(Histogram::bucket_index(lo), i) << "bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(std::nextafter(hi, 0.0)), i);
    const auto [next_lo, next_hi] = Histogram::bucket_bounds(i + 1);
    EXPECT_DOUBLE_EQ(hi, next_lo);
  }
}

TEST(Histogram, AggregatesAndQuantiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Log-linear buckets bound relative quantile error by the sub-bucket width
  // (25% per decade → ~12% worst case).
  EXPECT_NEAR(h.quantile(0.5), 50.0, 50.0 * 0.13);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 95.0 * 0.13);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(Histogram, SingleObservationQuantilesClampToValue) {
  Histogram h;
  h.observe(3.7);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.7);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 3.7);
}

TEST(MetricsRegistry, CountersAndJson) {
  MetricsRegistry reg;
  reg.counter("a/b").add(3);
  reg.counter("a/b").add();
  reg.histogram("h").observe(2.0);
  EXPECT_EQ(reg.counter("a/b").value(), 4u);
  const Json doc = reg.to_json();
  EXPECT_DOUBLE_EQ(doc.at("counters").at("a/b").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(doc.at("histograms").at("h").at("count").as_number(), 1.0);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Trace, PhaseTilingSumsToEventDuration) {
  Tracer tr;
  tr.use_clock();
  const SpanId root = tr.begin_event("join", 10.0);
  tr.event_attr("protocol", Json("TGDH"));
  tr.phase("membership", 10.0);
  tr.phase("tree_update", 14.0);
  tr.phase("tree_update", 15.0);  // coalesces: same phase re-marked
  tr.phase("broadcast", 18.0);
  tr.end_event(25.0);

  const Span& ev = tr.span(root);
  EXPECT_EQ(ev.kind, SpanKind::kEvent);
  EXPECT_FALSE(ev.open());
  EXPECT_DOUBLE_EQ(ev.duration_ms(), 15.0);

  double phase_total = 0.0;
  int phases = 0;
  for (const Span& s : tr.spans()) {
    if (s.kind != SpanKind::kPhase) continue;
    ++phases;
    EXPECT_EQ(s.parent, root);
    EXPECT_GE(s.start_ms, ev.start_ms);
    EXPECT_LE(s.end_ms, ev.end_ms);
    phase_total += s.duration_ms();
  }
  EXPECT_EQ(phases, 3);  // membership, tree_update (coalesced), broadcast
  EXPECT_DOUBLE_EQ(phase_total, ev.duration_ms());
}

TEST(Trace, LatePhaseMarksAreClampedIntoTheEvent) {
  Tracer tr;
  tr.use_clock();
  const SpanId root = tr.begin_event("leave", 0.0);
  tr.phase("membership", 0.0);
  tr.phase("straggler", 9.0);
  tr.end_event(5.0);  // key installed before the straggler handler ran
  double phase_total = 0.0;
  for (const Span& s : tr.spans())
    if (s.kind == SpanKind::kPhase) {
      EXPECT_LE(s.end_ms, 5.0);
      phase_total += s.duration_ms();
    }
  EXPECT_DOUBLE_EQ(phase_total, tr.span(root).duration_ms());
}

TEST(Trace, UseClockLaysOutExperimentsSequentially) {
  Tracer tr;
  tr.use_clock();
  SpanId first = tr.begin_event("join", 0.0);
  tr.end_event(100.0);
  tr.use_clock();  // second experiment: its clock restarts at 0
  SpanId second = tr.begin_event("join", 0.0);
  tr.end_event(50.0);
  EXPECT_GE(tr.span(second).start_ms, tr.span(first).end_ms);
  EXPECT_DOUBLE_EQ(tr.span(second).duration_ms(), 50.0);
}

TEST(Trace, InstantsNestUnderTheOpenEvent) {
  Tracer tr;
  tr.use_clock();
  const SpanId root = tr.begin_event("join", 0.0);
  const SpanId mark = tr.instant("key_install", 3.0);
  tr.end_event(4.0);
  const SpanId orphan = tr.instant("idle", 9.0);
  EXPECT_EQ(tr.span(mark).parent, root);
  EXPECT_EQ(tr.span(orphan).parent, kNoSpan);
}

TEST(Trace, SpanRollupGroupsByProtocolAndEvent) {
  Tracer tr;
  tr.use_clock();
  for (int i = 0; i < 2; ++i) {
    tr.begin_event("join", i * 100.0);
    tr.event_attr("protocol", Json("GDH"));
    tr.phase("token_accumulation", i * 100.0);
    tr.phase("broadcast", i * 100.0 + 6.0);
    tr.end_event(i * 100.0 + 10.0);
  }
  const Json rows = span_rollup_json(tr);
  ASSERT_EQ(rows.size(), 1u);
  const Json& row = rows.at(std::size_t{0});
  EXPECT_EQ(row.at("protocol").as_string(), "GDH");
  EXPECT_EQ(row.at("event").as_string(), "join");
  EXPECT_DOUBLE_EQ(row.at("count").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(row.at("total_ms").as_number(), 20.0);
  EXPECT_DOUBLE_EQ(row.at("mean_ms").as_number(), 10.0);
  const Json& phases = row.at("phases");
  EXPECT_DOUBLE_EQ(phases.at("token_accumulation").as_number(), 12.0);
  EXPECT_DOUBLE_EQ(phases.at("broadcast").as_number(), 8.0);
  EXPECT_DOUBLE_EQ(phases.at("token_accumulation").as_number() +
                       phases.at("broadcast").as_number(),
                   row.at("total_ms").as_number());
}

TEST(Trace, ChromeExportRoundTripsThroughParser) {
  Tracer tr;
  tr.use_clock();
  tr.set_track_name(1, "machine 0");
  const SpanId root = tr.begin_event("join", 0.0);
  tr.event_attr("protocol", Json("TGDH"));
  tr.phase("tree_update", 0.0);
  const SpanId compute = tr.begin_span_at("compute", 1.0, kNoSpan, 1);
  tr.end_span_at(compute, 2.5);
  tr.instant("key_install", 3.0, 1);
  tr.end_event(4.0);

  const Json doc = Json::parse(tr.chrome_trace_json().dump());
  const Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  std::set<std::string> names;
  int roots = 0;
  for (const Json& e : events.as_array()) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") continue;  // metadata has no ts
    names.insert(e.at("name").as_string());
    EXPECT_GE(e.at("ts").as_number(), 0.0);
    if (ph == "X" && e.at("name").as_string() == "join") {
      ++roots;
      // Complete events carry microsecond durations: 4 ms -> 4000 us.
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 4000.0);
      EXPECT_EQ(e.at("args").at("span_id").as_number(),
                static_cast<double>(root));
    }
  }
  EXPECT_EQ(roots, 1);
  EXPECT_TRUE(names.count("tree_update"));
  EXPECT_TRUE(names.count("compute"));
  EXPECT_TRUE(names.count("key_install"));
}

TEST(Trace, GlobalInstallUninstall) {
  EXPECT_EQ(tracer(), nullptr);
  Tracer tr;
  set_tracer(&tr);
  EXPECT_EQ(tracer(), &tr);
  bool ran = false;
  SGK_TRACE(ran = true; tr->instant("ping", 0.0));
  EXPECT_TRUE(ran);
  set_tracer(nullptr);
  EXPECT_EQ(tracer(), nullptr);
}

TEST(Wallclock, CalibrationIsSane) {
  const WallCalibration cal = calibrate_wall_timer();
  // Overhead is clamped into [0, 1000] ns by construction; a plausible
  // machine lands well under the cap.
  EXPECT_GE(cal.overhead_ns, 0.0);
  EXPECT_LE(cal.overhead_ns, 1000.0);
  EXPECT_GE(cal.resolution_ns, 0.0);
  EXPECT_GT(cal.batches, 0);
}

TEST(Wallclock, RecordSubtractsOverheadAndClampsAtZero) {
  WallProfiler wp;
  const double overhead = wp.calibration().overhead_ns;
  // A zero-width raw interval must never go negative after subtraction.
  wp.record("zero", 5000, 5000);
  ASSERT_NE(wp.site("zero"), nullptr);
  EXPECT_EQ(wp.site("zero")->count(), 1u);
  EXPECT_DOUBLE_EQ(wp.site("zero")->sum(), 0.0);
  // A wide interval loses exactly the calibrated overhead.
  wp.record("wide", 0, 1000000);
  EXPECT_DOUBLE_EQ(wp.site("wide")->sum(), 1.0e6 - overhead);
}

TEST(Wallclock, HistogramQuantilesAtNsScaleStayWithinBucketError) {
  // The log-linear buckets promise ~12-13% relative quantile error; check
  // that holds for nanosecond-magnitude values (1e2..1e6 ns), the range
  // wall sites actually produce.
  WallProfiler wp;
  for (int i = 1; i <= 1000; ++i) wp.observe("ns", 100.0 * i);  // 100ns..100us
  const Histogram* h = wp.site("ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1000u);
  EXPECT_NEAR(h->quantile(0.5), 50000.0, 50000.0 * 0.13);
  EXPECT_NEAR(h->quantile(0.95), 95000.0, 95000.0 * 0.13);
}

TEST(Wallclock, WallScopeIsNullSafeAndRecordsWhenInstalled) {
  ASSERT_EQ(wall_profiler(), nullptr);
  {
    WallScope scope("site/no_profiler");  // must be a no-op, not a crash
  }
  WallProfiler wp;
  set_wall_profiler(&wp);
  {
    WallScope scope("site/with_profiler");
  }
  set_wall_profiler(nullptr);
  ASSERT_NE(wp.site("site/with_profiler"), nullptr);
  EXPECT_EQ(wp.site("site/with_profiler")->count(), 1u);
  EXPECT_EQ(wp.site("site/no_profiler"), nullptr);
}

TEST(Wallclock, SpanBufferCapsAndCountsDrops) {
  WallProfiler wp;
  const std::size_t n = WallProfiler::kMaxSpans + 7;
  for (std::size_t i = 0; i < n; ++i) wp.record("spin", 0, 100);
  EXPECT_EQ(wp.spans_recorded(), WallProfiler::kMaxSpans);
  EXPECT_EQ(wp.spans_dropped(), 7u);
  // Aggregation is unbounded: every record still lands in the histogram.
  EXPECT_EQ(wp.site("spin")->count(), n);
}

TEST(Wallclock, JsonAndTraceShapes) {
  WallProfiler wp;
  wp.record("a/b", 1000, 3000);
  ASSERT_EQ(wp.sites().size(), 1u);
  ASSERT_NE(wp.site("a/b"), nullptr);
  EXPECT_EQ(wp.site("a/b")->count(), 1u);
  EXPECT_EQ(wp.spans_recorded(), 1u);
  EXPECT_EQ(wp.spans_dropped(), 0u);

  const Json events = wp.trace_events_json();
  ASSERT_EQ(events.size(), 2u);  // process_name metadata + one X event
  EXPECT_EQ(events.at(0).at("ph").as_string(), "M");
  EXPECT_EQ(events.at(0).at("pid").as_number(), 1.0);
  EXPECT_EQ(events.at(1).at("ph").as_string(), "X");
  EXPECT_EQ(events.at(1).at("name").as_string(), "a/b");
  EXPECT_EQ(events.at(1).at("pid").as_number(), 1.0);
}

// A small instrumented run: every sink installed around it sees real work.
void run_tgdh_join() {
  sgk::ExperimentConfig cfg;
  cfg.protocol = sgk::ProtocolKind::kTgdh;
  sgk::Experiment exp(cfg);
  exp.grow_to(3);
  exp.measure_join();
}

// The cardinal dual-clock guarantee: with every sink installed (metrics,
// tracer, wall profiler), a run's RunReport is byte-identical to the same
// run's without the profiler.
TEST(Wallclock, ProfilerLeavesReportsByteIdentical) {
  const auto run_once = [](WallProfiler* wp) {
    MetricsRegistry mr;
    Tracer tr;
    set_metrics(&mr);
    set_tracer(&tr);
    set_wall_profiler(wp);
    run_tgdh_join();
    set_metrics(nullptr);
    set_tracer(nullptr);
    set_wall_profiler(nullptr);
    RunReport report("determinism_probe");
    report.add_section("seed", Json(std::uint64_t{1}));
    report.add_metrics(mr);
    report.add_span_rollup(tr);
    return report.json().dump(2);
  };

  WallProfiler wp;
  const std::string profiled = run_once(&wp);
  // Wall instrumentation actually fired during the run...
  EXPECT_GT(wp.sites().size(), 0u);
  // ...and left no trace in the report.
  EXPECT_EQ(profiled, run_once(nullptr));
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ObsSession::finish writes the same --json bytes whether or not the wall
// profiler ran, and leaves a bench's own schema stamp alone.
TEST(Wallclock, FinishWritesTheSameJsonWithOrWithoutProfiler) {
  const std::string dir = ::testing::TempDir();
  const auto finish = [&](bool wallclock, const char* stamp,
                          const std::string& path) {
    sgk::BenchOptions opts;
    opts.wallclock = wallclock;
    opts.json_path = path;
    sgk::ObsSession session(opts);
    run_tgdh_join();
    if (wallclock) {
      EXPECT_GT(session.wall()->sites().size(), 0u);
    }
    RunReport report("schema_probe");
    if (stamp != nullptr) report.set_schema(stamp);
    EXPECT_TRUE(session.finish(report));
    return read_text(path);
  };
  for (const char* stamp : {static_cast<const char*>(nullptr),
                            kBenchSchemaBatch}) {
    const std::string with_wall = finish(true, stamp, dir + "/wall_on.json");
    const std::string without = finish(false, stamp, dir + "/wall_off.json");
    ASSERT_FALSE(without.empty());
    EXPECT_EQ(with_wall, without);
    EXPECT_EQ(Json::parse(without).at("schema").as_string(),
              stamp != nullptr ? kBenchSchemaBatch : kBenchSchema);
  }
}

}  // namespace
}  // namespace sgk::obs
