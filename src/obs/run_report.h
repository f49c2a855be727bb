// Schema-versioned machine-readable bench output (BENCH_*.json).
//
// Every bench binary gains `--json <path>` via the harness (see
// harness/bench_io.h); the file it writes is assembled here from three
// ingredients: whatever bench-specific payload the binary provides (sweep
// series, table rows), the MetricsRegistry aggregate state, and per-
// (protocol, event) span rollups derived from the tracer. The schema is
// documented in docs/observability.md and guarded by the bench_gate tool.
#pragma once

#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wallclock.h"

namespace sgk::obs {

/// Schema identifier written as the "schema" field of every BENCH_*.json.
inline constexpr const char* kBenchSchema = "sgk-bench/1";
/// Schema for reports carrying the rekey-pipeline "batch" payload
/// (bench/churn_storm and any server bench run with batching enabled).
/// "sgk-bench/2" is retired; tools/bench_gate refuses it.
inline constexpr const char* kBenchSchemaBatch = "sgk-bench/3";

class RunReport {
 public:
  explicit RunReport(std::string bench_name);

  /// Replaces the "schema" field in place (a bench stamping its report
  /// kBenchSchemaBatch).
  void set_schema(const char* schema);

  /// Bench-specific payload, e.g. "sweep" or "table".
  void add_section(std::string name, Json value);

  /// Snapshots registry counters + histograms into the "metrics" section.
  void add_metrics(const MetricsRegistry& registry);

  /// Derives per-(protocol, event) rollups — event count, total/mean
  /// duration, and per-phase duration totals — into "span_rollup".
  void add_span_rollup(const Tracer& tracer);

  /// The assembled document ("schema", "bench", sections in insert order).
  const Json& json() const { return doc_; }

 private:
  Json doc_;
};

/// Aggregates closed kEvent roots by (protocol attr, span name): returns an
/// array of {"protocol","event","count","total_ms","mean_ms","phases":
/// {phase: total_ms}} rows. Phase totals tile the event roots, so for each
/// row sum(phases) == total_ms up to float rounding.
Json span_rollup_json(const Tracer& tracer);

/// Writes `doc` pretty-printed to `path`. On failure returns false and, when
/// `error` is non-null, stores a message naming the path.
bool write_json_file(const std::string& path, const Json& doc,
                     std::string* error = nullptr);

/// Writes the tracer's Chrome trace_event JSON to `path` (open it in
/// chrome://tracing or https://ui.perfetto.dev). When `wall` is non-null its
/// buffered spans are appended as a second track (pid 1, "wall clock
/// (host)") so the virtual and wall timelines of the same run sit side by
/// side in Perfetto.
bool write_chrome_trace_file(const std::string& path, const Tracer& tracer,
                             std::string* error = nullptr,
                             const WallProfiler* wall = nullptr);

}  // namespace sgk::obs
