// CI perf-trajectory gate: compares a BENCH_*.json produced by a bench
// binary's --json flag against a committed baseline and fails when any
// watched cell regressed beyond tolerance. The simulation is fully
// deterministic (virtual time, seeded randomness), so a tight relative gate
// is safe: any drift is a real behavior change, not machine noise.
//
// Watched cells:
//  * "sweeps" sections: per (sweep, series label, group size) the median
//    virtual-time latency (median_ms);
//  * "table" sections: per (protocol, event) the elapsed_ms of the run.
//  * "multi_group" sections (bench/multi_group): every "_ms" number in the
//    aggregate rollup (latency quantiles, makespan — lower is better) plus
//    the "_per_sec" throughput numbers, gated in the opposite direction
//    (higher is better: a drop beyond tolerance is the regression).
//  * "churn_storm" sections (bench/churn_storm, schema sgk-bench/3): the
//    same aggregate rules applied per rekey mode (unbatched/batched), plus
//    the batch payload's "_ms" latency quantiles and rekeys_per_event
//    amortization headline (all lower is better).
//
// A lower-is-better cell fails when current > baseline * (1 + tolerance) +
// abs_epsilon; a higher-is-better cell when current < baseline * (1 -
// tolerance) - abs_epsilon. The absolute epsilon keeps near-zero baseline
// cells (sub-millisecond events) from tripping on harmless rounding. A
// baseline cell missing from the current document fails too (a bench that
// silently stops emitting a series must not pass). Improvements are
// reported but never fail the gate; *new* cells are informational.
//
// Usage: bench_gate <baseline.json> <current.json>
//                   [--tolerance 0.10] [--abs-epsilon 0.05]
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/run_report.h"
#include "util/parse_number.h"

namespace {

using sgk::obs::Json;

bool read_file(const std::string& path, std::string& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open '" + path + "' for reading";
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// Flat map of watched cell name -> value, e.g.
//   "sweeps/join_512/GDH/n=8/median_ms" or "table/GDH/join/elapsed_ms".
std::map<std::string, double> watched_cells(const Json& doc) {
  std::map<std::string, double> cells;
  if (const Json* sweeps = doc.find("sweeps"); sweeps && sweeps->is_object()) {
    for (const auto& [sweep_name, sweep] : sweeps->as_object()) {
      const Json* sizes = sweep.find("sizes");
      const Json* series = sweep.find("series");
      if (sizes == nullptr || series == nullptr || !series->is_array()) continue;
      for (const Json& entry : series->as_array()) {
        const Json* label = entry.find("label");
        const Json* median = entry.find("median_ms");
        if (label == nullptr || median == nullptr || !median->is_array())
          continue;
        for (std::size_t i = 0; i < median->size() && i < sizes->size(); ++i) {
          const std::string key =
              "sweeps/" + sweep_name + "/" + label->as_string() + "/n=" +
              std::to_string(
                  static_cast<long long>(sizes->at(i).as_number())) +
              "/median_ms";
          cells[key] = median->at(i).as_number();
        }
      }
    }
  }
  if (const Json* table = doc.find("table"); table && table->is_array()) {
    for (const Json& row : table->as_array()) {
      const Json* proto = row.find("protocol");
      const Json* event = row.find("event");
      const Json* elapsed = row.find("elapsed_ms");
      if (proto == nullptr || event == nullptr || elapsed == nullptr) continue;
      cells["table/" + proto->as_string() + "/" + event->as_string() +
            "/elapsed_ms"] = elapsed->as_number();
    }
  }
  if (const Json* mg = doc.find("multi_group")) {
    if (const Json* agg = mg->find("aggregate"); agg && agg->is_object())
      for (const auto& [name, value] : agg->as_object())
        if (name.ends_with("_ms") && value.is_number())
          cells["multi_group/aggregate/" + name] = value.as_number();
  }
  // bench/churn_storm nests one ServerResult document per rekey mode; the
  // aggregate latency cells and the batch payload's amortization headline
  // (rekeys_per_event, event-arrival -> key quantiles) are all
  // lower-is-better.
  if (const Json* cs = doc.find("churn_storm")) {
    for (const char* mode : {"unbatched", "batched"}) {
      const Json* m = cs->find(mode);
      if (m == nullptr) continue;
      const std::string prefix = std::string("churn_storm/") + mode + "/";
      if (const Json* agg = m->find("aggregate"); agg && agg->is_object())
        for (const auto& [name, value] : agg->as_object())
          if (name.ends_with("_ms") && value.is_number())
            cells[prefix + "aggregate/" + name] = value.as_number();
      if (const Json* batch = m->find("batch"); batch && batch->is_object())
        for (const auto& [name, value] : batch->as_object())
          if ((name.ends_with("_ms") || name == "rekeys_per_event") &&
              value.is_number())
            cells[prefix + "batch/" + name] = value.as_number();
    }
  }
  return cells;
}

// Cells where MORE is better (multi-group throughput); a drop beyond
// tolerance is the regression.
std::map<std::string, double> throughput_cells(const Json& doc) {
  std::map<std::string, double> cells;
  if (const Json* mg = doc.find("multi_group"))
    if (const Json* agg = mg->find("aggregate"); agg && agg->is_object())
      for (const auto& [name, value] : agg->as_object())
        if (name.ends_with("_per_sec") && value.is_number())
          cells["multi_group/aggregate/" + name] = value.as_number();
  if (const Json* cs = doc.find("churn_storm"))
    for (const char* mode : {"unbatched", "batched"}) {
      const Json* m = cs->find(mode);
      if (m == nullptr) continue;
      if (const Json* agg = m->find("aggregate"); agg && agg->is_object())
        for (const auto& [name, value] : agg->as_object())
          if (name.ends_with("_per_sec") && value.is_number())
            cells[std::string("churn_storm/") + mode + "/aggregate/" + name] =
                value.as_number();
    }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double tolerance = 0.10;
  double abs_epsilon = 0.05;
  const std::map<std::string, double*> numbers = {
      {"--tolerance", &tolerance}, {"--abs-epsilon", &abs_epsilon}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const auto number = numbers.find(arg);
        number != numbers.end() && i + 1 < argc) {
      if (!sgk::parse_number(argv[++i], *number->second)) {
        std::fprintf(stderr, "error: %s: not a finite number '%s'\n",
                     arg.c_str(), argv[i]);
        return 2;
      }
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_gate <baseline.json> <current.json> "
                 "[--tolerance 0.10] [--abs-epsilon 0.05]\n");
    return 2;
  }

  Json baseline, current;
  try {
    std::string text, error;
    if (!read_file(paths[0], text, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    baseline = Json::parse(text);
    if (!read_file(paths[1], text, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    current = Json::parse(text);
  } catch (const sgk::obs::JsonError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  for (const Json& doc : {baseline, current}) {
    const Json* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        (schema->as_string() != sgk::obs::kBenchSchema &&
         schema->as_string() != sgk::obs::kBenchSchemaBatch)) {
      std::fprintf(stderr,
                   "error: not a sgk-bench/1 or sgk-bench/3 document\n");
      return 2;
    }
  }

  const std::map<std::string, double> base = watched_cells(baseline);
  const std::map<std::string, double> cur = watched_cells(current);
  if (base.empty()) {
    std::fprintf(stderr, "error: baseline '%s' has no watched cells\n",
                 paths[0].c_str());
    return 2;
  }

  int regressions = 0, missing = 0, improvements = 0, compared = 0;
  for (const auto& [key, base_value] : base) {
    auto it = cur.find(key);
    if (it == cur.end()) {
      ++missing;
      std::printf("MISSING %s (baseline %.3f)\n", key.c_str(), base_value);
      continue;
    }
    ++compared;
    const double limit = base_value * (1.0 + tolerance) + abs_epsilon;
    if (it->second > limit) {
      ++regressions;
      std::printf("REGRESSION %s: %.3f -> %.3f (limit %.3f)\n", key.c_str(),
                  base_value, it->second, limit);
    } else if (it->second < base_value - abs_epsilon) {
      ++improvements;
      std::printf("improved %s: %.3f -> %.3f\n", key.c_str(), base_value,
                  it->second);
    }
  }
  for (const auto& [key, value] : cur)
    if (base.find(key) == base.end())
      std::printf("new %s = %.3f (not gated)\n", key.c_str(), value);

  // Throughput cells gate in the opposite direction: current must not DROP
  // below baseline * (1 - tolerance) - abs_epsilon.
  const std::map<std::string, double> tp_base = throughput_cells(baseline);
  const std::map<std::string, double> tp_cur = throughput_cells(current);
  for (const auto& [key, base_value] : tp_base) {
    auto it = tp_cur.find(key);
    if (it == tp_cur.end()) {
      ++missing;
      std::printf("MISSING %s (baseline %.3f)\n", key.c_str(), base_value);
      continue;
    }
    ++compared;
    const double floor = base_value * (1.0 - tolerance) - abs_epsilon;
    if (it->second < floor) {
      ++regressions;
      std::printf("REGRESSION %s: %.3f -> %.3f (floor %.3f, higher=better)\n",
                  key.c_str(), base_value, it->second, floor);
    } else if (it->second > base_value + abs_epsilon) {
      ++improvements;
      std::printf("improved %s: %.3f -> %.3f\n", key.c_str(), base_value,
                  it->second);
    }
  }
  for (const auto& [key, value] : tp_cur)
    if (tp_base.find(key) == tp_base.end())
      std::printf("new %s = %.3f (not gated)\n", key.c_str(), value);

  std::printf("bench_gate: %d cells compared, %d regressions, %d missing, "
              "%d improvements (tolerance %.0f%%, epsilon %.2f ms)\n",
              compared, regressions, missing, improvements, tolerance * 100.0,
              abs_epsilon);
  return regressions > 0 || missing > 0 ? 1 : 0;
}
