#include "harness/bench_io.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace sgk {

bool BenchOptions::parse(int argc, char** argv, BenchOptions& out,
                         std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string orig = argv[i];
    std::string arg = orig;
    std::string value;
    bool has_value = false;
    if (const std::size_t eq = arg.find('=');
        arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    if (arg == "--wallclock") {
      if (has_value) {
        error = "--wallclock takes no argument";
        return false;
      }
      out.wallclock = true;
      continue;
    }
    if (arg != "--json" && arg != "--trace" && arg != "--seed" &&
        arg != "--threads") {
      out.rest.push_back(orig);
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        error = arg + " requires an argument";
        return false;
      }
      value = argv[++i];
    }
    if (arg == "--json") {
      out.json_path = value;
    } else if (arg == "--trace") {
      out.trace_path = value;
    } else if (arg == "--threads") {
      try {
        out.threads = std::stoi(value);
      } catch (const std::exception&) {
        out.threads = 0;
      }
      if (out.threads < 1) {
        error = "--threads requires a positive integer, got '" + value + "'";
        return false;
      }
      out.threads_set = true;
    } else {
      try {
        out.seed = std::stoull(value);
      } catch (const std::exception&) {
        error = "--seed requires an unsigned integer, got '" + value + "'";
        return false;
      }
      out.seed_set = true;
    }
  }
  return true;
}

bool take_flag(const std::vector<std::string>& rest, std::size_t& i,
               const std::string& flag, std::string& value) {
  const std::string& arg = rest[i];
  if (arg == flag) {
    if (i + 1 >= rest.size())
      throw std::runtime_error(flag + " requires an argument");
    value = rest[++i];
    return true;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    value = arg.substr(flag.size() + 1);
    return true;
  }
  return false;
}

bool parse_protocols(const std::string& name, std::vector<ProtocolKind>& out) {
  static const std::map<std::string, ProtocolKind> kByName = {
      {"gdh", ProtocolKind::kGdh},   {"ckd", ProtocolKind::kCkd},
      {"tgdh", ProtocolKind::kTgdh}, {"str", ProtocolKind::kStr},
      {"bd", ProtocolKind::kBd},     {"tgdh-bal", ProtocolKind::kTgdhBalanced}};
  std::string lower;
  for (char c : name)
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (lower == "all") {
    out = {ProtocolKind::kGdh, ProtocolKind::kCkd, ProtocolKind::kTgdh,
           ProtocolKind::kStr, ProtocolKind::kBd};
    return true;
  }
  const auto it = kByName.find(lower);
  if (it == kByName.end()) return false;
  out = {it->second};
  return true;
}

std::vector<int> parse_scale(const std::string& list) {
  std::vector<int> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int t = std::stoi(item);
    if (t < 1) throw std::runtime_error("--scale entries must be >= 1");
    out.push_back(t);
  }
  if (out.empty()) throw std::runtime_error("--scale requires a list");
  return out;
}

int reject_argument(const std::string& arg) {
  std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
  return 2;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string lower_name(ProtocolKind kind) {
  std::string s = to_string(kind);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

ObsSession::ObsSession(const BenchOptions& opts) : opts_(opts) {
  // The wall profiler installs independently of --json/--trace: `bench
  // --wallclock` alone still prints the stdout summary table.
  if (opts_.wallclock) {
    wall_ = std::make_unique<obs::WallProfiler>();
    prev_wall_ = obs::wall_profiler();
    obs::set_wall_profiler(wall_.get());
  }
  if (!opts_.observing()) return;
  metrics_ = std::make_unique<obs::MetricsRegistry>();
  tracer_ = std::make_unique<obs::Tracer>();
  prev_metrics_ = obs::metrics();
  prev_tracer_ = obs::tracer();
  obs::set_metrics(metrics_.get());
  obs::set_tracer(tracer_.get());
}

ObsSession::~ObsSession() {
  if (wall_ != nullptr) obs::set_wall_profiler(prev_wall_);
  if (!opts_.observing()) return;
  obs::set_metrics(prev_metrics_);
  obs::set_tracer(prev_tracer_);
}

namespace {

void print_wall_summary(const obs::WallProfiler& wall) {
  const obs::WallCalibration& cal = wall.calibration();
  std::printf("\nwall-clock profile (host ns/op; timer overhead %.1f ns "
              "subtracted, resolution %.0f ns)\n",
              cal.overhead_ns, cal.resolution_ns);
  std::printf("%-28s %10s %12s %12s %12s\n", "site", "count", "p50_ns",
              "p95_ns", "min_ns");
  for (const auto& [name, h] : wall.sites())
    std::printf("%-28s %10llu %12.0f %12.0f %12.0f\n", name.c_str(),
                static_cast<unsigned long long>(h.count()), h.quantile(0.5),
                h.quantile(0.95), h.min());
  if (wall.spans_dropped() > 0)
    std::printf("(trace span buffer full: %llu spans dropped)\n",
                static_cast<unsigned long long>(wall.spans_dropped()));
}

}  // namespace

bool ObsSession::finish(obs::RunReport& report) {
  if (wall_ != nullptr) print_wall_summary(*wall_);
  if (!opts_.observing()) return true;
  // Stamp the run's base seed so any number in the file can be reproduced.
  report.add_section("seed", obs::Json(opts_.seed));
  report.add_metrics(*metrics_);
  report.add_span_rollup(*tracer_);
  if (wall_ != nullptr) {
    // The schema bump and the section land together, so a v1 report never
    // contains wall data and a v2 report always does. A report a bench
    // already stamped past v1 (e.g. sgk-bench/3 batch payloads) keeps its
    // higher schema — those supersets admit the wallclock section too.
    const obs::Json* schema = report.json().find("schema");
    if (schema != nullptr && schema->is_string() &&
        schema->as_string() == obs::kBenchSchema)
      report.set_schema(obs::kBenchSchemaWallclock);
    obs::Json wall_json = wall_->to_json();
    // The thread count lives here, in the wall env, and nowhere else: wall
    // numbers from different thread counts are not comparable (bench_gate
    // refuses the pairing), while the deterministic sections must stay
    // byte-identical across thread counts.
    for (auto& [section, value] : wall_json.as_object()) {
      if (section == "env") value.set("threads", obs::Json(opts_.threads));
    }
    report.add_section("wallclock", std::move(wall_json));
  }
  bool ok = true;
  std::string error;
  if (!opts_.json_path.empty() &&
      !obs::write_json_file(opts_.json_path, report.json(), &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    ok = false;
  }
  if (!opts_.trace_path.empty() &&
      !obs::write_chrome_trace_file(opts_.trace_path, *tracer_, &error,
                                    wall_.get())) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    ok = false;
  }
  return ok;
}

obs::Json sweep_to_json(const SweepResult& result) {
  obs::Json doc = obs::Json::object();
  doc.set("min_size", obs::Json(static_cast<std::uint64_t>(result.min_size)));
  doc.set("max_size", obs::Json(static_cast<std::uint64_t>(result.max_size)));
  obs::Json sizes = obs::Json::array();
  for (std::size_t n : result.sizes())
    sizes.push(obs::Json(static_cast<std::uint64_t>(n)));
  doc.set("sizes", std::move(sizes));

  obs::Json series = obs::Json::array();
  for (const Series& s : result.series) {
    obs::Json entry = obs::Json::object();
    entry.set("label", obs::Json(s.label));
    obs::Json mean = obs::Json::array();
    obs::Json median = obs::Json::array();
    obs::Json p95 = obs::Json::array();
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      mean.push(obs::Json(s.values[i]));
      // Sweeps run with seeds=1 still get well-defined order statistics: the
      // single sample is its own median and p95.
      static const std::vector<double> kEmpty;
      const std::vector<double>& samples =
          i < s.samples.size() ? s.samples[i] : kEmpty;
      median.push(obs::Json(samples.empty() ? s.values[i]
                                            : quantile(samples, 0.5)));
      p95.push(obs::Json(samples.empty() ? s.values[i]
                                         : quantile(samples, 0.95)));
    }
    entry.set("mean_ms", std::move(mean));
    entry.set("median_ms", std::move(median));
    entry.set("p95_ms", std::move(p95));
    series.push(std::move(entry));
  }
  doc.set("series", std::move(series));
  return doc;
}

}  // namespace sgk
