#include "harness/bench_io.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/parse_number.h"
#include "util/quantile.h"

namespace sgk {

namespace {

/// The flag name of a spec: "--csv" of "--csv PREFIX".
std::string_view name_of(std::string_view spec) {
  return spec.substr(0, spec.find(' '));
}

bool is_named(std::string_view spec) { return spec.rfind("--", 0) == 0; }

/// ">= 1", "> 0", "in [0, 1]", "in (0, 1]"; "" for an unbounded range.
std::string describe(const Range& range) {
  std::ostringstream out;
  if (range.hi != kUnbounded)
    out << "in " << (range.lo_open ? "(" : "[") << range.lo << ", "
        << range.hi << "]";
  else if (range.lo != -kUnbounded)
    out << (range.lo_open ? "> " : ">= ") << range.lo;
  return out.str();
}

// parse_value overloads: one per target kind, each returning "" or why the
// value was refused. Numbers must parse whole and fall in `range`.

template <typename Number>
std::string parse_value(const std::string& text, Number& out,
                        const Range& range) {
  if (!parse_number(text, out)) {
    if constexpr (std::is_floating_point_v<Number>)
      return "not a finite number";
    if constexpr (std::is_unsigned_v<Number>)
      return "not a non-negative integer";
    return "not an integer";
  }
  const auto v = static_cast<double>(out);
  if (v < range.lo || (range.lo_open && v == range.lo) || v > range.hi)
    return "must be " + describe(range) + ", got";
  return "";
}

std::string parse_value(const std::string& text, bool& out, const Range&) {
  out = true;
  return text.empty() ? "" : "takes no value";
}

std::string parse_value(const std::string& text, std::string& out,
                        const Range&) {
  out = text;
  return "";
}

std::string parse_value(const std::string& text,
                        std::vector<ProtocolKind>& out, const Range&) {
  return parse_protocols(text, out) ? "" : "unknown protocol";
}

std::string parse_value(const std::string& text, ProtocolKind& out,
                        const Range& range) {
  std::vector<ProtocolKind> kinds;
  if (std::string why = parse_value(text, kinds, range); !why.empty())
    return why;
  out = kinds.front();
  return kinds.size() == 1 ? "" : "must name one protocol, got";
}

template <typename Number>
std::string parse_value(const std::string& text, std::vector<Number>& out,
                        const Range& range) {
  out.assign(1 + std::count(text.begin(), text.end(), ','), Number{});
  std::size_t begin = 0;
  for (Number& item : out) {
    const std::size_t comma = text.find(',', begin);
    if (std::string why =
            parse_value(text.substr(begin, comma - begin), item, range);
        !why.empty())
      return why;
    begin = comma + 1;
  }
  return "";
}

// show overloads: a target's value as --help prints its default.

std::string show(bool) { return ""; }
std::string show(const std::string& value) { return value; }
std::string show(ProtocolKind kind) { return to_string(kind); }

/// parse_protocols yields one protocol or the paper's five ("all").
std::string show(const std::vector<ProtocolKind>& kinds) {
  return kinds.size() == 1 ? lower_name(kinds.front()) : "all";
}

template <typename Number>
std::string show(const Number& value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

template <typename Number>
std::string show(const std::vector<Number>& values) {
  std::string out;
  for (const Number& value : values)
    out += (out.empty() ? "" : ",") + show(value);
  return out;
}

}  // namespace

FlagTable::FlagTable(BenchOptions& opts) {
  add("--json PATH", opts.json_path, "write the run's RunReport as JSON");
  add("--trace PATH", opts.trace_path, "write a Chrome trace_event file");
  add("--seed N", opts.seed, "base seed for the bench's randomized choices");
  add("--wallclock", opts.wallclock, "also profile host wall-clock ns/op");
  add("--threads N", opts.threads, "worker threads, where the bench has them",
      at_least(1));
  add("--help", help_, "print this help and exit");
  shared_flags_ = flags_.size();
}

void FlagTable::add(std::string_view spec, FlagTarget target, std::string help,
                    Range range) {
  SGK_CHECK(find(name_of(spec)) == nullptr);
  Flag flag{std::string(spec), std::move(help),
            std::visit([](auto t) { return show(t.get()); }, target), target,
            range};
  std::string notes = flag.value.empty() ? "" : "default " + flag.value;
  if (const std::string bounds = describe(range); !bounds.empty())
    notes += (notes.empty() ? "" : ", ") + bounds;
  if (!notes.empty()) flag.help += " (" + notes + ")";
  // Keep the usage order: positional slots, the bench's own flags, then the
  // shared ones, each in declaration order.
  const auto at =
      is_named(spec)
          ? flags_.end() - static_cast<std::ptrdiff_t>(shared_flags_)
          : std::find_if(flags_.begin(), flags_.end(),
                         [](const Flag& f) { return is_named(f.spec); });
  flags_.insert(at, std::move(flag));
}

FlagTable::Flag* FlagTable::find(std::string_view name) {
  for (Flag& flag : flags_)
    if (name_of(flag.spec) == name) return &flag;
  return nullptr;
}

const FlagTable::Flag& FlagTable::declared(std::string_view name) const {
  const auto it =
      std::find_if(flags_.begin(), flags_.end(),
                   [&](const Flag& f) { return name_of(f.spec) == name; });
  SGK_CHECK(it != flags_.end());
  return *it;
}

bool FlagTable::given(std::string_view name) const {
  return declared(name).given;
}

std::optional<int> FlagTable::parse(int argc, const char* const* argv) {
  if (argc > 0) program_ = std::filesystem::path(argv[0]).filename().string();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool named = is_named(arg);
    const std::size_t eq = named ? arg.find('=') : std::string::npos;
    Flag* flag = nullptr;
    if (named) {
      flag = find(std::string_view(arg).substr(0, eq));
    } else {
      for (Flag& slot : flags_)
        if (!is_named(slot.spec) && !slot.given) {
          flag = &slot;
          break;
        }
    }
    if (flag == nullptr) return usage_error("unknown argument '" + arg + "'");

    const std::string name(name_of(flag->spec));
    std::string value;
    if (!named) {
      value = arg;
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (!std::holds_alternative<std::reference_wrapper<bool>>(
                   flag->target)) {
      if (i + 1 >= argc) return usage_error(name + ": missing value");
      value = argv[++i];
    }
    const std::string why = std::visit(
        [&](auto target) {
          return parse_value(value, target.get(), flag->range);
        },
        flag->target);
    if (!why.empty())
      return usage_error(name + ": " + why + " '" + value + "'");
    flag->given = true;
    flag->value = value;

    if (help_) {
      std::printf("%s\n\n", synopsis().c_str());
      for (const Flag& f : flags_) {
        std::string line = f.spec;
        line.resize(std::max<std::size_t>(line.size() + 2, 20), ' ');
        std::printf("  %s%s\n", line.c_str(), f.help.c_str());
      }
      return 0;
    }
  }
  return std::nullopt;
}

std::string FlagTable::synopsis() const {
  std::string out = "usage: " + program_;
  for (const Flag& flag : flags_) out += " [" + flag.spec + "]";
  return out;
}

int FlagTable::fail(std::string_view name, const std::string& why) const {
  const Flag& flag = declared(name);
  return usage_error(std::string(name) + ": " + why + " '" + flag.value + "'");
}

int FlagTable::usage_error(const std::string& message) const {
  std::fprintf(stderr, "error: %s\n%s\n", message.c_str(), synopsis().c_str());
  return 2;
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
