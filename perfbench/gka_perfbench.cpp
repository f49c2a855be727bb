// Repository benchmark: how fast the reproduction itself runs on the host
// (not the paper's virtual time), per workload, with the outputs checked as
// it goes.
//
//   gka_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--setup-only] [--print-digest]
//
// Workloads (perfbench/README.md has the why of each and the predictions):
//   paper_lan_sweep    Fig. 11 then Fig. 12 on the 13-machine LAN: every
//                      protocol plus membership-only, DH-512 and DH-1024,
//                      joins 2..24 then leaves back to 2.
//   large_group_build  one DH-512 group per protocol grown by joins to
//                      n = 48, then 8 middle leaves.
//   server_churn       a sequence of GroupServer runs (4-member groups,
//                      seeded churn, 5% wire faults, up to 4 threads but
//                      one fewer than the CPUs).
//
// A run repeats whole passes over the workload until --seconds have been
// measured. Every pass is the same function of --seed, so a pass's virtual
// outputs must repeat bit for bit; the digest of each event is compared
// against the first pass and, when perfbench/digests.txt lists the seed,
// against the recorded one.
//
// All host timing is taken from outside the library: around the public
// calls made here, and, with --trace 1, through the library's own
// obs::WallProfiler installed for the measured calls only.
//
// --trace 0 prints the end-to-end metrics. A measured call costs the CPU
// time the process spent in it (all threads: on a shared host the cores a
// multi-threaded server run gets vary, which wall time would report as
// noise). That cost is rescaled by a host-speed probe (an 8x8-limb
// schoolbook multiply owned by this file, run before every event or server
// run) to the reference probe time kRefProbeNs: ref = cpu * kRefProbeNs /
// probe.
//
// --trace 1 alternates an untraced pass (exact work counts from public
// accessors) with a traced pass (per-site sum/count from the profiler),
// requires the traced counts to equal the exact ones, and prints the
// per-layer self-time rollup. server_churn's traced pass runs on one
// thread, because the profiler slot is thread_local.
//
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every check passed.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "obs/wallclock.h"
#include "server/server.h"

namespace {

using sgk::DhBits;
using sgk::EventResult;
using sgk::Experiment;
using sgk::ExperimentConfig;
using sgk::LeavePolicy;
using sgk::OpCounters;
using sgk::ProtocolKind;
using sgk::SecureGroupMember;

// ---------------------------------------------------------------------------
// Seeds and digests

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Input seed of the `index`-th unit (series or server run) of a pass.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  return mix64(mix64(seed) ^ (index + 1)) % 1000000007ULL + 1;
}

std::array<std::uint64_t, 12> fields(const OpCounters& c) {
  return {c.exp_full,   c.exp_small,  c.mod_inverse, c.mod_mul,
          c.sign_ops,   c.verify_ops, c.hash_ops,    c.drbg_bytes,
          c.multicasts, c.unicasts,   c.ordered_sends, c.bytes_sent};
}

/// FNV-1a over the virtual outputs of one event.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  void add(const OpCounters& c) {
    for (std::uint64_t v : fields(c)) add(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Host-speed probe. Frozen: kRefProbeNs was measured with exactly this
// kernel, so changing it (or its round count) invalidates every ref_ metric.

constexpr int kProbeRounds = 512;
/// Probe time of the reference host (4-core 2.0 GHz Xeon VM, Release build).
constexpr double kRefProbeNs = 40000.0;
volatile std::uint64_t g_probe_sink = 0;

/// One probe sample: host ns for kProbeRounds 8x8-limb products.
double probe_ns() {
  std::uint64_t a[8];
  std::uint64_t b[8];
  std::uint64_t s = g_probe_sink;
  for (int i = 0; i < 8; ++i) {
    a[i] = mix64(s + static_cast<std::uint64_t>(i));
    b[i] = mix64(s + static_cast<std::uint64_t>(i) + 8) | 1;
  }
  const std::uint64_t t0 = sgk::obs::wall_now_ns();
  for (int r = 0; r < kProbeRounds; ++r) {
    std::uint64_t t[16] = {};
    for (int i = 0; i < 8; ++i) {
      std::uint64_t carry = 0;
      for (int j = 0; j < 8; ++j) {
        const unsigned __int128 p =
            static_cast<unsigned __int128>(a[i]) * b[j] + t[i + j] + carry;
        t[i + j] = static_cast<std::uint64_t>(p);
        carry = static_cast<std::uint64_t>(p >> 64);
      }
      t[i + 8] = carry;
    }
    for (int i = 0; i < 8; ++i) a[i] = t[i] ^ t[i + 8];
    a[0] |= 1;
  }
  const std::uint64_t t1 = sgk::obs::wall_now_ns();
  g_probe_sink = a[0] ^ a[7];
  return static_cast<double>(t1 - t0);
}

/// CPU time of the whole process (every thread), in ns.
double process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Small statistics helpers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Workloads

struct Series {
  ProtocolKind protocol;
  DhBits bits;
  std::uint64_t seed;
  std::size_t peak;    // joins take the group from 2 members to `peak`
  std::size_t leaves;  // then this many leaves
  LeavePolicy leave_policy;
};

/// Largest group of paper_lan_sweep on the 13-machine LAN: past 13 members,
/// machines host two members and CPU contention enters (the paper's Fig. 11
/// regime change), while a pass stays a few seconds long.
constexpr std::size_t kLanPeak = 24;
/// large_group_build: grown to this size, then kLargeLeaves middle leaves.
constexpr std::size_t kLargePeak = 48;
constexpr std::size_t kLargeLeaves = 8;
/// server_churn: one pass is kServerRuns runs of this shape.
constexpr int kServerRuns = 12;
constexpr std::size_t kServerGroups = 20;
constexpr std::size_t kServerMembers = 4;
constexpr int kServerChurn = 4;
constexpr double kServerFaultRate = 0.05;

std::vector<Series> plan_series(const std::string& workload,
                                std::uint64_t seed) {
  std::vector<Series> out;
  if (workload == "paper_lan_sweep") {
    for (DhBits bits : {DhBits::k512, DhBits::k1024}) {
      for (ProtocolKind p : {ProtocolKind::kBd, ProtocolKind::kCkd,
                             ProtocolKind::kGdh, ProtocolKind::kStr,
                             ProtocolKind::kTgdh, ProtocolKind::kNone}) {
        // Section 6.1.2: STR loses its middle member, the others a random
        // one.
        const LeavePolicy policy =
            p == ProtocolKind::kStr ? LeavePolicy::kMiddle : LeavePolicy::kRandom;
        out.push_back({p, bits, derive_seed(seed, out.size()), kLanPeak,
                       kLanPeak - 2, policy});
      }
    }
  } else if (workload == "large_group_build") {
    for (ProtocolKind p : {ProtocolKind::kBd, ProtocolKind::kStr,
                           ProtocolKind::kTgdh, ProtocolKind::kGdh,
                           ProtocolKind::kCkd}) {
      out.push_back({p, DhBits::k512, derive_seed(seed, out.size()),
                     kLargePeak, kLargeLeaves, LeavePolicy::kMiddle});
    }
  }
  return out;
}

sgk::server::ServerConfig server_config(std::uint64_t seed, int run,
                                        int threads) {
  sgk::server::ServerConfig cfg;
  cfg.groups = kServerGroups;
  cfg.members_per_group = kServerMembers;
  cfg.machines_per_group = 4;
  cfg.churn_events = kServerChurn;
  cfg.threads = threads;
  cfg.seed = derive_seed(seed, 1000 + static_cast<std::uint64_t>(run));
  cfg.rates = sgk::fault::FaultRates::uniform(kServerFaultRate);
  return cfg;
}

// ---------------------------------------------------------------------------
// One pass

/// Exact work counts of one pass, from public accessors.
struct Counts {
  OpCounters ops;  // summed EventResult::total (Experiment workloads)
  std::uint64_t events = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t messages_stamped = 0;
  std::uint64_t restarts = 0;
  std::uint64_t stale_dropped = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t epochs = 0;
  std::uint64_t groups_hosted = 0;
  std::uint64_t groups_converged = 0;

  bool operator==(const Counts& o) const {
    return fields(ops) == fields(o.ops) && events == o.events &&
           sim_events == o.sim_events && messages_stamped == o.messages_stamped &&
           restarts == o.restarts && stale_dropped == o.stale_dropped &&
           frames_rejected == o.frames_rejected && recoveries == o.recoveries &&
           epochs == o.epochs && groups_hosted == o.groups_hosted &&
           groups_converged == o.groups_converged;
  }
};

/// One timed unit: a membership event, or a whole server run.
struct Sample {
  double wall_ns = 0;
  double cpu_ns = 0;  // process CPU time, all threads
  double probe_ns = 0;
  std::uint64_t events = 0;
};

struct PassResult {
  std::vector<Sample> samples;
  std::vector<std::uint64_t> digests;  // one per sample
  std::vector<std::string> canonical;  // server runs: ServerResult JSON
  Counts counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

struct PassOptions {
  int threads = 1;
  sgk::obs::WallProfiler* profiler = nullptr;  // installed around each unit
};

class ProfilerSlot {
 public:
  explicit ProfilerSlot(sgk::obs::WallProfiler* p) {
    if (p != nullptr) sgk::obs::set_wall_profiler(p);
  }
  ~ProfilerSlot() { sgk::obs::set_wall_profiler(nullptr); }
  ProfilerSlot(const ProfilerSlot&) = delete;
  ProfilerSlot& operator=(const ProfilerSlot&) = delete;
};

/// Per-member stats the Experiment does not sum for us.
struct MemberStats {
  std::uint64_t restarts = 0, stale = 0, rejected = 0, recoveries = 0;
};

std::map<sgk::ProcessId, MemberStats> member_stats(const Experiment& exp) {
  std::map<sgk::ProcessId, MemberStats> out;
  for (const SecureGroupMember* m : exp.members())
    out[m->id()] = {m->agreement_restarts(), m->stale_dropped(),
                    m->frames_rejected(), m->recoveries()};
  return out;
}

/// Every member holds the same key at the same epoch. Returns "" or why not.
std::string key_agreement_error(const Experiment& exp) {
  const auto members = exp.members();
  if (members.empty()) return "no members";
  const SecureGroupMember& first = *members.front();
  if (!first.has_key()) return "member " + std::to_string(first.id()) + " has no key";
  const std::string fp = first.key_fingerprint();
  for (const SecureGroupMember* m : members) {
    if (!m->has_key()) return "member " + std::to_string(m->id()) + " has no key";
    if (m->key_epoch() != first.key_epoch())
      return "key epochs differ: " + std::to_string(m->key_epoch()) + " vs " +
             std::to_string(first.key_epoch());
    if (m->key_fingerprint() != fp) return "key fingerprints differ";
  }
  return "";
}

/// Runs one series; appends its samples, digests and counts to `out`.
void run_series(const Series& s, const PassOptions& opt, PassResult& out) {
  const std::size_t planned = (s.peak - 1) + s.leaves;
  std::size_t done = 0;
  try {
    ExperimentConfig ec;
    ec.protocol = s.protocol;
    ec.dh_bits = s.bits;
    ec.seed = s.seed;
    Experiment exp(ec);
    exp.grow_to(1);
    for (std::size_t i = 0; i < planned; ++i) {
      const bool join = i + 2 <= s.peak;
      const std::size_t expect = join ? i + 2 : s.peak - (i - (s.peak - 1)) - 1;
      const auto before = member_stats(exp);
      const std::uint64_t executed0 = exp.simulator().executed();
      const std::uint64_t stamped0 = exp.network().messages_stamped();
      Sample sample;
      sample.probe_ns = probe_ns();
      sample.events = 1;
      EventResult r;
      {
        ProfilerSlot slot(opt.profiler);
        const double c0 = process_cpu_ns();
        const std::uint64_t t0 = sgk::obs::wall_now_ns();
        r = join ? exp.measure_join() : exp.measure_leave(s.leave_policy);
        sample.wall_ns = static_cast<double>(sgk::obs::wall_now_ns() - t0);
        sample.cpu_ns = process_cpu_ns() - c0;
      }
      ++done;
      ++out.attempted;
      std::string err;
      if (r.group_size != expect)
        err = "group size " + std::to_string(r.group_size) + ", expected " +
              std::to_string(expect);
      if (err.empty()) err = key_agreement_error(exp);
      Counts& c = out.counts;
      const std::uint64_t executed = exp.simulator().executed() - executed0;
      const std::uint64_t stamped = exp.network().messages_stamped() - stamped0;
      c.ops += r.total;
      ++c.events;
      c.sim_events += executed;
      c.messages_stamped += stamped;
      for (const auto& [id, now] : member_stats(exp)) {
        const auto it = before.find(id);
        const MemberStats was = it == before.end() ? MemberStats{} : it->second;
        c.restarts += now.restarts - was.restarts;
        c.stale_dropped += now.stale - was.stale;
        c.frames_rejected += now.rejected - was.rejected;
        c.recoveries += now.recoveries - was.recoveries;
      }
      Digest d;
      d.add(r.elapsed_ms);
      d.add(r.membership_ms);
      d.add(r.total);
      d.add(r.max_member);
      d.add(static_cast<std::uint64_t>(r.group_size));
      d.add(executed);
      d.add(stamped);
      for (const SecureGroupMember* m : exp.members()) d.add(m->key_epoch());
      out.samples.push_back(sample);
      out.digests.push_back(d.value());
      if (!err.empty()) {
        ++out.failed;
        out.errors.push_back(std::string(sgk::to_string(s.protocol)) + " event " +
                             std::to_string(i) + ": " + err);
      }
    }
  } catch (const std::exception& e) {
    // The deployment is unusable: the rest of the series fails too.
    out.errors.push_back(std::string(sgk::to_string(s.protocol)) + " event " +
                         std::to_string(done) + ": " + e.what());
    out.attempted += planned - done;
    out.failed += planned - done;
  }
}

void run_server(std::uint64_t seed, int run, const PassOptions& opt,
                PassResult& out) {
  const std::uint64_t planned = kServerGroups * kServerMembers;
  try {
    Sample sample;
    sample.probe_ns = probe_ns();
    sgk::server::ServerResult res;
    {
      ProfilerSlot slot(opt.profiler);
      const double c0 = process_cpu_ns();
      const std::uint64_t t0 = sgk::obs::wall_now_ns();
      sgk::server::GroupServer server(server_config(seed, run, opt.threads));
      res = server.run();
      sample.wall_ns = static_cast<double>(sgk::obs::wall_now_ns() - t0);
      sample.cpu_ns = process_cpu_ns() - c0;
    }
    // An event is a member onboarding or an applied churn op.
    sample.events = planned + res.events_applied;
    std::string canonical = res.to_json(/*with_groups=*/true).dump();
    Digest d;
    d.add(canonical);
    out.samples.push_back(sample);
    out.digests.push_back(d.value());
    out.canonical.push_back(std::move(canonical));
    out.attempted += sample.events;
    Counts& c = out.counts;
    c.events += sample.events;
    c.epochs += res.epochs_executed;
    c.groups_hosted += res.groups_hosted;
    c.groups_converged += res.groups_converged;
    c.messages_stamped += res.shared_messages_stamped;
    for (const auto& g : res.groups) {
      c.restarts += g.restarts;
      c.stale_dropped += g.stale_dropped;
      c.frames_rejected += g.frames_rejected;
      c.recoveries += g.recoveries;
      if (!g.converged) {
        // Every event of a group that did not converge failed.
        out.failed += kServerMembers + g.events_applied;
        out.errors.push_back("run " + std::to_string(run) + " group " +
                             std::to_string(g.id) + " did not converge");
      }
    }
  } catch (const std::exception& e) {
    out.errors.push_back("run " + std::to_string(run) + ": " + e.what());
    out.attempted += planned;
    out.failed += planned;
  }
}

PassResult run_pass(const std::string& workload, std::uint64_t seed,
                    const PassOptions& opt) {
  PassResult out;
  if (workload == "server_churn") {
    for (int run = 0; run < kServerRuns; ++run) run_server(seed, run, opt, out);
  } else {
    for (const Series& s : plan_series(workload, seed)) run_series(s, opt, out);
  }
  return out;
}

/// Folds the digests of a pass into one value (the recorded digest).
std::uint64_t pass_digest(const PassResult& p) {
  Digest d;
  for (std::uint64_t v : p.digests) d.add(v);
  return d.value();
}

// ---------------------------------------------------------------------------
// Output checks shared by both modes

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  void absorb(const PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    if (p.failed > 0) correct = false;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
  }
  /// A check that is not tied to single events fails the whole pass (once;
  /// `p` must already be absorbed).
  void fail(PassResult& p, const std::string& why) {
    correct = false;
    failed += p.attempted - p.failed;
    p.failed = p.attempted;
    errors.push_back(why);
  }
};

/// Digest recorded in perfbench/digests.txt for (workload, seed), or 0.
std::uint64_t recorded_digest(const std::string& dir, const std::string& workload,
                              std::uint64_t seed) {
  std::ifstream in(dir + "/digests.txt");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string w;
    std::uint64_t s = 0;
    std::string hex;
    if (!(ls >> w >> s >> hex) || w != workload || s != seed) continue;
    return std::stoull(hex, nullptr, 16);
  }
  return 0;
}

/// Compares the first pass with the digest recorded for the seed, if any.
void check_recorded(const std::string& dir, const std::string& workload,
                    std::uint64_t seed, PassResult& p, Verdict& v) {
  const std::uint64_t want = recorded_digest(dir, workload, seed);
  if (want != 0 && want != pass_digest(p))
    v.fail(p, "virtual outputs differ from the digest recorded for seed " +
                  std::to_string(seed) + ": " + hex64(pass_digest(p)) +
                  " != " + hex64(want));
}

/// Compares a repeated pass (or the traced pass) with the first one.
void check_repeat(const PassResult& first, PassResult& again,
                  const std::string& what, Verdict& v) {
  if (again.digests != first.digests)
    v.fail(again, what + ": virtual outputs differ from the first pass");
}

// ---------------------------------------------------------------------------
// Metric output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Verdict& v, const std::vector<Metric>& metrics) {
  for (const std::string& e : v.errors) std::printf("FAIL %s\n", e.c_str());
  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics)
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              v.correct ? "true" : "false", v.attempted, v.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so it would report
/// the launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// CPU ns of every sample rescaled to the reference probe speed. Each
/// sample uses the median probe of its neighbourhood (4 samples either
/// side), so one preempted probe cannot skew an event.
std::vector<double> ref_ns(const std::vector<Sample>& samples) {
  constexpr std::size_t kHalfWindow = 4;
  std::vector<double> out;
  out.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::size_t lo = i >= kHalfWindow ? i - kHalfWindow : 0;
    const std::size_t hi = std::min(samples.size(), i + kHalfWindow + 1);
    std::vector<double> window;
    for (std::size_t j = lo; j < hi; ++j) window.push_back(samples[j].probe_ns);
    out.push_back(samples[i].cpu_ns * kRefProbeNs / quantile(window, 0.5));
  }
  return out;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics

int run_end_to_end(const std::string& workload, std::uint64_t seed,
                   double seconds, int threads, const std::string& dir) {
  Verdict v;
  PassOptions opt;
  opt.threads = threads;
  std::vector<PassResult> passes;
  double rss_mb = 0;
  const std::uint64_t t_start = sgk::obs::wall_now_ns();
  do {
    PassResult p = run_pass(workload, seed, opt);
    v.absorb(p);
    if (passes.empty()) {
      // Later passes reuse freed memory, so the peak is the first pass's.
      rss_mb = peak_rss_mb();
      check_recorded(dir, workload, seed, p, v);
    } else {
      check_repeat(passes.front(), p, "pass " + std::to_string(passes.size()), v);
    }
    passes.push_back(std::move(p));
  } while (static_cast<double>(sgk::obs::wall_now_ns() - t_start) < seconds * 1e9);

  // Every pass repeats the same events, so each event's time is the median
  // of its passes: a burst of host noise in one pass does not reach the
  // quantiles.
  std::vector<std::vector<double>> ref_by_pass;
  for (const PassResult& p : passes) ref_by_pass.push_back(ref_ns(p.samples));
  const std::vector<Sample>& units = passes.front().samples;
  double ref_total_ns = 0;
  double wall_total_ns = 0;
  std::uint64_t events = 0;
  std::vector<double> ref_ms_per_event;
  std::vector<double> wall_ms_per_event;
  std::vector<double> probes;
  for (std::size_t i = 0; i < units.size(); ++i) {
    std::vector<double> ref;
    std::vector<double> wall;
    for (std::size_t k = 0; k < passes.size(); ++k) {
      if (i >= passes[k].samples.size()) continue;  // a failed pass
      ref.push_back(ref_by_pass[k][i]);
      wall.push_back(passes[k].samples[i].wall_ns);
      probes.push_back(passes[k].samples[i].probe_ns);
    }
    const double n = static_cast<double>(units[i].events);
    ref_total_ns += quantile(ref, 0.5);
    wall_total_ns += quantile(wall, 0.5);
    events += units[i].events;
    ref_ms_per_event.push_back(quantile(ref, 0.5) / 1e6 / n);
    wall_ms_per_event.push_back(quantile(wall, 0.5) / 1e6 / n);
  }
  std::printf("workload %s seed %" PRIu64 ": %zu passes of %zu timed units, %"
              PRIu64 " events per pass, %.3f s measured; wall time on this "
              "host %.6g events/s, p50 %.6g ms, p95 %.6g ms; probe median "
              "%.0f ns (reference %.0f ns)\n",
              workload.c_str(), seed, passes.size(), units.size(), events,
              static_cast<double>(sgk::obs::wall_now_ns() - t_start) / 1e9,
              ratio(static_cast<double>(events), wall_total_ns / 1e9),
              quantile(wall_ms_per_event, 0.5), quantile(wall_ms_per_event, 0.95),
              quantile(probes, 0.5), kRefProbeNs);
  std::printf("fail_ratio %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              ratio(static_cast<double>(v.failed),
                    static_cast<double>(v.attempted)),
              v.failed, v.attempted);
  print_result(v, {
      {"ref_events_per_s", ratio(static_cast<double>(events), ref_total_ns / 1e9), "1/s"},
      {"ref_event_ms_p50", quantile(ref_ms_per_event, 0.50), "ms"},
      {"ref_event_ms_p95", quantile(ref_ms_per_event, 0.95), "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
  });
  return v.correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics

/// Traced site totals of one pass.
struct SiteTotals {
  std::map<std::string, std::pair<std::uint64_t, double>> sites;  // count, ns

  std::uint64_t count(const std::string& s) const {
    const auto it = sites.find(s);
    return it == sites.end() ? 0 : it->second.first;
  }
  double ns(const std::string& s) const {
    const auto it = sites.find(s);
    return it == sites.end() ? 0.0 : it->second.second;
  }
  /// Sum over every site whose name starts with `prefix`.
  std::pair<std::uint64_t, double> prefix(const std::string& p) const {
    std::pair<std::uint64_t, double> out{0, 0.0};
    for (const auto& [name, v] : sites) {
      if (name.rfind(p, 0) != 0) continue;
      out.first += v.first;
      out.second += v.second;
    }
    return out;
  }
};

/// The layer each profiler site belongs to, and the nesting: the event (or
/// server run) contains every site, server/run contains server/epoch,
/// server/epoch contains every member site, and serde/frame_encode
/// contains crypto/sign. A site's self time is its time minus its nested
/// children's.
const char* layer_of(const std::string& site) {
  if (site.rfind("bignum/", 0) == 0) return "bignum";
  if (site.rfind("crypto/", 0) == 0) return "crypto";
  if (site.rfind("decode/", 0) == 0) return "core";
  if (site.rfind("serde/", 0) == 0) return "gcs";
  if (site.rfind("server/", 0) == 0) return "server";
  return nullptr;  // event/* roots recorded by the harness itself
}

struct Rollup {
  double root_ns = 0;                    // outside-measured traced time
  std::map<std::string, double> site_self_ns;
  std::map<std::string, double> layer_self_ns;
  double uncovered_ns = 0;
};

Rollup rollup(const SiteTotals& t, double root_ns) {
  Rollup r;
  r.root_ns = root_ns;
  double covered = 0;
  for (const auto& [site, v] : t.sites) {
    const char* layer = layer_of(site);
    if (layer == nullptr) continue;
    double self = v.second;
    if (site == "serde/frame_encode") self -= t.ns("crypto/sign");
    if (site == "server/run") self = root_ns - t.ns("server/epoch");
    if (site == "server/epoch") continue;  // its self time is "uncovered"
    r.site_self_ns[site] = self;
    r.layer_self_ns[layer] += self;
    covered += self;
  }
  if (t.count("server/epoch") > 0) {
    // Member sites nest inside epochs; what remains of the epochs is the
    // hosts' own simulation and bookkeeping.
    r.uncovered_ns = t.ns("server/epoch");
    for (const auto& [site, self] : r.site_self_ns)
      if (site != "server/run") r.uncovered_ns -= self;
  } else {
    r.uncovered_ns = root_ns - covered;
  }
  return r;
}

int run_per_layer(const std::string& workload, std::uint64_t seed,
                  double seconds, int threads, const std::string& dir) {
  Verdict v;
  const bool server = workload == "server_churn";
  PassOptions untraced_opt;
  untraced_opt.threads = threads;
  PassOptions traced_opt;
  traced_opt.threads = 1;
  sgk::obs::WallProfiler profiler;
  traced_opt.profiler = &profiler;

  // On server_churn the traced pass runs on one thread, so the overhead is
  // taken against an untraced single-thread pass; elsewhere `plain` is one.
  PassOptions single_opt;
  single_opt.threads = 1;

  PassResult base;
  double untraced_ref_ns = 0;  // same thread count as the traced passes
  double traced_ref_ns = 0;
  double traced_wall_ns = 0;
  double untraced_wall_ns = 0;  // `threads` workers
  std::vector<double> untraced_event_ms;
  std::vector<double> probes;
  int pairs = 0;
  const std::uint64_t t_start = sgk::obs::wall_now_ns();
  do {
    PassResult plain = run_pass(workload, seed, untraced_opt);
    PassResult plain1 = server ? run_pass(workload, seed, single_opt) : PassResult{};
    PassResult traced = run_pass(workload, seed, traced_opt);
    v.absorb(plain);
    v.absorb(plain1);
    v.absorb(traced);
    if (pairs == 0) {
      check_recorded(dir, workload, seed, plain, v);
      base = plain;
    } else {
      check_repeat(base, plain, "untraced pass " + std::to_string(pairs), v);
    }
    check_repeat(base, traced, "traced pass " + std::to_string(pairs), v);
    if (!(traced.counts == base.counts) || !(plain.counts == base.counts))
      v.fail(traced, "exact work counts differ between passes");
    if (server) {
      check_repeat(base, plain1, "single-thread pass " + std::to_string(pairs), v);
      // Same bytes at `threads` workers untraced and 1 worker traced.
      if (plain.canonical != traced.canonical)
        v.fail(traced, "ServerResult JSON differs between " +
                           std::to_string(threads) + " threads and 1 thread");
    }
    for (double ns : ref_ns((server ? plain1 : plain).samples)) untraced_ref_ns += ns;
    for (double ns : ref_ns(traced.samples)) traced_ref_ns += ns;
    for (const Sample& x : plain.samples) {
      untraced_wall_ns += x.wall_ns;
      untraced_event_ms.push_back(x.wall_ns / 1e6 / static_cast<double>(x.events));
      probes.push_back(x.probe_ns);
    }
    for (const Sample& x : traced.samples) traced_wall_ns += x.wall_ns;
    ++pairs;
  } while (static_cast<double>(sgk::obs::wall_now_ns() - t_start) < seconds * 1e9);

  SiteTotals sites;
  for (const auto& [name, h] : profiler.sites())
    sites.sites[name] = {h.count(), h.sum()};
  const auto per_pass = [&](std::uint64_t c) {
    return static_cast<double>(c) / pairs;
  };

  // Traced site counts must equal the exact counts of the untraced passes.
  const Counts& c = base.counts;
  const auto expect = [&](const char* site, std::uint64_t exact) {
    const std::uint64_t traced = sites.count(site);
    if (traced != exact * static_cast<std::uint64_t>(pairs))
      v.fail(base, std::string("traced count of ") + site + " is " +
                       std::to_string(traced) + ", exact count is " +
                       std::to_string(exact * static_cast<std::uint64_t>(pairs)));
  };
  if (!server) {
    expect("crypto/sign", c.ops.sign_ops);
    expect("crypto/verify", c.ops.verify_ops);
    expect("bignum/modexp_full", c.ops.exp_full);
    expect("bignum/modexp_small", c.ops.exp_small);
    expect("bignum/modinv", c.ops.mod_inverse);
    expect("bignum/modmul", c.ops.mod_mul);
  } else {
    if (c.groups_converged != c.groups_hosted)
      v.fail(base, "groups converged " + std::to_string(c.groups_converged) +
                       " of " + std::to_string(c.groups_hosted));
    expect("server/run", kServerRuns);
  }
  if (sites.count("serde/frame_encode") != sites.count("crypto/sign"))
    v.fail(base, "serde/frame_encode and crypto/sign counts differ");

  const Rollup r = rollup(sites, traced_wall_ns);
  const double events = static_cast<double>(c.events);
  const auto mean_ns = [&](const std::string& site) {
    return ratio(sites.ns(site), static_cast<double>(sites.count(site)));
  };
  const auto share = [&](const std::string& layer) {
    const auto it = r.layer_self_ns.find(layer);
    return ratio(it == r.layer_self_ns.end() ? 0.0 : it->second, r.root_ns);
  };
  const auto decode = sites.prefix("decode/");
  const std::uint64_t signs = sites.count("crypto/sign");
  const std::uint64_t verifies = sites.count("crypto/verify");
  const std::uint64_t exps =
      sites.count("bignum/modexp_full") + sites.count("bignum/modexp_small");

  // The self-time table later changes cite: sites, then layers, then the
  // remainder; shares are of the traced time measured around the calls.
  std::printf("workload %s seed %" PRIu64 ": %d traced pass(es), %.0f events "
              "per pass, traced %.3f s\n",
              workload.c_str(), seed, pairs, events, r.root_ns / 1e9);
  std::printf("%-22s %12s %14s %12s %8s\n", "site", "calls", "self_ms",
              "self_ns/call", "share");
  std::string top_site;
  double top_self = -1;
  for (const auto& [site, self] : r.site_self_ns) {
    std::printf("%-22s %12" PRIu64 " %14.3f %12.0f %7.2f%%\n", site.c_str(),
                sites.count(site), self / 1e6,
                ratio(self, static_cast<double>(sites.count(site))),
                100.0 * ratio(self, r.root_ns));
    if (self > top_self) {
      top_self = self;
      top_site = site;
    }
  }
  std::printf("%-22s %12s %14.3f %12s %7.2f%%\n", "uncovered", "", r.uncovered_ns / 1e6,
              "", 100.0 * ratio(r.uncovered_ns, r.root_ns));
  double layer_sum = r.uncovered_ns;
  for (const auto& [layer, self] : r.layer_self_ns) {
    std::printf("layer %-16s %12s %14.3f %12s %7.2f%%\n", layer.c_str(), "",
                self / 1e6, "", 100.0 * ratio(self, r.root_ns));
    layer_sum += self;
  }
  std::printf("layers + uncovered = %.2f%% of traced time; largest site self "
              "share: %s\n",
              100.0 * ratio(layer_sum, r.root_ns), top_site.c_str());

  print_result(v, {
      {"bignum.modexp_full.calls", per_pass(sites.count("bignum/modexp_full")), "count"},
      {"bignum.modexp_full.ns", mean_ns("bignum/modexp_full"), "ns"},
      {"bignum.modexp_small.calls", per_pass(sites.count("bignum/modexp_small")), "count"},
      {"bignum.modexp_small.ns", mean_ns("bignum/modexp_small"), "ns"},
      {"bignum.modinv.calls", per_pass(sites.count("bignum/modinv")), "count"},
      {"bignum.modinv.ns", mean_ns("bignum/modinv"), "ns"},
      {"bignum.self_share", share("bignum"), "ratio"},
      {"crypto.sign.calls", per_pass(signs), "count"},
      {"crypto.sign.ns", mean_ns("crypto/sign"), "ns"},
      {"crypto.verify.calls", per_pass(verifies), "count"},
      {"crypto.verify.ns", mean_ns("crypto/verify"), "ns"},
      {"crypto.verify_per_sign", ratio(static_cast<double>(verifies),
                                       static_cast<double>(signs)), "ratio"},
      {"crypto.self_share", share("crypto"), "ratio"},
      {"core.decode.calls", per_pass(decode.first), "count"},
      {"core.decode.ns", ratio(decode.second, static_cast<double>(decode.first)), "ns"},
      {"core.restarts", static_cast<double>(c.restarts), "count"},
      {"core.exp_per_event", ratio(per_pass(exps), events), "ratio"},
      {"core.self_share", share("core"), "ratio"},
      {"gcs.frame_encode.self_ns",
       ratio(sites.ns("serde/frame_encode") - sites.ns("crypto/sign"),
             static_cast<double>(sites.count("serde/frame_encode"))), "ns"},
      {"gcs.frame_decode.ns", mean_ns("serde/frame_decode"), "ns"},
      {"gcs.messages_stamped", static_cast<double>(c.messages_stamped), "count"},
      {"gcs.bytes_sent", static_cast<double>(c.ops.bytes_sent), "bytes"},
      {"gcs.frames_rejected", static_cast<double>(c.frames_rejected), "count"},
      {"gcs.stale_dropped", static_cast<double>(c.stale_dropped), "count"},
      {"gcs.recoveries", static_cast<double>(c.recoveries), "count"},
      {"gcs.self_share", share("gcs"), "ratio"},
      {"sim.events", static_cast<double>(c.sim_events), "count"},
      {"uncovered.self_share", ratio(r.uncovered_ns, r.root_ns), "ratio"},
      {"uncovered.ns_per_sim_event",
       ratio(r.uncovered_ns / pairs, static_cast<double>(c.sim_events)), "ns"},
      {"server.epochs", static_cast<double>(c.epochs), "count"},
      {"server.groups_converged", static_cast<double>(c.groups_converged), "count"},
      {"server.self_share", share("server"), "ratio"},
      {"host.wall_s", untraced_wall_ns / pairs / 1e9, "s"},
      {"host.event_ms_p50", quantile(untraced_event_ms, 0.5), "ms"},
      {"host.probe_us", quantile(probes, 0.5) / 1e3, "us"},
      {"obs.trace_overhead", ratio(traced_ref_ns - untraced_ref_ns, untraced_ref_ns), "ratio"},
      {"obs.spans_dropped", static_cast<double>(profiler.spans_dropped()), "count"},
      {"fail_ratio", ratio(static_cast<double>(v.failed),
                           static_cast<double>(v.attempted)), "ratio"},
  });
  return v.correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --setup-only: process start to the first measured event

/// Loads the fixed DH groups and RSA keys every workload uses. Server runs
/// would otherwise load them lazily inside the first measured run.
void load_parameters() {
  (void)sgk::dh_group(DhBits::k512);
  (void)sgk::RsaPrivateKey::test_key(0);
}

/// Prints the set-up time: the process's CPU time so far (from exec, so the
/// loader and static initialisation count), raw and rescaled to the
/// reference probe speed like the ref_ metrics (the median of five probes
/// taken afterwards).
void report_setup() {
  const double raw_s = process_cpu_ns() / 1e9;
  std::vector<double> probes;
  for (int i = 0; i < 5; ++i) probes.push_back(probe_ns());
  std::printf("{\"setup_s\": %.17g, \"raw_setup_s\": %.17g}\n",
              raw_s * kRefProbeNs / quantile(probes, 0.5), raw_s);
}

int run_setup_only(const std::string& workload, std::uint64_t seed,
                   int threads) {
  load_parameters();
  if (workload == "server_churn") {
    sgk::server::GroupServer server(server_config(seed, 0, threads));
    report_setup();
    return 0;
  }
  const Series first = plan_series(workload, seed).front();
  ExperimentConfig ec;
  ec.protocol = first.protocol;
  ec.dh_bits = first.bits;
  ec.seed = first.seed;
  Experiment exp(ec);
  exp.grow_to(1);
  report_setup();
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: gka_perfbench --workload "
               "paper_lan_sweep|large_group_build|server_churn --seed N "
               "--seconds S --trace 0|1 [--setup-only] "
               "[--print-digest]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  // server_churn's worker threads: up to 4, leaving one CPU to the rest of
  // the host. With a worker on every CPU, any other runnable thread stalls
  // an epoch barrier: one busy neighbour thread cost 4 workers on 4 CPUs 20%
  // of their throughput, and 3 workers 6%.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int cpu_count =
      sched_getaffinity(0, sizeof cpus, &cpus) == 0
          ? CPU_COUNT(&cpus)
          : static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::clamp(cpu_count - 1, 1, 4);
  bool setup_only = false;
  bool print_digest = false;
  bool seed_set = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
        seed_set = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace = std::stoi(value());
      } else if (arg == "--setup-only") {
        setup_only = true;
      } else if (arg == "--print-digest") {
        print_digest = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (workload != "paper_lan_sweep" && workload != "large_group_build" &&
      workload != "server_churn")
    return usage("unknown or missing --workload");
  if (!seed_set) return usage("missing --seed");

  // Recorded digests live beside this binary's sources.
  const std::string dir = PERFBENCH_SOURCE_DIR;
  try {
    if (setup_only) return run_setup_only(workload, seed, threads);
    if (print_digest) {
      PassOptions opt;
      opt.threads = threads;
      const PassResult p = run_pass(workload, seed, opt);
      std::printf("%s %" PRIu64 " %s\n", workload.c_str(), seed,
                  hex64(pass_digest(p)).c_str());
      return p.failed == 0 ? 0 : 1;
    }
    if (seconds <= 0) return usage("missing or non-positive --seconds");
    load_parameters();
    if (trace == 0) return run_end_to_end(workload, seed, seconds, threads, dir);
    if (trace == 1) return run_per_layer(workload, seed, seconds, threads, dir);
    return usage("--trace must be 0 or 1");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
