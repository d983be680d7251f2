// p2pex_perfbench: runs one benchmark workload through the public
// scenario::Driver / System API and prints one JSON line.
//
//   p2pex_perfbench scn   --workload W --sim-seed S
//   p2pex_perfbench sim   --workload W --sim-seed S [--slices N]
//                         [--threads T] [--dump-metrics PATH]
//   p2pex_perfbench trace --workload W --sim-seed S --trace-out PATH
//                         [--slices N] [--probe-seed P]
//
// `scn` prints the workload's .scn text. `sim` times set-up (Spec parse
// plus Driver/System construction, kSetups times), then the simulated
// horizon in N equal simulated-time slices (Driver::run_to, then run()
// to finalize; N = 0 runs a single run()), checks the outputs and
// reports the FNV-1a digest of the deterministic metrics JSON. `trace`
// runs the workload untraced and then traced, probes the layers, writes
// the Chrome trace and reports the run's counters and probe results.
//
// perfbench/run.py drives this binary; it compares digests against the
// recorded references, aggregates runs and computes the per-layer
// metrics (self times from the raw trace events).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "p2pex/p2pex.h"
#include "probes.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using p2pex::scenario::Driver;

/// Set-ups timed per `sim` process; setup_s is their median.
constexpr std::size_t kSetups = 11;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t sim_seed = 1;
  std::size_t slices = 200;
  std::size_t threads = 0;  // 0 = the workload's own
  std::string dump_metrics;
  std::string trace_out;
  std::uint64_t probe_seed = 1;
};

Options parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Options o;
  o.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--sim-seed") o.sim_seed = std::stoull(value());
    else if (a == "--slices") o.slices = std::stoul(value());
    else if (a == "--threads") o.threads = std::stoul(value());
    else if (a == "--dump-metrics") o.dump_metrics = value();
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--probe-seed") o.probe_seed = std::stoull(value());
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("missing --workload");
  return o;
}

std::string fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Peak resident set size of this process, from /proc (0 if absent).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Builds the workload's Driver (the timed set-up).
std::unique_ptr<Driver> set_up(const perfbench::Workload& w,
                               const Options& o) {
  p2pex::scenario::Spec spec = p2pex::scenario::Spec::parse_text(
      perfbench::scenario_text(w, o.sim_seed), w.name);
  if (o.threads != 0) {
    spec.config.threads = o.threads;
    spec.validate();
  }
  return std::make_unique<Driver>(std::move(spec));
}

std::size_t expected_threads(const perfbench::Workload& w, const Options& o) {
  return o.threads != 0 ? o.threads : w.threads;
}

/// Runs the horizon in `slices` equal simulated-time slices, appending
/// each slice's host milliseconds to `slice_ms` (when given). Returns
/// host seconds for the whole horizon including finalization. The
/// bench.* spans record only while a TraceRecorder is installed.
double run_sliced(Driver& d, std::size_t slices,
                  std::vector<double>* slice_ms) {
  const auto t0 = Clock::now();
  const double horizon = d.system().config().sim_duration;
  for (std::size_t i = 1; i <= slices; ++i) {
    const auto s = Clock::now();
    {
      const p2pex::obs::ScopedSpan span("bench.slice", "bench");
      // The last slice lands exactly on the horizon.
      d.run_to(i == slices ? horizon
                           : horizon * static_cast<double>(i) /
                                 static_cast<double>(slices));
    }
    if (slice_ms != nullptr)
      slice_ms->push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - s)
              .count());
  }
  {
    const p2pex::obs::ScopedSpan span("bench.finalize", "bench");
    d.run();
  }
  return seconds_since(t0);
}

/// Output checks other than the reference digest: engine invariants,
/// the pinned thread count and, where the workload asks, the paper's
/// sharing/non-sharing ordering. Returns an empty string on success.
std::string check_outputs(const Driver& d, const perfbench::Workload& w,
                          const Options& o) {
  const p2pex::System& sys = d.system();
  try {
    sys.check_invariants();
  } catch (const std::exception& e) {
    return std::string("check_invariants: ") + e.what();
  }
  const p2pex::obs::Counter* threads =
      sys.metrics_registry().find_counter("exec.threads");
  if (threads == nullptr || threads->value() != expected_threads(w, o))
    return "exec.threads differs from the workload's thread count";
  if (w.check_ratio && !(sys.metrics().download_time_ratio() > 1.0))
    return "download_time_ratio <= 1: sharers do not wait less";
  return {};
}

std::string deterministic_json(const Driver& d) {
  return d.system().metrics_registry().to_json(/*include_timing=*/false);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  f << content;
  if (!f) throw std::runtime_error("cannot write " + path);
}

int run_sim(const perfbench::Workload& w, const Options& o) {
  std::vector<double> setup_s;
  auto t0 = Clock::now();
  std::unique_ptr<Driver> d = set_up(w, o);
  setup_s.push_back(seconds_since(t0));

  std::vector<double> slice_ms;
  double run_s = 0.0;
  std::string error;
  std::string digest;
  try {
    if (o.slices == 0) {
      t0 = Clock::now();
      d->run();
      run_s = seconds_since(t0);
    } else {
      run_s = run_sliced(*d, o.slices, &slice_ms);
    }
    const std::string metrics = deterministic_json(*d);
    digest = fnv1a64(metrics);
    if (!o.dump_metrics.empty()) write_file(o.dump_metrics, metrics);
    error = check_outputs(*d, w, o);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double rss_mb = peak_rss_mb();
  d.reset();
  for (std::size_t i = 1; i < kSetups; ++i) {
    t0 = Clock::now();
    d = set_up(w, o);
    setup_s.push_back(seconds_since(t0));
    d.reset();
  }

  std::ostringstream out;
  const auto array = [&](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) s += ',';
      s += json_number(v[i]);
    }
    return s + "]";
  };
  out << "{\"workload\": " << json_string(w.name)
      << ", \"sim_seed\": " << o.sim_seed
      << ", \"setup_s\": " << array(setup_s)
      << ", \"run_s\": " << json_number(run_s)
      << ", \"slice_ms\": " << array(slice_ms)
      << ", \"peak_rss_mb\": " << json_number(rss_mb)
      << ", \"digest\": " << json_string(digest)
      << ", \"error\": " << json_string(error) << "}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// Accumulates a flat JSON object of named numbers.
class JsonFields {
 public:
  void add(const std::string& name, double value) {
    body_ += (body_.empty() ? "" : ", ") + json_string(name) + ": " +
             json_number(value);
  }
  void add(const std::string& name, std::uint64_t value) {
    body_ += (body_.empty() ? "" : ", ") + json_string(name) + ": " +
             std::to_string(value);
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int run_trace(const perfbench::Workload& w, const Options& o) {
  if (o.trace_out.empty()) throw std::invalid_argument("missing --trace-out");
  if (o.slices == 0) throw std::invalid_argument("trace needs --slices >= 1");

  // Untraced twin: the same spec run the same way, so the same outputs.
  // It is the baseline for the tracing overhead, and the probes run on
  // it: graph_snapshot() is const but patches its cache and counts the
  // patch in deterministic counters, so probing the measured System
  // would change the outputs being checked.
  std::unique_ptr<Driver> twin = set_up(w, o);
  const double untraced_run_s = run_sliced(*twin, o.slices, nullptr);
  const std::string twin_digest = fnv1a64(deterministic_json(*twin));
  // Bring the twin's snapshot up to date before tracing starts, so the
  // trace holds no snapshot span of the probe's making. From here on the
  // probes must leave the twin's outputs as they are.
  static_cast<void>(twin->system().graph_snapshot());
  const std::string before_probes = fnv1a64(deterministic_json(*twin));

  std::unique_ptr<Driver> d = set_up(w, o);
  // Sized so no event is overwritten: self times need every event.
  p2pex::obs::TraceRecorder rec(std::size_t{1} << 25);
  rec.install();
  const double traced_run_s = run_sliced(*d, o.slices, nullptr);
  const std::string digest = fnv1a64(deterministic_json(*d));
  perfbench::FinderProbe finder;
  perfbench::DiscoveryProbe disc;
  {
    const p2pex::obs::ScopedSpan span("bench.probe.finder", "bench");
    finder = perfbench::probe_finder(twin->system());
  }
  {
    const p2pex::obs::ScopedSpan span("bench.probe.discovery", "bench");
    disc = perfbench::probe_discovery(twin->system(), o.probe_seed);
  }
  rec.uninstall();
  const std::string after_probes = fnv1a64(deterministic_json(*twin));

  std::string error = check_outputs(*d, w, o);
  if (error.empty() && digest != twin_digest)
    error = "traced digest differs from the untraced run";
  if (error.empty() && after_probes != before_probes)
    error = "the probes changed the probed System's outputs";
  if (error.empty() && rec.events_dropped() != 0)
    error = "trace ring overflow: events dropped";
  write_file(o.trace_out, rec.to_chrome_json());

  const p2pex::System& sys = d->system();
  const p2pex::SystemCounters& c = sys.counters();
  const p2pex::FinderStats& f = sys.finder_stats();
  const p2pex::SpeculationStats& sp = sys.speculation_stats();
  const p2pex::MemoryFootprint mem = sys.memory_footprint();
  JsonFields run;
  run.add("snapshot_patches", c.snapshot_patches);
  run.add("dirty_rows_patched", c.dirty_rows_patched);
  run.add("snapshot_rebuilds", c.snapshot_rebuilds);
  run.add("ring_attempts", c.ring_attempts);
  run.add("rings_formed", c.rings_formed);
  run.add("searches", f.searches);
  run.add("nodes_visited", f.nodes_visited);
  run.add("speculated", sp.speculated);
  run.add("consumed", sp.consumed);
  run.add("requests_issued", c.requests_issued);
  run.add("lookup_failures", c.lookup_failures);
  run.add("dht_hops", c.dht_hops);
  run.add("lookup_wire_bytes", c.lookup_wire_bytes);
  run.add("gossip_rounds", c.gossip_rounds);
  run.add("lookup_misses", c.lookup_misses);
  run.add("stale_entries_served", c.stale_entries_served);
  run.add("actions_applied", std::uint64_t{d->actions_applied()});
  run.add("sessions_failed", c.sessions_failed);
  run.add("transfer_retries", c.transfer_retries);
  run.add("retry_exhausted", c.retry_exhausted);
  run.add("stale_proposals", c.stale_proposals);
  run.add("graph_bytes", std::uint64_t{mem.graph_bytes});
  run.add("download_bytes", std::uint64_t{mem.download_bytes});
  run.add("total_bytes", std::uint64_t{mem.total()});
  run.add("untraced_run_s", untraced_run_s);
  run.add("traced_run_s", traced_run_s);
  JsonFields probes;
  probes.add("finder_searches", finder.searches);
  probes.add("finder_us_per_search", finder.us_per_search);
  probes.add("queries", disc.queries);
  probes.add("query_us", disc.query_us);
  probes.add("ticks", disc.ticks);
  probes.add("tick_us", disc.tick_us);

  std::printf(
      "{\"workload\": %s, \"sim_seed\": %llu, \"digest\": %s, "
      "\"probe_digests\": [%s, %s], \"error\": %s, \"run\": %s, "
      "\"probes\": %s}\n",
      json_string(w.name).c_str(),
      static_cast<unsigned long long>(o.sim_seed), json_string(digest).c_str(),
      json_string(before_probes).c_str(), json_string(after_probes).c_str(),
      json_string(error).c_str(), run.json().c_str(), probes.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The System reads P2PEX_THREADS whenever a spec says `threads 1`; the
  // benchmark pins each workload's thread count, so the variable must
  // not leak in.
  unsetenv("P2PEX_THREADS");
  try {
    const Options o = parse_args(argc, argv);
    const perfbench::Workload& w = perfbench::find_workload(o.workload);
    if (o.mode == "scn") {
      std::printf("%s", perfbench::scenario_text(w, o.sim_seed).c_str());
      return 0;
    }
    if (o.mode == "sim") return run_sim(w, o);
    if (o.mode == "trace") return run_trace(w, o);
    throw std::invalid_argument("unknown mode " + o.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2pex_perfbench: %s\n", e.what());
    return 2;
  }
}
