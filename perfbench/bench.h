// Shared harness pieces: the run context, per-operation failure
// accounting, the span recorder used by traced runs, and the statistics and
// registry readers the three workloads report through.
//
// Every layer is measured from outside: spans wrap the benchmark's own calls
// into each module's public functions, and counters come from the existing
// telemetry registry.  Nothing here adds instrumentation inside src/.

#ifndef TML_PERFBENCH_BENCH_H_
#define TML_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "support/status.h"
#include "telemetry/metrics.h"

namespace perfbench {

using tml::Result;
using tml::Status;

/// The reflect.optimize configuration of the E1 dynamic tier: the runtime
/// optimizer runs once per program, so it gets a more generous inlining
/// budget than the per-function compile-time pass (bench/bench_stanford.cc).
inline tml::ir::OptimizerOptions ReflectOptions() {
  tml::ir::OptimizerOptions o;
  o.expand.budget = 96;
  o.expand.always_inline_cost = 24;
  o.penalty_limit = 192;
  o.max_rounds = 24;
  return o;
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t t0) { return (NowNs() - t0) * 1e-9; }
inline double UsSince(uint64_t t0) { return (NowNs() - t0) * 1e-3; }

/// splitmix64: the workload generators' only source of randomness, so one
/// seed gives one input sequence.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t s_;
};

// ---- statistics -------------------------------------------------------------

/// Nearest-rank quantile (q in [0,1]); 0 for an empty sample.
inline double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}
inline double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }

inline double Geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

// ---- the run ---------------------------------------------------------------

/// Attempts and failures of one operation type.  A failed, refused or
/// wrong reply counts as a failure; the run never stops at the first one.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Pinned answers (perfbench/expected.txt): per program, the checksum of
/// `bench(n)` on each tier at the benchmark input and at the small input.
struct Expected {
  struct Row {
    int64_t bench_unopt = 0, bench_dynamic = 0;
    int64_t small_unopt = 0, small_dynamic = 0;
  };
  std::map<std::string, Row> rows;
  bool Load(const std::string& path, std::string* err);
};

/// Spans recorded around the benchmark's own calls into each layer (traced
/// runs only).  Aggregates by name on close; the raw spans, with their
/// parent, are kept and written as Chrome trace JSON at exit.
class Spans {
 public:
  bool on = false;

  struct Agg {
    uint64_t total_ns = 0;
    uint64_t count = 0;
    double mean_us() const { return count ? total_ns * 1e-3 / count : 0; }
  };

  /// Open a span; returns its id (0 when tracing is off).
  uint32_t Begin(const char* name);
  void End(uint32_t id);
  Agg Get(const std::string& name) const;
  Status WriteChrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns, end_ns;
    uint32_t parent;
    uint32_t tid;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_{Span{"", 0, 0, 0, 0}};  // id 0 = "no span"
  std::map<std::string, Agg> agg_;
};

/// RAII span: `Scope s(spans, "vm.codegen");`.
class Scope {
 public:
  Scope(Spans* spans, const char* name)
      : spans_(spans), id_(spans->on ? spans->Begin(name) : 0) {}
  ~Scope() {
    if (id_ != 0) spans_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  uint32_t id_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json).  Each
/// workload has a cheap and a costly operation class; README.md names them.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},      {"fast_p50_us", "us"},
    {"slow_p50_us", "us"},
};

/// The per-layer metrics of a traced run (BENCHMARK.json per_layer).
inline constexpr MetricDef kPerLayer[] = {
    {"frontend.compile_us", "us"},
    {"core.optimize_ms", "ms"},
    {"core.rewrite_fired", "count"},
    {"core.term_nodes_out", "count"},
    {"core.inlined", "count"},
    {"store.ptml_encode_us", "us"},
    {"store.append_us", "us"},
    {"store.ptml_decode_us", "us"},
    {"store.commit_ms", "ms"},
    {"store.open_ms", "ms"},
    {"store.write_bytes_per_live_byte", "ratio"},
    {"store.ptml_ratio", "ratio"},
    {"vm.codegen_us", "us"},
    {"vm.fuse_us", "us"},
    {"vm.serialize_us", "us"},
    {"vm.deserialize_us", "us"},
    {"vm.fused_slots", "count"},
    {"vm.ns_per_step_dynamic", "ns"},
    {"vm.steps_dynamic", "count"},
    {"vm.ns_per_step_unopt", "ns"},
    {"vm.steps_unopt", "count"},
    {"vm.heap_bytes_per_call", "bytes"},
    {"vm.e1_step_ratio", "ratio"},
    {"vm.step_time_share", "ratio"},
    {"runtime.call_overhead_us", "us"},
    {"runtime.reflect_term_ms", "ms"},
    {"runtime.load_modules_ms", "ms"},
    {"runtime.reflect_cache_hit_ratio", "ratio"},
    {"runtime.swizzle_faults", "count"},
    {"runtime.redrive_coverage", "ratio"},
    {"query.scan_ns_per_tuple", "ns"},
    {"query.relation_fault_in_us", "us"},
    {"server.codec_ns_per_frame", "ns"},
    {"server.ping_rtt_us", "us"},
    {"server.queue_wait_us_p50", "us"},
    {"server.cmd_us_p50.call", "us"},
    {"server.cmd_us_p50.query", "us"},
    {"server.cmd_us_p50.relstore", "us"},
    {"server.batch_frames_mean", "count"},
    {"adaptive.promotions_in_window", "count"},
    {"telemetry.flight_events_per_request", "count"},
    {"telemetry.trace_overhead", "ratio"},
    {"window.optimizer_runs", "count"},
    {"window.codegen_functions", "count"},
    {"window.ptml_decodes", "count"},
    {"window.server_requests", "count"},
};

/// Host-speed calibration.  On a shared machine the same code runs up to
/// 1.5-1.9x slower for seconds to minutes at a time, which no statistic of a
/// single run hides.  So the harness times a fixed reference kernel (a
/// switch-dispatched register machine: the same shape of work as the VM
/// loop, built into this harness and independent of src/) next to the work
/// it measures, never concurrently with it, and reports each timing scaled
/// to a host on which that kernel takes kReferenceUs:
///
///   calibrated = measured * (kReferenceUs / kernel time next to it)^kHostSensitivity
///
/// The kernel is timed before and after each call, iteration or 100 ms of
/// requests, and a timing is paired with the geometric mean of the two
/// samples around it.  Pairing each timing with its own neighbourhood
/// follows the host's speed changes as they happen.  The raw figures are
/// printed as detail lines.
inline constexpr double kReferenceUs = 2000;

/// How much more the measured work slows than the kernel, in log terms.  On
/// the shared 4-vCPU VM the figures were taken on, regressing the log of
/// each Stanford call time on the log of the kernel time next to it gave a
/// slope of 1.45-1.5 (correlation 0.74-0.77, two 3-minute runs): the
/// interpreter loses more to a busy neighbour than the small kernel does.
/// Over 30 s windows of a period when the host drifted, the median call
/// time spread 0.4 raw, 0.15-0.20 scaled with exponent 1 and 0.03-0.09
/// with 1.5; in a calm period every exponent gave 0.02-0.04.
inline constexpr double kHostSensitivity = 1.5;

inline double Calibrate(double us, double ref_us) {
  return us * std::pow(kReferenceUs / ref_us, kHostSensitivity);
}

/// Time one run of the reference kernel, in microseconds.
double ReferenceKernelUs();

struct Ctx {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test hook: skew the first expected answer so a correct reply is judged
  /// wrong; the run must then report it as a failed operation.
  bool inject_wrong = false;
  std::string workdir;  ///< scratch for store files and sockets
  Expected expected;
  Spans spans;
  /// Every reference kernel time of the run (for the detail line).
  std::vector<double> ref_us;

  /// Time the reference kernel once and record it.
  double SampleRef() {
    ref_us.push_back(ReferenceKernelUs());
    return ref_us.back();
  }

  /// Added to one expected answer, once, when inject_wrong is set.
  int64_t Skew() {
    if (!inject_wrong || skewed_) return 0;
    skewed_ = true;
    return 1;
  }

 private:
  bool skewed_ = false;
};

/// What a workload hands back to main.
struct Outcome {
  std::map<std::string, OpCount> ops;
  /// The first few failure reasons (the counts in `ops` carry the rest).
  std::vector<std::string> failure_notes;
  /// Untraced runs fill `e2e`, traced runs `layers`; main prints every
  /// name of kEndToEnd / kPerLayer, with 0 for a layer this workload never
  /// enters.
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::vector<Metric> detail;  ///< printed, not part of the result object

  /// Count one failed `op` (its attempt is counted by the caller).
  void Fail(const std::string& op, const std::string& why);
  /// A check that is not a request (E1/E2 shape, cache-hit identity):
  /// one attempt of op "check", failed unless `ok`.
  void Check(bool ok, const std::string& what) {
    ops["check"].attempted++;
    if (!ok) Fail("check", what);
  }
};

// ---- registry readers --------------------------------------------------------

/// Sum of every counter whose full name is `name` or `name{...}`.
uint64_t CounterSum(const std::vector<tml::telemetry::MetricSample>& snap,
                    const std::string& name);

/// A histogram's observations between two snapshots.
struct HistDelta {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<std::pair<int, uint64_t>> buckets;
  double Quantile(double q) const;
  double Mean() const { return count ? static_cast<double>(sum) / count : 0; }
};
HistDelta HistogramDelta(const std::vector<tml::telemetry::MetricSample>& before,
                         const std::vector<tml::telemetry::MetricSample>& after,
                         const std::string& full_name);

inline std::vector<tml::telemetry::MetricSample> RegistrySnapshot() {
  return tml::telemetry::Registry::Global().Snapshot();
}

/// Set-up: `n` runs of `fn` (which returns seconds), each calibrated by the
/// reference kernel timed around it.  Returns the calibrated median and
/// pushes the raw one as the detail raw.setup_s.
template <typename Fn>
double SetupMedian(Ctx* ctx, Outcome* out, int n, Fn fn) {
  std::vector<double> raw, cal;
  double before = ctx->SampleRef();
  for (int i = 0; i < n; ++i) {
    double s = fn(i);
    double after = ctx->SampleRef();
    raw.push_back(s);
    cal.push_back(Calibrate(s, std::sqrt(before * after)));
    before = after;
  }
  out->detail.push_back({"raw.setup_s", Median(raw), "s"});
  return Median(cal);
}

/// Print `what` to stderr and end the process with status 1, without a
/// result line: set-up could not complete, so nothing was measured.
[[noreturn]] void Fatal(const std::string& what);

/// Registry counters that show which layers ran inside a measured window
/// (the bypass checks: a workload that should not reach a layer reads 0).
void WindowCounters(const std::vector<tml::telemetry::MetricSample>& before,
                    const std::vector<tml::telemetry::MetricSample>& after,
                    std::map<std::string, double>* layers);

// ---- workloads ---------------------------------------------------------------

Outcome RunStanfordExec(Ctx* ctx);
Outcome RunReflectPipeline(Ctx* ctx);
Outcome RunTycdMixed(Ctx* ctx);

/// Recompute the pinned answers from the unopt, static, dynamic and direct
/// configurations, cross-check them and the Towers/Queens golden values,
/// and print the expected file to stdout.  Returns false on disagreement.
bool PinExpected();

}  // namespace perfbench

#endif  // TML_PERFBENCH_BENCH_H_
