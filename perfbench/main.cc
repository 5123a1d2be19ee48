// perfbench — the repository benchmark.
//
//   perfbench --workload <stanford-exec|reflect-pipeline|tycd-mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--expected <file>] [--workdir <dir>] [--inject-wrong 1]
//   perfbench --pin          (recompute perfbench/expected.txt on stdout)
//
// Runs one workload in this process, checks every answer, and prints one
// JSON object as the last line of stdout:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, and the spans go to <workdir>/trace-<workload>.json.
// Lines before the last one give the per-operation failure accounting and
// the workload's detail figures.

#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {
// Ids of the spans open on this thread, innermost last.
thread_local std::vector<uint32_t> t_open;
}  // namespace

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

bool Expected::Load(const std::string& path, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    Row r;
    if (!(ls >> name >> r.bench_unopt >> r.bench_dynamic >> r.small_unopt >>
          r.small_dynamic)) {
      *err = "malformed line in " + path + ": " + line;
      return false;
    }
    rows[name] = r;
  }
  if (rows.empty()) {
    *err = "no rows in " + path;
    return false;
  }
  return true;
}

uint32_t Spans::Begin(const char* name) {
  uint32_t tid = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
  uint32_t parent = t_open.empty() ? 0u : t_open.back();
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t id = static_cast<uint32_t>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0, parent, tid});
  t_open.push_back(id);
  return id;
}

void Spans::End(uint32_t id) {
  uint64_t now = NowNs();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[id];
  s.end_ns = now;
  Agg& a = agg_[s.name];
  a.total_ns += now - s.start_ns;
  a.count++;
}

Spans::Agg Spans::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = agg_.find(name);
  return it == agg_.end() ? Agg{} : it->second;
}

Status Spans::WriteChrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  uint64_t t0 = spans_.size() > 1 ? spans_[1].start_ns : 0;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%zu,\"parent\":%u}}",
                 i == 1 ? "" : ",", s.name, (s.start_ns - t0) * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, s.tid, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot write " + path);
}

namespace {

/// The reference kernel: a fixed program of 1024 random register-machine
/// instructions (arithmetic, loads and stores into a 16 KiB array, a data
/// dependent skip), run through a switch loop for kSteps dispatches.
uint64_t RunReferenceKernel() {
  struct Instr {
    uint8_t op, a, b, c;
  };
  constexpr size_t kProgram = 1024;
  constexpr uint64_t kSteps = 250'000;
  static const std::vector<Instr> program = [] {
    std::vector<Instr> p(kProgram);
    Rng rng(0x726566);
    for (Instr& in : p) {
      in = {static_cast<uint8_t>(rng.Below(6)), static_cast<uint8_t>(rng.Below(8)),
            static_cast<uint8_t>(rng.Below(8)), static_cast<uint8_t>(rng.Below(8))};
    }
    return p;
  }();
  static std::vector<uint64_t> mem(2048);
  uint64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  size_t pc = 0;
  for (uint64_t step = 0; step < kSteps; ++step) {
    const Instr& in = program[pc];
    pc = (pc + 1) % kProgram;
    switch (in.op) {
      case 0: r[in.a] = r[in.b] + r[in.c]; break;
      case 1: r[in.a] = r[in.b] ^ (r[in.c] << 1); break;
      case 2: r[in.a] = r[in.b] * 0x9e3779b97f4a7c15ull + in.c; break;
      case 3: r[in.a] = mem[r[in.b] % mem.size()]; break;
      case 4: mem[r[in.b] % mem.size()] = r[in.c]; break;
      default:
        if (r[in.b] & 1) pc = (pc + 1) % kProgram;
        break;
    }
  }
  return r[0] ^ r[7];
}

}  // namespace

double ReferenceKernelUs() {
  static volatile uint64_t sink = 0;
  uint64_t t0 = NowNs();
  sink = sink + RunReferenceKernel();
  return UsSince(t0);
}

void Outcome::Fail(const std::string& op, const std::string& why) {
  ops[op].failed++;
  // Keep the first few reasons; the counts carry the rest.
  if (failure_notes.size() < 8) failure_notes.push_back(op + ": " + why);
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  // Worker threads may still be running; end the process without
  // unwinding them.
  std::_Exit(1);
}

void WindowCounters(const std::vector<tml::telemetry::MetricSample>& before,
                    const std::vector<tml::telemetry::MetricSample>& after,
                    std::map<std::string, double>* layers) {
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterSum(after, name) -
                               CounterSum(before, name));
  };
  (*layers)["window.optimizer_runs"] = delta("tml.optimizer.runs");
  (*layers)["window.codegen_functions"] = delta("tml.codegen.functions");
  (*layers)["window.ptml_decodes"] = delta("tml.ptml.decode_ops");
  (*layers)["window.server_requests"] = delta("tml.server.requests");
  (*layers)["runtime.swizzle_faults"] = delta("tml.vm.swizzle_faults");
}

uint64_t CounterSum(const std::vector<tml::telemetry::MetricSample>& snap,
                    const std::string& name) {
  uint64_t sum = 0;
  for (const auto& s : snap) {
    if (s.kind != tml::telemetry::MetricKind::kCounter) continue;
    if (s.name == name || s.name.rfind(name + "{", 0) == 0) sum += s.count;
  }
  return sum;
}

double HistDelta::Quantile(double q) const {
  return count ? tml::telemetry::BucketQuantile(buckets, q) : 0;
}

HistDelta HistogramDelta(const std::vector<tml::telemetry::MetricSample>& before,
                         const std::vector<tml::telemetry::MetricSample>& after,
                         const std::string& full_name) {
  auto find = [&](const std::vector<tml::telemetry::MetricSample>& snap)
      -> const tml::telemetry::MetricSample* {
    for (const auto& s : snap) {
      if (s.name == full_name) return &s;
    }
    return nullptr;
  };
  HistDelta d;
  const auto* a = find(after);
  if (a == nullptr) return d;
  const auto* b = find(before);
  std::map<int, uint64_t> buckets(a->buckets.begin(), a->buckets.end());
  d.count = a->count;
  d.sum = a->sum;
  if (b != nullptr) {
    d.count -= b->count;
    d.sum -= b->sum;
    for (const auto& [idx, n] : b->buckets) buckets[idx] -= n;
  }
  for (const auto& [idx, n] : buckets) {
    if (n != 0) d.buckets.emplace_back(idx, n);
  }
  return d;
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <stanford-exec|reflect-pipeline|"
               "tycd-mixed> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--expected <file>] [--workdir <dir>] "
               "[--inject-wrong 1]\n"
               "       perfbench --pin\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string expected_path = "perfbench/expected.txt";
  Ctx ctx;
  ctx.workdir = ".bench_build/run";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--pin") return PinExpected() ? 0 : 1;
    if (i + 1 >= argc) return Usage();
    std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      ctx.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      ctx.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      ctx.trace = v == "1";
    } else if (a == "--expected") {
      expected_path = v;
    } else if (a == "--workdir") {
      ctx.workdir = v;
    } else if (a == "--inject-wrong") {
      ctx.inject_wrong = v == "1";
    } else {
      return Usage();
    }
  }
  Outcome (*run)(Ctx*) = nullptr;
  if (workload == "stanford-exec") {
    run = RunStanfordExec;
  } else if (workload == "reflect-pipeline") {
    run = RunReflectPipeline;
  } else if (workload == "tycd-mixed") {
    run = RunTycdMixed;
  } else {
    return Usage();
  }
  if (!(ctx.seconds > 0)) return Usage();
  std::string err;
  if (!ctx.expected.Load(expected_path, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 1;
  }
  if (mkdir(ctx.workdir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", ctx.workdir.c_str());
    return 1;
  }
  ctx.spans.on = ctx.trace;

  Outcome out = run(&ctx);
  if (!ctx.ref_us.empty()) {
    out.detail.push_back({"reference_kernel_us", Median(ctx.ref_us), "us"});
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto& [op, c] : out.ops) {
    std::printf("ops %-16s attempted %10llu  failed %llu\n", op.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    attempted += c.attempted;
    failed += c.failed;
  }
  for (const std::string& f : out.failure_notes) {
    std::printf("FAILED %s\n", f.c_str());
  }
  for (const Metric& m : out.detail) {
    std::printf("detail %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::vector<Metric> metrics;
  if (ctx.trace) {
    for (const MetricDef& d : kPerLayer) {
      auto it = out.layers.find(d.name);
      metrics.push_back({d.name, it == out.layers.end() ? 0 : it->second, d.unit});
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      auto it = out.e2e.find(d.name);
      if (it == out.e2e.end()) Fatal(std::string("workload left out ") + d.name);
      metrics.push_back({d.name, it->second, d.unit});
    }
  }
  bool finite = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) finite = false;
    std::printf("%s %-34s %14.6g %s\n", ctx.trace ? "layer " : "metric",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  if (ctx.trace) {
    std::string path = ctx.workdir + "/trace-" + workload + ".json";
    Status st = ctx.spans.WriteChrome(path);
    std::printf("spans written to %s (%s)\n", path.c_str(),
                st.ok() ? "ok" : st.ToString().c_str());
  }
  bool correct = finite && failed == 0 && attempted > 0;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                metrics[i].name.c_str());
    // Every digit as measured: %.17g round-trips a double.
    std::printf("%.17g", std::isfinite(metrics[i].value) ? metrics[i].value : 0);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
