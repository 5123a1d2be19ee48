// reflect-pipeline: the paper's §4.1 path, end to end, on a file-backed
// store.  Each iteration, for the Stanford suite plus stdlib:
//
//   1. in a fresh store, InstallSource each program, then a cold
//      ReflectOptimize of each `bench` (a reflect-cache miss);
//   2. verify each program on its small input, on both tiers (see below);
//   3. CommitStore, close, reopen, LoadPersistedModules;
//   4. ReflectOptimize again: a cache hit that must link byte-identical code.
//
// Perm and Queens run 1.1M-7.2M steps on their small inputs, 30x any other
// program, and would turn this workload into VM time.  So the first
// iteration (set-up) verifies every program on both tiers; later iterations
// verify those whose small input ran under kCheapSteps, and for the rest
// require the cold result to be byte-identical to the verified code.
//
// Why: its time is the frontend, the optimizer, codegen, fusion, PTML and
// store append/commit/replay, with almost no VM work — the write-heavy
// counterpart of tycd-mixed.  One thread.
//
// A traced run re-drives the cold path layer by layer on the same inputs
// and options (ReflectTerm -> ir::Optimize -> EncodePtml -> CompileProc ->
// FuseSuperinstructions -> SerializeFunction -> Allocate), the install path
// (Compile -> EncodePtml -> CompileProc -> SerializeFunction -> Allocate)
// and the reload path (DeserializeFunction, DecodePtml), and reports how
// much of ReflectOptimize's cold time the re-driven layers account for.
//
// The reference kernel (bench.h) is timed between every two iterations, and
// each iteration's timings are calibrated by the two kernel times around it.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/module.h"
#include "corpus/stanford.h"
#include "frontend/compile.h"
#include "prims/standard.h"
#include "runtime/universe.h"
#include "store/object_store.h"
#include "store/ptml.h"
#include "vm/code.h"
#include "vm/codegen.h"
#include "vm/fuse.h"

namespace perfbench {
namespace {

using tml::Oid;
using tml::corpus::StanfordProgram;
using tml::corpus::StanfordSuite;
using tml::rt::Universe;
using tml::store::ObjectStore;
using tml::store::ObjType;
using tml::vm::Value;

/// One open file-backed universe.
struct Open {
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<Universe> u;  // declared after store: destroyed first

  void Close() {
    u.reset();
    store.reset();
  }
};

Open OpenStore(Ctx* ctx, const std::string& path) {
  Open o;
  {
    Scope span(&ctx->spans, "store.open");
    auto s = ObjectStore::Open(path);
    if (!s.ok()) Fatal("open " + path + ": " + s.status().ToString());
    o.store = std::move(*s);
  }
  o.u = std::make_unique<Universe>(o.store.get());
  return o;
}

Result<std::string> CodeBytes(Open* o, Oid closure) {
  TML_ASSIGN_OR_RETURN(Oid code, o->u->ClosureCodeOid(closure));
  TML_ASSIGN_OR_RETURN(tml::store::StoredObject obj, o->store->Get(code));
  return obj.bytes;
}

/// Figures of the iterations in one window.
struct Window {
  uint64_t iterations = 0;
  std::vector<double> install_us, cold_us, hit_us, restart_us;
  // The same samples per program, for per-program quantiles.
  std::vector<std::vector<double>> cold_by_prog =
      std::vector<std::vector<double>>(StanfordSuite().size());
  std::vector<std::vector<double>> hit_by_prog =
      std::vector<std::vector<double>>(StanfordSuite().size());
  std::vector<double> iter_s;
  // Calibrated copies of iter_s and the per-program samples.
  std::vector<double> iter_cal_s;
  std::vector<std::vector<double>> cold_cal_by_prog =
      std::vector<std::vector<double>>(StanfordSuite().size());
  std::vector<std::vector<double>> hit_cal_by_prog =
      std::vector<std::vector<double>>(StanfordSuite().size());
  double cold_total_us = 0;
  double redrive_reflect_us = 0;  // re-driven cold path (traced runs)
  double redrive_all_us = 0;      // every re-drive, left out of throughput
  double verify_us = 0;
  uint64_t inlined = 0, fused = 0, term_nodes_out = 0, cold_runs = 0;
  double rewrites = 0;  // rule firings inside the cold reflects (traced)
  double write_bytes = 0, live_bytes = 0;
  double stored_code_kb = 0;
  double ptml_ratio = 0;
};

class Pipeline {
 public:
  Pipeline(Ctx* ctx, Outcome* out) : ctx_(ctx), out_(out) {
    // The seed fixes the program order for the run.  It stays the same
    // across iterations, so each program's regenerated code (whose name
    // numbers the reflect.optimize calls of its universe) repeats exactly.
    for (size_t i = 0; i < StanfordSuite().size(); ++i) order_.push_back(i);
    Rng rng(ctx->seed);
    rng.Shuffle(&order_);
    path_ = ctx->workdir + "/reflect-pipeline.db";
    redrive_path_ = ctx->workdir + "/reflect-redrive.db";
  }
  ~Pipeline() {
    std::remove(path_.c_str());
    std::remove(redrive_path_.c_str());
  }

  /// One full iteration; `redrive` adds the layer-by-layer re-drive.
  void Iterate(Window* w, bool redrive);

 private:
  void RedriveInstall(const StanfordProgram& p, tml::vm::CodeUnit* unit,
                      ObjectStore* scratch);
  void RedriveReflect(Open* o, Oid closure, tml::vm::CodeUnit* unit,
                      ObjectStore* scratch);
  void RedriveReload(Open* o, Oid closure);

  static constexpr uint64_t kCheapSteps = 200'000;

  Ctx* ctx_;
  Outcome* out_;
  std::vector<size_t> order_;
  std::string path_, redrive_path_;
  // Per program: the dynamic-tier code that passed verification, and the
  // unoptimized small-input step count.
  std::vector<std::string> verified_code_ =
      std::vector<std::string>(StanfordSuite().size());
  std::vector<uint64_t> steps_ = std::vector<uint64_t>(StanfordSuite().size());
};

void Pipeline::Iterate(Window* w, bool redrive) {
  const auto& suite = StanfordSuite();
  const std::vector<size_t>& order = order_;
  std::remove(path_.c_str());
  // Registry snapshots cost time, so only traced iterations take them.
  std::vector<tml::telemetry::MetricSample> reg0;
  if (redrive) reg0 = RegistrySnapshot();

  // 1. install + cold reflect.
  Open o = OpenStore(ctx_, path_);
  {
    out_->ops["install"].attempted++;
    uint64_t t0 = NowNs();
    Status st;
    {
      Scope span(&ctx_->spans, "runtime.install");
      st = o.u->InstallStdlib();
    }
    if (!st.ok()) out_->Fail("install", "stdlib: " + st.ToString());
    w->install_us.push_back(UsSince(t0));
  }
  std::vector<Oid> unopt(suite.size(), tml::kNullOid);
  std::vector<Oid> dyn(suite.size(), tml::kNullOid);
  for (size_t i : order) {
    const StanfordProgram& p = suite[i];
    out_->ops["install"].attempted++;
    uint64_t t0 = NowNs();
    Status st;
    {
      Scope span(&ctx_->spans, "runtime.install");
      st = o.u->InstallSource(p.name, p.source, tml::fe::BindingMode::kLibrary);
    }
    double us = UsSince(t0);
    auto f = o.u->Lookup(p.name, "bench");
    if (!st.ok() || !f.ok()) {
      out_->Fail("install", std::string(p.name) + ": " + st.ToString());
      continue;
    }
    w->install_us.push_back(us);
    unopt[i] = *f;
  }
  std::vector<tml::telemetry::MetricSample> reg1;
  if (redrive) reg1 = RegistrySnapshot();
  std::vector<std::string> cold_code(suite.size());
  for (size_t i : order) {
    if (unopt[i] == tml::kNullOid) continue;
    out_->ops["reflect.cold"].attempted++;
    tml::rt::ReflectStats stats;
    uint64_t t0 = NowNs();
    auto r = [&] {
      Scope span(&ctx_->spans, "runtime.reflect_optimize.cold");
      return o.u->ReflectOptimize(unopt[i], ReflectOptions(), &stats);
    }();
    double us = UsSince(t0);
    if (!r.ok()) {
      out_->Fail("reflect.cold", suite[i].name + (": " + r.status().ToString()));
      continue;
    }
    if (stats.cache_misses != 1) {
      out_->Fail("reflect.cold", std::string(suite[i].name) +
                                     ": a fresh store served a cache hit");
      continue;
    }
    auto bytes = CodeBytes(&o, *r);
    if (!bytes.ok()) {
      out_->Fail("reflect.cold", bytes.status().ToString());
      continue;
    }
    cold_code[i] = *bytes;
    dyn[i] = *r;
    w->cold_us.push_back(us);
    w->cold_by_prog[i].push_back(us);
    w->cold_total_us += us;
    w->cold_runs++;
    w->inlined += stats.optimizer.expand.inlined;
    w->fused += stats.superinstructions_fused;
    w->term_nodes_out += stats.output_term_size;
  }
  if (redrive) {
    w->rewrites += static_cast<double>(
        CounterSum(RegistrySnapshot(), "tml.rewrite.fired") -
        CounterSum(reg1, "tml.rewrite.fired"));
    uint64_t t0 = NowNs();
    std::remove(redrive_path_.c_str());
    auto scratch = ObjectStore::Open(redrive_path_);
    if (!scratch.ok()) Fatal("open " + redrive_path_);
    tml::vm::CodeUnit unit;
    for (size_t i : order) RedriveInstall(suite[i], &unit, scratch->get());
    uint64_t t1 = NowNs();
    for (size_t i : order) {
      if (unopt[i] != tml::kNullOid) RedriveReflect(&o, unopt[i], &unit, scratch->get());
    }
    w->redrive_reflect_us += UsSince(t1);
    w->redrive_all_us += UsSince(t0);
  }

  // 2. verify on the small inputs.
  for (size_t i : order) {
    const Expected::Row& row = ctx_->expected.rows[suite[i].name];
    if (!verified_code_[i].empty() && steps_[i] >= kCheapSteps) {
      out_->ops["verify"].attempted++;
      if (cold_code[i] != verified_code_[i]) {
        out_->Fail("verify", std::string(suite[i].name) +
                                 ": cold code differs from the verified code");
      }
      continue;
    }
    for (bool d : {false, true}) {
      Oid oid = d ? dyn[i] : unopt[i];
      if (oid == tml::kNullOid) continue;
      out_->ops["verify"].attempted++;
      int64_t expect = (d ? row.small_dynamic : row.small_unopt) + ctx_->Skew();
      Value args[] = {Value::Int(suite[i].small_n)};
      uint64_t t0 = NowNs();
      auto r = [&] {
        Scope span(&ctx_->spans, "vm.call.verify");
        return o.u->Call(oid, args);
      }();
      w->verify_us += UsSince(t0);
      if (!r.ok() || r->raised || !r->value.is_int() || r->value.i != expect) {
        out_->Fail("verify", std::string(suite[i].name) + " wrong on small input");
        continue;
      }
      if (!d) steps_[i] = r->steps;
      if (d && verified_code_[i].empty()) verified_code_[i] = cold_code[i];
    }
  }
  Universe::SizeReport sizes = o.u->Sizes();
  w->stored_code_kb = (sizes.code_bytes + sizes.ptml_bytes) / 1024.0;
  w->ptml_ratio = static_cast<double>(sizes.code_bytes + sizes.ptml_bytes) /
                  static_cast<double>(sizes.code_bytes);

  // 3. restart.
  {
    out_->ops["restart"].attempted++;
    uint64_t t0 = NowNs();
    Status st;
    {
      Scope span(&ctx_->spans, "store.commit");
      st = o.u->CommitStore();
    }
    if (redrive) {
      w->write_bytes += static_cast<double>(
          CounterSum(RegistrySnapshot(), "tml.store.write_bytes") -
          CounterSum(reg0, "tml.store.write_bytes"));
      w->live_bytes += static_cast<double>(o.store->live_bytes());
    }
    o.Close();
    o = OpenStore(ctx_, path_);
    Status lst;
    {
      Scope span(&ctx_->spans, "runtime.load_modules");
      lst = o.u->LoadPersistedModules();
    }
    w->restart_us.push_back(UsSince(t0));
    if (!st.ok() || !lst.ok()) {
      out_->Fail("restart", st.ok() ? lst.ToString() : st.ToString());
      return;
    }
  }

  // 4. the cache hit after restart links byte-identical code.  Suite
  // order, whatever the seed: the first hit also loads the reflect-cache
  // index, and that cost should land on the same program in every run.
  for (size_t i = 0; i < suite.size(); ++i) {
    if (dyn[i] == tml::kNullOid) continue;
    out_->ops["reflect.hit"].attempted++;
    auto f = o.u->Lookup(suite[i].name, "bench");
    if (!f.ok()) {
      out_->Fail("reflect.hit", f.status().ToString());
      continue;
    }
    tml::rt::ReflectStats stats;
    uint64_t t0 = NowNs();
    auto r = [&] {
      Scope span(&ctx_->spans, "runtime.reflect_optimize.hit");
      return o.u->ReflectOptimize(*f, ReflectOptions(), &stats);
    }();
    double us = UsSince(t0);
    if (!r.ok() || stats.cache_hits != 1) {
      out_->Fail("reflect.hit", std::string(suite[i].name) + ": not a cache hit");
      continue;
    }
    auto bytes = CodeBytes(&o, *r);
    if (!bytes.ok() || *bytes != cold_code[i]) {
      out_->Fail("reflect.hit", std::string(suite[i].name) +
                                    ": linked code differs from the cold result");
      continue;
    }
    w->hit_us.push_back(us);
    w->hit_by_prog[i].push_back(us);
  }
  if (redrive) {
    uint64_t t0 = NowNs();
    for (size_t i : order) {
      auto f = o.u->Lookup(suite[i].name, "bench");
      if (f.ok()) RedriveReload(&o, *f);
    }
    w->redrive_all_us += UsSince(t0);
  }
  o.Close();
  w->iterations++;
}

void Pipeline::RedriveInstall(const StanfordProgram& p, tml::vm::CodeUnit* unit,
                              ObjectStore* scratch) {
  auto cu = [&] {
    Scope span(&ctx_->spans, "frontend.compile");
    tml::fe::CompileOptions copts;
    copts.binding = tml::fe::BindingMode::kLibrary;
    return tml::fe::Compile(p.source, tml::prims::StandardRegistry(), copts);
  }();
  if (!cu.ok()) Fatal("redrive compile: " + cu.status().ToString());
  for (const tml::fe::CompiledFunction& fn : cu->functions) {
    std::string ptml;
    {
      Scope span(&ctx_->spans, "store.ptml_encode");
      ptml = tml::store::EncodePtml(*cu->module, fn.abs);
    }
    auto code = [&] {
      Scope span(&ctx_->spans, "vm.codegen");
      return tml::vm::CompileProc(unit, *cu->module, fn.abs, fn.name);
    }();
    if (!code.ok()) Fatal("redrive codegen: " + code.status().ToString());
    std::string bytes;
    {
      Scope span(&ctx_->spans, "vm.serialize");
      bytes = tml::vm::SerializeFunction(**code);
    }
    Scope span(&ctx_->spans, "store.append");
    (void)scratch->Allocate(ObjType::kPtml, ptml);
    (void)scratch->Allocate(ObjType::kCode, bytes);
  }
}

void Pipeline::RedriveReflect(Open* o, Oid closure, tml::vm::CodeUnit* unit,
                              ObjectStore* scratch) {
  tml::ir::Module m;
  auto term = [&] {
    Scope span(&ctx_->spans, "runtime.reflect_term");
    return o->u->ReflectTerm(closure, &m);
  }();
  if (!term.ok()) Fatal("redrive reflect term: " + term.status().ToString());
  const tml::ir::Abstraction* opt;
  {
    Scope span(&ctx_->spans, "core.optimize");
    opt = tml::ir::Optimize(&m, *term, ReflectOptions());
  }
  std::string ptml;
  {
    Scope span(&ctx_->spans, "store.ptml_encode");
    ptml = tml::store::EncodePtml(m, opt);
  }
  auto code = [&] {
    Scope span(&ctx_->spans, "vm.codegen");
    return tml::vm::CompileProc(unit, m, opt, "redrive");
  }();
  if (!code.ok()) Fatal("redrive codegen: " + code.status().ToString());
  {
    Scope span(&ctx_->spans, "vm.fuse");
    tml::vm::FuseSuperinstructions(*code);
  }
  std::string bytes;
  {
    Scope span(&ctx_->spans, "vm.serialize");
    bytes = tml::vm::SerializeFunction(**code);
  }
  {
    Scope span(&ctx_->spans, "store.append");
    (void)scratch->Allocate(ObjType::kPtml, ptml);
    (void)scratch->Allocate(ObjType::kCode, bytes);
  }
}

void Pipeline::RedriveReload(Open* o, Oid closure) {
  auto code_bytes = CodeBytes(o, closure);
  if (!code_bytes.ok()) Fatal("redrive reload: " + code_bytes.status().ToString());
  tml::vm::CodeUnit unit;
  auto fn = [&] {
    Scope span(&ctx_->spans, "vm.deserialize");
    return tml::vm::DeserializeFunction(&unit, *code_bytes);
  }();
  if (!fn.ok()) Fatal("redrive deserialize: " + fn.status().ToString());
  auto ptml = o->store->Get((*fn)->ptml_oid);
  if (!ptml.ok()) Fatal("redrive ptml: " + ptml.status().ToString());
  tml::ir::Module m;
  Scope span(&ctx_->spans, "store.ptml_decode");
  auto decoded = tml::store::DecodePtml(&m, tml::prims::StandardRegistry(),
                                        ptml->bytes);
  if (!decoded.ok()) Fatal("redrive decode: " + decoded.status().ToString());
}

/// Append the calibrated form of each sample of `raw` that `cal` lacks.
void CalibrateTail(const std::vector<double>& raw, std::vector<double>* cal,
                   double ref_us) {
  for (size_t k = cal->size(); k < raw.size(); ++k) {
    cal->push_back(Calibrate(raw[k], ref_us));
  }
}

/// Run iterations until `seconds` have passed.
double RunWindow(Ctx* ctx, Pipeline* p, Window* w, double seconds, bool redrive) {
  uint64_t t0 = NowNs();
  uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
  double ref_before = ctx->SampleRef();
  do {
    uint64_t i0 = NowNs();
    p->Iterate(w, redrive);
    w->iter_s.push_back(SecondsSince(i0));
    double ref_after = ctx->SampleRef();
    double ref = std::sqrt(ref_before * ref_after);
    ref_before = ref_after;
    CalibrateTail(w->iter_s, &w->iter_cal_s, ref);
    for (size_t i = 0; i < w->cold_by_prog.size(); ++i) {
      CalibrateTail(w->cold_by_prog[i], &w->cold_cal_by_prog[i], ref);
      CalibrateTail(w->hit_by_prog[i], &w->hit_cal_by_prog[i], ref);
    }
  } while (NowNs() < end);
  return SecondsSince(t0);
}

double ProgramsPerSecond(const Window& w, double seconds) {
  return w.iterations * StanfordSuite().size() / seconds;
}

}  // namespace

Outcome RunReflectPipeline(Ctx* ctx) {
  Outcome out;
  Pipeline pipe(ctx, &out);

  bool trace = ctx->trace;
  ctx->spans.on = false;
  // The first iteration verifies every program on the VM (see above).
  Window first;
  pipe.Iterate(&first, false);
  // Set-up is a warm-up iteration (first-touch page faults, allocator
  // growth, the file system's view of the store), nine times.
  out.e2e["setup_s"] = SetupMedian(ctx, &out, 9, [&](int) {
    Window warm;
    uint64_t t0 = NowNs();
    pipe.Iterate(&warm, false);
    return SecondsSince(t0);
  });

  Window w;
  double untraced_s = trace ? ctx->seconds / 3 : ctx->seconds;
  double elapsed = RunWindow(ctx, &pipe, &w, untraced_s, false);
  // Programs per second at the median iteration time.
  out.e2e["ops_per_s"] = StanfordSuite().size() / Median(w.iter_cal_s);
  // Geomean over programs of each program's median.
  auto per_program = [](const std::vector<std::vector<double>>& by_prog) {
    std::vector<double> xs;
    for (const auto& v : by_prog) {
      if (!v.empty()) xs.push_back(Median(v));
    }
    return Geomean(xs);
  };
  out.e2e["fast_p50_us"] = per_program(w.hit_cal_by_prog);
  out.e2e["slow_p50_us"] = per_program(w.cold_cal_by_prog);
  out.detail.push_back({"raw.ops_per_s", StanfordSuite().size() / Median(w.iter_s), "1/s"});
  out.detail.push_back({"raw.fast_p50_us", per_program(w.hit_by_prog), "us"});
  out.detail.push_back({"raw.slow_p50_us", per_program(w.cold_by_prog), "us"});
  out.detail.push_back({"install_ms", Median(w.install_us) * 1e-3, "ms"});
  out.detail.push_back({"reflect_cold_ms", Median(w.cold_us) * 1e-3, "ms"});
  out.detail.push_back({"reflect_hit_us", Median(w.hit_us), "us"});
  out.detail.push_back({"restart_ms", Median(w.restart_us) * 1e-3, "ms"});
  out.detail.push_back({"stored_code_kb", w.stored_code_kb, "KiB"});
  out.detail.push_back({"e2_ptml_ratio", w.ptml_ratio, "x"});
  out.detail.push_back({"iterations", static_cast<double>(w.iterations), "count"});
  // E2: persistent PTML roughly doubles stored code.
  out.Check(w.ptml_ratio > 1.4 && w.ptml_ratio < 2.6,
            "E2 shape: (code + PTML) / code = " + std::to_string(w.ptml_ratio) +
                " outside (1.4, 2.6)");

  if (trace) {
    Window tw;
    ctx->spans.on = true;
    out.layers.clear();
    auto before = RegistrySnapshot();
    double traced_s = RunWindow(ctx, &pipe, &tw, ctx->seconds - untraced_s, true);
    auto after = RegistrySnapshot();
    WindowCounters(before, after, &out.layers);
    // Tracing overhead: throughput with the re-drives taken out.
    double work_s = traced_s - tw.redrive_all_us * 1e-6;
    out.layers["telemetry.trace_overhead"] =
        ProgramsPerSecond(w, elapsed) / ProgramsPerSecond(tw, work_s);
    auto mean_us = [&](const char* n) { return ctx->spans.Get(n).mean_us(); };
    out.layers["frontend.compile_us"] = mean_us("frontend.compile");
    out.layers["core.optimize_ms"] = mean_us("core.optimize") * 1e-3;
    out.layers["core.rewrite_fired"] = tw.rewrites / (tw.cold_runs ? tw.cold_runs : 1);
    out.layers["core.term_nodes_out"] =
        static_cast<double>(tw.term_nodes_out) / (tw.cold_runs ? tw.cold_runs : 1);
    out.layers["core.inlined"] = static_cast<double>(tw.inlined) / tw.iterations;
    out.layers["vm.fused_slots"] = static_cast<double>(tw.fused) / tw.iterations;
    out.layers["store.ptml_encode_us"] = mean_us("store.ptml_encode");
    out.layers["store.append_us"] = mean_us("store.append") / 2;  // two records
    out.layers["store.ptml_decode_us"] = mean_us("store.ptml_decode");
    out.layers["store.commit_ms"] = mean_us("store.commit") * 1e-3;
    out.layers["store.open_ms"] = mean_us("store.open") * 1e-3;
    out.layers["store.write_bytes_per_live_byte"] = tw.write_bytes / tw.live_bytes;
    out.layers["vm.codegen_us"] = mean_us("vm.codegen");
    out.layers["vm.fuse_us"] = mean_us("vm.fuse");
    out.layers["vm.serialize_us"] = mean_us("vm.serialize");
    out.layers["vm.deserialize_us"] = mean_us("vm.deserialize");
    out.layers["vm.step_time_share"] = tw.verify_us * 1e-6 / work_s;
    out.layers["runtime.reflect_term_ms"] = mean_us("runtime.reflect_term") * 1e-3;
    out.layers["runtime.load_modules_ms"] = mean_us("runtime.load_modules") * 1e-3;
    double hits = static_cast<double>(CounterSum(after, "tml.reflect.cache_hits") -
                                      CounterSum(before, "tml.reflect.cache_hits"));
    double misses =
        static_cast<double>(CounterSum(after, "tml.reflect.cache_misses") -
                            CounterSum(before, "tml.reflect.cache_misses"));
    out.layers["runtime.reflect_cache_hit_ratio"] = hits / (hits + misses);
    out.layers["runtime.redrive_coverage"] = tw.redrive_reflect_us / tw.cold_total_us;
    out.layers["store.ptml_ratio"] = tw.ptml_ratio;
  }
  out.e2e["peak_rss_mb"] = PeakRssMb();
  return out;
}

}  // namespace perfbench
