// stanford-exec: the ten Stanford programs in library-binding mode, each
// installed once, with bench(n) at the E1 input size called repeatedly on
// two tiers — unoptimized, and the code ReflectOptimize produced.
//
// Why: nearly all of its time is the VM interpreter loop, the fused
// superinstructions and OID call resolution.  The measured window does no
// optimizer, store, frontend or server work; the window counters in the
// traced run confirm that.  The store is in memory.  One thread.
//
// An unoptimized call costs ~3x a dynamic one, so the scheduler balances
// time rather than calls: each (program, tier) slot gets the next call when
// it has the least accumulated time, and every slot ends with about the
// same share of the window.  Each slot runs on its own worker VM, so one
// program's garbage is never collected inside another program's call.
//
// The reference kernel (bench.h) is timed between every two calls, and each
// call time is calibrated by the two kernel times around it.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "corpus/stanford.h"
#include "runtime/universe.h"
#include "store/object_store.h"

namespace perfbench {
namespace {

using tml::Oid;
using tml::corpus::StanfordProgram;
using tml::corpus::StanfordSuite;
using tml::rt::Universe;
using tml::vm::Value;

/// A universe holding the whole suite in one configuration.
struct Suite {
  std::unique_ptr<tml::store::ObjectStore> store;
  std::unique_ptr<Universe> u;  // declared after store: destroyed first
  std::vector<Oid> unopt;       // per program, `bench` as installed
  std::vector<Oid> dynamic;     // per program, reflect.optimize(bench)
  uint64_t fused_slots = 0;
  uint64_t inlined = 0;
};

/// Install every program as its own module in an in-memory store;
/// `reflect` also runs reflect.optimize on each `bench`.
Suite InstallSuite(tml::fe::BindingMode mode, bool static_opt, bool reflect) {
  Suite s;
  auto store = tml::store::ObjectStore::Open("");
  if (!store.ok()) Fatal("store: " + store.status().ToString());
  s.store = std::move(*store);
  s.u = std::make_unique<Universe>(s.store.get());
  tml::rt::InstallOptions opts;
  opts.static_optimize = static_opt;
  for (const StanfordProgram& p : StanfordSuite()) {
    Status st = s.u->InstallSource(p.name, p.source, mode, opts);
    if (!st.ok()) Fatal(std::string("install ") + p.name + ": " + st.ToString());
    auto f = s.u->Lookup(p.name, "bench");
    if (!f.ok()) Fatal(f.status().ToString());
    s.unopt.push_back(*f);
    if (reflect) {
      tml::rt::ReflectStats stats;
      auto r = s.u->ReflectOptimize(*f, ReflectOptions(), &stats);
      if (!r.ok()) Fatal(std::string("reflect ") + p.name + ": " +
                         r.status().ToString());
      s.dynamic.push_back(*r);
      s.fused_slots += stats.superinstructions_fused;
      s.inlined += stats.optimizer.expand.inlined;
    }
  }
  return s;
}

struct CallOut {
  bool ok = false;
  int64_t value = 0;
  uint64_t steps = 0;
  std::string error;
};

CallOut CallBench(tml::vm::VM* vm, Oid oid, int64_t n) {
  CallOut out;
  Value args[] = {Value::Int(n)};
  auto r = vm->RunClosure(Value::OidV(oid), args);
  if (!r.ok()) {
    out.error = r.status().ToString();
  } else if (r->raised || !r->value.is_int()) {
    out.error = "raised or returned a non-integer";
  } else {
    out.ok = true;
    out.value = r->value.i;
    out.steps = r->steps;
  }
  return out;
}

struct Slot {
  size_t prog = 0;
  bool dynamic = false;
  Oid oid = tml::kNullOid;
  tml::vm::VM* vm = nullptr;  // owned by the universe
  int64_t expect = 0;
  // Per window: raw and calibrated call times.
  std::vector<double> us, cal_us;
  double total_us = 0;
  uint64_t steps = 0;
  std::vector<double> heap_bytes;
};

/// Call slots until `seconds` have passed; returns the elapsed seconds.
double RunWindow(Ctx* ctx, std::vector<Slot>* slots,
                 double seconds, Outcome* out) {
  const auto& suite = StanfordSuite();
  for (Slot& s : *slots) {
    s.us.clear();
    s.cal_us.clear();
    s.total_us = 0;
    s.steps = 0;
    s.heap_bytes.clear();
  }
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
  double ref_before = ctx->SampleRef();
  while (NowNs() < end) {
    Slot* next = &(*slots)[0];
    for (Slot& s : *slots) {
      if (s.total_us < next->total_us) next = &s;
    }
    const char* op = next->dynamic ? "call.dynamic" : "call.unopt";
    out->ops[op].attempted++;
    int64_t expect = next->expect + ctx->Skew();
    uint64_t heap0 = next->vm->heap()->bytes_allocated();
    uint64_t c0 = NowNs();
    CallOut r;
    {
      Scope span(&ctx->spans, next->dynamic ? "vm.call.dynamic" : "vm.call.unopt");
      r = CallBench(next->vm, next->oid, suite[next->prog].bench_n);
    }
    double us = (NowNs() - c0) * 1e-3;
    uint64_t heap1 = next->vm->heap()->bytes_allocated();
    double ref_after = ctx->SampleRef();
    double ref = std::sqrt(ref_before * ref_after);
    ref_before = ref_after;
    next->total_us += us;
    if (!r.ok) {
      out->Fail(op, std::string(suite[next->prog].name) + ": " + r.error);
      continue;
    }
    if (r.value != expect) {
      out->Fail(op, std::string(suite[next->prog].name) + ": checksum " +
                        std::to_string(r.value) + ", expected " +
                        std::to_string(expect));
      continue;
    }
    next->us.push_back(us);
    next->cal_us.push_back(Calibrate(us, ref));
    next->steps += r.steps;
    // A collection inside the call lowers the live-byte count; such calls
    // say nothing about allocation volume and are left out.
    if (heap1 >= heap0) next->heap_bytes.push_back(static_cast<double>(heap1 - heap0));
  }
  return SecondsSince(t0);
}

/// Geomean over programs of each slot's median call time, for one tier,
/// raw or calibrated.
double TierGeomeanUs(const std::vector<Slot>& slots, bool dynamic, bool calibrated) {
  std::vector<double> meds;
  for (const Slot& s : slots) {
    if (s.dynamic == dynamic && !s.us.empty()) {
      meds.push_back(Median(calibrated ? s.cal_us : s.us));
    }
  }
  return Geomean(meds);
}

/// Calls per second with the time split evenly across the slots, from each
/// slot's median call time: a window end that falls inside a 0.3 s Perm
/// call then moves nothing.
double CallsPerSecond(const std::vector<Slot>& slots, bool calibrated) {
  double rate = 0;
  for (const Slot& sl : slots) {
    if (!sl.us.empty()) {
      rate += 1e6 / Median(calibrated ? sl.cal_us : sl.us) / slots.size();
    }
  }
  return rate;
}

}  // namespace

Outcome RunStanfordExec(Ctx* ctx) {
  Outcome out;
  const auto& suite = StanfordSuite();
  for (const StanfordProgram& p : suite) {
    if (ctx->expected.rows.count(p.name) == 0) {
      Fatal(std::string("expected file has no row for ") + p.name);
    }
  }

  // Set-up, fifteen times (it is short); the last universe is the one
  // measured.
  Suite s;
  out.e2e["setup_s"] = SetupMedian(ctx, &out, 15, [&](int) {
    uint64_t t0 = NowNs();
    s.u.reset();  // the universe before the store it points into
    s.store.reset();
    s = InstallSuite(tml::fe::BindingMode::kLibrary, false, true);
    return SecondsSince(t0);
  });
  Universe* u = s.u.get();

  std::vector<Slot> slots;
  for (size_t i = 0; i < suite.size(); ++i) {
    const Expected::Row& row = ctx->expected.rows[suite[i].name];
    for (bool dyn : {false, true}) {
      Slot sl;
      sl.prog = i;
      sl.dynamic = dyn;
      sl.oid = dyn ? s.dynamic[i] : s.unopt[i];
      sl.vm = u->AddWorkerVm();
      sl.expect = dyn ? row.bench_dynamic : row.bench_unopt;
      slots.push_back(sl);
    }
  }
  // The seed orders the slots, which decides who goes first on ties.
  Rng rng(ctx->seed);
  rng.Shuffle(&slots);

  // Warm-up: one call per slot fills the swizzle caches and the heap.
  for (const Slot& sl : slots) (void)CallBench(sl.vm, sl.oid, suite[sl.prog].bench_n);

  double untraced_s = ctx->seconds;
  if (ctx->trace) {
    // A third of the window untraced, for telemetry.trace_overhead.
    ctx->spans.on = false;
    untraced_s = ctx->seconds / 3;
  }
  (void)RunWindow(ctx, &slots, untraced_s, &out);
  out.e2e["ops_per_s"] = CallsPerSecond(slots, true);
  out.e2e["fast_p50_us"] = TierGeomeanUs(slots, true, true);
  out.e2e["slow_p50_us"] = TierGeomeanUs(slots, false, true);
  out.detail.push_back({"raw.ops_per_s", CallsPerSecond(slots, false), "1/s"});
  out.detail.push_back({"raw.fast_p50_us", TierGeomeanUs(slots, true, false), "us"});
  out.detail.push_back({"raw.slow_p50_us", TierGeomeanUs(slots, false, false), "us"});
  // The issue-level names, calibrated.
  out.detail.push_back({"call_ms_dynamic", out.e2e["fast_p50_us"] * 1e-3, "ms"});
  out.detail.push_back({"call_ms_unopt", out.e2e["slow_p50_us"] * 1e-3, "ms"});
  for (const Slot& sl : slots) {
    out.detail.push_back({std::string(suite[sl.prog].name) +
                              (sl.dynamic ? ".dynamic_ms" : ".unopt_ms"),
                          Median(sl.us) * 1e-3, "ms"});
  }

  if (ctx->trace) {
    std::vector<Slot> untraced = slots;
    ctx->spans.on = true;
    auto before = RegistrySnapshot();
    double traced_s = RunWindow(ctx, &slots, ctx->seconds - untraced_s, &out);
    auto after = RegistrySnapshot();
    WindowCounters(before, after, &out.layers);
    std::vector<double> ratios;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].us.empty() && !untraced[i].us.empty()) {
        ratios.push_back(Median(slots[i].us) / Median(untraced[i].us));
      }
    }
    out.layers["telemetry.trace_overhead"] = Geomean(ratios);
    double vm_us = 0;
    for (const char* n : {"vm.call.dynamic", "vm.call.unopt"}) {
      vm_us += ctx->spans.Get(n).total_ns * 1e-3;
    }
    out.layers["vm.step_time_share"] = vm_us / (traced_s * 1e6);
  }

  // Per-tier step accounting from the last window.
  std::vector<double> step_ratios;
  double dyn_us = 0, unopt_us = 0, dyn_steps = 0, unopt_steps = 0;
  double dyn_steps_per_call = 0, unopt_steps_per_call = 0;
  std::vector<double> heap_bytes;
  for (size_t i = 0; i < suite.size(); ++i) {
    const Slot* tiers[2] = {nullptr, nullptr};
    for (const Slot& sl : slots) {
      if (sl.prog == i) tiers[sl.dynamic ? 1 : 0] = &sl;
    }
    const Slot& un = *tiers[0];
    const Slot& dy = *tiers[1];
    if (un.us.empty() || dy.us.empty()) continue;
    double un_per = static_cast<double>(un.steps) / un.us.size();
    double dy_per = static_cast<double>(dy.steps) / dy.us.size();
    step_ratios.push_back(un_per / dy_per);
    unopt_steps_per_call += un_per;
    dyn_steps_per_call += dy_per;
    for (double x : un.us) unopt_us += x;
    for (double x : dy.us) dyn_us += x;
    unopt_steps += un.steps;
    dyn_steps += dy.steps;
    heap_bytes.insert(heap_bytes.end(), un.heap_bytes.begin(), un.heap_bytes.end());
  }
  double e1_dynamic = Geomean(step_ratios);
  out.detail.push_back({"e1_dynamic_step_ratio", e1_dynamic, "x"});
  out.Check(e1_dynamic >= 2.0, "E1 shape: dynamic/unopt step ratio " +
                                   std::to_string(e1_dynamic) + " < 2");

  // E1 static leg: the local static optimizer keeps library bindings
  // opaque, so its step count stays within 10% of unoptimized code.
  {
    Suite st = InstallSuite(tml::fe::BindingMode::kLibrary, true, false);
    std::vector<double> ratios;
    for (size_t i = 0; i < suite.size(); ++i) {
      const Expected::Row& row = ctx->expected.rows[suite[i].name];
      CallOut a = CallBench(st.u->vm(), st.unopt[i], suite[i].bench_n);
      out.ops["call.static"].attempted++;
      if (!a.ok || a.value != row.bench_unopt) {
        out.Fail("call.static", std::string(suite[i].name) + ": " +
                                    (a.ok ? "wrong checksum" : a.error));
        continue;
      }
      double un_per = 0;
      for (const Slot& sl : slots) {
        if (sl.prog == i && !sl.dynamic && !sl.us.empty()) {
          un_per = static_cast<double>(sl.steps) / sl.us.size();
        }
      }
      if (un_per > 0) ratios.push_back(un_per / static_cast<double>(a.steps));
    }
    double e1_static = Geomean(ratios);
    out.detail.push_back({"e1_static_step_ratio", e1_static, "x"});
    out.Check(e1_static > 0.9 && e1_static < 1.1,
              "E1 shape: static/unopt step ratio " + std::to_string(e1_static) +
                  " outside [0.9, 1.1]");
  }

  Universe::SizeReport sizes = u->Sizes();
  double ptml_ratio =
      static_cast<double>(sizes.code_bytes + sizes.ptml_bytes) / sizes.code_bytes;
  out.detail.push_back({"e2_ptml_ratio", ptml_ratio, "x"});

  if (ctx->trace) {
    out.layers["vm.ns_per_step_dynamic"] = dyn_us * 1e3 / dyn_steps;
    out.layers["vm.ns_per_step_unopt"] = unopt_us * 1e3 / unopt_steps;
    out.layers["vm.steps_dynamic"] = dyn_steps_per_call;
    out.layers["vm.steps_unopt"] = unopt_steps_per_call;
    out.layers["vm.heap_bytes_per_call"] = Median(heap_bytes);
    out.layers["vm.e1_step_ratio"] = e1_dynamic;
    out.layers["vm.fused_slots"] = static_cast<double>(s.fused_slots);
    out.layers["core.inlined"] = static_cast<double>(s.inlined);
    out.layers["store.ptml_ratio"] = ptml_ratio;
  }
  out.e2e["peak_rss_mb"] = PeakRssMb();
  return out;
}

bool PinExpected() {
  // Every configuration must agree on every checksum before it is pinned:
  // unopt and dynamic are the measured tiers, static and direct the
  // cross-checks.
  Suite unopt = InstallSuite(tml::fe::BindingMode::kLibrary, false, true);
  Suite stat = InstallSuite(tml::fe::BindingMode::kLibrary, true, false);
  Suite direct = InstallSuite(tml::fe::BindingMode::kDirect, false, false);
  bool ok = true;
  std::printf("# perfbench pinned answers: program, bench(bench_n) on the "
              "unopt and dynamic tiers,\n# then bench(small_n) on both.  "
              "Regenerate with: perfbench --pin\n");
  const auto& suite = StanfordSuite();
  for (size_t i = 0; i < suite.size(); ++i) {
    const StanfordProgram& p = suite[i];
    int64_t vals[4];
    int k = 0;
    for (int64_t n : {p.bench_n, p.small_n}) {
      CallOut a = CallBench(unopt.u->vm(), unopt.unopt[i], n);
      CallOut b = CallBench(unopt.u->vm(), unopt.dynamic[i], n);
      CallOut c = CallBench(stat.u->vm(), stat.unopt[i], n);
      CallOut d = CallBench(direct.u->vm(), direct.unopt[i], n);
      if (!a.ok || !b.ok || !c.ok || !d.ok || a.value != b.value ||
          a.value != c.value || a.value != d.value) {
        std::fprintf(stderr, "pin: %s n=%lld: configurations disagree\n",
                     p.name, static_cast<long long>(n));
        ok = false;
      }
      vals[k++] = a.value;
      vals[k++] = b.value;
    }
    if (p.small_checksum != -1 && vals[2] != p.small_checksum) {
      std::fprintf(stderr, "pin: %s small checksum %lld, corpus says %lld\n",
                   p.name, static_cast<long long>(vals[2]),
                   static_cast<long long>(p.small_checksum));
      ok = false;
    }
    // Closed forms: Towers(n) makes 2^n - 1 moves; Queens(r) counts the 92
    // eight-queens solutions r times.
    int64_t golden = -1;
    if (std::string(p.name) == "Towers") golden = (int64_t{1} << p.bench_n) - 1;
    if (std::string(p.name) == "Queens") golden = 92 * p.bench_n;
    if (golden != -1 && vals[0] != golden) {
      std::fprintf(stderr, "pin: %s checksum %lld, golden %lld\n", p.name,
                   static_cast<long long>(vals[0]),
                   static_cast<long long>(golden));
      ok = false;
    }
    std::printf("%s %lld %lld %lld %lld\n", p.name,
                static_cast<long long>(vals[0]), static_cast<long long>(vals[1]),
                static_cast<long long>(vals[2]), static_cast<long long>(vals[3]));
  }
  return ok;
}

}  // namespace perfbench
