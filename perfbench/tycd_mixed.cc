// tycd-mixed: an in-process Server over a Unix socket, configured like
// tycd's defaults — file-backed store, AdaptiveManager started, sampler on —
// with two server workers and two client connections (closed loop):
//
//   interactive (depth 1): a seeded mix of light CALL complex getx [3,4],
//     heavy CALL app work 3 4 50 and QUERY of σ_{a=k}(R) over a 10^4-tuple
//     relation through a library-bound view installed as a TML unit (TL
//     has no select), plus writes: RELSTORE of a 32-row relation followed
//     by a QUERY of the new relation, one every 5 ms;
//   bulk: light CALLs pipelined 16 deep.
//
// One generator thread drives both connections in lockstep: each cycle puts
// a bulk batch in flight, makes one interactive request, then drains the
// batch.  On a few shared cores a second generator thread would mostly
// measure the scheduler.  Writes run on a fixed schedule rather than as a
// share of the mix: every written relation stays cached in the worker VM
// that faulted it in, so the memory the window leaves behind follows the
// number of writes, and that number must not follow the host's speed.
//
// Why: the server codec, event loop, session queue and batch dispatch do
// most of the work here and nowhere else.  Queries give a relation index a
// place to show; writes beside reads show a store change that helps one
// side and hurts the other.  Queries are kept a minority of interactive
// time (a scan costs ~30 light calls).
//
// Set-up OPTIMIZEs every hot function and warms up until adaptive
// promotions and swizzle faults stop, so the window measures steady state.
//
// The reference kernel (bench.h) is timed every 100 ms, between cycles,
// when no request is in flight; each request's latency is calibrated by the
// two kernel times around its 100 ms chunk.

#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "adaptive/manager.h"
#include "adaptive/sampler.h"
#include "bench.h"
#include "core/parser.h"
#include "frontend/compile.h"
#include "prims/standard.h"
#include "query/relation.h"
#include "runtime/universe.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "store/object_store.h"
#include "telemetry/flight.h"

namespace perfbench {
namespace {

using tml::Oid;
using tml::query::Relation;
using tml::rt::Universe;
using tml::server::Client;
using tml::server::WireValue;

// The 3-4-5 complex-modulus exemplar (bench/bench_server.cc): `getx` is the
// light request, `work` the VM-bound heavy one.
constexpr const char* kComplexSrc =
    "fun make(x, y) = array(x, y) end\n"
    "fun getx(c) = c[0] end\n"
    "fun gety(c) = c[1] end";
constexpr const char* kAppSrc =
    "fun cabs(c) ="
    "  sqrt(real(getx(c) * getx(c) + gety(c) * gety(c))) "
    "end\n"
    "fun work(x, y, n) ="
    "  if n <= 0 then cabs(make(x, y))"
    "  else cabs(make(x, y)) +. work(x, y, n - 1) end "
    "end";
constexpr int kWorkDepth = 50;
constexpr int kTuples = 10000;
constexpr int kKeyRange = 64;  // column a is drawn from [0, kKeyRange)
constexpr int kViews = 8;      // one σ_{a=k} view per key
constexpr int kWriteRows = 32;
constexpr int kBulkDepth = 16;
constexpr uint64_t kWriteEveryNs = 5'000'000;
constexpr uint64_t kChunkNs = 100'000'000;  // calibration chunk

// Interactive mix besides the writes, in parts per 935.  A scan costs ~30
// light calls, so 1.6% queries take about a quarter of interactive time.
constexpr int kLightPm = 560;
constexpr int kHeavyPm = 360;
constexpr int kQueryPm = 15;

/// Everything generated from the seed; the server sees only these inputs.
struct Inputs {
  Relation rel;
  std::vector<int64_t> keys;    // key of view q<j>
  std::vector<int64_t> counts;  // |σ_{a=keys[j]}(rel)|
};

Relation MakeRelation(Rng* rng, int n, const std::vector<int64_t>& keys) {
  Relation r;
  r.columns = {"a", "b"};
  for (int i = 0; i < n; ++i) {
    // Half the rows of small relations hit a view key, so write-then-query
    // returns non-trivial counts.
    int64_t a = (n <= kWriteRows && rng->Below(2) == 0)
                    ? keys[rng->Below(keys.size())]
                    : static_cast<int64_t>(rng->Below(kKeyRange));
    r.tuples.push_back({a, int64_t{i}});
  }
  return r;
}

int64_t CountKey(const Relation& r, int64_t key) {
  int64_t n = 0;
  for (const auto& t : r.tuples) n += std::get<int64_t>(t[0]) == key;
  return n;
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  Rng rng(seed ^ 0x7463796475ull);
  std::vector<int64_t> all;
  for (int64_t k = 0; k < kKeyRange; ++k) all.push_back(k);
  rng.Shuffle(&all);
  in.keys.assign(all.begin(), all.begin() + kViews);
  in.rel = MakeRelation(&rng, kTuples, in.keys);
  for (int64_t k : in.keys) in.counts.push_back(CountKey(in.rel, k));
  return in;
}

/// The query views: TL predicates p<j>(t) = t[0] == k_j (library-bound),
/// and a TML unit q<j>(r) = card(select(p<j>, r)) calling them through the
/// store.
Status InstallViews(Universe* u, const Inputs& in) {
  std::string preds;
  for (int j = 0; j < kViews; ++j) {
    preds += "fun p" + std::to_string(j) + "(t) = t[0] == " +
             std::to_string(in.keys[j]) + " end\n";
  }
  TML_RETURN_NOT_OK(u->InstallSource("preds", preds, tml::fe::BindingMode::kLibrary));
  tml::fe::CompiledUnit unit;
  unit.module = std::make_unique<tml::ir::Module>();
  tml::ir::ParseOptions popts;
  popts.allow_free_vars = true;
  for (int j = 0; j < kViews; ++j) {
    std::string p = "p" + std::to_string(j);
    std::string text = "(proc (r ce cc) (select (proc (t pce pcc) (" + p +
                       " t pce pcc)) r ce (cont (out) (card out cc))))";
    TML_ASSIGN_OR_RETURN(auto parsed,
                         tml::ir::ParseValueText(unit.module.get(),
                                                 tml::prims::StandardRegistry(),
                                                 text, popts));
    tml::fe::CompiledFunction f;
    f.name = "q" + std::to_string(j);
    f.abs = tml::ir::Cast<tml::ir::Abstraction>(parsed.value);
    for (tml::ir::Variable* fv : parsed.free_vars) {
      f.free_names.push_back(p);
      f.free_vars.push_back(fv);
    }
    unit.functions.push_back(std::move(f));
  }
  return u->InstallUnit("views", unit);
}

/// A request frame: the command word and its arguments.
WireValue Req(std::vector<WireValue> words) { return WireValue::Arr(std::move(words)); }
WireValue S(const char* s) { return WireValue::Str(s); }

WireValue LightRequest() {
  return Req({S("call"), S("complex"), S("getx"),
               WireValue::Arr({WireValue::Int(3), WireValue::Int(4)})});
}
WireValue HeavyRequest() {
  return Req({S("call"), S("app"), S("work"), WireValue::Int(3),
               WireValue::Int(4), WireValue::Int(kWorkDepth)});
}
WireValue QueryRequest(int view, int64_t rel_oid) {
  return Req({S("query"), S("views"), WireValue::Str("q" + std::to_string(view)),
               WireValue::Int(rel_oid)});
}
WireValue RelStoreRequest(const Relation& r) {
  std::vector<WireValue> rows;
  for (const auto& t : r.tuples) {
    rows.push_back(WireValue::Arr({WireValue::Int(std::get<int64_t>(t[0])),
                                   WireValue::Int(std::get<int64_t>(t[1]))}));
  }
  return Req({S("relstore"), WireValue::Arr({S("a"), S("b")}),
               WireValue::Arr(std::move(rows))});
}

bool IsInt(const tml::Result<WireValue>& r, int64_t v) {
  return r.ok() && r->tag == tml::server::TAG_INT && r->i == v;
}

/// One running service: the universe, its adaptive services and the server.
struct Service {
  std::string db, sock;
  std::unique_ptr<tml::store::ObjectStore> store;
  std::unique_ptr<Universe> u;
  std::unique_ptr<tml::server::Server> server;
  int64_t rel_oid = 0;

  ~Service() { Shutdown(); }
  void Shutdown() {
    if (server) {
      server->Stop();
      server->Join();
      server.reset();
    }
    u.reset();  // stops the adopted manager and sampler
    store.reset();
    if (!db.empty()) std::remove(db.c_str());
    if (!sock.empty()) std::remove(sock.c_str());
  }
};

Client Connect(const std::string& sock) {
  auto c = Client::ConnectUnix(sock);
  if (!c.ok()) Fatal("connect: " + c.status().ToString());
  return std::move(*c);
}

/// Figures of one window.  Each latency carries the calibration chunk it
/// fell in; chunk k ran for chunk_s[k] seconds beside kernel time ref[k].
struct Lat {
  struct Sample {
    double us;
    uint32_t chunk;
  };
  std::vector<Sample> light, heavy, query, write;
  std::vector<double> chunk_s, ref;
  uint64_t interactive_done = 0, bulk_done = 0;

  std::vector<double> Raw(const std::vector<Sample>& xs) const {
    std::vector<double> out;
    for (const Sample& x : xs) out.push_back(x.us);
    return out;
  }
  std::vector<double> Cal(const std::vector<Sample>& xs) const {
    std::vector<double> out;
    for (const Sample& x : xs) out.push_back(Calibrate(x.us, ref[x.chunk]));
    return out;
  }
  /// Interactive requests per second at each request class's median
  /// latency: the requests made over the time they would take at those
  /// medians.  The time spent draining bulk batches between interactive
  /// requests is left out: it follows how the loop thread happens to split
  /// the bulk frames into batches, which varies 2x from run to run on a
  /// shared host.
  double OpsPerSecond(bool calibrated) const {
    double n = 0, busy_us = 0;
    for (const auto* xs : {&light, &heavy, &query, &write}) {
      if (xs->empty()) continue;
      n += static_cast<double>(xs->size());
      busy_us += static_cast<double>(xs->size()) * Median(calibrated ? Cal(*xs) : Raw(*xs));
    }
    return busy_us > 0 ? n * 1e6 / busy_us : 0;
  }
};

class Mixed {
 public:
  Mixed(Ctx* ctx, Outcome* out, const Inputs* in) : ctx_(ctx), out_(out), in_(in) {}

  /// Bring a fresh service up; Stop() tears the previous one down.
  void Start(int round);
  void Stop();
  void Warmup();
  /// Drive both connections for `seconds`; returns the elapsed seconds.
  double RunWindow(double seconds, Lat* lat);
  Service& svc() { return *svc_; }
  Client& interactive() { return interactive_; }

 private:
  /// Lockstep cycles until `end_ns`.  With `count` false (warm-up) nothing
  /// is accounted and no writes are made.
  void Drive(uint64_t end_ns, Rng rng, Lat* lat, bool count);
  /// One interactive request (or write) in chunk `chunk`.
  void Interactive(bool write, Rng* rng, Lat* lat, uint32_t chunk, bool count);
  /// Count attempts and failures of `op` (when `count`).
  void Note(bool count, const char* op, uint64_t attempted, uint64_t failed,
            const std::string& why);

  Ctx* ctx_;
  Outcome* out_;
  const Inputs* in_;
  std::unique_ptr<Service> svc_;
  Client interactive_, bulk_;
  uint64_t window_ = 0;
};

void Mixed::Note(bool count, const char* op, uint64_t attempted, uint64_t failed,
                 const std::string& why) {
  if (!count) return;
  out_->ops[op].attempted += attempted;
  for (uint64_t i = 0; i < failed; ++i) out_->Fail(op, why);
}

void Mixed::Stop() {
  interactive_.Close();
  bulk_.Close();
  svc_.reset();
}
void Mixed::Start(int round) {
  svc_ = std::make_unique<Service>();
  Service& s = *svc_;
  s.db = ctx_->workdir + "/tycd-mixed.db";
  // A relative socket path keeps sun_path short wherever the checkout is.
  s.sock = ctx_->workdir + "/tycd-" + std::to_string(getpid()) + "-" +
           std::to_string(round) + ".sock";
  std::remove(s.db.c_str());
  auto store = tml::store::ObjectStore::Open(s.db);
  if (!store.ok()) Fatal("open " + s.db + ": " + store.status().ToString());
  s.store = std::move(*store);
  s.u = std::make_unique<Universe>(s.store.get());
  Universe* u = s.u.get();
  Status st = u->InstallStdlib();
  if (st.ok()) st = u->LoadPersistedModules();
  if (st.ok()) st = u->InstallSource("complex", kComplexSrc, tml::fe::BindingMode::kLibrary);
  if (st.ok()) st = u->InstallSource("app", kAppSrc, tml::fe::BindingMode::kLibrary);
  if (st.ok()) st = InstallViews(u, *in_);
  if (!st.ok()) Fatal("install: " + st.ToString());
  auto rel = u->StoreRelationBytes(tml::query::EncodeRelation(in_->rel));
  if (!rel.ok()) Fatal("relation: " + rel.status().ToString());
  s.rel_oid = static_cast<int64_t>(*rel);
  if (!(st = u->CommitStore()).ok()) Fatal("commit: " + st.ToString());

  // tycd's defaults: the adaptive manager and the sampler run.
  tml::adaptive::EnableAdaptive(u);
  tml::adaptive::EnableSampler(u);
  tml::server::ServerOptions opts;
  opts.unix_path = s.sock;
  opts.workers = 2;
  s.server = std::make_unique<tml::server::Server>(u, opts);
  if (!(st = s.server->Start()).ok()) Fatal("server: " + st.ToString());
  interactive_ = Connect(s.sock);
  bulk_ = Connect(s.sock);

  std::vector<std::pair<const char*, std::string>> hot = {
      {"app", "work"}, {"app", "cabs"}, {"complex", "make"},
      {"complex", "getx"}, {"complex", "gety"}};
  for (int j = 0; j < kViews; ++j) hot.push_back({"views", "q" + std::to_string(j)});
  for (const auto& [mod, fn] : hot) {
    auto r = interactive_.Call(Req({S("optimize"), S(mod), WireValue::Str(fn)}));
    if (!r.ok() || r->is_err()) Fatal(std::string("OPTIMIZE ") + mod + "." + fn);
  }
}

void Mixed::Warmup() {
  // Until a whole round (longer than three adaptive polls) sees no new
  // promotion and no swizzle fault.  Writes are left out: each one faults
  // in a fresh relation by design.
  Universe* u = svc_->u.get();
  Rng rng(ctx_->seed ^ 0x5741524dull);
  uint64_t deadline = NowNs() + 10'000'000'000ull;
  int quiet = 0;
  while (quiet < 2 && NowNs() < deadline) {
    uint64_t promos = u->adaptive_counters().promotions;
    uint64_t faults = CounterSum(RegistrySnapshot(), "tml.vm.swizzle_faults");
    Lat lat;
    Drive(NowNs() + 200'000'000ull, Rng(rng.Next()), &lat, false);
    bool still = u->adaptive_counters().promotions == promos &&
                 CounterSum(RegistrySnapshot(), "tml.vm.swizzle_faults") == faults;
    quiet = still ? quiet + 1 : 0;
  }
  if (quiet < 2) Fatal("warm-up did not settle within 10 s");
}

void Mixed::Interactive(bool write, Rng* rng, Lat* lat, uint32_t chunk, bool count) {
  Client& c = interactive_;
  uint64_t t0 = NowNs();
  if (write) {
    Rng gen(rng->Next());
    Relation rel = MakeRelation(&gen, kWriteRows, in_->keys);
    int view = static_cast<int>(rng->Below(kViews));
    bool ok = false;
    {
      Scope span(&ctx_->spans, "client.write");
      auto stored = c.Call(RelStoreRequest(rel));
      if (stored.ok() && stored->tag == tml::server::TAG_INT) {
        auto q = c.Call(QueryRequest(view, stored->i));
        ok = IsInt(q, CountKey(rel, in_->keys[view]));
      }
    }
    Note(count, "write", 1, !ok, "RELSTORE + QUERY reply wrong or missing");
    if (ok) lat->write.push_back({UsSince(t0), chunk});
    return;
  }
  int pick = static_cast<int>(rng->Below(kLightPm + kHeavyPm + kQueryPm));
  if (pick < kLightPm) {
    auto r = [&] {
      Scope span(&ctx_->spans, "client.light");
      return c.Call(LightRequest());
    }();
    bool ok = IsInt(r, 3 + (count ? ctx_->Skew() : 0));
    Note(count, "call.light", 1, !ok, "light CALL reply wrong or missing");
    if (ok) lat->light.push_back({UsSince(t0), chunk});
  } else if (pick < kLightPm + kHeavyPm) {
    auto r = [&] {
      Scope span(&ctx_->spans, "client.heavy");
      return c.Call(HeavyRequest());
    }();
    // work(3,4,n) = 5 * (n + 1)
    bool ok = r.ok() && r->tag == tml::server::TAG_DBL &&
              r->d == 5.0 * (kWorkDepth + 1);
    Note(count, "call.heavy", 1, !ok, "heavy CALL reply wrong or missing");
    if (ok) lat->heavy.push_back({UsSince(t0), chunk});
  } else {
    int view = static_cast<int>(rng->Below(kViews));
    auto r = [&] {
      Scope span(&ctx_->spans, "client.query");
      return c.Call(QueryRequest(view, svc_->rel_oid));
    }();
    bool ok = IsInt(r, in_->counts[view]);
    Note(count, "query", 1, !ok, "QUERY count wrong or missing");
    if (ok) lat->query.push_back({UsSince(t0), chunk});
  }
}

void Mixed::Drive(uint64_t end_ns, Rng rng, Lat* lat, bool count) {
  const WireValue light = LightRequest();
  const uint64_t t0 = NowNs();
  uint64_t writes = 0;
  uint64_t chunk_t0 = t0;
  double ref_before = ctx_->SampleRef();
  for (;;) {
    uint64_t now = NowNs();
    if (now - chunk_t0 >= kChunkNs || now >= end_ns) {
      // Close the chunk: nothing is in flight here.
      double ref_after = ctx_->SampleRef();
      lat->chunk_s.push_back((now - chunk_t0) * 1e-9);
      lat->ref.push_back(std::sqrt(ref_before * ref_after));
      ref_before = ref_after;
      if (now >= end_ns) break;
      chunk_t0 = NowNs();
      now = chunk_t0;
    }
    const uint32_t chunk = static_cast<uint32_t>(lat->chunk_s.size());

    int sent = 0;
    for (; sent < kBulkDepth; ++sent) {
      if (!bulk_.Send(light).ok()) break;
    }
    bool write = count && writes < (now - t0) / kWriteEveryNs;
    writes += write;
    Interactive(write, &rng, lat, chunk, count);
    if (count) lat->interactive_done++;
    // A dead connection is re-dialled; the failure is already counted.
    if (!interactive_.connected()) (void)interactive_.Reconnect();

    int good = 0;
    {
      Scope span(&ctx_->spans, "client.bulk_batch");
      for (int k = 0; k < sent; ++k) {
        auto r = bulk_.Recv();
        if (!r.ok()) break;
        good += IsInt(r, 3);
      }
    }
    Note(count, "call.bulk", kBulkDepth, kBulkDepth - good,
         "bulk CALL reply wrong or missing");
    if (count) lat->bulk_done += good;
    if (good < kBulkDepth) {
      // Replies may be out of step now: start over on a fresh connection.
      (void)bulk_.Reconnect();
    }
  }
}

double Mixed::RunWindow(double seconds, Lat* lat) {
  uint64_t t0 = NowNs();
  uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
  Drive(end, Rng(ctx_->seed * 0x9e3779b97f4a7c15ull + (++window_)), lat, true);
  return SecondsSince(t0);
}

}  // namespace

Outcome RunTycdMixed(Ctx* ctx) {
  Outcome out;
  Inputs in = MakeInputs(ctx->seed);
  Mixed mixed(ctx, &out, &in);
  bool trace = ctx->trace;
  ctx->spans.on = false;
  // Set-up is bringing the service up: store, installs, server, clients
  // and the OPTIMIZE calls, 21 times.  The warm-up after the last one
  // waits on the adaptive manager's timer, not on work, so it is not
  // counted.
  out.e2e["setup_s"] = SetupMedian(ctx, &out, 21, [&](int round) {
    mixed.Stop();
    uint64_t t0 = NowNs();
    mixed.Start(round);
    return SecondsSince(t0);
  });
  mixed.Warmup();

  Lat lat;
  double untraced_s = trace ? ctx->seconds / 3 : ctx->seconds;
  double elapsed = mixed.RunWindow(untraced_s, &lat);
  double ops = lat.interactive_done / elapsed;
  out.e2e["ops_per_s"] = lat.OpsPerSecond(true);
  out.e2e["fast_p50_us"] = Median(lat.Cal(lat.light));
  out.e2e["slow_p50_us"] = Median(lat.Cal(lat.heavy));
  out.detail.push_back({"raw.ops_per_s", lat.OpsPerSecond(false), "1/s"});
  out.detail.push_back({"raw.fast_p50_us", Median(lat.Raw(lat.light)), "us"});
  out.detail.push_back({"raw.slow_p50_us", Median(lat.Raw(lat.heavy)), "us"});
  // The issue-level figures, raw.
  out.detail.push_back({"interactive_ops_per_s", ops, "1/s"});
  out.detail.push_back({"bulk_ops_per_s", lat.bulk_done / elapsed, "1/s"});
  out.detail.push_back({"light_p50_us", Median(lat.Raw(lat.light)), "us"});
  out.detail.push_back({"light_p99_us", Quantile(lat.Raw(lat.light), 0.99), "us"});
  out.detail.push_back({"heavy_p50_us", Median(lat.Raw(lat.heavy)), "us"});
  out.detail.push_back({"query_p50_us", Median(lat.Raw(lat.query)), "us"});
  out.detail.push_back({"write_p50_us", Median(lat.Raw(lat.write)), "us"});
  out.detail.push_back({"light_n", static_cast<double>(lat.light.size()), "count"});
  out.detail.push_back({"query_n", static_cast<double>(lat.query.size()), "count"});
  out.detail.push_back({"write_n", static_cast<double>(lat.write.size()), "count"});

  if (trace) {
    Service& s = mixed.svc();
    Universe* u = s.u.get();
    ctx->spans.on = true;
    auto before = RegistrySnapshot();
    uint64_t flight0 = tml::telemetry::FlightRecorder::Global().recorded();
    uint64_t promos0 = u->adaptive_counters().promotions;
    Lat tl;
    double traced_s = mixed.RunWindow(ctx->seconds - untraced_s, &tl);
    auto after = RegistrySnapshot();
    WindowCounters(before, after, &out.layers);
    double requests = out.layers["window.server_requests"];
    out.layers["telemetry.trace_overhead"] = ops / (tl.interactive_done / traced_s);
    out.layers["telemetry.flight_events_per_request"] =
        (tml::telemetry::FlightRecorder::Global().recorded() - flight0) / requests;
    out.layers["adaptive.promotions_in_window"] =
        static_cast<double>(u->adaptive_counters().promotions - promos0);
    out.layers["server.queue_wait_us_p50"] =
        HistogramDelta(before, after, "tml.server.queue_wait_us").Quantile(0.5);
    out.layers["server.cmd_us_p50.call"] =
        HistogramDelta(before, after, "tml.server.cmd_us{cmd=CALL}").Quantile(0.5);
    out.layers["server.cmd_us_p50.query"] =
        HistogramDelta(before, after, "tml.server.cmd_us{cmd=QUERY}").Quantile(0.5);
    out.layers["server.cmd_us_p50.relstore"] =
        HistogramDelta(before, after, "tml.server.cmd_us{cmd=RELSTORE}").Quantile(0.5);
    out.layers["server.batch_frames_mean"] =
        HistogramDelta(before, after, "tml.server.batch_frames").Mean();
    ctx->spans.on = false;

    // Layer probes, after the window, from this thread.
    std::vector<double> rtt;
    for (int i = 0; i < 2000; ++i) {
      uint64_t t0 = NowNs();
      auto r = mixed.interactive().Call(Req({S("ping")}));
      if (r.ok() && r->is_str()) rtt.push_back(UsSince(t0));
    }
    out.layers["server.ping_rtt_us"] = Median(rtt);
    {
      std::string buf;
      WireValue req = LightRequest(), v;
      constexpr int kFrames = 100000;
      uint64_t t0 = NowNs();
      for (int i = 0; i < kFrames; ++i) {
        buf.clear();
        (void)tml::server::EncodeFrame(req, &buf);
        size_t used = 0;
        (void)tml::server::DecodeFrame(reinterpret_cast<const uint8_t*>(buf.data()),
                                       buf.size(), &v, &used);
      }
      out.layers["server.codec_ns_per_frame"] = (NowNs() - t0) / double{kFrames};
    }
    {
      // In-process Universe::Call of complex.getx on the primary VM.
      auto make = u->Lookup("complex", "make");
      auto getx = u->Lookup("complex", "getx");
      tml::vm::Value xy[] = {tml::vm::Value::Int(3), tml::vm::Value::Int(4)};
      auto c = u->Call(*make, xy);
      if (!c.ok()) Fatal("probe make: " + c.status().ToString());
      u->vm()->Pin(c->value);
      tml::vm::Value arg[] = {c->value};
      std::vector<double> us;
      for (int i = 0; i < 20000; ++i) {
        uint64_t t0 = NowNs();
        auto r = u->Call(*getx, arg);
        us.push_back(UsSince(t0));
        if (!r.ok() || r->value.i != 3) Fatal("probe getx: wrong answer");
      }
      out.layers["runtime.call_overhead_us"] = Median(us);
      // The same query the server runs, in process.
      auto q0 = u->Lookup("views", "q0");
      tml::vm::Value rel[] = {tml::vm::Value::OidV(static_cast<Oid>(s.rel_oid))};
      std::vector<double> scan;
      for (int i = 0; i < 50; ++i) {
        uint64_t t0 = NowNs();
        auto r = u->Call(*q0, rel);
        scan.push_back(UsSince(t0));
        if (!r.ok() || r->value.i != in.counts[0]) Fatal("probe query: wrong count");
      }
      out.layers["query.scan_ns_per_tuple"] = Median(scan) * 1e3 / kTuples;
    }
    {
      Rng gen(ctx->seed);
      std::string bytes =
          tml::query::EncodeRelation(MakeRelation(&gen, kWriteRows, in.keys));
      std::vector<double> us;
      for (int i = 0; i < 2000; ++i) {
        tml::vm::VM vm;
        uint64_t t0 = NowNs();
        auto v = tml::query::RelationToHeap(bytes, vm.heap());
        us.push_back(UsSince(t0));
        if (!v.ok()) Fatal("probe fault-in: " + v.status().ToString());
      }
      out.layers["query.relation_fault_in_us"] = Median(us);
    }
    Universe::SizeReport sz = u->Sizes();
    out.layers["store.ptml_ratio"] =
        static_cast<double>(sz.code_bytes + sz.ptml_bytes) / sz.code_bytes;
    double write_bytes = static_cast<double>(CounterSum(after, "tml.store.write_bytes") -
                                             CounterSum(before, "tml.store.write_bytes"));
    s.server->Stop();
    s.server->Join();
    u->StopServices();
    out.layers["store.write_bytes_per_live_byte"] =
        write_bytes / static_cast<double>(s.store->live_bytes());
  }
  mixed.svc().Shutdown();
  out.e2e["peak_rss_mb"] = PeakRssMb();
  return out;
}

}  // namespace perfbench
