// forcebench: time to solution of three verified Force kernels under five
// team configurations, and a traced run that splits each solve by runtime
// layer. See README.md in this directory for the workloads, the metrics
// and how to read the spans; run.py is the entry point.
//
//   forcebench --workload cmfd|tree|pipeline --seed N --seconds S --trace 0|1
//              [--size full|tiny] [--corrupt-every K] [--spans PATH]
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
// are the end-to-end times, with --trace 1 the per-layer figures.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/force.hpp"
#include "kernels.hpp"
#include "spans.hpp"
#include "util/cli.hpp"

namespace {

using perfbench::Layer;
using perfbench::NoRec;
using perfbench::Rec;
using perfbench::Span;
using perfbench::SpanStore;

/// Team size on every workload: on a 4-CPU host this leaves a core for the
/// cluster coordinator and the driver, so no configuration oversubscribes.
constexpr int kNp = 3;

/// A solve slower than this counts as failed (timed out).
constexpr double kSolveLimitNs = 30e9;

/// Set-ups per run; setup_s is their median. A set-up's parts take a
/// millisecond or a few each, depending on page faults and fork, so one
/// set-up varies by a third; five keep the median within a tenth or so.
constexpr int kSetups = 5;

/// Spans per member and solve; the pipeline's middle stage needs the most
/// (a consume, a body and a produce per item).
constexpr std::int64_t kSpanCapacity = std::int64_t{1} << 17;

struct Backend {
  const char* name;
  force::ForceConfig cfg;
};

std::vector<Backend> make_backends() {
  const auto cfg = [](const char* model, bool pool) {
    force::ForceConfig c;
    c.nproc = kNp;
    c.machine = "native";
    c.barrier_algorithm = "paper-lock";
    c.process_model = model;
    c.team_pool = pool;
    return c;
  };
  return {{"thread", cfg("machine", false)},
          {"thread_pooled", cfg("machine", true)},
          {"osfork", cfg("os-fork", false)},
          {"osfork_pooled", cfg("os-fork", true)},
          {"cluster", cfg("cluster", false)}};
}

struct Sizes {
  int cmfd_n;
  int cmfd_iters;
  int tree_full_depth;
  int tree_tail;
  int tree_rounds;
  std::int64_t pipe_items;
};

constexpr Sizes kFull{48, 100, 11, 6, 48, 20000};
constexpr Sizes kTiny{12, 10, 5, 4, 4, 500};

// --- workloads --------------------------------------------------------------

/// One workload bound to one Force: the program closure (the same object,
/// hence the same closure type, on every run, as pooled os-fork requires),
/// and the driver-side reset / verify / corrupt hooks run outside timing.
struct Instance {
  std::function<void(force::Ctx&)> program;
  std::function<void()> reset;
  std::function<bool()> verify;
  std::function<void()> corrupt;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Computes the expected answer for this seed (part of set-up).
  virtual void compute_oracle() = 0;
  /// One sequential oracle solve into scratch state; true if it matches.
  virtual bool solve_seq() = 0;
  virtual Instance attach(force::Force& f, const SpanStore* store) = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
  [[nodiscard]] virtual bool seed_used() const { return true; }
};

/// Wraps a kernel into a member program that records spans when the
/// driver switched tracing on for this solve.
template <typename Kernel>
std::function<void(force::Ctx&)> member_program(const SpanStore* store,
                                                Kernel kernel) {
  return [store, kernel](force::Ctx& ctx) {
    if (store->control().tracing != 0) {
      Rec rec(*store, ctx.me0());
      kernel(ctx, rec);
    } else {
      NoRec rec;
      kernel(ctx, rec);
    }
  };
}

class CmfdWorkload final : public Workload {
 public:
  explicit CmfdWorkload(const Sizes& z)
      : n_(z.cmfd_n), iters_(z.cmfd_iters) {}

  void compute_oracle() override {
    cmfd_oracle(*expect_, n_, kTol, iters_);
  }
  bool solve_seq() override {
    cmfd_oracle(*scratch_, n_, kTol, iters_);
    return std::memcmp(scratch_.get(), expect_.get(), sizeof(perfbench::CmfdState)) == 0;
  }
  Instance attach(force::Force& f, const SpanStore* store) override {
    auto* s = &f.shared<perfbench::CmfdState>("cmfd_state");
    const int n = n_;
    const int iters = iters_;
    const perfbench::CmfdState* expect = expect_.get();
    Instance in;
    in.program = member_program(store, [s, n, iters](force::Ctx& ctx, auto& rec) {
      perfbench::cmfd_parallel(ctx, rec, *s, n, kTol, iters);
    });
    in.reset = [s, n] { perfbench::cmfd_init(*s, n); };
    in.verify = [s, expect] {
      return std::memcmp(s, expect, sizeof(perfbench::CmfdState)) == 0;
    };
    in.corrupt = [s] { s->flux[kCorruptCell] += 1.0; };
    return in;
  }
  [[nodiscard]] std::string describe() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "cmfd: %dx%d mesh, %d power iterations, k-eff %.9f, "
                  "leakage %.6f (seed unused)",
                  n_, n_, iters_, expect_->keff, expect_->leakage);
    return buf;
  }
  [[nodiscard]] bool seed_used() const override { return false; }

 private:
  /// bench_apps' tolerance; the residual stays above it for far more than
  /// the fixed iteration count, so every solve runs exactly `iters_`.
  static constexpr double kTol = 1e-4;
  static constexpr int kCorruptCell = perfbench::kCmfdMax + 1;
  int n_;
  int iters_;
  std::unique_ptr<perfbench::CmfdState> expect_ =
      std::make_unique<perfbench::CmfdState>();
  std::unique_ptr<perfbench::CmfdState> scratch_ =
      std::make_unique<perfbench::CmfdState>();
};

class TreeWorkload final : public Workload {
 public:
  TreeWorkload(const Sizes& z, std::uint64_t seed)
      : p_{perfbench::mix64(seed), z.tree_full_depth,
           z.tree_full_depth + z.tree_tail, z.tree_rounds} {}

  void compute_oracle() override { expect_ = tree_oracle(p_); }
  bool solve_seq() override {
    const perfbench::TreeShared r = tree_oracle(p_);
    return r.sum == expect_.sum && r.nodes == expect_.nodes;
  }
  Instance attach(force::Force& f, const SpanStore* store) override {
    auto* s = &f.shared<perfbench::TreeShared>("tree_totals");
    const perfbench::TreeParams p = p_;
    const perfbench::TreeShared expect = expect_;
    Instance in;
    in.program = member_program(store, [s, p](force::Ctx& ctx, auto& rec) {
      perfbench::tree_parallel(ctx, rec, *s, p);
    });
    // The kernel zeroes the totals itself; poison them so a solve that
    // skipped the work cannot pass on the previous answer.
    in.reset = [s] { *s = {~std::uint64_t{0}, -1}; };
    in.verify = [s, expect] {
      return s->sum == expect.sum && s->nodes == expect.nodes;
    };
    in.corrupt = [s] { s->sum ^= 1; };
    return in;
  }
  [[nodiscard]] std::string describe() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "tree: %" PRId64 " nodes (full to depth %d, tails to %d, "
                  "%d hash rounds per node), checksum %016" PRIx64,
                  expect_.nodes, p_.full_depth, p_.max_depth, p_.rounds,
                  expect_.sum);
    return buf;
  }
  [[nodiscard]] std::int64_t nodes() const { return expect_.nodes; }

 private:
  perfbench::TreeParams p_;
  perfbench::TreeShared expect_{0, 0};
};

class PipelineWorkload final : public Workload {
 public:
  PipelineWorkload(const Sizes& z, std::uint64_t seed)
      : items_(z.pipe_items), salt_(perfbench::mix64(seed)) {}

  void compute_oracle() override {
    expect_ = perfbench::pipe_oracle(items_, kNp, salt_);
  }
  bool solve_seq() override {
    return perfbench::pipe_oracle(items_, kNp, salt_) == expect_;
  }
  Instance attach(force::Force& f, const SpanStore* store) override {
    auto* s = &f.shared<perfbench::PipeShared>("pipe_sink");
    const std::int64_t items = items_;
    const std::uint64_t salt = salt_;
    const std::uint64_t expect = expect_;
    Instance in;
    in.program =
        member_program(store, [s, items, salt](force::Ctx& ctx, auto& rec) {
          perfbench::pipe_parallel(ctx, rec, *s, items, salt);
        });
    in.reset = [s] { *s = {0, 0}; };
    in.verify = [s, expect, items] {
      return s->sink == expect && s->delivered == items;
    };
    in.corrupt = [s] { s->sink ^= 1; };
    return in;
  }
  [[nodiscard]] std::string describe() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "pipeline: %" PRId64 " items through %d stages (ring %" PRId64
                  "), checksum %016" PRIx64,
                  items_, kNp, perfbench::kPipeRing, expect_);
    return buf;
  }

 private:
  std::int64_t items_;
  std::uint64_t salt_;
  std::uint64_t expect_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Sizes& z, std::uint64_t seed) {
  if (name == "cmfd") return std::make_unique<CmfdWorkload>(z);
  if (name == "tree") return std::make_unique<TreeWorkload>(z, seed);
  if (name == "pipeline") return std::make_unique<PipelineWorkload>(z, seed);
  return nullptr;
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// --- per-layer analysis of one traced solve ---------------------------------

/// The per-layer figures of one traced solve (see README.md for each).
struct LayerSample {
  double entry_us, join_us, create_us;
  double barrier_calls, barrier_call_ns, barrier_release_ns, barrier_wait_ns;
  double doall_trips, doall_ns_per_trip;
  double reduce_calls, reduce_call_ns, reduce_release_ns;
  double askfor_tasks, askfor_ns_per_task, askfor_imbalance;
  double async_handoffs, async_produce_ns, async_consume_ns;
  double body_ms, busy_share, unattributed_share;
};

/// The k-th call of a collective in every member is one episode (SPMD
/// order). The last arriver (latest start) waited for nobody, so its self
/// time is the release cost; the others' self time is waiting.
struct Episodes {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> calls;  // per member: (start, self)
  double count = 0, call_ns = 0, release_ns = 0, wait_ns = 0;

  explicit Episodes(int members) : calls(static_cast<std::size_t>(members)) {}

  /// False if members disagree on the number of calls.
  bool finish() {
    const std::size_t k = calls[0].size();
    for (const auto& c : calls) {
      if (c.size() != k) return false;
    }
    if (k == 0) return true;
    double total = 0, release = 0, wait = 0;
    for (std::size_t e = 0; e < k; ++e) {
      std::size_t last = 0;
      for (std::size_t m = 0; m < calls.size(); ++m) {
        total += static_cast<double>(calls[m][e].second);
        if (calls[m][e].first > calls[last][e].first) last = m;
      }
      release += static_cast<double>(calls[last][e].second);
      for (std::size_t m = 0; m < calls.size(); ++m) {
        if (m != last) wait += static_cast<double>(calls[m][e].second);
      }
    }
    const double members = static_cast<double>(calls.size());
    count = static_cast<double>(k);
    call_ns = total / (count * members);
    release_ns = release / count;
    wait_ns = members > 1 ? wait / (count * (members - 1)) : 0.0;
    return true;
  }
};

/// Splits one traced solve into layers. `t_call`/`t_return` bracket the
/// Force::run call in the driver. Returns false (with `why`) if the spans
/// are incomplete.
bool analyse(const SpanStore& store, std::int64_t t_call, std::int64_t t_return,
             const force::machdep::SpawnStats& spawn, LayerSample& out,
             std::string& why) {
  const int np = store.members();
  Episodes barrier(np);
  Episodes reduce(np);
  double doall_self = 0, trips = 0, askfor_self = 0, produce_ns = 0,
         consume_ns = 0, produces = 0, consumes = 0, body_ns = 0,
         unattributed = 0;
  std::vector<double> tasks(static_cast<std::size_t>(np), 0.0);
  std::int64_t last_enter = 0, last_leave = 0;
  for (int m = 0; m < np; ++m) {
    const auto& hdr = store.member(m);
    const Span* sp = store.spans(m);
    if (hdr.overflowed != 0) {
      why = "span buffer overflow";
      return false;
    }
    if (hdr.count < 1 || sp[0].layer != Layer::kMember || sp[0].end == 0) {
      why = "member " + std::to_string(m + 1) + " recorded no member span";
      return false;
    }
    const auto n = static_cast<std::size_t>(hdr.count);
    std::vector<std::int64_t> covered(n, 0);
    for (std::size_t i = 1; i < n; ++i) {
      const auto parent = static_cast<std::size_t>(sp[i].parent);
      if (sp[i].parent < 0 || parent >= i || sp[i].end < sp[i].start) {
        why = "malformed span nesting";
        return false;
      }
      covered[parent] += sp[i].end - sp[i].start;
    }
    for (std::size_t i = 1; i < n; ++i) {
      const std::int64_t self = sp[i].end - sp[i].start - covered[i];
      const Layer parent_layer = sp[sp[i].parent].layer;
      switch (sp[i].layer) {
        case Layer::kBody:
          body_ns += static_cast<double>(self);
          if (parent_layer == Layer::kDoall) trips += 1;
          if (parent_layer == Layer::kAskforWork) tasks[static_cast<std::size_t>(m)] += 1;
          break;
        case Layer::kBarrier:
          barrier.calls[static_cast<std::size_t>(m)].emplace_back(sp[i].start, self);
          break;
        case Layer::kReduce:
          reduce.calls[static_cast<std::size_t>(m)].emplace_back(sp[i].start, self);
          break;
        case Layer::kDoall:
          doall_self += static_cast<double>(self);
          break;
        case Layer::kAskforWork:
        case Layer::kAskforPut:
          askfor_self += static_cast<double>(self);
          break;
        case Layer::kProduce:
          produce_ns += static_cast<double>(self);
          produces += 1;
          break;
        case Layer::kConsume:
          consume_ns += static_cast<double>(self);
          consumes += 1;
          break;
        case Layer::kCritical:
        case Layer::kMember:
          break;
      }
    }
    unattributed += static_cast<double>(sp[0].end - sp[0].start - covered[0]);
    last_enter = m == 0 ? sp[0].start : std::max(last_enter, sp[0].start);
    last_leave = m == 0 ? sp[0].end : std::max(last_leave, sp[0].end);
  }
  if (!barrier.finish() || !reduce.finish()) {
    why = "members disagree on collective call counts";
    return false;
  }
  const double wall = static_cast<double>(t_return - t_call);
  const double member_time = wall * np;
  out.entry_us = static_cast<double>(last_enter - t_call) / 1e3;
  out.join_us = static_cast<double>(t_return - last_leave) / 1e3;
  out.create_us = static_cast<double>(spawn.create_ns) / 1e3;
  out.barrier_calls = barrier.count;
  out.barrier_call_ns = barrier.call_ns;
  out.barrier_release_ns = barrier.release_ns;
  out.barrier_wait_ns = barrier.wait_ns;
  out.doall_trips = trips;
  out.doall_ns_per_trip = trips > 0 ? doall_self / trips : 0.0;
  out.reduce_calls = reduce.count;
  out.reduce_call_ns = reduce.call_ns;
  out.reduce_release_ns = reduce.release_ns;
  double total_tasks = 0, max_tasks = 0;
  for (double t : tasks) {
    total_tasks += t;
    max_tasks = std::max(max_tasks, t);
  }
  out.askfor_tasks = total_tasks;
  out.askfor_ns_per_task = total_tasks > 0 ? askfor_self / total_tasks : 0.0;
  out.askfor_imbalance = total_tasks > 0 ? max_tasks / (total_tasks / np) : 0.0;
  out.async_handoffs = produces;
  out.async_produce_ns = produces > 0 ? produce_ns / produces : 0.0;
  out.async_consume_ns = consumes > 0 ? consume_ns / consumes : 0.0;
  out.body_ms = body_ns / 1e6;
  out.busy_share = body_ns / member_time;
  out.unattributed_share = unattributed / member_time;
  return true;
}

/// Per-layer metric names (after the "<backend>." prefix) and units.
struct LayerField {
  const char* name;
  const char* unit;
  double LayerSample::*field;
};

constexpr LayerField kLayerFields[] = {
    {"force.entry_us", "us", &LayerSample::entry_us},
    {"force.join_us", "us", &LayerSample::join_us},
    {"process.create_us", "us", &LayerSample::create_us},
    {"barrier.calls", "count", &LayerSample::barrier_calls},
    {"barrier.call_ns", "ns", &LayerSample::barrier_call_ns},
    {"barrier.release_ns", "ns", &LayerSample::barrier_release_ns},
    {"barrier.wait_ns", "ns", &LayerSample::barrier_wait_ns},
    {"doall.trips", "count", &LayerSample::doall_trips},
    {"doall.ns_per_trip", "ns", &LayerSample::doall_ns_per_trip},
    {"reduce.calls", "count", &LayerSample::reduce_calls},
    {"reduce.call_ns", "ns", &LayerSample::reduce_call_ns},
    {"reduce.release_ns", "ns", &LayerSample::reduce_release_ns},
    {"askfor.tasks", "count", &LayerSample::askfor_tasks},
    {"askfor.ns_per_task", "ns", &LayerSample::askfor_ns_per_task},
    {"askfor.imbalance", "ratio", &LayerSample::askfor_imbalance},
    {"async.handoffs", "count", &LayerSample::async_handoffs},
    {"async.produce_ns", "ns", &LayerSample::async_produce_ns},
    {"async.consume_ns", "ns", &LayerSample::async_consume_ns},
    {"kernel.body_ms", "ms", &LayerSample::body_ms},
    {"kernel.busy_share", "ratio", &LayerSample::busy_share},
    {"unattributed_share", "ratio", &LayerSample::unattributed_share},
};

// --- the run ----------------------------------------------------------------

/// A hung solve never returns from Force::run, so the time limit is also
/// enforced from a monitor thread. Once an armed solve passes
/// kSolveLimitNs, it counts that solve as failed, prints the record and a
/// failed result, and ends the process with exit code 1. Force members left
/// behind are stopped by run.py.
class Watchdog {
 public:
  Watchdog(std::string workload, std::uint64_t seed)
      : workload_(std::move(workload)), seed_(seed), thread_([this] { loop(); }) {}
  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// `attempted` and `failed` are the run's totals, this solve included
  /// in `attempted`.
  void arm(const char* backend, std::uint32_t solve, std::int64_t attempted,
           std::int64_t failed) {
    backend_.store(backend);
    solve_.store(solve);
    attempted_.store(attempted);
    failed_.store(failed);
    started_.store(perfbench::now_ns(), std::memory_order_release);
  }
  void disarm() { started_.store(0, std::memory_order_release); }

 private:
  void loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const std::int64_t t0 = started_.load(std::memory_order_acquire);
      if (t0 != 0 && static_cast<double>(perfbench::now_ns() - t0) > kSolveLimitNs) {
        fire(t0);
      }
    }
  }

  [[noreturn]] void fire(std::int64_t t0) {
    const double secs = static_cast<double>(perfbench::now_ns() - t0) / 1e9;
    std::fprintf(stderr, "solve %u on %s timed out (still running after %.1f s)\n",
                 solve_.load(), backend_.load(), secs);
    std::printf("record: {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"timed_out\": {\"backend\": \"%s\", \"solve\": %u, "
                "\"seconds\": %.3f}}\n",
                workload_.c_str(), seed_, backend_.load(), solve_.load(), secs);
    std::printf("{\"correct\": false, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {}}\n",
                attempted_.load(), failed_.load() + 1);
    std::fflush(stdout);
    std::_Exit(1);
  }

  std::string workload_;
  std::uint64_t seed_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> started_{0};
  std::atomic<const char*> backend_{""};
  std::atomic<std::uint32_t> solve_{0};
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
  std::thread thread_;  // last: started once every field above exists
};

struct BackendRun {
  const char* name = "";
  std::unique_ptr<force::Force> force;
  Instance inst;
  std::vector<double> walls;         ///< verified untraced solves, ns
  std::vector<double> traced_walls;  ///< verified traced solves, ns
  std::vector<LayerSample> layers;
  force::machdep::SpawnStats last_spawn;  ///< of the last solve that returned
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool spans_written = false;
};

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a.empty() ? "unknown" : a + " " + b + " " + c;
}

/// Seconds of one set-up, split by part (see Bench::setup).
struct SetupTimes {
  double setup_s;
  double verify_s;
  double cluster_verify_s;
};

class Bench {
 public:
  Bench(Workload& w, SpanStore& store, Watchdog& watchdog,
        std::int64_t corrupt_every, std::string spans_path)
      : w_(w),
        store_(store),
        watchdog_(watchdog),
        corrupt_every_(corrupt_every),
        spans_path_(std::move(spans_path)) {}

  /// Computes the oracle, builds the five Force instances and runs one
  /// untimed verification solve per backend. `setup_s` is the oracle, the
  /// five Forces and the team creation (SpawnStats::create_ns) of each
  /// shared-memory backend's first solve, where pools are spawned. The
  /// verification solves' wall times are returned apart: like the timed
  /// solves, they follow the host's steal phases. A repeat first tears down
  /// the previous set-up's instances, untimed; the attempt and failure
  /// counts carry over.
  SetupTimes setup() {
    for (auto& r : runs_) {
      r.inst = Instance{};
      r.force.reset();
    }
    const auto backends = make_backends();
    runs_.resize(backends.size());
    const std::int64_t t0 = perfbench::now_ns();
    w_.compute_oracle();
    for (std::size_t b = 0; b < backends.size(); ++b) {
      runs_[b].name = backends[b].name;
      runs_[b].force = std::make_unique<force::Force>(backends[b].cfg);
      runs_[b].inst = w_.attach(*runs_[b].force, &store_);
    }
    SetupTimes out{static_cast<double>(perfbench::now_ns() - t0) / 1e9, 0, 0};
    for (auto& r : runs_) {
      const double wall = std::max(0.0, solve(r, false, false)) / 1e9;
      if (std::strcmp(r.name, "cluster") == 0) {
        out.cluster_verify_s = wall;
      } else {
        out.verify_s += wall;
        out.setup_s += static_cast<double>(r.last_spawn.create_ns) / 1e9;
      }
    }
    return out;
  }

  /// One verified solve. Returns its wall time in ns, or a negative value
  /// if it failed. `keep` adds the time to the samples.
  double solve(BackendRun& r, bool traced, bool keep) {
    r.inst.reset();
    auto& ctl = store_.control();
    ctl.tracing = traced ? 1 : 0;
    ctl.solve = ++solve_id_;
    if (traced) store_.clear();
    r.attempted += 1;
    watchdog_.arm(r.name, ctl.solve, total_attempted(), total_failed());
    force::machdep::SpawnStats spawn;
    std::int64_t t_call = 0, t_return = 0;
    try {
      t_call = perfbench::now_ns();
      spawn = r.force->run(r.inst.program);
      t_return = perfbench::now_ns();
    } catch (const std::exception& e) {
      watchdog_.disarm();
      std::fprintf(stderr, "solve %u on %s failed: %s\n", ctl.solve,
                   r.name, e.what());
      r.failed += 1;
      return -1;
    }
    watchdog_.disarm();
    r.last_spawn = spawn;
    ctl.tracing = 0;
    if (corrupt_every_ > 0 && r.attempted % corrupt_every_ == 0) {
      r.inst.corrupt();
    }
    const auto wall = static_cast<double>(t_return - t_call);
    if (!r.inst.verify()) {
      std::fprintf(stderr,
                   "solve %u on %s disagrees with the sequential oracle\n",
                   ctl.solve, r.name);
      r.failed += 1;
      return -1;
    }
    if (wall > kSolveLimitNs) {
      std::fprintf(stderr, "solve %u on %s timed out (%.1f s)\n", ctl.solve,
                   r.name, wall / 1e9);
      r.failed += 1;
      return -1;
    }
    if (!keep) return wall;
    if (!traced) {
      r.walls.push_back(wall);
      return wall;
    }
    LayerSample ls{};
    std::string why;
    if (!analyse(store_, t_call, t_return, spawn, ls, why)) {
      std::fprintf(stderr, "traced solve %u on %s: %s\n", ctl.solve,
                   r.name, why.c_str());
      r.failed += 1;
      return -1;
    }
    r.traced_walls.push_back(wall);
    r.layers.push_back(ls);
    if (!spans_path_.empty() && !r.spans_written) {
      write_spans(r.name, t_call, t_return);
      r.spans_written = true;
    }
    return wall;
  }

  double seq_solve(bool keep) {
    seq_attempted_ += 1;
    const std::int64_t t0 = perfbench::now_ns();
    const bool ok = w_.solve_seq();
    const auto wall = static_cast<double>(perfbench::now_ns() - t0);
    if (!ok) {
      std::fprintf(stderr, "sequential oracle is not reproducible\n");
      seq_failed_ += 1;
      return -1;
    }
    if (keep) seq_walls_.push_back(wall);
    return wall;
  }

  /// Rounds until `seconds` have passed. A round is kSlots slots; each
  /// slot runs one solve of every shared-memory backend and of the oracle,
  /// and one slot of the round also runs the cluster solve, which is 10 to
  /// 200 times slower. The order inside a slot and the cluster's slot
  /// rotate from round to round, so a host-noise phase hits every backend
  /// alike. With `trace`, every solve is an untraced and a traced one, in
  /// alternating order.
  void measure(double seconds, bool trace) {
    const std::int64_t deadline =
        perfbench::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t nb = runs_.size();
    for (std::int64_t round = 0; perfbench::now_ns() < deadline; ++round) {
      for (int j = 0; j < kSlots; ++j) {
        for (std::size_t k = 0; k < nb; ++k) {
          BackendRun& r = runs_[(k + static_cast<std::size_t>(round + j)) % nb];
          if (std::strcmp(r.name, "cluster") == 0 && j != round % kSlots) continue;
          if (!trace) {
            solve(r, false, true);
          } else if ((round + j) % 2 == 0) {
            solve(r, false, true);
            solve(r, true, true);
          } else {
            solve(r, true, true);
            solve(r, false, true);
          }
        }
        if (!trace) seq_solve(true);
      }
      rounds_ += 1;
    }
  }

  /// Attempts and failures so far over every backend and the oracle.
  [[nodiscard]] std::int64_t total_attempted() const {
    std::int64_t n = seq_attempted_;
    for (const auto& r : runs_) n += r.attempted;
    return n;
  }
  [[nodiscard]] std::int64_t total_failed() const {
    std::int64_t n = seq_failed_;
    for (const auto& r : runs_) n += r.failed;
    return n;
  }

  [[nodiscard]] const std::vector<BackendRun>& runs() const { return runs_; }
  [[nodiscard]] const std::vector<double>& seq_walls() const { return seq_walls_; }
  [[nodiscard]] std::int64_t rounds() const { return rounds_; }
  [[nodiscard]] std::int64_t seq_attempted() const { return seq_attempted_; }
  [[nodiscard]] std::int64_t seq_failed() const { return seq_failed_; }

 private:
  /// Shared-memory solves per cluster solve. In a quiet 20 s run this
  /// gives the slowest workload (pipeline) about 12 cluster samples and
  /// about 70 per shared-memory backend.
  static constexpr int kSlots = 6;

  void write_spans(const std::string& backend, std::int64_t t_call,
                   std::int64_t t_return) const {
    static const char* kLayer[] = {"member",      "body",    "barrier",
                                   "doall",       "reduce",  "askfor.work",
                                   "askfor.put",  "produce", "consume",
                                   "critical"};
    const bool first = !spans_started_;
    std::FILE* f = std::fopen(spans_path_.c_str(), first ? "w" : "a");
    if (f == nullptr) return;
    if (first) {
      std::fputs("backend,solve,member,id,parent,layer,start_ns,end_ns\n", f);
    }
    spans_started_ = true;
    std::fprintf(f, "%s,%u,0,-1,-1,run,0,%" PRId64 "\n", backend.c_str(),
                 store_.control().solve, t_return - t_call);
    for (int m = 0; m < store_.members(); ++m) {
      const Span* sp = store_.spans(m);
      for (std::int64_t i = 0; i < store_.member(m).count; ++i) {
        std::fprintf(f, "%s,%u,%d,%" PRId64 ",%d,%s,%" PRId64 ",%" PRId64 "\n",
                     backend.c_str(), sp[i].solve, m + 1, i, sp[i].parent,
                     kLayer[static_cast<int>(sp[i].layer)],
                     sp[i].start - t_call, sp[i].end - t_call);
      }
    }
    std::fclose(f);
  }

  Workload& w_;
  SpanStore& store_;
  Watchdog& watchdog_;
  std::int64_t corrupt_every_;
  std::string spans_path_;
  mutable bool spans_started_ = false;
  std::vector<BackendRun> runs_;
  std::vector<double> seq_walls_;
  std::uint32_t solve_id_ = 0;
  std::int64_t rounds_ = 0;
  std::int64_t seq_attempted_ = 0;
  std::int64_t seq_failed_ = 0;
};

void put_metric(std::string& out, const std::string& name, double value,
                const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name.c_str(), value, unit);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  force::util::CliParser cli;
  cli.option("workload", "cmfd", "cmfd | tree | pipeline")
      .option("seed", "1", "workload seed (tree shape, pipeline payloads)")
      .option("seconds", "10", "measurement time")
      .option("trace", "0", "1: traced run, report per-layer metrics")
      .option("size", "full", "full | tiny (smoke tests)")
      .option("corrupt-every", "0",
              "corrupt every K-th result before verification (self-test)")
      .option("spans", "", "traced run: write the first traced solve's "
                           "spans per backend to this CSV file");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "forcebench: %s\n", e.what());
    return 2;
  }
  const std::string size = cli.get("size");
  const bool trace = cli.get_int("trace") != 0;
  const double seconds = cli.get_double("seconds");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (size != "full" && size != "tiny") {
    std::fprintf(stderr, "forcebench: --size must be full or tiny\n");
    return 2;
  }
  auto workload = make_workload(cli.get("workload"),
                                size == "tiny" ? kTiny : kFull, seed);
  if (!workload) {
    std::fprintf(stderr, "forcebench: unknown workload '%s'\n",
                 cli.get("workload").c_str());
    return 2;
  }

  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::string load_start = load_average();
  SpanStore store(kNp, kSpanCapacity);
  Watchdog watchdog(cli.get("workload"), seed);
  Bench bench(*workload, store, watchdog, cli.get_int("corrupt-every"),
              cli.get("spans"));

  std::vector<double> setup_s;
  std::vector<double> verify_s;
  std::vector<double> cluster_verify_s;
  for (int k = 0; k < kSetups; ++k) {
    const SetupTimes t = bench.setup();
    setup_s.push_back(t.setup_s);
    verify_s.push_back(t.verify_s);
    cluster_verify_s.push_back(t.cluster_verify_s);
  }
  std::printf("%s\n", workload->describe().c_str());
  bench.measure(seconds, trace);
  const std::string load_end = load_average();

  const std::int64_t attempted = bench.total_attempted();
  const std::int64_t failed = bench.total_failed();
  std::string record;
  char buf[512];
  for (const auto& r : bench.runs()) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"attempted\": %" PRId64 ", \"failed\": %" PRId64
                  ", \"samples\": %zu, \"traced_samples\": %zu, "
                  "\"median_ms\": %.6f, \"p90_ms\": %.6f}",
                  record.empty() ? "" : ", ", r.name, r.attempted,
                  r.failed, r.walls.size(), r.traced_walls.size(),
                  median(r.walls) / 1e6, percentile(r.walls, 0.9) / 1e6);
    record += buf;
  }
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seed_used\": %s, \"np\": %d, \"nproc\": %ld, \"setups\": %d, "
                "\"loadavg_start\": \"%s\", \"loadavg_end\": \"%s\", "
                "\"verify_s\": %.6f, \"cluster_verify_s\": %.6f, "
                "\"rounds\": %" PRId64 ", \"seq\": {\"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"samples\": %zu}, "
                "\"backends\": {",
                cli.get("workload").c_str(), seed,
                workload->seed_used() ? "true" : "false", kNp, nproc, kSetups,
                load_start.c_str(), load_end.c_str(), median(verify_s),
                median(cluster_verify_s),
                bench.rounds(),
                bench.seq_attempted(), bench.seq_failed(),
                bench.seq_walls().size());
  std::printf("record: %s%s}}\n", buf, record.c_str());

  std::string metrics;
  bool complete = true;
  if (!trace) {
    // The backends' medians stay in the record only: in runs that overlap
    // the host's steal phases they spread far beyond any bound (README.md).
    for (const auto& r : bench.runs()) {
      if (r.walls.empty()) complete = false;
    }
    if (bench.seq_walls().empty()) complete = false;
    put_metric(metrics, "seq_ms", median(bench.seq_walls()) / 1e6, "ms");
    put_metric(metrics, "setup_s", median(setup_s), "s");
  } else {
    for (const auto& r : bench.runs()) {
      if (r.layers.empty() || r.walls.empty()) complete = false;
      for (const auto& lf : kLayerFields) {
        std::vector<double> col;
        for (const auto& ls : r.layers) col.push_back(ls.*lf.field);
        put_metric(metrics, std::string(r.name) + "." + lf.name, median(col), lf.unit);
      }
      const double untraced = median(r.walls);
      put_metric(metrics, std::string(r.name) + ".trace_overhead",
                 untraced > 0 ? median(r.traced_walls) / untraced : 0.0,
                 "ratio");
    }
  }
  if (!complete) {
    std::fprintf(stderr, "forcebench: a backend has no verified samples\n");
  }
  const bool correct = complete && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
