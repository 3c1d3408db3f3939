// ExecutionBackend implementations: the one place that knows how each
// process substrate realizes the Force's constructs. ThreadBackend and
// ShmBackend hand out locks and site storage, over which every core
// construct runs unchanged; ClusterBackend engines serve the constructs
// through the coordinator.
#include "machdep/backend.hpp"

#include <cstring>
#include <new>

#include "machdep/arena.hpp"
#include "machdep/cluster.hpp"
#include "machdep/machine.hpp"
#include "machdep/shm.hpp"
#include "machdep/teampool.hpp"
#include "util/check.hpp"
#include "util/timing.hpp"

namespace force::machdep {

namespace {

std::size_t align_up(std::size_t offset, std::size_t align) {
  return (offset + align - 1) & ~(align - 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Process model names and parsing.
// ---------------------------------------------------------------------------

const char* process_model_name(ProcessModel model) {
  switch (model) {
    case ProcessModel::kThread:
      return "thread";
    case ProcessModel::kOsFork:
      return "os-fork";
    case ProcessModel::kCluster:
      return "cluster";
  }
  return "?";
}

const std::vector<ProcessModel>& all_process_models() {
  static const std::vector<ProcessModel> kModels = {
      ProcessModel::kThread, ProcessModel::kOsFork, ProcessModel::kCluster};
  return kModels;
}

bool parse_process_model(const std::string& text, ProcessModel* out) {
  if (text == "machine" || text == "thread") {
    *out = ProcessModel::kThread;
    return true;
  }
  if (text == "os-fork") {
    *out = ProcessModel::kOsFork;
    return true;
  }
  if (text == "cluster") {
    *out = ProcessModel::kCluster;
    return true;
  }
  return false;
}

const char* process_model_valid_set() {
  return "'machine' (alias 'thread'), 'os-fork' or 'cluster'";
}

// ---------------------------------------------------------------------------
// The capability table: the single source of truth for backend narrowing.
// ---------------------------------------------------------------------------

const std::vector<CapabilityRow>& capability_table() {
  // Columns: cap, id, construct, thread, os-fork, cluster, reason.
  static const std::vector<CapabilityRow> kTable = {
      {Capability::kPcase, "pcase", "Pcase", true, false, false,
       "the section-negotiation claim registry is per-address-space, so "
       "separate processes would each claim every section"},
      {Capability::kResolve, "resolve", "Resolve", true, false, false,
       "its component barriers and claim state are per-address-space"},
      {Capability::kSentry, "sentry", "the runtime sentry", true, false,
       false,
       "the sentry cannot observe a separate-address-space team (its state "
       "is per-process); validate on a thread-emulated process model"},
      {Capability::kTrace, "trace", "event tracing", true, false, false,
       "tracing is per-address-space; the os-fork and cluster backends "
       "cannot collect child events"},
      {Capability::kTeamPool, "team-pool", "persistent team pools", true,
       true, false,
       "each cluster run forks a fresh socket-connected team"},
      {Capability::kNmScheduling, "nm-scheduling", "N:M member scheduling",
       true, false, false,
       "the os-fork pool keeps one resident child per member and the "
       "cluster backend forks one peer per member"},
      {Capability::kNonTrivialPayloads, "non-trivial-payloads",
       "non-trivially-copyable payloads", true, false, false,
       "payloads that are not trivially copyable cannot cross address "
       "spaces or the wire by memcpy"},
      {Capability::kIsfull, "isfull", "Isfull", true, true, false,
       "the full/empty state lives in the coordinator, so any snapshot "
       "would be stale by the time it arrived"},
      {Capability::kThreadBarrierAlgorithms, "thread-barriers",
       "thread barrier algorithms", true, false, false,
       "thread barrier algorithms cannot span separate address spaces; use "
       "make_site_barrier with a keyed barrier"},
  };
  return kTable;
}

const CapabilityRow& capability_row(Capability cap) {
  for (const CapabilityRow& row : capability_table()) {
    if (row.cap == cap) return row;
  }
  FORCE_CHECK(false, "capability missing from capability_table()");
}

bool backend_supports(ProcessModel model, Capability cap) {
  const CapabilityRow& row = capability_row(cap);
  switch (model) {
    case ProcessModel::kThread:
      return row.thread;
    case ProcessModel::kOsFork:
      return row.os_fork;
    case ProcessModel::kCluster:
      return row.cluster;
  }
  return false;
}

std::string capability_reject_message(ProcessModel model, Capability cap,
                                      const std::string& construct,
                                      const std::string& site) {
  const CapabilityRow& row = capability_row(cap);
  std::string msg = construct;
  if (!site.empty()) {
    msg += " at '";
    msg += site;
    msg += "'";
  }
  msg += " is not supported under the ";
  msg += process_model_name(model);
  msg += " backend [capability ";
  msg += row.id;
  msg += "]: ";
  msg += row.reason;
  return msg;
}

std::string capability_matrix_markdown() {
  std::string out =
      "| capability | construct | thread | os-fork | cluster |\n"
      "|---|---|---|---|---|\n";
  const auto cell = [](bool yes) { return yes ? "yes" : "no"; };
  for (const CapabilityRow& row : capability_table()) {
    out += "| `";
    out += row.id;
    out += "` | ";
    out += row.construct;
    out += " | ";
    out += cell(row.thread);
    out += " | ";
    out += cell(row.os_fork);
    out += " | ";
    out += cell(row.cluster);
    out += " |\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// ExecutionBackend base defaults.
// ---------------------------------------------------------------------------

std::unique_ptr<DoallSite> ExecutionBackend::make_doall_site(
    const std::string& /*site*/, int /*width*/) {
  return nullptr;
}

std::unique_ptr<AskforRing> ExecutionBackend::make_askfor_ring(
    const std::string& /*key*/, std::size_t /*task_bytes*/) {
  return nullptr;
}

std::unique_ptr<AsyncCell> ExecutionBackend::make_async_cell(
    const std::string& /*label*/, std::size_t /*payload_bytes*/,
    std::size_t /*payload_align*/) {
  return nullptr;
}

std::unique_ptr<ReductionSite> ExecutionBackend::make_reduction_site(
    const std::string& /*key*/, int /*width*/, std::size_t /*payload_bytes*/,
    std::size_t /*payload_align*/) {
  return nullptr;
}

std::unique_ptr<BarrierEngine> ExecutionBackend::make_team_barrier(
    int /*width*/, const std::string& /*key*/) {
  return nullptr;
}

void* ExecutionBackend::site_state(const std::string& key, std::size_t bytes,
                                   std::size_t align) {
  std::lock_guard<std::mutex> g(site_mutex_);
  auto it = sites_.find(key);
  if (it == sites_.end()) {
    std::unique_ptr<void, AlignedDelete> data(
        ::operator new(bytes, std::align_val_t{align}), AlignedDelete{align});
    std::memset(data.get(), 0, bytes);
    it = sites_.emplace(key, SiteBlob{bytes, std::move(data)}).first;
  }
  FORCE_CHECK(it->second.bytes == bytes,
              "site state '" + key + "' requested with a different size");
  return it->second.data.get();
}

void ExecutionBackend::AlignedDelete::operator()(void* p) const {
  ::operator delete(p, std::align_val_t{align});
}

TeamPool& ExecutionBackend::team_pool() {
  FORCE_CHECK(false, "the thread team pool cannot drive os-fork processes");
}

ForkTeamPool& ExecutionBackend::fork_pool(int /*nproc*/) {
  FORCE_CHECK(false, "the fork team pool needs process_model = \"os-fork\"");
}

void ExecutionBackend::reset_shared_sync_after_death() {
  FORCE_CHECK(false, "sync-state death recovery is an os-fork concern");
}

namespace {

// ---------------------------------------------------------------------------
// Cluster engines (coordinator RPCs via the member's ClusterClient).
// ---------------------------------------------------------------------------

class ClusterBarrierEngine final : public BarrierEngine {
 public:
  ClusterBarrierEngine(int width, std::string key)
      : width_(width),
        key_(std::move(key)),
        label_("barrier '" + key_ + "'") {}

  void arrive(int /*proc0*/, const std::function<void()>* section) override {
    cluster::ClusterClient& c = cluster::require_client();
    c.note_site(label_);
    c.barrier_arrive(key_, width_, section);
  }

  [[nodiscard]] const char* name() const override { return "cluster"; }

 private:
  int width_;
  std::string key_;
  std::string label_;
};

class ClusterDoallSite final : public DoallSite {
 public:
  /// Episode bounds in the DSM-coherent arena: written by the entry
  /// champion inside the barrier section (a release point), read by every
  /// member after the episode release (an acquire point).
  struct Bounds {
    std::int64_t start = 0;
    std::int64_t last = 0;
    std::int64_t incr = 1;
    std::int64_t trips = 0;
  };

  ClusterDoallSite(SharedArena* arena, const std::string& site, int width)
      : key_("%ssdo/" + site),
        label_("selfsched '" + site + "'"),
        entry_(width, key_ + "/entry"),
        bounds_(&arena->get_or_create<Bounds>(key_)) {}

  DoallBounds enter(std::int64_t start, std::int64_t last, std::int64_t incr,
                    std::int64_t trips) override {
    const std::function<void()> section = [this, start, last, incr, trips] {
      bounds_->start = start;
      bounds_->last = last;
      bounds_->incr = incr;
      bounds_->trips = trips;
      cluster::require_client().dispatch_reset(key_);
    };
    entry_.arrive(0, &section);
    cluster::require_client().note_site(label_);
    DoallBounds b;
    b.start = bounds_->start;
    b.last = bounds_->last;
    b.incr = bounds_->incr;
    b.trips = bounds_->trips;
    return b;
  }

  DispatchClaim claim(std::int64_t want, std::int64_t limit) override {
    const cluster::Claim c =
        cluster::require_client().dispatch_claim(key_, want, limit);
    return DispatchClaim{c.begin, c.count};
  }

  DispatchClaim claim_fraction(std::int64_t limit,
                               std::int64_t divisor) override {
    const cluster::Claim c =
        cluster::require_client().dispatch_claim_fraction(key_, limit,
                                                          divisor);
    return DispatchClaim{c.begin, c.count};
  }

 private:
  std::string key_;
  std::string label_;
  ClusterBarrierEngine entry_;
  Bounds* bounds_;
};

class ClusterAskforRing final : public AskforRing {
 public:
  ClusterAskforRing(std::string key, std::size_t task_bytes)
      : key_(std::move(key)),
        label_("askfor '" + key_ + "'"),
        bytes_(task_bytes) {}

  void put(const void* task) override {
    cluster::ClusterClient& c = cluster::require_client();
    c.note_site(label_);
    c.askfor_put(key_, task, bytes_);
  }

  bool ask(void* out) override {
    cluster::ClusterClient& c = cluster::require_client();
    c.note_site(label_);
    return c.askfor_ask(key_, out, bytes_);
  }

  void complete() override {
    cluster::require_client().askfor_complete(key_);
  }

  void probend() override {
    cluster::require_client().askfor_probend(key_);
  }

  [[nodiscard]] bool ended() override {
    bool ended = false;
    std::uint64_t granted = 0;
    cluster::require_client().askfor_status(key_, &ended, &granted);
    return ended;
  }

  [[nodiscard]] std::uint64_t granted() override {
    bool ended = false;
    std::uint64_t granted = 0;
    cluster::require_client().askfor_status(key_, &ended, &granted);
    return granted;
  }

 private:
  std::string key_;
  std::string label_;
  std::size_t bytes_;
};

class ClusterAsyncCell final : public AsyncCell {
 public:
  ClusterAsyncCell(std::string label, std::size_t payload_bytes)
      : label_(std::move(label)), bytes_(payload_bytes) {}

  void produce(const void* value) override {
    cluster::ClusterClient& c = cluster::require_client();
    c.note_site(label_);
    c.cell_produce(label_, value, bytes_);
  }
  void consume(void* out) override {
    cluster::ClusterClient& c = cluster::require_client();
    c.note_site(label_);
    c.cell_consume(label_, out, bytes_);
  }
  void copy(void* out) override {
    cluster::ClusterClient& c = cluster::require_client();
    c.note_site(label_);
    c.cell_copy(label_, out, bytes_);
  }
  bool try_produce(const void* value) override {
    return cluster::require_client().cell_try_produce(label_, value, bytes_);
  }
  bool try_consume(void* out) override {
    return cluster::require_client().cell_try_consume(label_, out, bytes_);
  }
  void void_state() override { cluster::require_client().cell_void(label_); }

  [[nodiscard]] bool is_full() override {
    FORCE_CHECK(false,
                capability_reject_message(ProcessModel::kCluster,
                                          Capability::kIsfull, "Isfull",
                                          label_));
  }

 private:
  std::string label_;
  std::size_t bytes_;
};

class ClusterReductionSite final : public ReductionSite {
 public:
  ClusterReductionSite(SharedArena* arena, const std::string& key, int width,
                       std::size_t payload_bytes, std::size_t payload_align)
      : lock_("reduce@" + key),
        barrier_(width, "%reduce/" + key + "/barrier"),
        bytes_(payload_bytes) {
    // State travels through the DSM-coherent arena: the lock orders the
    // accumulation (each release ships the dirty bytes), the barrier's
    // episode release publishes the champion's snapshot.
    const std::size_t acc_off = align_up(sizeof(std::int32_t), payload_align);
    const std::size_t result_off =
        align_up(acc_off + payload_bytes, payload_align);
    const std::size_t align = payload_align > alignof(std::int32_t)
                                  ? payload_align
                                  : alignof(std::int32_t);
    void* blob = arena->allocate_once(
        "%reduce/" + key, result_off + payload_bytes, align,
        VarClass::kShared, [result_off, payload_bytes](void* p) {
          std::memset(p, 0, result_off + payload_bytes);
        });
    arrived_ = static_cast<std::int32_t*>(blob);
    acc_ = static_cast<unsigned char*>(blob) + acc_off;
    result_ = static_cast<unsigned char*>(blob) + result_off;
  }

  void allreduce(int me0, const void* local, void* result_out,
                 void* shared_target, const Combine& combine) override {
    lock_.acquire();
    if (*arrived_ == 0) {
      std::memcpy(acc_, local, bytes_);
    } else {
      combine(acc_, local);
    }
    ++*arrived_;
    lock_.release();
    const std::function<void()> section = [this, shared_target] {
      std::memcpy(result_, acc_, bytes_);
      *arrived_ = 0;
      if (shared_target != nullptr) {
        std::memcpy(shared_target, result_, bytes_);
      }
    };
    barrier_.arrive(me0, &section);
    std::memcpy(result_out, result_, bytes_);
  }

 private:
  cluster::ClusterLock lock_;
  ClusterBarrierEngine barrier_;
  std::int32_t* arrived_;
  unsigned char* acc_;
  unsigned char* result_;
  std::size_t bytes_;
};

// ---------------------------------------------------------------------------
// ThreadBackend: machine-model engines; null construct engines keep the
// constructs' monomorphic thread machinery (lock-free dispatch included).
// ---------------------------------------------------------------------------

class ThreadBackend final : public ExecutionBackend {
 public:
  explicit ThreadBackend(const BackendInit& init)
      : machine_(init.machine),
        team_pool_enabled_(init.team_pool),
        pool_workers_(init.pool_workers),
        member_stack_bytes_(init.member_stack_bytes) {}

  [[nodiscard]] ProcessModel model() const override {
    return ProcessModel::kThread;
  }

  [[nodiscard]] std::unique_ptr<BasicLock> new_lock(
      LockRole role, const std::string& label, LockObserver* observer,
      bool held) override {
    std::unique_ptr<BasicLock> lock = machine_->new_lock();
    if (observer != nullptr) {
      lock = std::make_unique<ObservedLock>(std::move(lock), observer, role,
                                            label);
    }
    if (held) lock->acquire();
    return lock;
  }

  [[nodiscard]] ProcessTeam process_team() const override {
    return machine_->process_team();
  }

  SpawnStats run_team(int nproc, PrivateSpace* space,
                      const std::function<void(int)>& member,
                      const std::type_info* /*program_type*/) override {
    if (!team_pool_enabled_) {
      return machine_->process_team().run(nproc, space, member);
    }
    // Creation is timed from before the private copies and the lazy pool
    // spawn, as ForkTeamPool::run times its own: both are the cost of
    // creating this force's processes.
    const std::int64_t t0 = util::now_ns();
    if (space != nullptr) {
      // Same fork-time copy semantics as the one-shot team; the pool only
      // changes who executes the members, not what they inherit.
      space->materialize(nproc,
                         init_mode_for(machine_->process_team().kind()));
    }
    TeamPool& pool = team_pool();
    const std::int64_t setup_ns = util::now_ns() - t0;
    SpawnStats stats = pool.run(nproc, member);
    stats.create_ns += setup_ns;
    if (space != nullptr) stats.bytes_copied = space->bytes_copied();
    return stats;
  }

  [[nodiscard]] TeamPool& team_pool() override {
    if (team_pool_ == nullptr) {
      team_pool_ =
          std::make_unique<TeamPool>(pool_workers_, member_stack_bytes_);
    }
    return *team_pool_;
  }

 private:
  MachineModel* machine_;
  bool team_pool_enabled_;
  int pool_workers_;
  std::size_t member_stack_bytes_;
  std::unique_ptr<TeamPool> team_pool_;
};

// ---------------------------------------------------------------------------
// ShmBackend: fork(2) children over the MAP_SHARED arena.
// ---------------------------------------------------------------------------

class ShmBackend final : public ExecutionBackend {
 public:
  explicit ShmBackend(const BackendInit& init)
      : arena_(init.arena), team_pool_enabled_(init.team_pool) {}

  [[nodiscard]] ProcessModel model() const override {
    return ProcessModel::kOsFork;
  }

  [[nodiscard]] std::unique_ptr<BasicLock> new_lock(
      LockRole /*role*/, const std::string& label, LockObserver* /*observer*/,
      bool held) override {
    // One futex word in the MAP_SHARED arena, keyed by the construct
    // label. Labels are construct-unique (critical sections embed their
    // site key, named locks their name), so every process that reaches
    // the same construct contends on the same word, and a lock declared
    // held is held once, by whichever process creates it first. The
    // observer is ignored: the capability table forbids the sentry here.
    void* state = arena_->allocate_once(
        "%lock/" + label, sizeof(shm::ShmLockState),
        alignof(shm::ShmLockState), VarClass::kShared,
        [held](void* p) { ::new (p) shm::ShmLockState(held ? 1 : 0); });
    return std::make_unique<shm::ShmLock>(
        static_cast<shm::ShmLockState*>(state), label);
  }

  [[nodiscard]] void* site_state(const std::string& key, std::size_t bytes,
                                 std::size_t align) override {
    return arena_->allocate_once(
        "%site/" + key, bytes, align, VarClass::kShared,
        [bytes](void* p) { std::memset(p, 0, bytes); });
  }

  [[nodiscard]] ProcessTeam process_team() const override {
    return ProcessTeam(ProcessModelKind::kOsFork);
  }

  SpawnStats run_team(int nproc, PrivateSpace* space,
                      const std::function<void(int)>& member,
                      const std::type_info* program_type) override {
    if (!team_pool_enabled_) {
      return ProcessTeam(ProcessModelKind::kOsFork).run(nproc, space, member);
    }
    ForkTeamPool& pool = fork_pool(nproc);
    // The pool's resident children re-execute the closure they were
    // forked with, so every pooled run must pass the same program. The
    // closure's type is the strongest identity available on a
    // std::function; same-type closures with different captured state
    // cannot be told apart (docs/PORTING.md spells out the contract).
    if (pool.armed()) {
      FORCE_CHECK(pooled_program_type_ != nullptr &&
                      program_type != nullptr &&
                      *pooled_program_type_ == *program_type,
                  "an os-fork team pool runs one program: its resident "
                  "children re-execute the closure they were forked with; "
                  "use a fresh Force (or team_pool = false) for a "
                  "different program");
    }
    SpawnStats stats;
    try {
      stats = pool.run(space, member);
    } catch (const ProcessDeathError&) {
      // The pool is already retired; the dead team left the arena's
      // synchronization words wherever the victims stood. Scrub them now
      // so the fresh team the next run forks starts from a clean slate.
      reset_shared_sync_after_death();
      throw;
    }
    pooled_program_type_ = program_type;
    return stats;
  }

  [[nodiscard]] ForkTeamPool& fork_pool(int nproc) override {
    if (fork_pool_ != nullptr && fork_pool_->nproc() != nproc) {
      fork_pool_->shutdown();
      fork_pool_.reset();
    }
    if (fork_pool_ == nullptr) {
      fork_pool_ = std::make_unique<ForkTeamPool>(nproc);
    }
    return *fork_pool_;
  }

  void reset_shared_sync_after_death() override {
    arena_->for_each_allocation([](const std::string& name, void* addr,
                                   std::size_t bytes) {
      const auto prefixed = [&name](const char* p) {
        return name.rfind(p, 0) == 0;
      };
      if (prefixed("%site/")) {
        // Construct state over locks and site storage (barrier words,
        // DOALL gates' arrival count and bounds, reduction accumulators,
        // async cells' tagged words, Isfull flags and payloads, askfor
        // monitors with their rings and deques, the run generation):
        // zero is every site's fresh state, so every async cell restarts
        // empty - its E/F locks go back to their declared state below -
        // and every askfor monitor re-arms at its next operation.
        std::memset(addr, 0, bytes);
      } else if (prefixed("%lock/")) {
        auto* l = static_cast<shm::ShmLockState*>(addr);
        l->word.store(l->initial, std::memory_order_release);
      }
    });
  }

 private:
  SharedArena* arena_;
  bool team_pool_enabled_;
  std::unique_ptr<ForkTeamPool> fork_pool_;
  const std::type_info* pooled_program_type_ = nullptr;
};

// ---------------------------------------------------------------------------
// ClusterBackend: separate processes, every construct a coordinator RPC.
// ---------------------------------------------------------------------------

class ClusterBackend final : public ExecutionBackend {
 public:
  explicit ClusterBackend(const BackendInit& init)
      : arena_(init.arena), transport_(init.cluster_transport) {}

  [[nodiscard]] ProcessModel model() const override {
    return ProcessModel::kCluster;
  }

  [[nodiscard]] std::unique_ptr<DoallSite> make_doall_site(
      const std::string& site, int width) override {
    return std::make_unique<ClusterDoallSite>(arena_, site, width);
  }

  [[nodiscard]] std::unique_ptr<AskforRing> make_askfor_ring(
      const std::string& key, std::size_t task_bytes) override {
    // The coordinator's monitor queue grows on demand.
    return std::make_unique<ClusterAskforRing>(key, task_bytes);
  }

  [[nodiscard]] std::unique_ptr<AsyncCell> make_async_cell(
      const std::string& label, std::size_t payload_bytes,
      std::size_t /*payload_align*/) override {
    return std::make_unique<ClusterAsyncCell>(label, payload_bytes);
  }

  [[nodiscard]] std::unique_ptr<ReductionSite> make_reduction_site(
      const std::string& key, int width, std::size_t payload_bytes,
      std::size_t payload_align) override {
    return std::make_unique<ClusterReductionSite>(arena_, key, width,
                                                  payload_bytes,
                                                  payload_align);
  }

  [[nodiscard]] std::unique_ptr<BarrierEngine> make_team_barrier(
      int width, const std::string& key) override {
    return std::make_unique<ClusterBarrierEngine>(width, key);
  }

  [[nodiscard]] std::unique_ptr<BasicLock> new_lock(
      LockRole /*role*/, const std::string& label, LockObserver* /*observer*/,
      bool held) override {
    // One keyed lock cell on the coordinator. Same label discipline as
    // the shm backend: construct-unique labels mean every member contends
    // on the same coordinator cell. The constructs that declare a lock
    // held (the DOALL gates) run as cluster engines, so none asks here.
    FORCE_CHECK(!held, "cluster locks cannot be declared held ('" + label +
                           "'): the coordinator creates every lock free");
    return std::make_unique<cluster::ClusterLock>(label);
  }

  [[nodiscard]] ProcessTeam process_team() const override {
    return ProcessTeam(ProcessModelKind::kCluster);
  }

  SpawnStats run_team(int nproc, PrivateSpace* space,
                      const std::function<void(int)>& member,
                      const std::type_info* /*program_type*/) override {
    // The cluster team reads its arena and transport through the installed
    // runtime config (ProcessTeam::run's signature carries neither); the
    // scope guarantees no dangling arena pointer survives this run.
    cluster::ScopedRuntimeConfig cfg({arena_, transport_});
    return ProcessTeam(ProcessModelKind::kCluster).run(nproc, space, member);
  }

 private:
  SharedArena* arena_;
  std::string transport_;
};

}  // namespace

std::unique_ptr<ExecutionBackend> make_execution_backend(
    ProcessModel model, const BackendInit& init) {
  FORCE_CHECK(init.machine != nullptr && init.arena != nullptr,
              "BackendInit needs the machine model and the arena");
  switch (model) {
    case ProcessModel::kThread:
      return std::make_unique<ThreadBackend>(init);
    case ProcessModel::kOsFork:
      return std::make_unique<ShmBackend>(init);
    case ProcessModel::kCluster:
      return std::make_unique<ClusterBackend>(init);
  }
  FORCE_CHECK(false, "unreachable process model");
}

}  // namespace force::machdep
