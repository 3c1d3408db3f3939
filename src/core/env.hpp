// The Force parallel environment (paper §4.1.2).
//
// The preprocessor provides "a set of variables used to implement the Force
// constructs for work distribution and synchronization, such as process
// number, barrier locks and arrival counter, and asynchronous loop index
// for selfscheduled loops". ForceEnvironment is that set, plus ownership of
// the machine model, the shared arena, the private space, the startup
// linkage registry and the construct-site table.
//
// Everything here is machine independent: the environment only talks to
// the machine through MachineModel's generic interfaces.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "machdep/arena.hpp"
#include "machdep/backend.hpp"
#include "machdep/linkage.hpp"
#include "machdep/machine.hpp"
#include "core/site.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace force::core {

class BarrierAlgorithm;  // core/barrier.hpp
class Sentry;            // core/sentry.hpp

/// Configuration of one Force program execution.
struct ForceConfig {
  /// Number of processes in the force. The whole point of the Force is
  /// that programs do not depend on this value.
  int nproc = 4;
  /// Machine model name: hep, flex32, encore, sequent, alliant, cray2,
  /// or native (default).
  std::string machine = "native";
  /// Barrier algorithm for ctx.barrier(): paper-lock (faithful to the
  /// two-lock/counter structure), central-sense, tree, or dissemination.
  std::string barrier_algorithm = "paper-lock";
  /// Dispatch engine selection. "auto" (default) follows the machine's
  /// hardware_atomic_rmw capability: lock-free fetch-add/CAS dispatch and
  /// work stealing where the hardware has atomic RMW, the paper's
  /// lock-protected expansion everywhere else. "locked" forces the lock
  /// engine even on capable machines (benches/tests comparing engines).
  std::string dispatch = "auto";
  /// Process backend. "machine" (default) uses the machine model's
  /// thread-emulated process creation; "os-fork" spawns real child
  /// processes with fork(2) over a MAP_SHARED arena and process-shared
  /// (futex) synchronization; "cluster" spawns real child processes with
  /// *no shared mapping at all* - a coordinator serves every construct
  /// over a framed socket transport and a software distributed-shared
  /// arena (machdep/cluster.hpp) - see docs/PORTING.md, process-model
  /// axis. Under os-fork and cluster the sentry, tracing and schedule
  /// fuzzing are unavailable (their state is per-address-space): setting
  /// them explicitly is an error, while the FORCE_SENTRY /
  /// FORCE_SCHEDULE_FUZZ environment variables are silently ignored so a
  /// suite-wide validation run does not break the fork/cluster tests.
  std::string process_model = "machine";
  /// Socket transport between cluster members and the coordinator:
  /// "unix" (AF_UNIX socketpair, default) or "tcp" (loopback TCP with
  /// TCP_NODELAY). Cluster backend only; also set by
  /// FORCE_CLUSTER_TRANSPORT when left at the default.
  std::string cluster_transport = "unix";
  /// Shared arena capacity (rounded up to whole pages).
  std::size_t arena_bytes = 4u << 20;
  /// Private data / stack region sizes per process.
  std::size_t private_data_bytes = 256u << 10;
  std::size_t private_stack_bytes = 256u << 10;
  /// Base seed; process p draws from substream p of this seed.
  std::uint64_t seed = 0x464f524345u;  // "FORCE"
  /// Record an execution trace (barrier episodes, sections, critical
  /// occupancy, DOALL participation and dispatches). Export it with
  /// env().tracer()->write_chrome_json(path). Off by default: the only
  /// cost when off is a pointer test per construct.
  bool trace = false;
  std::size_t trace_events_per_process = 64u << 10;
  /// Enable the sentry (runtime race/deadlock validation, core/sentry.hpp).
  /// Same cost model as tracing: a pointer test per construct when off.
  /// Also switched on by the FORCE_SENTRY=1 environment variable so the
  /// whole test suite can be validated without editing every test.
  bool sentry = false;
  /// Schedule-fuzz seed for the sentry (0 = no fuzzing). Deterministic:
  /// the same seed explores the same perturbation schedule. Also set by
  /// FORCE_SCHEDULE_FUZZ=<seed> (implies sentry).
  std::uint64_t schedule_fuzz = 0;
  /// Wait length the sentry's watchdog reports as a stall, in ms.
  /// Also set by FORCE_SENTRY_STALL_MS=<n>.
  int sentry_stall_ms = 1000;
  /// Keep the team alive across Force::run invocations: workers (or fork
  /// children under os-fork) park between forces on a generation-stamped
  /// entry protocol instead of being created and joined per run - see
  /// docs/PORTING.md, team-lifetime axis. Also switched on by
  /// FORCE_TEAM_POOL=1. Under os-fork, every pooled run must execute the
  /// same program closure (the resident children re-run the entry they
  /// were forked with).
  bool team_pool = false;
  /// N:M member scheduling: run the force's nproc members on this many
  /// pooled worker threads as run-to-barrier continuations (0 = one
  /// worker per member). Setting it implies team_pool; thread-backed
  /// process models only, and incompatible with the sentry (two members
  /// share one OS thread, defeating its per-thread bookkeeping). Also set
  /// by FORCE_POOL_WORKERS=<w>.
  int pool_workers = 0;
};

/// Machine-independent runtime statistics, aggregated across processes.
struct RuntimeStats {
  std::atomic<std::uint64_t> barrier_episodes{0};
  std::atomic<std::uint64_t> critical_entries{0};
  std::atomic<std::uint64_t> doall_iterations{0};
  std::atomic<std::uint64_t> doall_dispatches{0};  ///< selfsched index grabs
  std::atomic<std::uint64_t> produces{0};
  std::atomic<std::uint64_t> consumes{0};
  std::atomic<std::uint64_t> askfor_grants{0};
  std::atomic<std::uint64_t> pcase_blocks{0};

  void reset();
};

class ForceEnvironment {
 public:
  explicit ForceEnvironment(ForceConfig config);
  ~ForceEnvironment();

  ForceEnvironment(const ForceEnvironment&) = delete;
  ForceEnvironment& operator=(const ForceEnvironment&) = delete;

  [[nodiscard]] const ForceConfig& config() const { return config_; }
  [[nodiscard]] int nproc() const { return config_.nproc; }

  [[nodiscard]] machdep::MachineModel& machine() { return *machine_; }
  [[nodiscard]] const machdep::MachineModel& machine() const {
    return *machine_;
  }
  [[nodiscard]] machdep::SharedArena& arena() { return *arena_; }
  [[nodiscard]] machdep::PrivateSpace& private_space() { return *private_; }
  [[nodiscard]] machdep::LinkageRegistry& linkage() { return linkage_; }
  [[nodiscard]] SiteTable& sites() { return sites_; }
  [[nodiscard]] RuntimeStats& stats() { return stats_; }

  /// Generic lock factory (budget-aware, instrumented).
  std::unique_ptr<machdep::BasicLock> new_lock() {
    return machine_->new_lock();
  }

  /// Lock factory for construct-internal locks that the sentry should
  /// observe. `role` tells the deadlock detector how the lock is used
  /// (kMutex: acquire/release by the same process, participates in the
  /// lock-order graph and locksets; kSemaphore: cross-process release is
  /// part of the protocol, e.g. async full/empty pairs and barrier
  /// turnstiles). `label` gives reports a human-readable name and, on
  /// backends that key locks across address spaces, must be unique to the
  /// construct. `held` creates the lock already held (a gate that starts
  /// closed). Under the thread backend with the sentry off this is exactly
  /// new_lock(), plus the acquire when `held`.
  std::unique_ptr<machdep::BasicLock> new_lock(machdep::LockRole role,
                                               std::string label,
                                               bool held = false);

  /// True when dispatch-heavy constructs (selfsched DOALL, Askfor) may use
  /// the lock-free fast path on this run: the machine declares
  /// hardware_atomic_rmw and the config does not force "locked".
  [[nodiscard]] bool lock_free_dispatch() const {
    return machine_->spec().hardware_atomic_rmw &&
           config_.dispatch != "locked";
  }

  /// Dispatch-counter factory honouring lock_free_dispatch(). `word` is
  /// the shared counter (null: the counter owns one); the lock engine's
  /// lock comes from the backend under `label`, unobserved - a machine
  /// lock on threads, a process-shared lock on os-fork.
  std::unique_ptr<machdep::DispatchCounter> new_dispatch_counter(
      std::atomic<std::int64_t>* word = nullptr,
      const std::string& label = "dispatch");

  /// Construct state of type S at `key`, shared by every member of the
  /// team and zero-filled on first use (ExecutionBackend::site_state). S
  /// must be valid when all its bytes are zero.
  template <typename S>
  [[nodiscard]] S& site_state(const std::string& key) {
    static_assert(std::is_trivially_destructible_v<S>,
                  "site state is reclaimed as raw bytes");
    return *static_cast<S*>(backend_->site_state(key, sizeof(S), alignof(S)));
  }

  /// A key for a construct built without a site (tests, benches, Pcase's
  /// internal loop): distinct on every call, so anonymous constructs never
  /// share site state.
  [[nodiscard]] std::string anonymous_site_key();

  /// The process substrate this environment selected at construction
  /// (ForceConfig::process_model parsed into the enum).
  [[nodiscard]] machdep::ProcessModel process_model() const { return model_; }

  /// The execution backend realizing the constructs on that substrate.
  /// Constructs ask it for locks, site state and (cluster only) engines -
  /// core never names a backend.
  [[nodiscard]] machdep::ExecutionBackend& backend() { return *backend_; }

  /// Capability probe against the declarative backend matrix.
  [[nodiscard]] bool supports(machdep::Capability cap) const {
    return machdep::backend_supports(model_, cap);
  }

  /// Rejects `construct` at `site` with the uniform capability diagnostic
  /// when this backend does not support `cap`; no-op when it does.
  void require(machdep::Capability cap, const std::string& construct,
               const std::string& site) const;

  /// The team that Force::run spawns: the machine model's emulated team,
  /// or the backend's separate-process team.
  [[nodiscard]] machdep::ProcessTeam process_team() const;

  /// True when this environment keeps its team pooled across force
  /// entries (ForceConfig::team_pool / FORCE_TEAM_POOL).
  [[nodiscard]] bool team_pool_enabled() const { return config_.team_pool; }

  /// Worker-thread count of the pooled team: pool_workers when set,
  /// otherwise one worker per member except member 0, which the driver
  /// thread runs inline (still 1:1 - every member owns an OS thread).
  [[nodiscard]] int pool_workers() const {
    if (config_.pool_workers > 0) return config_.pool_workers;
    return config_.nproc > 1 ? config_.nproc - 1 : 1;
  }

  /// The persistent thread-axis team, created (and its workers parked) on
  /// first use. Thread-backed process models only.
  [[nodiscard]] machdep::TeamPool& team_pool();

  /// The persistent process-axis team sized for `nproc` resident fork
  /// children, created on first use (and recreated if the width changes).
  /// os-fork backend only.
  [[nodiscard]] machdep::ForkTeamPool& fork_pool(int nproc);

  /// Scrubs the process-shared synchronization state in the arena after
  /// a pooled team died mid-protocol, by name prefix and without knowing
  /// any construct's layout: site state (barriers, DOALL gates,
  /// reductions, async cells, askfor monitors, the run generation)
  /// zeroed, lock words back to their declared initial state. A
  /// poisoned team leaves this state wherever the victims stood, so the
  /// fresh team the next run forks must not inherit it. Every async
  /// variable restarts empty, even one a finished producer had left full;
  /// shared variables are untouched. os-fork only; called with no team
  /// alive (between pool retirement and respawn).
  void reset_shared_sync_after_death();

  /// Force-entry generation: bumped once at the top of every Force::run,
  /// before the team is (re-)armed. Long-lived construct sites compare it
  /// to their own stamp to re-arm per-entry episode state (e.g. the
  /// Askfor drained/probend latch) when a pooled team re-enters the same
  /// force. The counter is site state, so under os-fork resident children
  /// observe the bump.
  [[nodiscard]] std::uint32_t run_generation() const;
  void begin_team_entry();

  /// The environment barrier used by un-sited ctx.barrier() calls on the
  /// full force; sized to nproc with the configured algorithm.
  [[nodiscard]] BarrierAlgorithm& global_barrier();

  /// Builds a barrier instance for `width` processes with the configured
  /// (or an explicitly named) algorithm; used by sited barriers and by
  /// Resolve components. Separate-process backends reject it (callers
  /// must key a site barrier).
  std::unique_ptr<BarrierAlgorithm> make_barrier(int width);
  std::unique_ptr<BarrierAlgorithm> make_barrier(int width,
                                                 const std::string& algorithm);

  /// Barrier for `width` processes at construct key `key`; every process
  /// that resolves the same key meets at the same state. The backend's
  /// keyed engine where it has one (cluster); the configured algorithm
  /// where named algorithms run (threads); otherwise the central-sense
  /// episode barrier over site state (os-fork).
  std::unique_ptr<BarrierAlgorithm> make_site_barrier(int width,
                                                      const std::string& key);

  /// Per-process deterministic RNG substream.
  [[nodiscard]] util::Xoshiro256 rng_for(int proc0) const;

  /// The execution tracer, or null when tracing is disabled.
  [[nodiscard]] util::Tracer* tracer() { return tracer_.get(); }

  /// The sentry, or null when validation is disabled.
  [[nodiscard]] Sentry* sentry() { return sentry_.get(); }

 private:
  ForceConfig config_;
  std::unique_ptr<machdep::MachineModel> machine_;
  std::unique_ptr<machdep::SharedArena> arena_;
  std::unique_ptr<machdep::PrivateSpace> private_;
  machdep::LinkageRegistry linkage_;
  SiteTable sites_;
  RuntimeStats stats_;
  std::unique_ptr<util::Tracer> tracer_;
  /// Must outlive every ObservedLock handed out by new_lock(role, label);
  /// declared before global_barrier_ (whose locks reference it) and
  /// destroyed after it.
  std::unique_ptr<Sentry> sentry_;
  machdep::ProcessModel model_ = machdep::ProcessModel::kThread;
  /// The selected substrate. Declared after machine_ and arena_ (which it
  /// references) so it is destroyed first; it owns the pooled teams, whose
  /// resident fork children still reference the MAP_SHARED arena while
  /// they park.
  std::unique_ptr<machdep::ExecutionBackend> backend_;
  std::unique_ptr<BarrierAlgorithm> global_barrier_;
  /// Force-entry generation, in site state: under os-fork the children's
  /// copies of this object are COW-frozen at fork, the word stays live.
  std::atomic<std::uint32_t>* run_generation_ = nullptr;
  std::atomic<std::uint64_t> anonymous_sites_{0};
};

}  // namespace force::core
