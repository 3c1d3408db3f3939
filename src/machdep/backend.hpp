// The execution-backend seam between core/ constructs and the three process
// substrates.
//
// The Force's portability claim is that one program runs unchanged across
// machine models, yet the original construct code hand-branched on "is this
// the os-fork backend? the cluster backend?" at every site, and the narrowing
// rules (what each substrate rejects) were duplicated between those runtime
// checks and forcelint's R7 portability matrix. This header fixes both:
//
//   * ProcessModel / ExecutionBackend - the process substrate is chosen ONCE
//     (ForceEnvironment construction) and every construct talks to one
//     polymorphic surface. Constructs built from locks and shared memory
//     alone (selfscheduled DOALL, reductions, async variables, barriers,
//     askfor) ask it for exactly those: a lock (new_lock) and
//     construct-once site storage (site_state). The
//     thread backend hands out machine locks and a private store; the
//     os-fork backend hands out futex locks and storage in the MAP_SHARED
//     arena, so the same core code runs under both. Constructs the cluster
//     backend cannot build that way - it has no shared memory - get
//     construct engines over coordinator RPCs instead (DoallSite,
//     ReductionSite, AsyncCell, BarrierEngine, AskforRing); a null engine
//     means "no engine". Core never names a backend (enforced by a CI
//     layering lint).
//
//   * Capability / capability_table() - ONE declarative table of what each
//     backend supports, consumed by (a) runtime rejection diagnostics
//     (capability_reject_message gives every rejected construct the same
//     shape: construct, site, backend, capability, reason), (b) forcelint
//     R7's static portability matrix (src/preproc/lint.cpp), and (c) the
//     generated matrix in docs/PORTING.md. A conformance test
//     (tests/test_backend_capabilities.cpp) proves all three agree.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <typeinfo>
#include <vector>

#include "machdep/locks.hpp"
#include "machdep/process.hpp"

namespace force::machdep {

class MachineModel;    // machdep/machine.hpp
class SharedArena;     // machdep/arena.hpp
class TeamPool;        // machdep/teampool.hpp
class ForkTeamPool;    // machdep/teampool.hpp

// ---------------------------------------------------------------------------
// Process model: which substrate runs the force members.
//
// Distinct from ProcessModelKind (machdep/process.hpp), which is the
// *machine-spec* axis describing how a 1989 machine created processes. This
// enum is the *configuration* axis: what ForceConfig::process_model selects.
// ---------------------------------------------------------------------------

enum class ProcessModel {
  kThread,   ///< thread-emulated processes under a machine model (default)
  kOsFork,   ///< fork(2) children over a MAP_SHARED arena (machdep/shm)
  kCluster,  ///< separate processes, coordinator RPCs (machdep/cluster)
};

/// "thread" / "os-fork" / "cluster" - the names forcelint's portability
/// matrix and --process-model use. Overloads the ProcessModelKind spelling.
[[nodiscard]] const char* process_model_name(ProcessModel model);

/// Every model, in a fixed order: drives forcelint's matrix rendering and
/// the capability conformance tests.
[[nodiscard]] const std::vector<ProcessModel>& all_process_models();

/// Parses a ForceConfig::process_model / forcepp --process-model value.
/// "machine" (the historic default spelling) and "thread" both name the
/// thread-emulated model. Returns false on unknown text.
[[nodiscard]] bool parse_process_model(const std::string& text,
                                       ProcessModel* out);

/// The valid spellings, for diagnostics on unparseable values.
[[nodiscard]] const char* process_model_valid_set();

// ---------------------------------------------------------------------------
// Capabilities: the one declarative table of backend narrowing rules.
// ---------------------------------------------------------------------------

enum class Capability {
  kPcase,                   ///< Pcase section negotiation
  kResolve,                 ///< Resolve component scheduling
  kSentry,                  ///< runtime race/deadlock sentry
  kTrace,                   ///< per-member event tracing
  kTeamPool,                ///< persistent (pre-spawned) team pools
  kNmScheduling,            ///< N:M member multiplexing (pool_workers > 0)
  kNonTrivialPayloads,      ///< Askfor/Async/Reduce payloads that are not
                            ///< provably trivially copyable
  kIsfull,                  ///< non-blocking full/empty probe of a cell
  kThreadBarrierAlgorithms  ///< named thread barrier algorithms
};

/// One row of the capability matrix.
struct CapabilityRow {
  Capability cap;
  const char* id;         ///< stable kebab-case id, e.g. "pcase"
  const char* construct;  ///< construct name as diagnostics spell it
  bool thread;
  bool os_fork;
  bool cluster;
  const char* reason;     ///< why the unsupporting backends reject it
};

[[nodiscard]] const std::vector<CapabilityRow>& capability_table();
[[nodiscard]] const CapabilityRow& capability_row(Capability cap);
[[nodiscard]] bool backend_supports(ProcessModel model, Capability cap);

/// The uniform rejection diagnostic - every rejected construct reports the
/// same fields in the same shape: construct, site, backend name, failed
/// capability id, and the table's reason.
[[nodiscard]] std::string capability_reject_message(ProcessModel model,
                                                    Capability cap,
                                                    const std::string& construct,
                                                    const std::string& site);

/// Markdown rendering of the whole matrix. docs/PORTING.md embeds this
/// between `capability-matrix` markers; test_backend_capabilities fails if
/// the embedded copy drifts from the table.
[[nodiscard]] std::string capability_matrix_markdown();

// ---------------------------------------------------------------------------
// Construct engines.
//
// Byte-oriented so one interface covers every payload type; engines are only
// created for trivially copyable payloads (the capability table rejects the
// rest before an engine is requested). A null engine from the backend means
// "no engine": the construct runs its own code over new_lock and site_state.
// Every engine is cluster-only.
// ---------------------------------------------------------------------------

/// Episode bounds of one selfscheduled DOALL site, as published by the
/// entry champion.
struct DoallBounds {
  std::int64_t start = 0;
  std::int64_t last = 0;
  std::int64_t incr = 1;
  std::int64_t trips = 0;
};

/// One selfscheduled DOALL site: episode entry (champion publishes bounds
/// and re-arms the dispatch counter) plus the claim loop.
class DoallSite {
 public:
  virtual ~DoallSite() = default;
  /// Arrives at the episode entry with this member's loop bounds; the
  /// elected champion publishes them. Returns the published bounds (for
  /// SPMD divergence detection by the caller).
  virtual DoallBounds enter(std::int64_t start, std::int64_t last,
                            std::int64_t incr, std::int64_t trips) = 0;
  virtual DispatchClaim claim(std::int64_t want, std::int64_t limit) = 0;
  virtual DispatchClaim claim_fraction(std::int64_t limit,
                                       std::int64_t divisor) = 0;
};

/// One Askfor monitor over fixed-size trivially-copyable task records, for
/// a backend without shared memory (cluster only).
class AskforRing {
 public:
  virtual ~AskforRing() = default;
  virtual void put(const void* task) = 0;
  /// Blocks for work; copies the granted task into `out` and returns true,
  /// or returns false when the computation is over (drained or probend).
  virtual bool ask(void* out) = 0;
  virtual void complete() = 0;
  virtual void probend() = 0;
  [[nodiscard]] virtual bool ended() = 0;
  [[nodiscard]] virtual std::uint64_t granted() = 0;
};

/// One async full/empty cell over a trivially-copyable payload.
class AsyncCell {
 public:
  virtual ~AsyncCell() = default;
  virtual void produce(const void* value) = 0;
  virtual void consume(void* out) = 0;
  virtual void copy(void* out) = 0;
  virtual bool try_produce(const void* value) = 0;
  virtual bool try_consume(void* out) = 0;
  virtual void void_state() = 0;
  /// Isfull probe; rejecting backends throw the capability diagnostic.
  [[nodiscard]] virtual bool is_full() = 0;
};

/// One named reduction site (accumulate under a lock, champion snapshot at
/// the member barrier).
class ReductionSite {
 public:
  /// Folds `local` into `acc` in place.
  using Combine = std::function<void(void* acc, const void* local)>;

  virtual ~ReductionSite() = default;
  /// One member's allreduce: contributes `local`, barriers, copies the
  /// combined result into `result_out`; the champion additionally copies it
  /// into `shared_target` when non-null.
  virtual void allreduce(int me0, const void* local, void* result_out,
                         void* shared_target, const Combine& combine) = 0;
};

/// One keyed team barrier for a backend without shared memory (cluster
/// only: every other backend runs the core's barriers over site state).
class BarrierEngine {
 public:
  virtual ~BarrierEngine() = default;
  /// One arrival; `section` (null = none) runs in the elected champion.
  virtual void arrive(int proc0, const std::function<void()>* section) = 0;
  /// Algorithm name for barrier name observers ("cluster").
  [[nodiscard]] virtual const char* name() const = 0;
};

// ---------------------------------------------------------------------------
// ExecutionBackend: the polymorphic substrate surface, selected once.
// ---------------------------------------------------------------------------

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  [[nodiscard]] virtual ProcessModel model() const = 0;
  [[nodiscard]] const char* name() const { return process_model_name(model()); }
  [[nodiscard]] bool supports(Capability cap) const {
    return backend_supports(model(), cap);
  }

  // --- construct engines (null where the backend has none) ---------------
  [[nodiscard]] virtual std::unique_ptr<DoallSite> make_doall_site(
      const std::string& site, int width);
  [[nodiscard]] virtual std::unique_ptr<AskforRing> make_askfor_ring(
      const std::string& key, std::size_t task_bytes);
  [[nodiscard]] virtual std::unique_ptr<AsyncCell> make_async_cell(
      const std::string& label, std::size_t payload_bytes,
      std::size_t payload_align);
  [[nodiscard]] virtual std::unique_ptr<ReductionSite> make_reduction_site(
      const std::string& key, int width, std::size_t payload_bytes,
      std::size_t payload_align);
  [[nodiscard]] virtual std::unique_ptr<BarrierEngine> make_team_barrier(
      int width, const std::string& key);

  // --- locks and site storage ----------------------------------------------

  /// A construct lock on this substrate. `observer` (may be null) is the
  /// sentry hook; only the thread backend can honour it (the capability
  /// table forbids the sentry elsewhere, so the others ignore it). `held`
  /// declares the lock's initial state: true creates it already held, as
  /// if its creator had acquired it (a gate that starts closed). Backends
  /// that key locks by label create it held only once per label.
  [[nodiscard]] virtual std::unique_ptr<BasicLock> new_lock(
      LockRole role, const std::string& label, LockObserver* observer,
      bool held) = 0;

  /// Zero-filled, construct-once storage for `key`: every member of the
  /// team that asks for the same key addresses the same bytes, for the
  /// backend's lifetime. Construct state kept here must be valid when all
  /// its bytes are zero. The base class keeps a private aligned store
  /// (thread and cluster); the os-fork backend places the storage in the
  /// MAP_SHARED arena under "%site/<key>".
  [[nodiscard]] virtual void* site_state(const std::string& key,
                                         std::size_t bytes, std::size_t align);

  // --- team lifetime -------------------------------------------------------

  [[nodiscard]] virtual ProcessTeam process_team() const = 0;

  /// One force: spawns/arms the team, runs `member` for [0, nproc), joins,
  /// reports deaths. `program_type` identifies the program closure (the
  /// os-fork pool pins one program per armed team).
  virtual SpawnStats run_team(int nproc, PrivateSpace* space,
                              const std::function<void(int)>& member,
                              const std::type_info* program_type) = 0;

  /// The persistent thread team pool (ThreadBackend only; others throw).
  [[nodiscard]] virtual TeamPool& team_pool();
  /// The persistent fork team pool at width `nproc` (ShmBackend only).
  [[nodiscard]] virtual ForkTeamPool& fork_pool(int nproc);

  /// Scrubs shared synchronization state after a member death so the
  /// owning environment stays usable (ShmBackend only; others throw).
  virtual void reset_shared_sync_after_death();

 private:
  struct AlignedDelete {
    std::size_t align;
    void operator()(void* p) const;
  };
  struct SiteBlob {
    std::size_t bytes;
    std::unique_ptr<void, AlignedDelete> data;
  };
  std::mutex site_mutex_;
  std::map<std::string, SiteBlob> sites_;  // guarded by site_mutex_
};

/// Everything a backend needs from the environment, captured at selection
/// time so backends never reach back into core/.
struct BackendInit {
  MachineModel* machine = nullptr;
  SharedArena* arena = nullptr;
  bool team_pool = false;
  int pool_workers = 1;
  std::size_t member_stack_bytes = 256u << 10;
  std::string cluster_transport = "unix";
};

/// The one selection point: ForceEnvironment construction.
[[nodiscard]] std::unique_ptr<ExecutionBackend> make_execution_backend(
    ProcessModel model, const BackendInit& init);

}  // namespace force::machdep
