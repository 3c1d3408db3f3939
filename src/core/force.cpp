#include "core/force.hpp"

#include "util/check.hpp"

namespace force::core {

void Ctx::call(const std::string& subroutine) {
  FORCE_CHECK(subs_ != nullptr,
              "Forcecall is only available on driver-created contexts");
  // Parallel subroutines are executed by all processes concurrently; each
  // process simply calls the body with its own context (paper §3.1).
  subs_->call(subroutine, *this);
}

ResolveBuilder Ctx::resolve(const Site& site) {
  env_->require(machdep::Capability::kResolve, "Resolve", site_key(site));
  return ResolveBuilder(*this, site_key(site));
}

ResolveBuilder& ResolveBuilder::component(std::string name, int weight,
                                          std::function<void(Ctx&)> body) {
  FORCE_CHECK(body != nullptr, "Resolve component body must not be null");
  components_.push_back({std::move(name), weight, std::move(body)});
  return *this;
}

void ResolveBuilder::run() {
  FORCE_CHECK(!components_.empty(), "Resolve needs at least one component");
  std::vector<int> weights;
  weights.reserve(components_.size());
  for (const auto& c : components_) weights.push_back(c.weight);

  // Every process computes the same deterministic partition.
  const std::vector<int> sizes = resolve_partition(parent_.np(), weights);
  auto& env = parent_.env();
  const std::string key = site_key_ + "%resolve";
  auto& st = env.sites().get_or_create<ResolveState>(key, [&] {
    return std::make_unique<ResolveState>(env, sizes, key);
  });
  FORCE_CHECK(st.sizes() == sizes,
              "Resolve site reached with divergent components");

  const ComponentAssignment a = assign_component(parent_.me0(), sizes);
  Component& mine = components_[static_cast<std::size_t>(a.component)];

  // The Unify join is a barrier over the whole team, so it carries the
  // same happens-before edges as any barrier when the sentry is on.
  Sentry* sn = env.sentry();
  BarrierAlgorithm& join = st.join_barrier();
  const auto arrive_join = [&] {
    if (sn != nullptr) sn->barrier_publish(&join);
    join.arrive(parent_.me0());
    if (sn != nullptr) sn->barrier_join(&join);
  };

  // Sub-context: remapped rank/width, component-sized barrier, and a
  // namespaced construct-site space so nested constructs get fresh state.
  Ctx sub(parent_.env_, parent_.subs_, a.rank, a.width,
          site_key_ + "#" + mine.name, &st.component_barrier(a.component));
  try {
    mine.body(sub);
  } catch (...) {
    // Unify even on failure so other components are not wedged forever.
    arrive_join();
    throw;
  }
  arrive_join();
}

Force::Force(ForceConfig config)
    : env_(std::make_unique<ForceEnvironment>(std::move(config))),
      subs_(*env_) {}

machdep::SpawnStats Force::run(const std::function<void(Ctx&)>& program) {
  FORCE_CHECK(program != nullptr, "Force program must not be null");
  machdep::PrivateSpace* space = nullptr;
  if (!started_) {
    // The preprocess-generated driver runs every module's startup routine
    // (declaring shared variables; linking them on link-time machines)
    // before the force is created.
    env_->linkage().run_startup(env_->arena());
    space = &env_->private_space();
    started_ = true;
  }

  // Stamp the new force entry before any member can reach a construct:
  // long-lived sites (pooled teams re-enter them run after run) compare
  // this generation to re-arm per-entry episode state, e.g. the Askfor
  // drained/probend latch.
  env_->begin_team_entry();

  Sentry* sn = env_->sentry();
  if (sn != nullptr) {
    // Linkage-declared shared variables become named, race-checked ranges.
    // The walk costs per-allocation work on every entry, which pooled
    // re-entry makes hot - skip it unless a new allocation was placed
    // since the last run (the arena generation says so).
    const std::uint64_t arena_gen = env_->arena().generation();
    if (arena_gen != tracked_arena_generation_) {
      env_->arena().for_each_allocation(
          [sn](const std::string& name, void* addr, std::size_t bytes) {
            sn->track_range(addr, bytes, name);
          });
      tracked_arena_generation_ = arena_gen;
    }
    sn->begin_run();  // fork edge: every process starts after the driver
  }

  const int np = env_->nproc();
  const auto member = [this, np, sn, &program](int proc0) {
    Ctx ctx(env_.get(), &subs_, proc0, np, "", &env_->global_barrier());
    if (sn != nullptr) {
      Sentry::ThreadScope scope(*sn, proc0);
      program(ctx);
    } else {
      program(ctx);
    }
  };

  // The backend owns the whole team lifetime: pools, spawn, join, death
  // reporting. The program's closure type rides along so the os-fork pool
  // can pin one program per armed team (docs/PORTING.md spells out that
  // contract); other backends ignore it.
  const machdep::SpawnStats stats =
      env_->backend().run_team(np, space, member, &program.target_type());

  if (sn != nullptr) sn->end_run();  // join edge: the driver sees all writes

  lifetime_.create_ns += stats.create_ns;
  lifetime_.join_ns += stats.join_ns;
  lifetime_.bytes_copied += stats.bytes_copied;
  lifetime_.processes = stats.processes;
  return stats;
}

}  // namespace force::core
