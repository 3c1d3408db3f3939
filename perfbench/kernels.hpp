// The three application kernels of bench/bench_apps.cpp and their
// bit-identical sequential oracles, with two changes for this benchmark:
//
//   * every call into a runtime layer, and every stretch of the kernel's
//     own arithmetic, goes through `rec.span(layer, ...)`, which is the
//     bare call when untraced (NoRec) and a recorded span when traced;
//   * a workload seed shapes the tree (mixed into the hash of the node id)
//     and the pipeline's input stream. cmfd has no random input.
//
// The arithmetic is bench_apps' own, so results stay bit-identical to the
// oracle on every backend (single deterministic writers, exact or
// index-ordered reductions; see docs/VALIDATION.md, workload suite).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/force.hpp"
#include "spans.hpp"

namespace perfbench {

/// splitmix64: the hash behind tree shape, node work and stream payloads.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- cmfd: CMFD-style mesh power iteration --------------------------------

constexpr int kCmfdMax = 50;

/// All shared state of one solve, one trivially copyable blob so os-fork
/// and cluster can place it in the Force's shared arena.
struct CmfdState {
  std::array<double, kCmfdMax * kCmfdMax> flux;
  std::array<double, kCmfdMax * kCmfdMax> next;
  std::array<double, kCmfdMax * kCmfdMax> surfx;
  std::array<double, kCmfdMax * kCmfdMax> surfy;
  double keff;
  double fiss_old;
  double resid;
  double leakage;
  std::int64_t iters;
  std::int64_t done;
};

inline double cmfd_nu_sig_f(int i, int j) { return ((i + j) & 1) ? 0.70 : 0.30; }
inline double cmfd_sig_r(int i, int j) { return ((i + j) & 1) ? 0.54 : 0.48; }
constexpr double kCmfdD = 1.0;

inline void cmfd_init(CmfdState& s, int n) {
  s.flux.fill(0.0);
  s.next.fill(0.0);
  s.surfx.fill(0.0);
  s.surfy.fill(0.0);
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) s.flux[i * kCmfdMax + j] = 1.0;
  }
  s.keff = 1.0;
  s.fiss_old = 0.0;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      s.fiss_old += cmfd_nu_sig_f(i, j) * s.flux[i * kCmfdMax + j];
    }
  }
  s.resid = 0.0;
  s.leakage = 0.0;
  s.iters = 0;
  s.done = 0;
}

inline double cmfd_sweep_row(CmfdState& s, int n, int i) {
  double rowmax = 0.0;
  const int base = i * kCmfdMax;
  for (int j = 1; j <= n; ++j) {
    const double nbr = s.flux[base - kCmfdMax + j] +
                       s.flux[base + kCmfdMax + j] + s.flux[base + j - 1] +
                       s.flux[base + j + 1];
    const double src = cmfd_nu_sig_f(i, j) * s.flux[base + j] / s.keff;
    const double updated =
        (src + kCmfdD * nbr) / (4.0 * kCmfdD + cmfd_sig_r(i, j));
    s.next[base + j] = updated;
    const double d = std::fabs(updated - s.flux[base + j]);
    if (d > rowmax) rowmax = d;
  }
  for (int j = 0; j <= n; ++j) {
    s.surfx[base + j] = -kCmfdD * (s.flux[base + j + 1] - s.flux[base + j]);
  }
  for (int j = 1; j <= n; ++j) {
    s.surfy[base + j] =
        -kCmfdD * (s.flux[base + kCmfdMax + j] - s.flux[base + j]);
    if (i == 1) s.surfy[j] = -kCmfdD * (s.flux[kCmfdMax + j] - s.flux[j]);
  }
  return rowmax;
}

inline void cmfd_fold(CmfdState& s, int n, double tol) {
  double fiss_new = 0.0;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      fiss_new += cmfd_nu_sig_f(i, j) * s.next[i * kCmfdMax + j];
    }
  }
  double leak = 0.0;
  for (int i = 1; i <= n; ++i) {
    leak += s.surfx[i * kCmfdMax + n] - s.surfx[i * kCmfdMax];
  }
  for (int j = 1; j <= n; ++j) {
    leak += s.surfy[n * kCmfdMax + j] - s.surfy[j];
  }
  s.leakage = leak;
  s.keff = s.keff * fiss_new / s.fiss_old;
  s.fiss_old = fiss_new;
  s.iters += 1;
  if (s.resid < tol) s.done = 1;
}

inline void cmfd_copy_row(CmfdState& s, int n, int i) {
  for (int j = 1; j <= n; ++j) {
    s.flux[i * kCmfdMax + j] = s.next[i * kCmfdMax + j];
  }
}

inline void cmfd_oracle(CmfdState& s, int n, double tol, int max_iters) {
  cmfd_init(s, n);
  while (s.done == 0 && s.iters < max_iters) {
    double resid = 0.0;
    for (int i = 1; i <= n; ++i) resid = std::max(resid, cmfd_sweep_row(s, n, i));
    s.resid = resid;
    cmfd_fold(s, n, tol);
    for (int i = 1; i <= n; ++i) cmfd_copy_row(s, n, i);
  }
}

template <typename R>
void cmfd_parallel(force::Ctx& ctx, R& rec, CmfdState& s, int n, double tol,
                   int max_iters) {
  while (true) {
    double localmax = 0.0;
    rec.span(Layer::kDoall, [&] {
      ctx.selfsched_do(FORCE_SITE, 1, n, 1, [&](std::int64_t i) {
        rec.span(Layer::kBody, [&] {
          localmax =
              std::max(localmax, cmfd_sweep_row(s, n, static_cast<int>(i)));
        });
      });
    });
    rec.span(Layer::kReduce, [&] {
      ctx.reduce_into<double>(FORCE_SITE, localmax, s.resid,
                              [](double a, double b) { return std::max(a, b); });
    });
    rec.span(Layer::kBarrier, [&] {
      ctx.barrier([&] { rec.span(Layer::kBody, [&] { cmfd_fold(s, n, tol); }); });
    });
    rec.span(Layer::kDoall, [&] {
      ctx.presched_do(1, n, 1, [&](std::int64_t i) {
        rec.span(Layer::kBody,
                 [&] { cmfd_copy_row(s, n, static_cast<int>(i)); });
      });
    });
    rec.span(Layer::kBarrier, [&] { ctx.barrier(); });
    if (s.done != 0 || s.iters >= max_iters) break;
  }
}

// --- tree: irregular hash-shaped tree reduction over Askfor ---------------

inline int tree_depth(std::uint64_t id) {
  int d = -1;
  while (id != 0) {
    id >>= 1;
    ++d;
  }
  return d;
}

/// Children of node `id`: full binary down to full_depth, then a chain
/// that continues where the salted hash says so, up to max_depth.
inline int tree_children(std::uint64_t id, std::uint64_t salt, int full_depth,
                         int max_depth) {
  const int d = tree_depth(id);
  if (d < full_depth) return 2;
  if (d < max_depth && (mix64(id ^ salt) & 1ull) != 0) return 1;
  return 0;
}

inline std::uint64_t tree_node_value(std::uint64_t id, int rounds) {
  std::uint64_t h = id;
  for (int r = 0; r < rounds; ++r) h = mix64(h);
  return h;
}

struct TreeShared {
  std::uint64_t sum;
  std::int64_t nodes;
};

struct TreeParams {
  std::uint64_t salt;
  int full_depth;
  int max_depth;
  int rounds;
};

inline TreeShared tree_oracle(const TreeParams& p) {
  TreeShared r{0, 0};
  std::vector<std::uint64_t> stack{1};
  while (!stack.empty()) {
    const std::uint64_t id = stack.back();
    stack.pop_back();
    r.sum += tree_node_value(id, p.rounds);
    r.nodes += 1;
    const int kids = tree_children(id, p.salt, p.full_depth, p.max_depth);
    if (kids >= 1) stack.push_back(2 * id);
    if (kids == 2) stack.push_back(2 * id + 1);
  }
  return r;
}

template <typename R>
void tree_parallel(force::Ctx& ctx, R& rec, TreeShared& s, const TreeParams& p) {
  auto& af = ctx.askfor<std::uint64_t>(FORCE_SITE);
  if (ctx.leader()) {
    rec.span(Layer::kBody, [&] {
      s.sum = 0;
      s.nodes = 0;
    });
    rec.span(Layer::kAskforPut, [&] { af.put(1); });
  }
  rec.span(Layer::kBarrier, [&] { ctx.barrier(); });
  std::uint64_t local_sum = 0;
  std::int64_t local_nodes = 0;
  rec.span(Layer::kAskforWork, [&] {
    af.work([&](std::uint64_t& id, force::core::Askfor<std::uint64_t>& a) {
      rec.span(Layer::kBody, [&] {
        local_sum += tree_node_value(id, p.rounds);
        local_nodes += 1;
        const int kids = tree_children(id, p.salt, p.full_depth, p.max_depth);
        if (kids >= 1) rec.span(Layer::kAskforPut, [&] { a.put(2 * id); });
        if (kids == 2) rec.span(Layer::kAskforPut, [&] { a.put(2 * id + 1); });
      });
    });
  });
  rec.span(Layer::kReduce, [&] {
    ctx.reduce_into<std::uint64_t>(
        FORCE_SITE, local_sum, s.sum,
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  });
  rec.span(Layer::kReduce, [&] {
    ctx.reduce_into<std::int64_t>(
        FORCE_SITE, local_nodes, s.nodes,
        [](std::int64_t a, std::int64_t b) { return a + b; });
  });
  rec.span(Layer::kBarrier, [&] { ctx.barrier(); });
}

// --- pipeline: np stages over ring-buffered async cells -------------------

inline std::uint64_t pipe_stage(std::uint64_t v, int stage) {
  return mix64(v ^ (static_cast<std::uint64_t>(stage) << 32));
}

/// Ring depth per stage link.
constexpr std::int64_t kPipeRing = 4;

struct PipeShared {
  std::uint64_t sink;
  std::int64_t delivered;
};

/// Item i enters stage 1 as i ^ salt.
inline std::uint64_t pipe_oracle(std::int64_t items, int stages,
                                 std::uint64_t salt) {
  std::uint64_t acc = 0;
  for (std::int64_t i = 0; i < items; ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(i) ^ salt;
    for (int p = 1; p <= stages; ++p) v = pipe_stage(v, p);
    acc += v;
  }
  return acc;
}

template <typename R>
void pipe_parallel(force::Ctx& ctx, R& rec, PipeShared& s, std::int64_t items,
                   std::uint64_t salt) {
  const int np = ctx.np();
  const int me = ctx.me();
  auto& cells = ctx.async_array<std::uint64_t>(
      FORCE_SITE, static_cast<std::size_t>(np - 1) * kPipeRing);
  std::uint64_t acc = 0;
  for (std::int64_t i = 0; i < items; ++i) {
    std::uint64_t v = 0;
    if (me != 1) {
      v = rec.span(Layer::kConsume, [&] {
        return cells[static_cast<std::size_t>((me - 2) * kPipeRing +
                                              i % kPipeRing)]
            .consume();
      });
    }
    rec.span(Layer::kBody, [&] {
      if (me == 1) v = static_cast<std::uint64_t>(i) ^ salt;
      v = pipe_stage(v, me);
      if (me == np) acc += v;
    });
    if (me != np) {
      rec.span(Layer::kProduce, [&] {
        cells[static_cast<std::size_t>((me - 1) * kPipeRing + i % kPipeRing)]
            .produce(v);
      });
    }
  }
  if (me == np) {
    rec.span(Layer::kCritical, [&] {
      ctx.critical(FORCE_SITE, [&] {
        rec.span(Layer::kBody, [&] {
          s.sink = acc;
          s.delivered = items;
        });
      });
    });
  }
  rec.span(Layer::kBarrier, [&] { ctx.barrier(); });
}

}  // namespace perfbench
