// Span recording for the traced run.
//
// Every call the benchmark's kernels make into a runtime layer's public
// functions is wrapped in a span {layer, start, end, parent, solve}. Spans
// live in one MAP_SHARED anonymous mapping that the benchmark creates
// before any Force exists, one fixed-capacity buffer per member. Threads,
// os-fork children (respawned or pooled) and cluster members all inherit
// the mapping, so each member writes its own buffer in place and the
// driver reads every buffer after Force::run returns. The mapping is not
// the Force's shared arena: under cluster that arena is software DSM, and
// routing spans through it would add flushes to every construct.
#pragma once

#include <sys/mman.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace perfbench {

/// What a span wraps. kMember is the whole member body (one per member and
/// solve, always buffer index 0); kBody is the benchmark's own kernel code;
/// the rest are runtime-layer calls.
enum class Layer : std::uint8_t {
  kMember,
  kBody,
  kBarrier,
  kDoall,
  kReduce,
  kAskforWork,
  kAskforPut,
  kProduce,
  kConsume,
  kCritical,
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start;
  std::int64_t end;
  std::int32_t parent;  ///< index in the same member's buffer, -1 for root
  std::uint32_t solve;
  Layer layer;
};

/// Header of one member's span buffer; `capacity` Spans follow it.
struct MemberBuffer {
  std::int64_t count;
  std::int64_t overflowed;
};

/// Written by the driver between solves, read by members at entry. Plain
/// fields are enough: Force::run's entry and join order them.
struct Control {
  std::uint32_t tracing;
  std::uint32_t solve;
};

/// The shared mapping: a Control block then `members` span buffers.
class SpanStore {
 public:
  SpanStore(int members, std::int64_t capacity)
      : members_(members), capacity_(capacity) {
    stride_ = kHeader + static_cast<std::size_t>(capacity) * sizeof(Span);
    stride_ = (stride_ + kHeader - 1) / kHeader * kHeader;
    bytes_ = kHeader + stride_ * static_cast<std::size_t>(members);
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("span mapping failed");
    base_ = static_cast<char*>(p);
  }
  ~SpanStore() { ::munmap(base_, bytes_); }
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  [[nodiscard]] Control& control() const {
    return *reinterpret_cast<Control*>(base_);
  }
  [[nodiscard]] MemberBuffer& member(int me0) const {
    return *reinterpret_cast<MemberBuffer*>(slot(me0));
  }
  [[nodiscard]] Span* spans(int me0) const {
    return reinterpret_cast<Span*>(slot(me0) + kHeader);
  }
  [[nodiscard]] int members() const { return members_; }
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }

  void clear() const {
    for (int m = 0; m < members_; ++m) {
      member(m).count = 0;
      member(m).overflowed = 0;
    }
  }

 private:
  /// Control block and member headers each get one cache line.
  static constexpr std::size_t kHeader = 64;

  [[nodiscard]] char* slot(int me0) const {
    return base_ + kHeader + stride_ * static_cast<std::size_t>(me0);
  }

  int members_;
  std::int64_t capacity_;
  std::size_t stride_ = 0;
  std::size_t bytes_ = 0;
  char* base_ = nullptr;
};

/// The untraced recorder: every span is just the call.
struct NoRec {
  template <typename F>
  decltype(auto) span(Layer /*layer*/, F&& f) {
    return f();
  }
};

/// One member's recorder for one traced solve. Spans nest through `open_`:
/// a span opened while another is open becomes its child.
class Rec {
 public:
  Rec(const SpanStore& store, int me0)
      : buf_(store.member(me0)),
        spans_(store.spans(me0)),
        capacity_(store.capacity()),
        solve_(store.control().solve) {
    buf_.count = 0;
    buf_.overflowed = 0;
    root_ = open(Layer::kMember);
  }
  ~Rec() { close(root_); }
  Rec(const Rec&) = delete;
  Rec& operator=(const Rec&) = delete;

  template <typename F>
  decltype(auto) span(Layer layer, F&& f) {
    const std::int32_t id = open(layer);
    struct Closer {
      Rec* rec;
      std::int32_t id;
      ~Closer() { rec->close(id); }
    } closer{this, id};
    return f();
  }

 private:
  std::int32_t open(Layer layer) {
    if (buf_.count >= capacity_) {
      buf_.overflowed = 1;
      return -1;
    }
    const auto id = static_cast<std::int32_t>(buf_.count++);
    spans_[id] = Span{now_ns(), 0, open_, solve_, layer};
    open_ = id;
    return id;
  }
  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[id].end = now_ns();
    open_ = spans_[id].parent;
  }

  MemberBuffer& buf_;
  Span* spans_;
  std::int64_t capacity_;
  std::uint32_t solve_;
  std::int32_t open_ = -1;
  std::int32_t root_ = -1;
};

}  // namespace perfbench
