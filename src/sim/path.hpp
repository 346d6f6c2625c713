#pragma once
// Fixed-capacity inline router path — the hot-path replacement for the
// heap-allocated std::vector<int> a Packet used to carry. Storing the hops
// inline (uint16 ids, one-byte length) makes Packet trivially copyable, so
// the ring buffers holding packets relocate them with memcpy-class moves
// and routing never touches the allocator.
//
// Capacity rationale: every simulated topology family is low-diameter
// (Slim Fly / DLN / Long Hop / Dragonfly / fat tree are diameter <= 3
// sources with <= 2x Valiant detours), and the capacity still covers the
// registry's practical outliers (MIN on torus:dims=8x8x8 = 12 hops,
// VAL on torus:dims=4x4x4 = 12 hops). Longer walks — Valiant on a
// diameter > 7 torus/hypercube — throw PathOverflowError at route time: a
// named, actionable error rather than silent heap fallback. Router ids
// are bounded by the uint16 storage; the Network constructor rejects
// topologies of more than 65536 routers for that reason. The capacity is kept
// tight deliberately: it is what makes Packet exactly one cache line, and
// Packet size is the dominant term in the hot path's memory traffic
// (every hop copies the packet a handful of times).

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace slimfly::sim {

/// Thrown when a routing algorithm builds a path longer than
/// InlinePath::kMaxRouters - 1 hops (or names a router id outside uint16).
class PathOverflowError : public std::length_error {
 public:
  explicit PathOverflowError(const std::string& what) : std::length_error(what) {}
};

class InlinePath {
 public:
  /// Max routers on a path (kMaxRouters - 1 links): covers 2x-Valiant on
  /// every registry family plus moderate torus/hypercube outliers, and
  /// keeps sizeof(Packet) at one cache line.
  static constexpr int kMaxRouters = 15;

  InlinePath() = default;
  InlinePath(std::initializer_list<int> routers) {
    for (int r : routers) push_back(r);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }

  int operator[](std::size_t i) const { return routers_[i]; }
  int front() const { return routers_[0]; }
  int back() const { return routers_[size_ - 1]; }

  void push_back(int router) {
    if (size_ >= kMaxRouters) {
      throw PathOverflowError(
          "InlinePath: path exceeds " + std::to_string(kMaxRouters - 1) +
          " hops (InlinePath::kMaxRouters); this topology/routing pair needs "
          "a larger inline path capacity");
    }
    if (router < 0 || router > 0xFFFF) {
      throw PathOverflowError("InlinePath: router id " +
                              std::to_string(router) +
                              " outside the uint16 inline storage");
    }
    routers_[size_++] = static_cast<std::uint16_t>(router);
  }

  friend bool operator==(const InlinePath& a, const InlinePath& b) {
    if (a.size_ != b.size_) return false;
    for (std::uint8_t i = 0; i < a.size_; ++i) {
      if (a.routers_[i] != b.routers_[i]) return false;
    }
    return true;
  }

 private:
  // Deliberately not zero-initialized: size_ governs validity, and a
  // memset per constructed packet is measurable in the injection loop.
  std::uint16_t routers_[kMaxRouters];
  std::uint8_t size_ = 0;
};

}  // namespace slimfly::sim
