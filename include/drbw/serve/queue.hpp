// Bounded per-client admission queues with explicit overload policies.
//
// The serve loop admits every client's replayed samples through one of
// these before any featurization work happens, so ingest pressure is
// bounded by construction: a queue holds at most `depth` samples, and what
// happens past that point is a *policy*, not an accident:
//
//   block       — the producer is pushed back: the sample stays in the
//                 client's pending stream and is re-offered next tick
//                 (lossless, adds latency).
//   shed-oldest — the oldest queued sample is evicted to make room (bounded
//                 staleness, loses the oldest data first).
//   reject      — the incoming sample is refused with a typed AdmitResult
//                 (the client sees the failure immediately; newest data is
//                 lost under pressure).
//
// A queue holds trace ordinals (pebs/session.hpp), never sample copies, in
// an OrdinalRing that grows on demand: its memory follows the most samples
// it has held, so a huge --queue-depth costs nothing until traffic fills it.
// The same Ring<T> holds each client's classify window as 8-byte
// features::WindowSample records, so the window evicts what it admitted
// without reading the trace again.
//
// Serial only: no member is synchronized.  The serve loop admits into and
// drains every queue from its one loop thread, in client/ordinal order, and
// its parallel classify fan-out never touches a queue, so every counter is
// a pure function of the stream.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace drbw::serve {

/// What a full queue does with the next sample.
enum class OverloadPolicy {
  kBlock,      ///< "block": defer the sample to the next tick (lossless)
  kShedOldest, ///< "shed-oldest": evict the oldest queued sample
  kReject,     ///< "reject": refuse the incoming sample (typed response)
};

/// Stable CLI token for each policy ("block", "shed-oldest", "reject").
const char* overload_policy_name(OverloadPolicy policy);
/// Inverse of overload_policy_name; throws Error(kUsage) on unknown tokens.
OverloadPolicy overload_policy_from_name(const std::string& name);

/// Typed admission response — what a real client would get back.
enum class AdmitResult {
  kAdmitted,  ///< enqueued
  kShed,      ///< enqueued, but the oldest queued sample was evicted
  kRejected,  ///< refused: queue full under the reject policy
  kDeferred,  ///< refused for now: queue full under the block policy
};

const char* admit_result_name(AdmitResult result);

/// FIFO of trivially copyable values in a power-of-two ring.  The ring
/// starts empty and doubles (from 16 slots) when a push finds it full, so
/// it holds at most max(16, 2 x high-water size) slots.  pop_front() needs
/// size() > 0.
template <typename T>
class Ring {
 public:
  std::size_t size() const { return size_; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }

  T pop_front() {
    const T value = slots_[head_];
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

  /// Empties the ring (its slots stay allocated).
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> slots(std::max<std::size_t>(16, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      slots[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_.swap(slots);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// A ring of trace ordinals.
using OrdinalRing = Ring<std::uint32_t>;

/// One client's bounded ingest queue.
class BoundedQueue {
 public:
  BoundedQueue(std::size_t depth, OverloadPolicy policy);

  /// Offers one trace ordinal under the overload policy (see file comment).
  AdmitResult push(std::uint32_t ordinal);

  /// Pops up to `max` ordinals, oldest first, handing each to `sink` in
  /// turn; returns how many it popped.
  template <typename Sink>
  std::size_t drain(std::size_t max, Sink&& sink) {
    const std::size_t n = std::min(max, ring_.size());
    for (std::size_t i = 0; i < n; ++i) sink(ring_.pop_front());
    return n;
  }

  std::size_t size() const { return ring_.size(); }
  std::size_t depth() const { return depth_; }
  OverloadPolicy policy() const { return policy_; }

  /// High-water mark of size() since construction.
  std::size_t peak() const { return peak_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t deferred() const { return deferred_; }

 private:
  const std::size_t depth_;
  const OverloadPolicy policy_;
  OrdinalRing ring_;
  std::size_t peak_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t deferred_ = 0;
};

}  // namespace drbw::serve
