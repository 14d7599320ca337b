#include "drbw/pebs/session.hpp"

#include <algorithm>

#include "drbw/util/error.hpp"
#include "drbw/util/huge_pages.hpp"

namespace drbw::pebs {

Sessions slice_sessions(std::span<const MemorySample> samples,
                        std::uint32_t clients) {
  if (clients == 0) {
    throw Error("slice_sessions: clients must be >= 1", ErrorCode::kUsage);
  }
  if (samples.size() > kMaxSessionSamples) {
    throw Error("cannot replay " + std::to_string(samples.size()) +
                    " samples: a session indexes at most " +
                    std::to_string(kMaxSessionSamples),
                ErrorCode::kCorruptArtifact);
  }
  Sessions out;
  std::vector<std::size_t> counts(clients, 0);
  for (const MemorySample& s : samples) {
    ++counts[s.tid % clients];
    out.cycle_span = std::max(out.cycle_span, s.cycle);
  }
  out.clients.resize(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    out.clients[c].client = c;
    out.clients[c].ordinals.reserve(counts[c]);
  }
  const auto n = static_cast<std::uint32_t>(samples.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    out.clients[samples[i].tid % clients].ordinals.push_back(i);
  }
  return out;
}

std::uint64_t cycle_window_width(std::uint64_t span, std::uint64_t windows) {
  DRBW_CHECK_MSG(windows > 0, "window count must be positive");
  const std::uint64_t base = span / windows;
  return std::max(base, base + 1);  // saturating
}

CycleWindows bucket_by_cycle(std::span<const MemorySample> samples,
                             std::uint64_t width, std::size_t count,
                             std::uint64_t end) {
  DRBW_CHECK_MSG(width > 0 && count > 0,
                 "window width and count must be positive");
  if (samples.size() > kMaxSessionSamples) {
    throw Error("cannot window " + std::to_string(samples.size()) +
                    " samples: an ordinal is 32 bits",
                ErrorCode::kCorruptArtifact);
  }
  const auto window_of = [&](const MemorySample& s) {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(s.cycle / width, count - 1));
  };
  CycleWindows out{width, end, {}, std::vector<std::uint32_t>(count + 1, 0)};
  // Counting pass: offsets[w + 1] counts window w, then prefix-sums into
  // window w's first position.
  for (const MemorySample& s : samples) ++out.offsets[window_of(s) + 1];
  for (std::size_t w = 0; w < count; ++w) out.offsets[w + 1] += out.offsets[w];
  // Fill pass: the next free slot of each window, in stream order.
  std::vector<std::uint32_t> next(out.offsets.begin(), out.offsets.end() - 1);
  util::reserve_huge(out.ordinals, samples.size());
  out.ordinals.resize(samples.size());
  const auto n = static_cast<std::uint32_t>(samples.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    out.ordinals[next[window_of(samples[i])]++] = i;
  }
  return out;
}

CycleWindows split_cycle_windows(std::span<const MemorySample> samples,
                                 std::size_t windows) {
  std::uint64_t span = 0;
  for (const MemorySample& s : samples) span = std::max(span, s.cycle);
  return bucket_by_cycle(samples, cycle_window_width(span, windows),
                         windows, std::max(span, span + 1));  // saturating
}

}  // namespace drbw::pebs
