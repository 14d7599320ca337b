#include "drbw/pebs/session.hpp"

#include <algorithm>

#include "drbw/util/error.hpp"

namespace drbw::pebs {

Sessions slice_sessions(const Trace& trace, std::uint32_t clients) {
  if (clients == 0) {
    throw Error("slice_sessions: clients must be >= 1", ErrorCode::kUsage);
  }
  if (trace.samples.size() > kMaxSessionSamples) {
    throw Error("cannot replay " + std::to_string(trace.samples.size()) +
                    " samples: a session indexes at most " +
                    std::to_string(kMaxSessionSamples),
                ErrorCode::kCorruptArtifact);
  }
  Sessions out;
  std::vector<std::size_t> counts(clients, 0);
  for (const MemorySample& s : trace.samples) {
    ++counts[s.tid % clients];
    out.cycle_span = std::max(out.cycle_span, s.cycle);
  }
  out.clients.resize(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    out.clients[c].client = c;
    out.clients[c].ordinals.reserve(counts[c]);
  }
  const auto n = static_cast<std::uint32_t>(trace.samples.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    out.clients[trace.samples[i].tid % clients].ordinals.push_back(i);
  }
  return out;
}

void require_known_cpus(const Trace& trace, int num_cpus,
                        const std::string& path) {
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    const topology::CpuId cpu = trace.samples[i].cpu;
    if (cpu < 0 || cpu >= num_cpus) {
      throw Error(path + ": sample " + std::to_string(i) + " has cpu " +
                      std::to_string(cpu) + ", but the machine has " +
                      std::to_string(num_cpus) + " hardware threads",
                  ErrorCode::kCorruptArtifact);
    }
  }
}

std::uint64_t cycle_window_width(std::uint64_t span, std::uint64_t windows) {
  DRBW_CHECK_MSG(windows > 0, "window count must be positive");
  const std::uint64_t base = span / windows;
  return std::max(base, base + 1);  // saturating
}

CycleWindows bucket_by_cycle(const std::vector<MemorySample>& samples,
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
  out.ordinals.resize(samples.size());
  const auto n = static_cast<std::uint32_t>(samples.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    out.ordinals[next[window_of(samples[i])]++] = i;
  }
  return out;
}

CycleWindows split_cycle_windows(const Trace& trace, std::size_t windows) {
  std::uint64_t span = 0;
  for (const MemorySample& s : trace.samples) span = std::max(span, s.cycle);
  return bucket_by_cycle(trace.samples, cycle_window_width(span, windows),
                         windows, std::max(span, span + 1));  // saturating
}

}  // namespace drbw::pebs
