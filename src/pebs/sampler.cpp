#include "drbw/pebs/sample.hpp"

#include "drbw/obs/metrics.hpp"
#include "drbw/util/rng.hpp"

namespace drbw::pebs {

namespace {

obs::Counter& sampler_draws_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "drbw_pebs_draws_total",
      "Counter-overflow fires drawn by PeriodSampler (pre-threshold)");
  return counter;
}

}  // namespace

const char* level_name(MemLevel level) {
  switch (level) {
    case MemLevel::kL1: return "L1";
    case MemLevel::kL2: return "L2";
    case MemLevel::kL3: return "L3";
    case MemLevel::kLfb: return "LFB";
    case MemLevel::kLocalDram: return "LocalDRAM";
    case MemLevel::kRemoteDram: return "RemoteDRAM";
  }
  return "?";
}

PeriodSampler::PeriodSampler(std::uint64_t period, std::uint64_t phase_seed)
    : period_(period) {
  DRBW_CHECK_MSG(period > 0, "sampling period must be positive");
  std::uint64_t s = phase_seed;
  countdown_ = splitmix64(s) % period + 1;
}

SampleFires PeriodSampler::consume(std::uint64_t accesses) {
  if (accesses < countdown_) {
    countdown_ -= accesses;
    return SampleFires{0, 0, period_};
  }
  // The first fire lands on the access the countdown reaches zero at, then
  // one every period; the countdown restarts after the last fire.
  const std::uint64_t after_first = accesses - countdown_;
  const SampleFires fires{countdown_ - 1, 1 + after_first / period_, period_};
  countdown_ = period_ - after_first % period_;
  sampler_draws_counter().add(fires.count);
  return fires;
}

}  // namespace drbw::pebs
