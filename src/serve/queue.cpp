#include "drbw/serve/queue.hpp"

#include <algorithm>

#include "drbw/util/error.hpp"

namespace drbw::serve {

const char* overload_policy_name(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kShedOldest:
      return "shed-oldest";
    case OverloadPolicy::kReject:
      return "reject";
  }
  return "?";
}

OverloadPolicy overload_policy_from_name(const std::string& name) {
  for (const OverloadPolicy policy :
       {OverloadPolicy::kBlock, OverloadPolicy::kShedOldest,
        OverloadPolicy::kReject}) {
    if (name == overload_policy_name(policy)) return policy;
  }
  throw Error("unknown overload policy '" + name +
                  "' (use block, shed-oldest, or reject)",
              ErrorCode::kUsage);
}

const char* admit_result_name(AdmitResult result) {
  switch (result) {
    case AdmitResult::kAdmitted:
      return "admitted";
    case AdmitResult::kShed:
      return "shed";
    case AdmitResult::kRejected:
      return "rejected";
    case AdmitResult::kDeferred:
      return "deferred";
  }
  return "?";
}

BoundedQueue::BoundedQueue(std::size_t depth, OverloadPolicy policy)
    : depth_(std::max<std::size_t>(1, depth)), policy_(policy) {}

AdmitResult BoundedQueue::push(std::uint32_t ordinal) {
  if (ring_.size() < depth_) {
    ring_.push_back(ordinal);
    peak_ = std::max(peak_, ring_.size());
    ++admitted_;
    return AdmitResult::kAdmitted;
  }
  switch (policy_) {
    case OverloadPolicy::kBlock:
      ++deferred_;
      return AdmitResult::kDeferred;
    case OverloadPolicy::kShedOldest:
      ring_.pop_front();
      ring_.push_back(ordinal);
      ++admitted_;
      ++shed_;
      return AdmitResult::kShed;
    case OverloadPolicy::kReject:
      ++rejected_;
      return AdmitResult::kRejected;
  }
  ++rejected_;
  return AdmitResult::kRejected;
}

}  // namespace drbw::serve
