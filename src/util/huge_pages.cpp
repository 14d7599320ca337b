#include "drbw/util/huge_pages.hpp"

#include <sys/mman.h>

#include <cstdint>

namespace drbw::util {

void advise_huge_pages(const void* data, std::size_t bytes) {
#ifdef MADV_HUGEPAGE
  const auto first = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t begin =
      (first + kHugePageBytes - 1) & ~(std::uintptr_t{kHugePageBytes} - 1);
  const std::uintptr_t end =
      (first + bytes) & ~(std::uintptr_t{kHugePageBytes} - 1);
  if (data == nullptr || begin >= end) return;
  // A hint: EINVAL (THP not built in) or any other error leaves the buffer
  // on normal pages, which is still correct.
  static_cast<void>(::madvise(reinterpret_cast<void*>(begin), end - begin,
                              MADV_HUGEPAGE));
#else
  static_cast<void>(data);
  static_cast<void>(bytes);
#endif
}

}  // namespace drbw::util
