// Transparent-huge-page advice for the large arrays a cold process fills
// once (decoded trace samples, the profile's ref array, window ordinals).
//
// A fresh 32 MiB buffer costs 8,192 first-touch faults with 4 KiB pages and
// 16 with 2 MiB ones, and on a cold `drbw analyze` those faults are most of
// the time spent outside the timed stages.  madvise(MADV_HUGEPAGE) asks the
// kernel to back the buffer's 2 MiB-aligned interior with huge pages when it
// is first touched.  The advice is only a hint: it changes no byte the
// program reads, its errors are ignored, and it is compiled out where the
// flag is undefined.  Under THP mode `never` it does nothing.
#pragma once

#include <cstddef>
#include <vector>

namespace drbw::util {

/// Huge-page size the advice aligns to.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Advises the 2 MiB-aligned interior of [data, data + bytes) for huge
/// pages; a no-op when the range holds no whole aligned huge page.
void advise_huge_pages(const void* data, std::size_t bytes);

/// Reserves `v` for `n` elements and advises its buffer before anything
/// touches it.  For a vector that is then filled once (push_back up to `n`,
/// or one resize and a scatter).
template <typename T>
void reserve_huge(std::vector<T>& v, std::size_t n) {
  v.reserve(n);
  advise_huge_pages(v.data(), v.capacity() * sizeof(T));
}

}  // namespace drbw::util
