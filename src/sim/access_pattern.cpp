#include "drbw/sim/access_pattern.hpp"

namespace drbw::sim {

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kSequential: return "sequential";
    case Pattern::kStrided: return "strided";
    case Pattern::kRandom: return "random";
    case Pattern::kPointerChaseConflict: return "pointer-chase";
  }
  return "?";
}

namespace {
AccessBurst make(mem::ObjectId obj, Pattern pattern, std::uint64_t count,
                 std::uint64_t offset, std::uint64_t span, std::uint32_t elem,
                 std::uint32_t stride, bool write) {
  AccessBurst b;
  b.object = obj;
  b.pattern = pattern;
  b.count = count;
  b.offset_bytes = offset;
  b.span_bytes = span;
  b.elem_bytes = elem;
  b.stride_bytes = stride;
  b.is_write = write;
  return b;
}
}  // namespace

AccessBurst seq_read(mem::ObjectId obj, std::uint64_t count, std::uint64_t offset,
                     std::uint64_t span, std::uint32_t elem) {
  return make(obj, Pattern::kSequential, count, offset, span, elem, elem, false);
}

AccessBurst seq_write(mem::ObjectId obj, std::uint64_t count, std::uint64_t offset,
                      std::uint64_t span, std::uint32_t elem) {
  return make(obj, Pattern::kSequential, count, offset, span, elem, elem, true);
}

AccessBurst random_read(mem::ObjectId obj, std::uint64_t count, std::uint64_t offset,
                        std::uint64_t span, std::uint32_t elem) {
  return make(obj, Pattern::kRandom, count, offset, span, elem, elem, false);
}

}  // namespace drbw::sim
