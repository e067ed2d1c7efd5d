#include "serve/loadgen.h"

#include <string_view>

#include "util/logging.h"

namespace pae::serve {

namespace {

uint64_t Fnv1a(uint64_t h, std::string_view s) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= kPrime;
  }
  // Field separator: hash a byte no UTF-8 string contains, so
  // ("ab", "c") and ("a", "bc") cannot collide structurally.
  h ^= 0xFF;
  h *= kPrime;
  return h;
}

}  // namespace

uint64_t NURand(uint64_t a, uint64_t c, uint64_t n, Rng& rng) {
  PAE_CHECK_GT(n, 0u);
  const uint64_t x = rng.NextBounded(a + 1);
  const uint64_t y = rng.NextBounded(n);
  return ((x | y) + c) % n;
}

uint64_t TripleHash(const core::Triple& triple) {
  constexpr uint64_t kOffset = 14695981039346656037ULL;
  uint64_t h = kOffset;
  h = Fnv1a(h, triple.product_id);
  h = Fnv1a(h, triple.attribute);
  h = Fnv1a(h, triple.value);
  return h;
}

}  // namespace pae::serve
