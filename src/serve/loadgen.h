#ifndef PAE_SERVE_LOADGEN_H_
#define PAE_SERVE_LOADGEN_H_

#include <cstdint>

#include "core/types.h"
#include "util/rng.h"

namespace pae::serve {

/// NURand-style skewed index in [0, n): the TPC-C non-uniform random
/// trick — OR of two uniform draws biases toward indices sharing high
/// bits with hot items — adapted here for product popularity so cache
/// behaviour under load resembles a real catalog, not a uniform sweep.
/// `a` must be (2^k - 1) >= n - 1; `c` is a per-run constant.
uint64_t NURand(uint64_t a, uint64_t c, uint64_t n, Rng& rng);

/// Order-independent hash of one extracted triple (FNV-1a over
/// product_id / attribute / value with field separators). A load
/// driver sums it over every response, so a checksum does not depend
/// on the order requests completed in.
uint64_t TripleHash(const core::Triple& triple);

}  // namespace pae::serve

#endif  // PAE_SERVE_LOADGEN_H_
