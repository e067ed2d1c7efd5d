#ifndef PAE_TESTS_SUPPORT_WORD2VEC_ORACLE_H_
#define PAE_TESTS_SUPPORT_WORD2VEC_ORACLE_H_

// The word2vec trainer as it ran before its skip-gram update moved into
// math::kernels::SkipGramPair: one Dot and two Axpy calls per sample,
// each negative drawn right before its update. Word2Vec::Train and the
// kernel must match it bit for bit.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "embed/word2vec.h"

namespace pae::oracle {

/// One (center, context) pair the per-sample way: for each target in
/// order, g = (label − Sigmoid(float(Dot(vin, vout)))) · lr, then
/// Axpy(g, vout, grad) and Axpy(g, vin, vout); finally Axpy(1, grad,
/// vin). targets[0] is the context (label 1), the rest are negatives.
void SkipGramPairPerSample(float* vin, float* out, const int32_t* targets,
                           size_t num_targets, float lr, size_t d);

/// Trains like Word2Vec::Train (vocabulary, subsampling, unigram table,
/// sharded epochs, centring) with the per-sample update above and
/// returns every vocabulary word's input vector. Empty when Train would
/// fail.
std::unordered_map<std::string, std::vector<float>> PerSampleWord2Vec(
    const embed::Word2VecOptions& options,
    const std::vector<std::vector<std::string>>& sentences);

}  // namespace pae::oracle

#endif  // PAE_TESTS_SUPPORT_WORD2VEC_ORACLE_H_
