#ifndef PAE_TESTS_SUPPORT_CRF_ORACLE_H_
#define PAE_TESTS_SUPPORT_CRF_ORACLE_H_

// The CRF objectives CrfModel::SequenceNll replaced, kept as the
// references it is held to: the log-space recursion (to within
// rounding) and the per-entry dot-product scaled recursion (bit for
// bit).

#include <span>
#include <vector>

#include "crf/crf_model.h"

namespace pae::oracle {

/// Negative log-likelihood of `seq` under `w`, with its gradient added
/// into `grad` (the model's weight layout). Every forward, backward and
/// pairwise term is a LogSumExp or an exp in log space: ~3L² exp per
/// position, no scaling, no reused state.
double LogSpaceSequenceNll(const crf::CrfModel& model,
                           const crf::CompiledSequence& seq,
                           std::span<const double> w,
                           std::vector<double>* grad);

/// CrfModel::SequenceNll as it ran before its forward, backward and
/// pairwise passes moved into math::kernels::MatTMatD: the same scaled
/// forward–backward, with every entry its own serial dot product.
/// SequenceNll must match it bit for bit. `potentials` come from
/// model.BuildPotentials(w).
double DotScaledSequenceNll(const crf::CrfModel& model,
                            const crf::CompiledSequence& seq,
                            std::span<const double> w,
                            const crf::ScaledPotentials& potentials,
                            std::vector<double>* grad);

}  // namespace pae::oracle

#endif  // PAE_TESTS_SUPPORT_CRF_ORACLE_H_
