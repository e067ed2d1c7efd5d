#ifndef PAE_TESTS_SUPPORT_CRF_ORACLE_H_
#define PAE_TESTS_SUPPORT_CRF_ORACLE_H_

// The log-space CRF objective that CrfModel::SequenceNll's scaled
// forward–backward replaced, kept as the reference it is held to.

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

}  // namespace pae::oracle

#endif  // PAE_TESTS_SUPPORT_CRF_ORACLE_H_
