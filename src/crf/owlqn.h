#ifndef PAE_CRF_OWLQN_H_
#define PAE_CRF_OWLQN_H_

#include <functional>
#include <vector>

#include "util/status.h"

namespace pae::crf {

/// Smooth part of an objective: returns f(x) and writes ∇f(x) into
/// `grad` (same dimension as x). The L1 term is handled by the
/// optimizer, not the objective.
using SmoothObjective =
    std::function<double(const std::vector<double>& x,
                         std::vector<double>* grad)>;

struct OwlqnOptions {
  int max_iterations = 100;
  /// Convergence: ||pseudo-grad||_inf below this stops the optimizer.
  double epsilon = 1e-4;
  /// L1 coefficient (c1). 0 disables the orthant-wise machinery and the
  /// algorithm reduces to plain L-BFGS with backtracking line search.
  double l1_weight = 0.0;
};

struct OwlqnReport {
  int iterations = 0;
  double final_objective = 0.0;  // smooth + L1
  bool converged = false;
  /// Per-iteration trace, one entry per accepted iterate, in order:
  /// total objective (smooth + L1) after the step, and the inf-norm of
  /// the pseudo-gradient evaluated before the step.
  std::vector<double> objective_history;
  std::vector<double> grad_norm_history;
};

/// Minimizes f(x) + l1_weight * ||x||_1 with the Orthant-Wise Limited-
/// memory Quasi-Newton method (Andrew & Gao, 2007). `x` holds the start
/// point on entry and the solution on exit.
Status MinimizeOwlqn(const SmoothObjective& objective,
                     const OwlqnOptions& options, std::vector<double>* x,
                     OwlqnReport* report);

}  // namespace pae::crf

#endif  // PAE_CRF_OWLQN_H_
