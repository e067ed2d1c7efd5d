#include "crf/owlqn.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pae::crf {

namespace {

/// L-BFGS history size: the number of (s, y) pairs kept.
constexpr size_t kMemory = 6;
/// Maximum backtracking steps per line search.
constexpr int kMaxLinesearch = 30;

double L1Norm(const std::vector<double>& x) {
  double s = 0;
  for (double v : x) s += std::fabs(v);
  return s;
}

double InfNorm(const std::vector<double>& x) {
  double m = 0;
  for (double v : x) m = std::max(m, std::fabs(v));
  return m;
}

double DotD(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// Pseudo-gradient of f(x) + C||x||_1 (Andrew & Gao, eq. 4).
void PseudoGradient(const std::vector<double>& x,
                    const std::vector<double>& grad, double c,
                    std::vector<double>* pg) {
  pg->resize(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0) {
      (*pg)[i] = grad[i] + c;
    } else if (x[i] < 0) {
      (*pg)[i] = grad[i] - c;
    } else {
      if (grad[i] + c < 0) {
        (*pg)[i] = grad[i] + c;  // can decrease by moving positive
      } else if (grad[i] - c > 0) {
        (*pg)[i] = grad[i] - c;  // can decrease by moving negative
      } else {
        (*pg)[i] = 0;
      }
    }
  }
}

}  // namespace

Status MinimizeOwlqn(const SmoothObjective& objective,
                     const OwlqnOptions& options, std::vector<double>* x,
                     OwlqnReport* report) {
  if (x->empty()) {
    return Status::InvalidArgument("OWL-QN: empty parameter vector");
  }
  const size_t n = x->size();
  const double c = options.l1_weight;
  const bool use_l1 = c > 0;

  std::vector<double> grad(n), pg(n), direction(n), x_new(n), grad_new(n);
  // L-BFGS history: a ring of kMemory (s, y, rho) pairs, oldest at
  // `head`, plus one spare slot. Each candidate pair is written into the
  // spare, so a pair the curvature test rejects is simply overwritten
  // next time and an accepted one evicts the oldest by moving `head`.
  // A slot's vectors are sized on its first use and reused after that.
  // `sy` and `yy` are s·y and y·y, kept so the scale of the initial
  // Hessian estimate does not recompute two full-length dot products
  // every iteration.
  struct Pair {
    std::vector<double> s, y;
    double rho = 0;
    double sy = 0, yy = 0;
  };
  std::vector<Pair> ring(kMemory + 1);
  size_t head = 0, count = 0;
  auto pair_at = [&](size_t i) -> Pair& {
    return ring[(head + i) % ring.size()];
  };
  std::vector<double> alpha(kMemory);

  double f = objective(*x, &grad);
  if (!std::isfinite(f)) {
    return Status::Internal("OWL-QN: objective not finite at start");
  }
  PAE_DCHECK_FINITE_VEC(grad) << "OWL-QN: gradient not finite at start";
  double obj = f + (use_l1 ? c * L1Norm(*x) : 0.0);

  report->iterations = 0;
  report->converged = false;
  report->objective_history.clear();
  report->grad_norm_history.clear();

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (use_l1) {
      PseudoGradient(*x, grad, c, &pg);
    } else {
      pg = grad;
    }
    const double pg_norm = InfNorm(pg);
    if (pg_norm < options.epsilon) {
      report->converged = true;
      break;
    }

    // Two-loop recursion: direction = -H * pg.
    direction = pg;
    for (size_t i = count; i-- > 0;) {
      const Pair& p = pair_at(i);
      alpha[i] = p.rho * DotD(p.s, direction);
      for (size_t k = 0; k < n; ++k) direction[k] -= alpha[i] * p.y[k];
    }
    if (count > 0) {
      const Pair& last = pair_at(count - 1);
      double scale = last.sy / last.yy;
      for (double& v : direction) v *= scale;
    }
    for (size_t i = 0; i < count; ++i) {
      const Pair& p = pair_at(i);
      double beta = p.rho * DotD(p.y, direction);
      for (size_t k = 0; k < n; ++k) {
        direction[k] += (alpha[i] - beta) * p.s[k];
      }
    }
    for (double& v : direction) v = -v;

    if (use_l1) {
      // Constrain the direction to the orthant of -pg.
      for (size_t k = 0; k < n; ++k) {
        if (direction[k] * pg[k] >= 0) direction[k] = 0;
      }
    }

    double dir_deriv = DotD(direction, pg);
    if (dir_deriv >= 0) {
      // Not a descent direction; restart from steepest descent.
      count = 0;
      for (size_t k = 0; k < n; ++k) direction[k] = -pg[k];
      dir_deriv = DotD(direction, pg);
      if (dir_deriv >= 0) break;  // pg == 0
    }

    // Backtracking (Armijo) line search with orthant projection.
    double step = (iter == 0) ? 1.0 / std::max(1.0, InfNorm(direction)) : 1.0;
    const double armijo_c = 1e-4;
    bool accepted = false;
    double obj_new = obj;
    for (int ls = 0; ls < kMaxLinesearch; ++ls) {
      for (size_t k = 0; k < n; ++k) {
        x_new[k] = (*x)[k] + step * direction[k];
        if (use_l1) {
          // Project onto the orthant of x (or of -pg for x == 0).
          double orthant = ((*x)[k] != 0)
                               ? (*x)[k]
                               : -pg[k];
          if (x_new[k] * orthant < 0) x_new[k] = 0;
        }
      }
      double f_new = objective(x_new, &grad_new);
      obj_new = f_new + (use_l1 ? c * L1Norm(x_new) : 0.0);
      if (std::isfinite(obj_new) &&
          obj_new <= obj + armijo_c * step * dir_deriv) {
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;  // Line search failed: accept current solution.

    // Update L-BFGS history with smooth-gradient differences.
    Pair& next = pair_at(count);
    next.s.resize(n);
    next.y.resize(n);
    for (size_t k = 0; k < n; ++k) {
      next.s[k] = x_new[k] - (*x)[k];
      next.y[k] = grad_new[k] - grad[k];
    }
    double sy = DotD(next.s, next.y);
    if (sy > 1e-10) {
      next.rho = 1.0 / sy;
      next.sy = sy;
      next.yy = DotD(next.y, next.y);
      if (count == kMemory) {
        head = (head + 1) % ring.size();
      } else {
        ++count;
      }
    }

    double improvement = obj - obj_new;
    PAE_DCHECK_FINITE_VEC(x_new)
        << "OWL-QN: accepted iterate contains non-finite weights";
    PAE_DCHECK_FINITE_VEC(grad_new)
        << "OWL-QN: accepted gradient contains non-finite entries";
    x->swap(x_new);
    grad.swap(grad_new);
    obj = obj_new;
    report->iterations = iter + 1;
    report->objective_history.push_back(obj);
    report->grad_norm_history.push_back(pg_norm);
    if (improvement < options.epsilon * std::max(1.0, std::fabs(obj))) {
      report->converged = true;
      break;
    }
  }
  report->final_objective = obj;
  return Status::Ok();
}

}  // namespace pae::crf
