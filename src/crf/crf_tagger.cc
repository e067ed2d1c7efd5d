#include "crf/crf_tagger.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/interner.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pae::crf {

namespace {
/// Gradient-reduction decomposition: shards of ~kGradGrain sequences,
/// at most kMaxGradShards accumulator buffers. Both are constants of the
/// build — never of the thread count — so the summation tree and the
/// trained weights are identical however many threads run it.
constexpr size_t kGradGrain = 4;
constexpr size_t kMaxGradShards = 32;

/// Per-thread feature encoder: prediction-time compilation runs
/// concurrently on shared taggers (bootstrap/apply fan sentences out on
/// a pool), so the scratch buffers must be thread-private. Reset is a
/// no-op when the config matches, so interleaved taggers only pay for a
/// prefix rebuild when their window sizes actually differ.
FeatureEncoder& ThreadEncoder(const FeatureConfig& config) {
  static thread_local FeatureEncoder encoder;
  encoder.Reset(config);
  return encoder;
}

uint64_t NextGeneration() {
  static std::atomic<uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Copies `from_w` (laid out for `from`) into `to_w` (laid out for `to`)
/// by name, following the CrfModel weight layout: unigram weights by
/// (feature string, label name), transition/start/end by label names.
/// Entries `from` has no name for keep their value in `to_w`.
void MapWeightsByName(const CrfModel& from, std::span<const double> from_w,
                      const CrfModel& to, std::vector<double>* to_w) {
  const size_t from_labels = from.num_labels();
  const size_t L = to.num_labels();
  std::vector<int> label_map(L);
  for (size_t y = 0; y < L; ++y) {
    label_map[y] = from.LookupLabel(to.LabelName(static_cast<int>(y)));
  }
  for (size_t f = 0; f < to.num_features(); ++f) {
    const int from_f = from.LookupFeature(to.FeatureName(static_cast<int>(f)));
    if (from_f < 0) continue;
    const size_t from_base = static_cast<size_t>(from_f) * from_labels;
    for (size_t y = 0; y < L; ++y) {
      if (label_map[y] < 0) continue;
      (*to_w)[f * L + y] =
          from_w[from_base + static_cast<size_t>(label_map[y])];
    }
  }
  const size_t from_trans = from.num_features() * from_labels;
  const size_t to_trans = to.num_features() * L;
  for (size_t prev = 0; prev < L; ++prev) {
    if (label_map[prev] < 0) continue;
    const size_t from_prev = static_cast<size_t>(label_map[prev]);
    for (size_t y = 0; y < L; ++y) {
      if (label_map[y] < 0) continue;
      (*to_w)[to_trans + prev * L + y] =
          from_w[from_trans + from_prev * from_labels +
                 static_cast<size_t>(label_map[y])];
    }
  }
  // The start block, then the end block, each one weight per label.
  for (size_t block = 0; block < 2; ++block) {
    const size_t from_block =
        from_trans + from_labels * from_labels + block * from_labels;
    const size_t to_block = to_trans + L * L + block * L;
    for (size_t y = 0; y < L; ++y) {
      if (label_map[y] < 0) continue;
      (*to_w)[to_block + y] =
          from_w[from_block + static_cast<size_t>(label_map[y])];
    }
  }
}
}  // namespace

CrfTagger::CrfTagger(CrfOptions options) : options_(options) {}

CompiledSequence CrfTagger::Compile(const text::LabeledSequence& seq,
                                    bool with_labels) const {
  CompiledSequence out;
  out.features.resize(seq.tokens.size());
  // The template emits exactly 4*window + 4 features per position.
  const size_t feats_per_token =
      static_cast<size_t>(4 * options_.features.window + 4);
  for (auto& feats : out.features) feats.reserve(feats_per_token);
  FeatureEncoder& encoder = ThreadEncoder(options_.features);
  encoder.Encode(seq, [&](size_t t, std::string_view feature) {
    const int id = model_.LookupFeature(feature);
    if (id >= 0) out.features[t].push_back(id);
  });
  if (with_labels) {
    out.labels.reserve(seq.labels.size());
    for (const std::string& label : seq.labels) {
      int id = model_.LookupLabel(label);
      // Unknown labels at training time were added already; map strays
      // to "O" defensively.
      out.labels.push_back(id >= 0 ? id : 0);
    }
  }
  return out;
}

Status CrfTagger::Train(const std::vector<text::LabeledSequence>& data) {
  return TrainFrom(data, nullptr);
}

Status CrfTagger::Train(const std::vector<text::LabeledSequence>& data,
                        const CrfTagger& start) {
  PAE_CHECK(&start != this) << "CrfTagger::Train from itself";
  return TrainFrom(data, &start);
}

Status CrfTagger::TrainFrom(const std::vector<text::LabeledSequence>& data,
                            const CrfTagger* start) {
  if (data.empty()) {
    return Status::InvalidArgument("CRF training set is empty");
  }
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  util::ScopedTimer train_timer(metrics.GetHistogram("crf.train.seconds"));
  metrics.GetCounter("crf.trainings")->Increment();
  metrics.GetCounter("crf.train.sequences")
      ->Add(static_cast<int64_t>(data.size()));
  model_ = CrfModel();
  model_.AddLabel(text::kOutsideLabel);  // id 0

  // Single extraction pass: every feature string is encoded once,
  // interned into a training-set universe, and the per-position
  // universe ids kept — the count pass and the compile pass read the
  // same buffer instead of re-extracting (the old pipeline ran the
  // string template twice per sequence).
  util::FlatStringInterner universe;
  std::vector<int64_t> counts;
  std::vector<CompiledSequence> compiled;  // universe ids until remapped
  compiled.reserve(data.size());
  FeatureEncoder encoder(options_.features);
  for (const auto& seq : data) {
    if (seq.tokens.empty()) continue;
    if (!seq.HasLabels()) {
      return Status::InvalidArgument("CRF training sequence without labels");
    }
    for (const std::string& label : seq.labels) model_.AddLabel(label);
    CompiledSequence cs;
    cs.features.resize(seq.tokens.size());
    for (auto& feats : cs.features) {
      feats.reserve(static_cast<size_t>(4 * options_.features.window + 4));
    }
    encoder.Encode(seq, [&](size_t t, std::string_view feature) {
      const int id = universe.Intern(feature);
      if (static_cast<size_t>(id) == counts.size()) counts.push_back(0);
      ++counts[static_cast<size_t>(id)];
      cs.features[t].push_back(id);
    });
    cs.labels.reserve(seq.labels.size());
    for (const std::string& label : seq.labels) {
      cs.labels.push_back(model_.AddLabel(label));
    }
    compiled.push_back(std::move(cs));
  }

  // Frequency cut, then remap universe ids to final model ids. Model
  // feature ids follow first-occurrence order in the training set — a
  // pure function of the data, unlike the unordered_map iteration order
  // the string pipeline used.
  std::vector<int32_t> remap(universe.size(), -1);
  size_t survivors = 0;
  for (size_t id = 0; id < universe.size(); ++id) {
    if (counts[id] >= options_.min_feature_count) ++survivors;
  }
  model_.ReserveFeatures(survivors);
  for (size_t id = 0; id < universe.size(); ++id) {
    if (counts[id] >= options_.min_feature_count) {
      remap[id] =
          model_.AddFeature(universe.key(static_cast<int>(id)));
    }
  }
  if (model_.num_features() == 0) {
    return Status::FailedPrecondition("CRF: no features survived the cut");
  }
  for (CompiledSequence& cs : compiled) {
    for (std::vector<int>& feats : cs.features) {
      size_t kept = 0;
      for (int id : feats) {
        const int32_t mapped = remap[static_cast<size_t>(id)];
        if (mapped >= 0) feats[kept++] = mapped;
      }
      feats.resize(kept);
    }
  }

  // Per-sequence sorted unique feature lists: the sparse gradient merge
  // below only walks the weight blocks a shard actually touched.
  std::vector<std::vector<int>> unique_feats(compiled.size());
  for (size_t i = 0; i < compiled.size(); ++i) {
    std::vector<int>& u = unique_feats[i];
    for (const std::vector<int>& feats : compiled[i].features) {
      u.insert(u.end(), feats.begin(), feats.end());
    }
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
  }

  const size_t L = model_.num_labels();
  const size_t F = model_.num_features();
  const size_t dim = model_.WeightDim();
  const size_t trans_base = F * L;  // transition/start/end tail block
  weights_.assign(dim, 0.0);
  if (start != nullptr) {
    MapWeightsByName(start->model_, start->weights_span_, model_, &weights_);
  }

  util::ThreadPool pool(util::ThreadPool::ResolveThreads(options_.threads));
  // Per-shard accumulators, allocated once and reused by every objective
  // evaluation. `grad` is dense for O(1) scatter inside SequenceNll, but
  // zeroing and merging are sparse: `touched` lists the unigram feature
  // blocks this shard wrote, so each evaluation merges and re-zeroes
  // only those blocks plus the (always-hit) transition tail — the old
  // dense merge cost O(WeightDim × shards) per evaluation regardless of
  // how sparse the shard's sequences were.
  struct ShardAcc {
    std::vector<double> grad;
    std::vector<int> touched;
    std::vector<uint8_t> mark;  // feature id → touched this evaluation
    double nll = 0;
  };
  std::vector<ShardAcc> shard_accs(
      util::NumReductionShards(compiled.size(), kGradGrain, kMaxGradShards));
  for (ShardAcc& acc : shard_accs) {
    acc.grad.assign(dim, 0.0);
    acc.mark.assign(F, 0);
  }

  SmoothObjective objective = [&](const std::vector<double>& w,
                                  std::vector<double>* grad) -> double {
    grad->assign(dim, 0.0);
    double nll = 0;
    util::OrderedReduce<ShardAcc*>(
        pool, compiled.size(), kGradGrain, kMaxGradShards,
        [&, next = size_t{0}]() mutable { return &shard_accs[next++]; },
        [&](ShardAcc* acc, size_t i) {
          acc->nll += model_.SequenceNll(compiled[i], w, &acc->grad);
          for (int f : unique_feats[i]) {
            if (!acc->mark[static_cast<size_t>(f)]) {
              acc->mark[static_cast<size_t>(f)] = 1;
              acc->touched.push_back(f);
            }
          }
        },
        [&](ShardAcc* acc, size_t /*shard*/) {
          nll += acc->nll;
          acc->nll = 0;
          for (int f : acc->touched) {
            const size_t base = static_cast<size_t>(f) * L;
            for (size_t y = 0; y < L; ++y) {
              (*grad)[base + y] += acc->grad[base + y];
              acc->grad[base + y] = 0.0;
            }
            acc->mark[static_cast<size_t>(f)] = 0;
          }
          acc->touched.clear();
          for (size_t i = trans_base; i < dim; ++i) {
            (*grad)[i] += acc->grad[i];
            acc->grad[i] = 0.0;
          }
        });
    // L2 regularization (c2), CRFsuite convention: c2 * ||w||^2 with
    // gradient 2 * c2 * w.
    if (options_.c2 > 0) {
      double reg = 0;
      for (size_t i = 0; i < dim; ++i) {
        reg += w[i] * w[i];
        (*grad)[i] += 2.0 * options_.c2 * w[i];
      }
      nll += options_.c2 * reg;
    }
    return nll;
  };

  if (options_.trainer == CrfTrainer::kOwlqn) {
    OwlqnOptions opts;
    opts.max_iterations = options_.max_iterations;
    opts.epsilon = options_.epsilon;
    opts.l1_weight = options_.c1;
    PAE_RETURN_IF_ERROR(MinimizeOwlqn(objective, opts, &weights_, &report_));
  } else {
    // Full-batch AdaGrad: per-coordinate step sizes shrink with the
    // accumulated squared gradient, so frequent features settle while
    // rare ones keep learning.
    std::vector<double> grad(dim, 0.0);
    std::vector<double> accum(dim, 1e-8);
    double previous = objective(weights_, &grad);
    report_ = OwlqnReport{};
    for (int epoch = 0; epoch < options_.max_iterations; ++epoch) {
      for (size_t i = 0; i < dim; ++i) {
        accum[i] += grad[i] * grad[i];
        weights_[i] -= options_.adagrad_learning_rate * grad[i] /
                       std::sqrt(accum[i]);
      }
      const double current = objective(weights_, &grad);
      report_.iterations = epoch + 1;
      report_.final_objective = current;
      report_.objective_history.push_back(current);
      double grad_inf = 0;
      for (double g : grad) grad_inf = std::max(grad_inf, std::fabs(g));
      report_.grad_norm_history.push_back(grad_inf);
      if (std::fabs(previous - current) <
          options_.epsilon * std::max(1.0, std::fabs(current))) {
        report_.converged = true;
        break;
      }
      previous = current;
    }
  }
  // The weights feed every later bootstrap cycle through Viterbi and
  // Marginals; a NaN here would silently zero all confidences.
  PAE_DCHECK_FINITE_VEC(weights_)
      << "CRF training produced non-finite weights";
  trained_ = true;
  packed_ = false;
  packed_owner_.reset();
  weights_span_ = weights_;
  generation_ = NextGeneration();
  metrics.GetSeries("crf.features")
      ->Append(static_cast<double>(model_.num_features()));
  metrics.GetSeries("crf.iterations")
      ->Append(static_cast<double>(report_.iterations));
  metrics.GetSeries("crf.final_objective")->Append(report_.final_objective);
  metrics.GetSeries("crf.objective")->Extend(report_.objective_history);
  metrics.GetSeries("crf.grad_norm")->Extend(report_.grad_norm_history);
  return Status::Ok();
}

std::vector<std::string> CrfTagger::Predict(
    const text::LabeledSequence& seq) const {
  if (!trained_ || seq.tokens.empty()) {
    return std::vector<std::string>(seq.tokens.size(),
                                    text::kOutsideLabel);
  }
  CompiledSequence compiled = Compile(seq, /*with_labels=*/false);
  std::vector<int> path = model_.Viterbi(compiled, weights_span_);
  std::vector<std::string> labels;
  labels.reserve(path.size());
  for (int y : path) labels.push_back(model_.LabelName(y));
  return labels;
}

text::SequenceTagger::ScoredPrediction CrfTagger::ScoreCompiled(
    const CompiledSequence& compiled) const {
  ScoredPrediction out;
  std::vector<int> path = model_.Viterbi(compiled, weights_span_);
  std::vector<double> marginals;
  model_.Marginals(compiled, weights_span_, &marginals);
  const size_t num_labels = model_.num_labels();
  out.labels.reserve(path.size());
  out.confidence.reserve(path.size());
  for (size_t t = 0; t < path.size(); ++t) {
    out.labels.push_back(model_.LabelName(path[t]));
    out.confidence.push_back(
        marginals[t * num_labels + static_cast<size_t>(path[t])]);
  }
  return out;
}

text::SequenceTagger::ScoredPrediction CrfTagger::PredictScored(
    const text::LabeledSequence& seq) const {
  if (!trained_ || seq.tokens.empty()) {
    ScoredPrediction out;
    out.labels.assign(seq.tokens.size(), text::kOutsideLabel);
    out.confidence.assign(seq.tokens.size(), 1.0);
    return out;
  }
  return ScoreCompiled(Compile(seq, /*with_labels=*/false));
}

text::SequenceTagger::ScoredPrediction CrfTagger::PredictScored(
    const CompiledSequence& compiled) const {
  if (!trained_ || compiled.length() == 0) {
    ScoredPrediction out;
    out.labels.assign(compiled.length(), text::kOutsideLabel);
    out.confidence.assign(compiled.length(), 1.0);
    return out;
  }
  return ScoreCompiled(compiled);
}

size_t CrfTagger::Compact() {
  // A packed tagger's dictionaries live in a read-only mapping; the
  // artifact was compacted (or not) when it was packed.
  if (!trained_ || packed_) return 0;
  const size_t L = model_.num_labels();
  const size_t F = model_.num_features();

  std::vector<bool> keep(F, false);
  size_t kept = 0;
  for (size_t f = 0; f < F; ++f) {
    for (size_t y = 0; y < L; ++y) {
      if (weights_[f * L + y] != 0.0) {
        keep[f] = true;
        ++kept;
        break;
      }
    }
  }
  if (kept == F) return 0;

  CrfModel compacted;
  compacted.ReserveLabels(L);
  compacted.ReserveFeatures(kept);
  for (const std::string& label : model_.labels()) {
    compacted.AddLabel(label);
  }
  std::vector<double> new_weights;
  new_weights.reserve(kept * L + L * L + 2 * L);
  for (size_t f = 0; f < F; ++f) {
    if (!keep[f]) continue;
    compacted.AddFeature(model_.FeatureName(static_cast<int>(f)));
    for (size_t y = 0; y < L; ++y) {
      new_weights.push_back(weights_[f * L + y]);
    }
  }
  // Transition + start + end blocks carry over verbatim.
  for (size_t i = F * L; i < weights_.size(); ++i) {
    new_weights.push_back(weights_[i]);
  }
  const size_t removed = F - kept;
  model_ = std::move(compacted);
  weights_ = std::move(new_weights);
  weights_span_ = weights_;
  PAE_CHECK_EQ(weights_.size(), model_.WeightDim());
  generation_ = NextGeneration();
  return removed;
}

Status CrfTagger::LoadPacked(PackedCrfModel packed) {
  if (!packed.features.bound() || packed.weights.empty()) {
    return Status::InvalidArgument("CRF: packed model has no features/weights");
  }
  options_.features.window = packed.window;
  options_.features.max_sentence_bucket = packed.max_sentence_bucket;
  options_.c1 = packed.c1;
  options_.c2 = packed.c2;
  model_ = CrfModel();
  size_t copied = 0;
  for (const std::string& label : packed.labels) {
    model_.AddLabel(label);
    copied += label.size();
  }
  model_.BindPackedFeatures(packed.features);
  if (packed.weights.size() != model_.WeightDim()) {
    return Status::InvalidArgument("CRF: packed weight dimension mismatch");
  }
  weights_.clear();
  weights_.shrink_to_fit();
  weights_span_ = packed.weights;
  packed_owner_ = std::move(packed.owner);
  packed_ = true;
  trained_ = true;
  generation_ = NextGeneration();
  util::MetricsRegistry::Global()
      .GetCounter("model.load.bytes_copied")
      ->Add(static_cast<int64_t>(copied));
  return Status::Ok();
}

}  // namespace pae::crf
