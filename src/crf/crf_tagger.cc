#include "crf/crf_tagger.h"

#include <atomic>

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

  // Single extraction pass: every feature string is encoded once and
  // interned straight into the model, so model feature ids follow
  // first-occurrence order in the training set — a pure function of the
  // data. Every training feature is kept (CRFsuite's default).
  std::vector<CompiledSequence> compiled;
  compiled.reserve(data.size());
  FeatureEncoder encoder(options_.features);
  for (const auto& seq : data) {
    if (seq.tokens.empty()) continue;
    if (!seq.HasLabels()) {
      return Status::InvalidArgument("CRF training sequence without labels");
    }
    CompiledSequence cs;
    cs.features.resize(seq.tokens.size());
    for (auto& feats : cs.features) {
      feats.reserve(static_cast<size_t>(4 * options_.features.window + 4));
    }
    encoder.Encode(seq, [&](size_t t, std::string_view feature) {
      cs.features[t].push_back(model_.AddFeature(feature));
    });
    cs.labels.reserve(seq.labels.size());
    for (const std::string& label : seq.labels) {
      cs.labels.push_back(model_.AddLabel(label));
    }
    compiled.push_back(std::move(cs));
  }
  if (model_.num_features() == 0) {
    return Status::FailedPrecondition("CRF: training set has no features");
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
  // zeroing and merging are sparse: `touched` lists, sorted, the unigram
  // feature blocks the shard's sequences write, so each evaluation
  // merges and re-zeroes only those blocks plus the (always-hit)
  // transition tail. OrderedReduce's shards are fixed contiguous ranges
  // of `compiled`, so the lists are built once per Train. The blocks are
  // disjoint, so their order inside a shard cannot change a bit.
  struct ShardAcc {
    std::vector<double> grad;
    std::vector<int> touched;
    double nll = 0;
  };
  const size_t num_shards =
      util::NumReductionShards(compiled.size(), kGradGrain, kMaxGradShards);
  std::vector<ShardAcc> shard_accs(num_shards);
  std::vector<uint8_t> in_shard(F, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    ShardAcc& acc = shard_accs[s];
    acc.grad.assign(dim, 0.0);
    const size_t end =
        util::ReductionShardBegin(s + 1, compiled.size(), num_shards);
    for (size_t i = util::ReductionShardBegin(s, compiled.size(), num_shards);
         i < end; ++i) {
      for (const std::vector<int>& feats : compiled[i].features) {
        for (int f : feats) in_shard[static_cast<size_t>(f)] = 1;
      }
    }
    for (size_t f = 0; f < F; ++f) {
      if (in_shard[f]) acc.touched.push_back(static_cast<int>(f));
      in_shard[f] = 0;
    }
  }

  // The exponentiated transition/start/end blocks depend on the weights
  // alone: built once per evaluation on this thread, then read by every
  // sequence on every pool thread.
  ScaledPotentials potentials;
  SmoothObjective objective = [&](const std::vector<double>& w,
                                  std::vector<double>* grad) -> double {
    grad->assign(dim, 0.0);
    model_.BuildPotentials(w, &potentials);
    double nll = 0;
    util::OrderedReduce<ShardAcc*>(
        pool, compiled.size(), kGradGrain, kMaxGradShards,
        [&, next = size_t{0}]() mutable { return &shard_accs[next++]; },
        [&](ShardAcc* acc, size_t i) {
          acc->nll += model_.SequenceNll(compiled[i], w, potentials,
                                         &acc->grad);
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
          }
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

  OwlqnOptions opts;
  opts.max_iterations = options_.max_iterations;
  opts.epsilon = options_.epsilon;
  opts.l1_weight = options_.c1;
  PAE_RETURN_IF_ERROR(MinimizeOwlqn(objective, opts, &weights_, &report_));
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
