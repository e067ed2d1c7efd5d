#include "embed/word2vec.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "math/kernels.h"
#include "math/vec.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pae::embed {

namespace {
constexpr size_t kUnigramTableSize = 1 << 17;
}

Word2Vec::Word2Vec(Word2VecOptions options) : options_(options) {}

Status Word2Vec::Train(
    const std::vector<std::vector<std::string>>& sentences) {
  if (sentences.empty()) {
    return Status::InvalidArgument("word2vec corpus is empty");
  }
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  util::ScopedTimer train_timer(metrics.GetHistogram("embed.train.seconds"));
  metrics.GetCounter("embed.trainings")->Increment();
  metrics.GetCounter("embed.train.sentences")
      ->Add(static_cast<int64_t>(sentences.size()));
  Rng rng(options_.seed);

  // Vocabulary with frequency threshold.
  std::unordered_map<std::string, int64_t> raw_counts;
  for (const auto& sentence : sentences) {
    for (const auto& token : sentence) ++raw_counts[token];
  }
  vocab_ = text::Vocab();
  counts_.assign(1, 0);  // <unk>
  size_t eligible = 0;
  for (const auto& [word, count] : raw_counts) {
    if (count >= options_.min_count) ++eligible;
  }
  vocab_.Reserve(eligible + 1);  // + the <unk> sentinel
  for (const auto& [word, count] : raw_counts) {
    if (count >= options_.min_count) {
      int32_t id = vocab_.GetOrAdd(word);
      if (static_cast<size_t>(id) >= counts_.size()) counts_.resize(id + 1, 0);
      counts_[static_cast<size_t>(id)] = count;
    }
  }
  if (vocab_.size() <= 1) {
    return Status::FailedPrecondition(
        "word2vec: no words above min_count");
  }
  metrics.GetSeries("embed.vocab")
      ->Append(static_cast<double>(vocab_.size()));

  const size_t v = vocab_.size();
  const size_t d = dim();
  in_vectors_ = math::Matrix(v, d);
  in_vectors_.UniformInit(&rng, 0.5f / static_cast<float>(d));
  out_vectors_ = math::Matrix(v, d);
  out_vectors_.SetZero();

  // Unigram table with the standard 0.75 power smoothing.
  unigram_table_.clear();
  unigram_table_.reserve(kUnigramTableSize);
  double total_pow = 0;
  for (size_t i = 1; i < v; ++i) {
    total_pow += std::pow(static_cast<double>(counts_[i]), 0.75);
  }
  size_t word_index = 1;
  double cumulative =
      std::pow(static_cast<double>(counts_[1]), 0.75) / total_pow;
  for (size_t i = 0; i < kUnigramTableSize; ++i) {
    unigram_table_.push_back(static_cast<int32_t>(word_index));
    if (static_cast<double>(i) / kUnigramTableSize > cumulative &&
        word_index < v - 1) {
      ++word_index;
      cumulative +=
          std::pow(static_cast<double>(counts_[word_index]), 0.75) / total_pow;
    }
  }

  // Encode corpus once, applying frequent-word subsampling.
  int64_t total_tokens = 0;
  for (size_t i = 1; i < v; ++i) total_tokens += counts_[i];
  auto keep_prob = [&](int32_t id) -> double {
    if (options_.subsample <= 0) return 1.0;
    const double f = static_cast<double>(counts_[static_cast<size_t>(id)]) /
                     static_cast<double>(total_tokens);
    if (f <= options_.subsample) return 1.0;
    const double r = options_.subsample / f;
    return std::sqrt(r) + r;
  };
  std::vector<std::vector<int32_t>> encoded;
  encoded.reserve(sentences.size());
  for (const auto& sentence : sentences) {
    std::vector<int32_t> ids;
    for (const auto& token : sentence) {
      int32_t id = vocab_.Lookup(token);
      if (id == text::Vocab::kUnkId) continue;
      if (rng.NextDouble() >= keep_prob(id)) continue;
      ids.push_back(id);
    }
    if (ids.size() >= 2) encoded.push_back(std::move(ids));
  }
  if (encoded.empty()) {
    return Status::FailedPrecondition("word2vec: corpus reduced to nothing");
  }

  const float lr0 = options_.learning_rate;
  const int total_epochs = std::max(1, options_.epochs);

  // Skip-gram negative-sampling pass over encoded[lo, hi), updating
  // `in`/`out` in place and drawing every sample from `pass_rng`.
  auto train_range = [&](size_t lo, size_t hi, float lr, Rng& pass_rng,
                         math::Matrix& in, math::Matrix& out) {
    std::vector<float> grad_in(d);
    for (size_t sent = lo; sent < hi; ++sent) {
      const auto& ids = encoded[sent];
      const int n = static_cast<int>(ids.size());
      for (int pos = 0; pos < n; ++pos) {
        const int reduced =
            1 + static_cast<int>(pass_rng.NextBounded(
                    static_cast<uint64_t>(options_.window)));
        for (int off = -reduced; off <= reduced; ++off) {
          if (off == 0) continue;
          const int cpos = pos + off;
          if (cpos < 0 || cpos >= n) continue;
          const size_t center = static_cast<size_t>(ids[pos]);
          float* vin = in.Row(center);
          std::fill(grad_in.begin(), grad_in.end(), 0.0f);

          for (int s = 0; s < options_.negative + 1; ++s) {
            size_t target;
            float label;
            if (s == 0) {
              target = static_cast<size_t>(ids[static_cast<size_t>(cpos)]);
              label = 1.0f;
            } else {
              target = static_cast<size_t>(
                  unigram_table_[pass_rng.NextBounded(
                      unigram_table_.size())]);
              if (target ==
                  static_cast<size_t>(ids[static_cast<size_t>(cpos)])) {
                continue;
              }
              label = 0.0f;
            }
            float* vout = out.Row(target);
            const double dot = math::kernels::Dot(vin, vout, d);
            const float pred = math::Sigmoid(static_cast<float>(dot));
            const float g = (label - pred) * lr;
            // grad_in += g*vout must read vout before the vout update
            // writes it; two Axpy calls preserve that order (and stay
            // correct when target == center aliases vout onto vin's
            // matrix — they are distinct rows by construction here).
            math::kernels::Axpy(g, vout, grad_in.data(), d);
            math::kernels::Axpy(g, vin, vout, d);
          }
          math::kernels::Axpy(1.0f, grad_in.data(), vin, d);
        }
      }
    }
  };

  const size_t shards = std::min<size_t>(
      static_cast<size_t>(std::max(1, options_.shards)), encoded.size());
  util::ThreadPool pool(util::ThreadPool::ResolveThreads(options_.threads));

  for (int epoch = 0; epoch < total_epochs; ++epoch) {
    const float lr = lr0 * (1.0f - static_cast<float>(epoch) /
                                       static_cast<float>(total_epochs)) +
                     lr0 * 1e-2f;
    if (shards <= 1) {
      // Classic sequential SGD epoch, bit-identical to the historical
      // single-threaded trainer (continues the construction-time RNG).
      train_range(0, encoded.size(), lr, rng, in_vectors_, out_vectors_);
      continue;
    }
    // Sharded epoch: fixed contiguous shards, each trained on a private
    // copy of the matrices with its own seed-derived RNG stream, merged
    // in shard order. The decomposition and the merge depend only on
    // (corpus, seed, shards), never on the thread count.
    const std::vector<float> base_in = in_vectors_.data();
    const std::vector<float> base_out = out_vectors_.data();
    std::vector<math::Matrix> shard_in(shards, in_vectors_);
    std::vector<math::Matrix> shard_out(shards, out_vectors_);
    pool.ParallelFor(0, shards, 1, [&](size_t s) {
      const size_t lo = s * encoded.size() / shards;
      const size_t hi = (s + 1) * encoded.size() / shards;
      Rng shard_rng(options_.seed ^
                    (0x9e3779b97f4a7c15ULL *
                     (static_cast<uint64_t>(epoch) * shards + s + 1)));
      train_range(lo, hi, lr, shard_rng, shard_in[s], shard_out[s]);
    });
    // Element-wise delta merge; every element is independent, so this
    // also parallelizes without affecting the result.
    auto merge = [&](const std::vector<math::Matrix>& parts,
                     const std::vector<float>& base, math::Matrix* dst) {
      std::vector<float>& target = dst->data();
      pool.ParallelFor(0, target.size(), 4096, [&](size_t k) {
        double delta = 0;
        for (size_t s = 0; s < shards; ++s) {
          delta += static_cast<double>(parts[s].data()[k]) - base[k];
        }
        target[k] = static_cast<float>(base[k] + delta);
      });
    };
    merge(shard_in, base_in, &in_vectors_);
    merge(shard_out, base_out, &out_vectors_);
    // Shard merges sum float deltas in double; an exploding learning
    // rate shows up here first, one epoch before it would reach the
    // semantic-cleaning cosines.
    PAE_DCHECK_FINITE_VEC(in_vectors_.data())
        << "word2vec: non-finite input embedding after epoch " << epoch;
    PAE_DCHECK_FINITE_VEC(out_vectors_.data())
        << "word2vec: non-finite output embedding after epoch " << epoch;
  }
  // Centre the space: small skip-gram corpora develop a dominant common
  // direction that drives all cosines toward 1 (anisotropy); removing
  // the mean vector restores contrast (cf. "all-but-the-top").
  std::vector<double> mean(d, 0.0);
  for (size_t i = 1; i < v; ++i) {
    const float* row = in_vectors_.Row(i);
    for (size_t k = 0; k < d; ++k) mean[k] += row[k];
  }
  for (size_t k = 0; k < d; ++k) mean[k] /= static_cast<double>(v - 1);
  for (size_t i = 1; i < v; ++i) {
    float* row = in_vectors_.Row(i);
    for (size_t k = 0; k < d; ++k) {
      row[k] -= static_cast<float>(mean[k]);
    }
  }

  // Train runs once per bootstrap cycle: guarantee the cycle hands the
  // cleaning stage a finite embedding space.
  PAE_DCHECK_FINITE_VEC(in_vectors_.data())
      << "word2vec: non-finite embedding at end of training";
  trained_ = true;
  return Status::Ok();
}

const float* Word2Vec::Vector(const std::string& word) const {
  if (!trained_) return nullptr;
  int32_t id = vocab_.Lookup(word);
  if (id == text::Vocab::kUnkId) return nullptr;
  return in_vectors_.Row(static_cast<size_t>(id));
}

bool Word2Vec::Contains(const std::string& word) const {
  return trained_ && vocab_.Lookup(word) != text::Vocab::kUnkId;
}

double Word2Vec::Similarity(const std::string& a, const std::string& b) const {
  const float* va = Vector(a);
  const float* vb = Vector(b);
  if (va == nullptr || vb == nullptr) return 0.0;
  return Cosine(va, vb, dim());
}

double Word2Vec::Cosine(const float* a, const float* b, size_t dim) {
  // Deduplicated against math::CosineSimilarity: both now share the
  // kernel-layer dot/norm reductions and the CosineFromNorms contract.
  return math::kernels::Cosine(a, b, dim);
}

}  // namespace pae::embed
