#include "support/word2vec_oracle.h"

#include <algorithm>
#include <cmath>

#include "math/kernels.h"
#include "math/matrix.h"
#include "math/vec.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace pae::oracle {

void SkipGramPairPerSample(float* vin, float* out, const int32_t* targets,
                           size_t num_targets, float lr, size_t d) {
  std::vector<float> grad_in(d, 0.0f);
  for (size_t j = 0; j < num_targets; ++j) {
    float* vout = out + static_cast<size_t>(targets[j]) * d;
    const double dot = math::kernels::Dot(vin, vout, d);
    const float pred = math::Sigmoid(static_cast<float>(dot));
    const float label = j == 0 ? 1.0f : 0.0f;
    const float g = (label - pred) * lr;
    math::kernels::Axpy(g, vout, grad_in.data(), d);
    math::kernels::Axpy(g, vin, vout, d);
  }
  math::kernels::Axpy(1.0f, grad_in.data(), vin, d);
}

std::unordered_map<std::string, std::vector<float>> PerSampleWord2Vec(
    const embed::Word2VecOptions& options,
    const std::vector<std::vector<std::string>>& sentences) {
  constexpr size_t kUnigramTableSize = 1 << 17;
  if (sentences.empty()) return {};
  Rng rng(options.seed);

  std::unordered_map<std::string, int64_t> raw_counts;
  for (const auto& sentence : sentences) {
    for (const auto& token : sentence) ++raw_counts[token];
  }
  text::Vocab vocab;
  std::vector<int64_t> counts(1, 0);
  for (const auto& [word, count] : raw_counts) {
    if (count >= options.min_count) {
      const int32_t id = vocab.GetOrAdd(word);
      if (static_cast<size_t>(id) >= counts.size()) counts.resize(id + 1, 0);
      counts[static_cast<size_t>(id)] = count;
    }
  }
  if (vocab.size() <= 1) return {};

  const size_t v = vocab.size();
  const size_t d = static_cast<size_t>(options.dim);
  math::Matrix in_vectors(v, d);
  in_vectors.UniformInit(&rng, 0.5f / static_cast<float>(d));
  math::Matrix out_vectors(v, d);
  out_vectors.SetZero();

  std::vector<int32_t> unigram_table;
  unigram_table.reserve(kUnigramTableSize);
  double total_pow = 0;
  for (size_t i = 1; i < v; ++i) {
    total_pow += std::pow(static_cast<double>(counts[i]), 0.75);
  }
  size_t word_index = 1;
  double cumulative =
      std::pow(static_cast<double>(counts[1]), 0.75) / total_pow;
  for (size_t i = 0; i < kUnigramTableSize; ++i) {
    unigram_table.push_back(static_cast<int32_t>(word_index));
    if (static_cast<double>(i) / kUnigramTableSize > cumulative &&
        word_index < v - 1) {
      ++word_index;
      cumulative +=
          std::pow(static_cast<double>(counts[word_index]), 0.75) / total_pow;
    }
  }

  int64_t total_tokens = 0;
  for (size_t i = 1; i < v; ++i) total_tokens += counts[i];
  auto keep_prob = [&](int32_t id) -> double {
    if (options.subsample <= 0) return 1.0;
    const double f = static_cast<double>(counts[static_cast<size_t>(id)]) /
                     static_cast<double>(total_tokens);
    if (f <= options.subsample) return 1.0;
    const double r = options.subsample / f;
    return std::sqrt(r) + r;
  };
  std::vector<std::vector<int32_t>> encoded;
  for (const auto& sentence : sentences) {
    std::vector<int32_t> ids;
    for (const auto& token : sentence) {
      const int32_t id = vocab.Lookup(token);
      if (id == text::Vocab::kUnkId) continue;
      if (rng.NextDouble() >= keep_prob(id)) continue;
      ids.push_back(id);
    }
    if (ids.size() >= 2) encoded.push_back(std::move(ids));
  }
  if (encoded.empty()) return {};

  const float lr0 = options.learning_rate;
  const int total_epochs = std::max(1, options.epochs);
  auto train_range = [&](size_t lo, size_t hi, float lr, Rng& pass_rng,
                         math::Matrix& in, math::Matrix& out) {
    std::vector<float> grad_in(d);
    for (size_t sent = lo; sent < hi; ++sent) {
      const auto& ids = encoded[sent];
      const int n = static_cast<int>(ids.size());
      for (int pos = 0; pos < n; ++pos) {
        const int reduced =
            1 + static_cast<int>(pass_rng.NextBounded(
                    static_cast<uint64_t>(options.window)));
        for (int off = -reduced; off <= reduced; ++off) {
          if (off == 0) continue;
          const int cpos = pos + off;
          if (cpos < 0 || cpos >= n) continue;
          float* vin = in.Row(static_cast<size_t>(ids[pos]));
          std::fill(grad_in.begin(), grad_in.end(), 0.0f);
          for (int s = 0; s < options.negative + 1; ++s) {
            size_t target;
            float label;
            if (s == 0) {
              target = static_cast<size_t>(ids[static_cast<size_t>(cpos)]);
              label = 1.0f;
            } else {
              target = static_cast<size_t>(
                  unigram_table[pass_rng.NextBounded(unigram_table.size())]);
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
            math::kernels::Axpy(g, vout, grad_in.data(), d);
            math::kernels::Axpy(g, vin, vout, d);
          }
          math::kernels::Axpy(1.0f, grad_in.data(), vin, d);
        }
      }
    }
  };

  const size_t shards = std::min<size_t>(
      static_cast<size_t>(std::max(1, options.shards)), encoded.size());
  for (int epoch = 0; epoch < total_epochs; ++epoch) {
    const float lr = lr0 * (1.0f - static_cast<float>(epoch) /
                                       static_cast<float>(total_epochs)) +
                     lr0 * 1e-2f;
    if (shards <= 1) {
      train_range(0, encoded.size(), lr, rng, in_vectors, out_vectors);
      continue;
    }
    const std::vector<float> base_in = in_vectors.data();
    const std::vector<float> base_out = out_vectors.data();
    std::vector<math::Matrix> shard_in(shards, in_vectors);
    std::vector<math::Matrix> shard_out(shards, out_vectors);
    for (size_t s = 0; s < shards; ++s) {
      const size_t lo = s * encoded.size() / shards;
      const size_t hi = (s + 1) * encoded.size() / shards;
      Rng shard_rng(options.seed ^
                    (0x9e3779b97f4a7c15ULL *
                     (static_cast<uint64_t>(epoch) * shards + s + 1)));
      train_range(lo, hi, lr, shard_rng, shard_in[s], shard_out[s]);
    }
    auto merge = [&](const std::vector<math::Matrix>& parts,
                     const std::vector<float>& base, math::Matrix* dst) {
      std::vector<float>& target = dst->data();
      for (size_t k = 0; k < target.size(); ++k) {
        double delta = 0;
        for (size_t s = 0; s < shards; ++s) {
          delta += static_cast<double>(parts[s].data()[k]) - base[k];
        }
        target[k] = static_cast<float>(base[k] + delta);
      }
    };
    merge(shard_in, base_in, &in_vectors);
    merge(shard_out, base_out, &out_vectors);
  }
  std::vector<double> mean(d, 0.0);
  for (size_t i = 1; i < v; ++i) {
    const float* row = in_vectors.Row(i);
    for (size_t k = 0; k < d; ++k) mean[k] += row[k];
  }
  for (size_t k = 0; k < d; ++k) mean[k] /= static_cast<double>(v - 1);
  std::unordered_map<std::string, std::vector<float>> vectors;
  for (const auto& [word, count] : raw_counts) {
    const int32_t id = vocab.Lookup(word);
    if (id == text::Vocab::kUnkId) continue;
    const float* row = in_vectors.Row(static_cast<size_t>(id));
    std::vector<float>& vec = vectors[word];
    for (size_t k = 0; k < d; ++k) {
      vec.push_back(row[k] - static_cast<float>(mean[k]));
    }
  }
  return vectors;
}

}  // namespace pae::oracle
