#include "core/cleaning.h"

#include <algorithm>
#include <cmath>

#include "math/kernels.h"
#include "math/matrix.h"
#include "text/char_class.h"
#include "text/utf8.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace pae::core {

namespace {

/// Veto rule (i): a 1-gram entity that is a symbol (";", "*", "★").
bool IsSymbolEntity(const TaggedCandidate& c) {
  if (c.value_tokens.size() != 1) return false;
  std::vector<char32_t> cps = text::DecodeUtf8(c.value_tokens[0]);
  for (char32_t cp : cps) {
    text::CharClass cls = text::ClassifyChar(cp);
    if (cls != text::CharClass::kSymbol && cls != text::CharClass::kOther) {
      return false;
    }
  }
  return !cps.empty();
}

/// Veto rule (ii): mark-up remnants — tag characters or decorative
/// marks inside the value.
bool IsMarkup(const TaggedCandidate& c) {
  for (const std::string& token : c.value_tokens) {
    if (token == "<" || token == ">" || token == "&" || token == "★" ||
        token == "※" || token == "*") {
      return true;
    }
    if (token.find('<') != std::string::npos ||
        token.find('>') != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// A semantic core with its embedding rows pre-normalized to unit
/// length: cosine(candidate, member i) is then one row of a single
/// MatVec against the normalized candidate, instead of a per-pair
/// CosineSimilarity that recomputes both norms every call.
struct CoreMatrix {
  std::vector<std::string> values;  // core member merged tokens
  math::Matrix normalized;          // [n x dim]; zero row when norm ~ 0
};

/// Unit-normalizes `v` into `row` (dim floats); writes zeros when the
/// norm is (near) zero, which makes every cosine against it 0 — the
/// same contract as kernels::CosineFromNorms.
void WriteUnitRow(const float* v, size_t dim, float* row) {
  const double norm = math::kernels::Norm2(v, dim);
  if (norm < 1e-12) {
    std::fill(row, row + dim, 0.0f);
    return;
  }
  std::copy(v, v + dim, row);
  math::kernels::Scale(static_cast<float>(1.0 / norm), row, dim);
}

CoreMatrix BuildCoreMatrix(const embed::Word2Vec& model,
                           std::vector<std::string> core) {
  CoreMatrix cm;
  cm.values = std::move(core);
  const size_t d = model.dim();
  cm.normalized = math::Matrix(cm.values.size(), d);
  for (size_t i = 0; i < cm.values.size(); ++i) {
    const float* v = model.Vector(cm.values[i]);
    PAE_DCHECK(v != nullptr);  // BuildCore only admits in-vocab values
    WriteUnitRow(v, d, cm.normalized.Row(i));
  }
  return cm;
}

/// Cosines of `vec` (un-normalized, `dim` floats) against every row of
/// the core, into `sims`. One Norm2 for the candidate plus one MatVec —
/// the per-pair norm recomputation is gone.
void CoreCosines(const CoreMatrix& cm, const float* vec, size_t dim,
                 std::vector<float>* sims) {
  const size_t n = cm.values.size();
  sims->assign(n, 0.0f);
  const double norm = math::kernels::Norm2(vec, dim);
  if (norm < 1e-12) return;
  std::vector<float> unit(vec, vec + dim);
  math::kernels::Scale(static_cast<float>(1.0 / norm), unit.data(), dim);
  math::kernels::MatVec(cm.normalized.data().data(), n, dim, unit.data(),
                        sims->data());
}

}  // namespace

std::vector<TaggedCandidate> ApplyVetoRules(
    std::vector<TaggedCandidate> candidates, const VetoConfig& config,
    CleaningStats* stats) {
  // Callers that do not care about telemetry may pass null.
  CleaningStats scratch;
  if (stats == nullptr) stats = &scratch;
  stats->input += candidates.size();
  std::vector<TaggedCandidate> survivors;
  survivors.reserve(candidates.size());

  // Rules (i), (ii), (iv) are per-candidate.
  for (auto& c : candidates) {
    if (IsSymbolEntity(c)) {
      ++stats->veto_symbol;
      continue;
    }
    if (IsMarkup(c)) {
      ++stats->veto_markup;
      continue;
    }
    if (text::Utf8Length(c.value_display) >
        static_cast<size_t>(config.max_value_chars)) {
      ++stats->veto_long;
      continue;
    }
    survivors.push_back(std::move(c));
  }

  // Rule (iii): per attribute, keep the top fraction of entities by the
  // number of items tagged with them.
  std::unordered_map<std::string, std::vector<size_t>> by_attr;
  for (size_t i = 0; i < survivors.size(); ++i) {
    by_attr[survivors[i].attribute].push_back(i);
  }
  std::unordered_set<size_t> drop;
  for (auto& [attribute, indices] : by_attr) {
    std::sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
      if (survivors[a].item_count != survivors[b].item_count) {
        return survivors[a].item_count > survivors[b].item_count;
      }
      return survivors[a].value_display < survivors[b].value_display;
    });
    const size_t keep = static_cast<size_t>(
        std::ceil(config.unpopular_keep_fraction *
                  static_cast<double>(indices.size())));
    for (size_t k = keep; k < indices.size(); ++k) {
      drop.insert(indices[k]);
      ++stats->veto_unpopular;
    }
  }
  std::vector<TaggedCandidate> out;
  out.reserve(survivors.size() - drop.size());
  for (size_t i = 0; i < survivors.size(); ++i) {
    if (drop.count(i) == 0) out.push_back(std::move(survivors[i]));
  }
  return out;
}

void RecordCleaningMetrics(const CleaningStats& stats) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  metrics.GetCounter("cleaning.input")
      ->Add(static_cast<int64_t>(stats.input));
  metrics.GetCounter("cleaning.veto_symbol")
      ->Add(static_cast<int64_t>(stats.veto_symbol));
  metrics.GetCounter("cleaning.veto_markup")
      ->Add(static_cast<int64_t>(stats.veto_markup));
  metrics.GetCounter("cleaning.veto_unpopular")
      ->Add(static_cast<int64_t>(stats.veto_unpopular));
  metrics.GetCounter("cleaning.veto_long")
      ->Add(static_cast<int64_t>(stats.veto_long));
  metrics.GetCounter("cleaning.semantic_removed")
      ->Add(static_cast<int64_t>(stats.semantic_removed));
}

SemanticCleaner::SemanticCleaner(Config config) : config_(config) {}

std::string SemanticCleaner::MergedToken(
    const std::vector<std::string>& tokens) {
  if (tokens.size() == 1) return tokens[0];
  return StrJoin(tokens, "_");
}

Status SemanticCleaner::Train(const ProcessedCorpus& corpus,
                              const std::vector<SeedPair>& merge_values) {
  // Merge multiword values into single tokens via the distant
  // supervisor, then feed all sentences to word2vec.
  DistantSupervisor merger(merge_values);
  std::vector<std::vector<std::string>> sentences;
  sentences.reserve(corpus.pages.size() * 6);
  for (const ProcessedPage& page : corpus.pages) {
    for (const text::LabeledSequence& sentence : page.sentences) {
      text::LabeledSequence work = sentence;
      merger.Label(&work);
      std::vector<text::ValueSpan> spans = text::DecodeBioSpans(work.labels);
      std::vector<std::string> merged;
      merged.reserve(work.tokens.size());
      size_t t = 0;
      size_t span_idx = 0;
      while (t < work.tokens.size()) {
        if (span_idx < spans.size() && spans[span_idx].begin == t) {
          std::vector<std::string> value_tokens(
              work.tokens.begin() + static_cast<long>(spans[span_idx].begin),
              work.tokens.begin() + static_cast<long>(spans[span_idx].end));
          merged.push_back(MergedToken(value_tokens));
          t = spans[span_idx].end;
          ++span_idx;
        } else {
          merged.push_back(work.tokens[t]);
          ++t;
        }
      }
      sentences.push_back(std::move(merged));
    }
  }
  model_ = embed::Word2Vec(config_.word2vec);
  PAE_RETURN_IF_ERROR(model_.Train(sentences));
  trained_ = true;
  return Status::Ok();
}

std::vector<std::string> SemanticCleaner::BuildCore(
    const std::vector<std::vector<std::string>>& known) const {
  std::vector<std::string> in_vocab;
  for (const auto& tokens : known) {
    std::string merged = MergedToken(tokens);
    if (model_.Contains(merged)) in_vocab.push_back(merged);
  }
  if (config_.core_size <= 0 ||
      static_cast<int>(in_vocab.size()) <= config_.core_size) {
    return in_vocab;
  }
  // Iteratively discard the value with the lowest total cosine
  // similarity to the rest until core_size remain (§V-C step ii/iii).
  // The pairwise similarity matrix is computed once (O(n² d) through
  // the MatVec kernel) and the per-value totals are maintained by
  // subtraction as members drop out — the historical code recomputed
  // every pair with fresh norms on every elimination round.
  const size_t n = in_vocab.size();
  const size_t d = model_.dim();
  const CoreMatrix cm = BuildCoreMatrix(model_, in_vocab);
  math::Matrix sims(n, n);
  for (size_t i = 0; i < n; ++i) {
    math::kernels::MatVec(cm.normalized.data().data(), n, d,
                          cm.normalized.Row(i), sims.Row(i));
  }
  std::vector<double> total(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const float* row = sims.Row(i);
    for (size_t j = 0; j < n; ++j) {
      if (j != i) total[i] += row[j];
    }
  }
  std::vector<bool> alive(n, true);
  size_t remaining = n;
  while (remaining > static_cast<size_t>(config_.core_size)) {
    double worst_score = 1e300;
    size_t worst = 0;
    for (size_t i = 0; i < n; ++i) {
      if (alive[i] && total[i] < worst_score) {
        worst_score = total[i];
        worst = i;
      }
    }
    alive[worst] = false;
    --remaining;
    for (size_t j = 0; j < n; ++j) {
      if (alive[j]) total[j] -= sims.at(j, worst);
    }
  }
  std::vector<std::string> core;
  core.reserve(remaining);
  for (size_t i = 0; i < n; ++i) {
    if (alive[i]) core.push_back(in_vocab[i]);
  }
  return core;
}

std::vector<TaggedCandidate> SemanticCleaner::Filter(
    const std::vector<TaggedCandidate>& candidates,
    const std::unordered_map<std::string,
                             std::vector<std::vector<std::string>>>&
        known_values,
    CleaningStats* stats) const {
  PAE_CHECK(trained_);
  CleaningStats scratch;
  if (stats == nullptr) stats = &scratch;
  // One core per attribute, with its embedding rows normalized once for
  // the whole pass — every candidate and cohesion score below reuses
  // the cached unit rows instead of recomputing norms per pair.
  std::unordered_map<std::string, CoreMatrix> cores;
  for (const auto& [attribute, known] : known_values) {
    cores.emplace(attribute, BuildCoreMatrix(model_, BuildCore(known)));
  }

  // Multiplicative combination of the cosine similarities of all core
  // elements with the value (footnote 4): geometric mean of the
  // similarities mapped to (0, 1).
  std::vector<float> sims;
  auto score_against = [&](const std::string& merged, const float* vec,
                           const CoreMatrix& core) -> double {
    CoreCosines(core, vec, model_.dim(), &sims);
    double log_sum = 0;
    int n = 0;
    for (size_t i = 0; i < core.values.size(); ++i) {
      if (core.values[i] == merged) continue;
      const double mapped =
          std::max(1e-6, (static_cast<double>(sims[i]) + 1.0) / 2.0);
      log_sum += std::log(mapped);
      ++n;
    }
    return (n > 0) ? std::exp(log_sum / n) : 1.0;
  };

  // Per-attribute cohesion: how similar core members are to each other.
  // The acceptance bar self-calibrates to it.
  std::unordered_map<std::string, double> cohesion;
  for (const auto& [attribute, core] : cores) {
    if (static_cast<int>(core.values.size()) < config_.min_core_values) {
      continue;
    }
    double total = 0;
    for (const std::string& member : core.values) {
      total += score_against(member, model_.Vector(member), core);
    }
    cohesion[attribute] = total / static_cast<double>(core.values.size());
  }

  std::vector<TaggedCandidate> out;
  out.reserve(candidates.size());
  for (const TaggedCandidate& c : candidates) {
    auto core_it = cores.find(c.attribute);
    if (core_it == cores.end() ||
        static_cast<int>(core_it->second.values.size()) <
            config_.min_core_values) {
      out.push_back(c);  // no reliable core: keep
      continue;
    }
    const std::string merged = MergedToken(c.value_tokens);
    const float* vec = model_.Vector(merged);
    if (vec == nullptr) {
      out.push_back(c);  // too rare for the embedding space: keep
      continue;
    }
    const double score = score_against(merged, vec, core_it->second);
    const double bar = std::max(
        config_.threshold, config_.relative_alpha * cohesion[c.attribute]);
    if (score < bar) {
      ++stats->semantic_removed;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace pae::core
