#include "core/partition.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/preprocess.h"
#include "core/tagging.h"
#include "crf/crf_tagger.h"
#include "lstm/bilstm_tagger.h"
#include "util/rng.h"

namespace pae::core {

namespace {

struct SpanCounts {
  int gold = 0;
  int predicted = 0;
  int matched = 0;

  double recall() const {
    return gold > 0 ? static_cast<double>(matched) / gold : 0.0;
  }
  double precision() const {
    return predicted > 0 ? static_cast<double>(matched) / predicted : 1.0;
  }
};

std::string SpanKey(size_t sentence, const text::ValueSpan& span) {
  return std::to_string(sentence) + ":" + std::to_string(span.begin) + "-" +
         std::to_string(span.end);
}

std::unique_ptr<text::SequenceTagger> MakeTagger(
    const PipelineConfig& config) {
  if (config.model == ModelType::kBiLstm) {
    return std::make_unique<lstm::BiLstmTagger>(config.lstm);
  }
  return std::make_unique<crf::CrfTagger>(config.crf);
}

/// Scores `tagger` against held-out gold labels, per attribute.
void ScoreOnHoldout(const text::SequenceTagger& tagger,
                    const std::vector<text::LabeledSequence>& holdout,
                    const std::unordered_set<std::string>& attributes,
                    std::unordered_map<std::string, SpanCounts>* counts) {
  for (size_t s = 0; s < holdout.size(); ++s) {
    const text::LabeledSequence& sentence = holdout[s];
    std::vector<text::ValueSpan> gold = text::DecodeBioSpans(sentence.labels);
    std::vector<std::string> predicted_labels = tagger.Predict(sentence);
    std::vector<text::ValueSpan> predicted =
        text::DecodeBioSpans(predicted_labels);

    std::unordered_map<std::string, std::string> gold_index;  // key → attr
    for (const text::ValueSpan& span : gold) {
      if (attributes.count(span.attribute) == 0) continue;
      (*counts)[span.attribute].gold += 1;
      gold_index[SpanKey(s, span)] = span.attribute;
    }
    for (const text::ValueSpan& span : predicted) {
      if (attributes.count(span.attribute) == 0) continue;
      (*counts)[span.attribute].predicted += 1;
      auto it = gold_index.find(SpanKey(s, span));
      if (it != gold_index.end() && it->second == span.attribute) {
        (*counts)[span.attribute].matched += 1;
      }
    }
  }
}

/// Restricts labels to the given attributes (others become O).
std::vector<text::LabeledSequence> FilterLabels(
    const std::vector<text::LabeledSequence>& data,
    const std::unordered_set<std::string>& keep) {
  std::vector<text::LabeledSequence> out = data;
  for (text::LabeledSequence& seq : out) {
    for (std::string& label : seq.labels) {
      std::string attribute;
      bool begin = false;
      if (text::ParseBioLabel(label, &attribute, &begin) &&
          keep.count(attribute) == 0) {
        label.clear();
        label += text::kOutsideLabel;
      }
    }
  }
  return out;
}

}  // namespace

Result<PartitionPlan> PlanAttributePartition(
    const ProcessedCorpus& corpus, const PipelineConfig& config,
    const PartitionOptions& options) {
  // Seed construction + distant labels, as the pipeline would build them.
  Seed seed = BuildSeed(corpus, config.preprocess);
  if (seed.pairs.empty()) {
    return Status::FailedPrecondition(
        "partition planning: empty seed for " + corpus.category);
  }
  DistantSupervisor supervisor(seed.pairs);
  std::vector<text::LabeledSequence> labeled;
  for (const ProcessedPage& page : corpus.pages) {
    if (page.tables.empty()) continue;
    for (const text::LabeledSequence& sentence : page.sentences) {
      text::LabeledSequence seq = sentence;
      supervisor.Label(&seq);
      labeled.push_back(std::move(seq));
    }
  }
  if (labeled.size() < 20) {
    return Status::FailedPrecondition(
        "partition planning: too few seed-labeled sentences");
  }

  // Train / holdout split.
  Rng rng(options.seed);
  rng.Shuffle(&labeled);
  const size_t holdout_size = std::max<size_t>(
      1, static_cast<size_t>(options.holdout_fraction *
                             static_cast<double>(labeled.size())));
  std::vector<text::LabeledSequence> holdout(
      labeled.begin(), labeled.begin() + static_cast<long>(holdout_size));
  std::vector<text::LabeledSequence> train(
      labeled.begin() + static_cast<long>(holdout_size), labeled.end());

  const std::unordered_set<std::string> all_attributes(
      seed.attributes.begin(), seed.attributes.end());

  // Global model.
  std::unique_ptr<text::SequenceTagger> global = MakeTagger(config);
  PAE_RETURN_IF_ERROR(global->Train(train));
  std::unordered_map<std::string, SpanCounts> global_counts;
  ScoreOnHoldout(*global, holdout, all_attributes, &global_counts);

  // Weak attributes → one specialized group candidate.
  std::unordered_set<std::string> weak;
  for (const std::string& attribute : seed.attributes) {
    const SpanCounts& counts = global_counts[attribute];
    if (counts.gold > 0 && counts.recall() < options.weak_recall) {
      weak.insert(attribute);
    }
  }

  std::unordered_map<std::string, SpanCounts> special_counts;
  if (!weak.empty()) {
    // Specialized training set: labels restricted to the weak group,
    // balanced positives/negatives (as the §VIII-D pipeline does).
    std::vector<text::LabeledSequence> filtered = FilterLabels(train, weak);
    std::vector<text::LabeledSequence> positives, negatives;
    for (text::LabeledSequence& seq : filtered) {
      bool has_span = false;
      for (const std::string& label : seq.labels) {
        if (label != text::kOutsideLabel) {
          has_span = true;
          break;
        }
      }
      (has_span ? positives : negatives).push_back(std::move(seq));
    }
    rng.Shuffle(&negatives);
    if (negatives.size() > positives.size()) {
      negatives.resize(positives.size());
    }
    std::vector<text::LabeledSequence> special_train = std::move(positives);
    for (auto& seq : negatives) special_train.push_back(std::move(seq));

    if (!special_train.empty()) {
      std::unique_ptr<text::SequenceTagger> specialized = MakeTagger(config);
      Status trained = specialized->Train(special_train);
      if (trained.ok()) {
        std::vector<text::LabeledSequence> special_holdout =
            FilterLabels(holdout, weak);
        ScoreOnHoldout(*specialized, special_holdout, weak, &special_counts);
      }
    }
  }

  // Assignment.
  PartitionPlan plan;
  for (const std::string& attribute : seed.attributes) {
    AttributeDiagnostics diag;
    diag.attribute = attribute;
    const SpanCounts& g = global_counts[attribute];
    diag.gold_spans = g.gold;
    diag.global_recall = g.recall();
    diag.global_precision = g.precision();
    if (weak.count(attribute) > 0 && special_counts.count(attribute) > 0) {
      const SpanCounts& s = special_counts[attribute];
      diag.tried_specialized = true;
      diag.specialized_recall = s.recall();
      diag.specialized_precision = s.precision();
      diag.assign_specialized =
          s.recall() >= g.recall() + options.min_recall_gain &&
          s.precision() >= g.precision() - options.max_precision_loss;
    }
    if (diag.assign_specialized) {
      plan.specialized_group.push_back(attribute);
    } else {
      plan.global_group.push_back(attribute);
    }
    plan.diagnostics.push_back(std::move(diag));
  }
  return plan;
}

}  // namespace pae::core
