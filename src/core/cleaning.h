#ifndef PAE_CORE_CLEANING_H_
#define PAE_CORE_CLEANING_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/document.h"
#include "core/tagging.h"
#include "embed/word2vec.h"
#include "util/status.h"

namespace pae::core {

/// A distinct <attribute, value> the tagger proposed this iteration,
/// aggregated over all pages.
struct TaggedCandidate {
  std::string attribute;
  std::string value_display;
  std::vector<std::string> value_tokens;
  int item_count = 0;  // number of distinct products tagged with it
};

/// Per-iteration cleaning telemetry (reported by the ablation bench;
/// §VIII-B quotes veto rules discarding ≈10 % of first-iteration
/// candidates).
struct CleaningStats {
  size_t input = 0;
  size_t veto_symbol = 0;
  size_t veto_markup = 0;
  size_t veto_unpopular = 0;
  size_t veto_long = 0;
  size_t semantic_removed = 0;

  size_t vetoed() const {
    return veto_symbol + veto_markup + veto_unpopular + veto_long;
  }
};

/// The four domain-independent veto rules of §V-C. Note they state what
/// values must NOT be, never what they must be (the paper's contrast
/// with Carlson et al.).
struct VetoConfig {
  /// (iv) values longer than this many code points are vetoed.
  int max_value_chars = 30;
  /// (iii) per attribute, order values by item count and keep only this
  /// top fraction.
  double unpopular_keep_fraction = 0.8;
};

/// Applies the veto rules; returns the surviving candidates and
/// accumulates counts into `stats` (null `stats` is allowed and simply
/// discards the telemetry).
std::vector<TaggedCandidate> ApplyVetoRules(
    std::vector<TaggedCandidate> candidates, const VetoConfig& config,
    CleaningStats* stats);

/// Adds `stats` to the global `cleaning.*` metrics counters so no
/// cleaning decision is ever silently discarded.
void RecordCleaningMetrics(const CleaningStats& stats);

/// Semantic-drift control (§V-C): a word2vec model is retrained on the
/// current corpus each iteration (with multiword values merged into
/// single tokens), a semantic core is built per attribute from the
/// already-accepted values, and new values too dissimilar from the core
/// are removed.
class SemanticCleaner {
 public:
  struct Config {
    /// Core size n (§VIII-B parameter study). <= 0 means "no
    /// restriction": the whole known-value set is the core.
    int core_size = 10;
    /// Absolute floor: values scoring below this multiplicative
    /// similarity (geometric mean of (cos+1)/2 over the core) are
    /// always removed once a core exists.
    double threshold = 0.30;
    /// Relative test: a value must reach this fraction of the core's
    /// own cohesion (the mean score of core members against the rest of
    /// the core). Self-calibrates across categories and embedding
    /// quality.
    double relative_alpha = 0.85;
    /// Attributes with fewer known in-vocabulary values than this are
    /// not semantically filtered (no reliable core).
    int min_core_values = 3;
    /// Retrained from scratch on every Train() call (§V-C).
    embed::Word2VecOptions word2vec = DefaultWord2Vec();

    /// The drift filter must judge values seen only once (merged
    /// multiword candidates are often singletons) and needs sharp
    /// topical vectors on small per-iteration corpora, hence
    /// min_count 1 and a longer, more aggressive training schedule
    /// than the word2vec defaults.
    static embed::Word2VecOptions DefaultWord2Vec() {
      embed::Word2VecOptions options;
      options.min_count = 1;
      options.epochs = 12;
      options.dim = 32;
      options.window = 5;
      options.learning_rate = 0.05f;
      return options;
    }
  };

  explicit SemanticCleaner(Config config);

  /// Trains this iteration's embedding model. `merge_values` lists every
  /// value (known and candidate) whose multiword occurrences should be
  /// merged to a single token before training (§V-C step i).
  Status Train(const ProcessedCorpus& corpus,
               const std::vector<SeedPair>& merge_values);

  /// Filters `candidates` against per-attribute cores built from
  /// `known_values` (attribute → accepted value token-lists).
  std::vector<TaggedCandidate> Filter(
      const std::vector<TaggedCandidate>& candidates,
      const std::unordered_map<std::string,
                               std::vector<std::vector<std::string>>>&
          known_values,
      CleaningStats* stats) const;

  /// Token used in the embedding space for a (possibly multiword) value.
  static std::string MergedToken(const std::vector<std::string>& tokens);

  const embed::Word2Vec& model() const { return model_; }

 private:
  /// Builds the semantic core of one attribute: the `core_size` most
  /// mutually similar known values (iterative farthest-point removal).
  std::vector<std::string> BuildCore(
      const std::vector<std::vector<std::string>>& known) const;

  Config config_;
  embed::Word2Vec model_;
  bool trained_ = false;
};

}  // namespace pae::core

#endif  // PAE_CORE_CLEANING_H_
