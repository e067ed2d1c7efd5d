#include "core/bootstrap.h"

#include "core/ensemble.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/normalize.h"
#include "core/tag_filter.h"
#include "text/negation.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pae::core {

const char* ModelTypeName(ModelType type) {
  switch (type) {
    case ModelType::kCrf:
      return "crf";
    case ModelType::kBiLstm:
      return "bilstm";
    case ModelType::kEnsembleIntersection:
      return "ensemble-intersect";
    case ModelType::kEnsembleUnion:
      return "ensemble-union";
  }
  return "unknown";
}

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {}

std::unique_ptr<text::SequenceTagger> Pipeline::MakeTagger(
    int iteration) const {
  if (config_.model == ModelType::kCrf) {
    return std::make_unique<crf::CrfTagger>(config_.crf);
  }
  lstm::BiLstmOptions options = config_.lstm;
  options.seed = config_.seed * 7919 + static_cast<uint64_t>(iteration);
  if (config_.model == ModelType::kBiLstm) {
    return std::make_unique<lstm::BiLstmTagger>(options);
  }
  const EnsembleMode mode = config_.model == ModelType::kEnsembleIntersection
                                ? EnsembleMode::kIntersection
                                : EnsembleMode::kUnion;
  return std::make_unique<EnsembleTagger>(
      std::make_unique<crf::CrfTagger>(config_.crf),
      std::make_unique<lstm::BiLstmTagger>(options), mode);
}

Result<PipelineResult> Pipeline::Run(const ProcessedCorpus& corpus) {
  return RunImpl(corpus, nullptr);
}

Result<PipelineResult> Pipeline::Run(const IngestedCorpus& ingested) {
  return RunImpl(ingested.corpus, &ingested.candidates);
}

Result<PipelineResult> Pipeline::RunImpl(const ProcessedCorpus& corpus,
                                         const CandidateSet* candidates) {
  if (config_.threads < 0) {
    return Status::InvalidArgument(
        "PipelineConfig.threads must be >= 0 (0 = all hardware threads), "
        "got " + std::to_string(config_.threads));
  }
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  util::ScopedTimer run_timer(metrics.GetHistogram("bootstrap.seconds"));
  const int threads = util::ThreadPool::ResolveThreads(config_.threads);
  util::ThreadPool pool(threads);
  config_.crf.threads = threads;
  config_.semantic.word2vec.threads = threads;

  PipelineResult result;
  result.seed =
      candidates != nullptr
          ? BuildSeedFromCandidates(corpus, *candidates, config_.preprocess)
          : BuildSeed(corpus, config_.preprocess);
  if (result.seed.pairs.empty()) {
    return Status::FailedPrecondition(
        "seed construction produced no <attribute, value> pairs for " +
        corpus.category);
  }

  // ---- training-set generation (Fig. 1 line 5) ----
  DistantSupervisor seed_supervisor(result.seed.pairs);

  struct SentRef {
    size_t page;
    size_t sent;
  };
  std::vector<text::LabeledSequence> labeled;
  std::vector<SentRef> unlabeled;

  // Cumulative triples, keyed for dedup.
  std::unordered_map<std::string, Triple> triples;
  auto add_triple = [&](const std::string& pid, const std::string& attr,
                        const std::string& value) {
    const std::string key = pid + "\t" + attr + "\t" + NormalizeValue(value);
    triples.emplace(key, Triple{pid, attr, value});
  };

  for (const Triple& t : result.seed.table_triples) {
    add_triple(t.product_id, t.attribute, t.value);
  }

  const text::NegationDetector negation(corpus.language);
  auto drop_for_negation = [&](const text::LabeledSequence& sentence) {
    return config_.negation_filtering && negation.IsNegated(sentence.tokens);
  };

  // Distant supervision: label every seed-page sentence against the
  // seed in parallel (each sentence is independent), then fold the
  // results sequentially in corpus order so triples and training
  // sentences accumulate exactly as a serial pass would.
  util::ScopedTimer ds_timer(metrics.GetHistogram("bootstrap.ds.seconds"));
  std::vector<SentRef> all_sents;
  for (size_t p = 0; p < corpus.pages.size(); ++p) {
    for (size_t s = 0; s < corpus.pages[p].sentences.size(); ++s) {
      all_sents.push_back(SentRef{p, s});
    }
  }
  struct LabelOutcome {
    text::LabeledSequence seq;  // labeled copy (seed pages only)
    bool negated = false;
  };
  std::vector<LabelOutcome> label_outcomes(all_sents.size());
  SpanValue span_value;  // reused buffer for ReadSpanValue
  pool.ParallelFor(0, all_sents.size(), 16, [&](size_t i) {
    const SentRef ref = all_sents[i];
    const ProcessedPage& page = corpus.pages[ref.page];
    if (page.tables.empty()) return;
    text::LabeledSequence seq = page.sentences[ref.sent];
    seed_supervisor.Label(&seq);
    label_outcomes[i].negated = drop_for_negation(seq);
    label_outcomes[i].seq = std::move(seq);
  });
  for (size_t i = 0; i < all_sents.size(); ++i) {
    const SentRef ref = all_sents[i];
    const ProcessedPage& page = corpus.pages[ref.page];
    if (page.tables.empty()) {
      unlabeled.push_back(ref);
      continue;
    }
    text::LabeledSequence& seq = label_outcomes[i].seq;
    if (label_outcomes[i].negated) {
      // Keep the sentence as an all-O negative example but produce
      // no triples from it (Definition 3.1).
      seq.labels.assign(seq.tokens.size(), text::kOutsideLabel);
      labeled.push_back(std::move(seq));
      continue;
    }
    for (const text::ValueSpan& span : text::DecodeBioSpans(seq.labels)) {
      ReadSpanValue(seq, span, corpus.language, &span_value);
      add_triple(page.product_id, span.attribute, span_value.display);
    }
    labeled.push_back(std::move(seq));
  }
  result.seed_triples.reserve(triples.size());
  for (const auto& [key, t] : triples) result.seed_triples.push_back(t);
  ds_timer.Stop();
  metrics.GetCounter("bootstrap.ds.labeled_sentences")
      ->Add(static_cast<int64_t>(labeled.size()));
  metrics.GetCounter("bootstrap.ds.unlabeled_sentences")
      ->Add(static_cast<int64_t>(unlabeled.size()));
  metrics.GetCounter("bootstrap.ds.seed_triples")
      ->Add(static_cast<int64_t>(result.seed_triples.size()));

  // Specialized models (§VIII-D) are trained on a balanced set: a
  // global model sees every seed-page sentence, so its rare target
  // attributes drown in all-O negatives; the specialized trainer keeps
  // every sentence carrying a target span plus an equal number of
  // negatives. This is what lets Figs. 7/8 raise per-attribute coverage
  // (at the precision cost §VIII-D reports).
  if (!config_.preprocess.attribute_filter.empty()) {
    std::vector<text::LabeledSequence> positives, negatives;
    for (auto& seq : labeled) {
      bool has_span = false;
      for (const auto& label : seq.labels) {
        if (label != text::kOutsideLabel) {
          has_span = true;
          break;
        }
      }
      (has_span ? positives : negatives).push_back(std::move(seq));
    }
    Rng balance_rng(config_.seed + 17);
    balance_rng.Shuffle(&negatives);
    if (negatives.size() > positives.size()) {
      negatives.resize(positives.size());
    }
    labeled = std::move(positives);
    for (auto& seq : negatives) labeled.push_back(std::move(seq));
  }

  // Known accepted values per attribute (semantic cores grow with the
  // bootstrap).
  std::unordered_map<std::string, std::vector<std::vector<std::string>>>
      known_values;
  std::unordered_set<std::string> known_value_keys;
  std::vector<SeedPair> all_values;  // for multiword merging in word2vec
  for (const SeedPair& pair : result.seed.pairs) {
    const std::string key =
        PairKey(pair.attribute, NormalizeValue(pair.value_display));
    if (known_value_keys.insert(key).second) {
      known_values[pair.attribute].push_back(pair.value_tokens);
      all_values.push_back(pair);
    }
  }

  Rng rng(config_.seed);

  // The unlabeled sentence set is fixed across all Tagger–Cleaner
  // cycles, so the CRF fast path extracts its features exactly once (on
  // the first tag step); each retrained tagger only rebinds feature ids.
  std::vector<const text::LabeledSequence*> unlabeled_sentences;
  unlabeled_sentences.reserve(unlabeled.size());
  for (const SentRef& ref : unlabeled) {
    unlabeled_sentences.push_back(
        &corpus.pages[ref.page].sentences[ref.sent]);
  }
  crf::CompiledCorpus crf_cache;

  // Sentences labeled by the previous cycle's cleaned tags. Following
  // Fig. 1 line 20 (dataset = clean_ds) this portion is *replaced*
  // every cycle, so a value wrongly accepted once does not poison all
  // later cycles — the loop is self-correcting.
  std::vector<text::LabeledSequence> accepted_labeled;

  // Retraining starts from the previous cycle's CRF: the training set
  // changed only by the cleaned tags, and the L1+L2 objective is convex,
  // so the old optimum is a near-optimal start. BiLSTM and ensemble
  // bootstraps retrain from scratch. The previous tagger is dropped as
  // soon as its successor is trained.
  std::unique_ptr<text::SequenceTagger> previous;
  auto train_tagger = [&](text::SequenceTagger& tagger,
                          const std::vector<text::LabeledSequence>& train) {
    Status status =
        config_.model == ModelType::kCrf && previous != nullptr
            ? static_cast<crf::CrfTagger&>(tagger).Train(
                  train, static_cast<const crf::CrfTagger&>(*previous))
            : tagger.Train(train);
    previous.reset();
    return status;
  };

  // ---- Tagger–Cleaner cycles (Fig. 1 lines 8–22) ----
  for (int iteration = 0; iteration < config_.iterations; ++iteration) {
    util::ScopedTimer iteration_timer(
        metrics.GetHistogram("bootstrap.iteration.seconds"));
    IterationStats stats;
    stats.iteration = iteration + 1;

    // Train on (a sample of) the labeled dataset: the fixed seed-page
    // sentences plus the previous cycle's cleaned tags.
    std::vector<text::LabeledSequence> train = labeled;
    train.insert(train.end(), accepted_labeled.begin(),
                 accepted_labeled.end());
    if (train.size() > config_.max_train_sentences) {
      rng.Shuffle(&train);
      train.resize(config_.max_train_sentences);
    }
    stats.labeled_sentences = train.size();
    std::unique_ptr<text::SequenceTagger> tagger = MakeTagger(iteration);
    Status train_status = train_tagger(*tagger, train);
    if (!train_status.ok()) return train_status;

    // Tag every still-unlabeled sentence on the pool (prediction is
    // read-only on the model), then merge in index order so candidate
    // discovery — and therefore every downstream map and tie-break — is
    // independent of scheduling.
    std::vector<FilteredSentence> tagged;
    util::ScopedTimer tag_timer(
        metrics.GetHistogram("bootstrap.tag.seconds"));
    const TagFilterTally tag_tally =
        TagAndFilter(*tagger, unlabeled_sentences,
                     config_.negation_filtering ? &negation : nullptr,
                     config_.min_span_confidence, &crf_cache, &pool, &tagged);
    tag_timer.Stop();
    metrics.GetSeries("bootstrap.tag.tagged_sentences")
        ->Append(static_cast<double>(tag_tally.tagged));

    CandidateTally tally;
    for (size_t u = 0; u < unlabeled.size(); ++u) {
      const std::string& product_id =
          corpus.pages[unlabeled[u].page].product_id;
      for (const text::ValueSpan& span : tagged[u].spans) {
        ReadSpanValue(*unlabeled_sentences[u], span, corpus.language,
                      &span_value);
        tally.Add(span.attribute, span_value, product_id);
      }
    }
    std::vector<TaggedCandidate> candidates = tally.TakeSorted();
    stats.candidate_values = candidates.size();

    // ---- cleaning ----
    util::ScopedTimer clean_timer(
        metrics.GetHistogram("bootstrap.clean.seconds"));
    if (config_.syntactic_cleaning) {
      candidates =
          ApplyVetoRules(std::move(candidates), config_.veto, &stats.cleaning);
    } else {
      stats.cleaning.input += candidates.size();
    }
    if (config_.semantic_cleaning && !candidates.empty()) {
      // Merge list: known values plus this iteration's candidates.
      std::vector<SeedPair> merge_values = all_values;
      for (const TaggedCandidate& c : candidates) {
        SeedPair pair;
        pair.attribute = c.attribute;
        pair.value_display = c.value_display;
        pair.value_tokens = c.value_tokens;
        merge_values.push_back(std::move(pair));
      }
      SemanticCleaner::Config sem = config_.semantic;
      sem.word2vec.seed =
          config_.seed * 104729 + static_cast<uint64_t>(iteration);
      SemanticCleaner cleaner(sem);
      Status sem_status = cleaner.Train(corpus, merge_values);
      if (sem_status.ok()) {
        candidates = cleaner.Filter(candidates, known_values, &stats.cleaning);
      }
      // A failed embedding training (tiny corpora) degrades gracefully
      // to no semantic filtering.
    }
    clean_timer.Stop();
    stats.accepted_values = candidates.size();

    // Accepted (attribute, value) keys.
    std::unordered_set<std::string> accepted;
    for (const TaggedCandidate& c : candidates) {
      accepted.insert(PairKey(c.attribute, NormalizeValue(c.value_display)));
    }

    // ---- rebuild the cleaned dataset and the triple store ----
    // (Fig. 1 line 20: dataset = clean_ds — the tagged portion is
    // replaced, not accreted.)
    accepted_labeled.clear();
    std::unordered_map<std::string, Triple> iter_triples = triples;
    auto add_iter_triple = [&](const std::string& pid,
                               const std::string& attr,
                               const std::string& value) {
      const std::string key =
          pid + "\t" + attr + "\t" + NormalizeValue(value);
      iter_triples.emplace(key, Triple{pid, attr, value});
    };

    for (size_t u = 0; u < unlabeled.size(); ++u) {
      if (tagged[u].spans.empty()) continue;
      const ProcessedPage& page = corpus.pages[unlabeled[u].page];
      const text::LabeledSequence& sentence = *unlabeled_sentences[u];
      std::vector<std::string> final_labels(sentence.tokens.size(),
                                            text::kOutsideLabel);
      bool any = false;
      for (const text::ValueSpan& span : tagged[u].spans) {
        ReadSpanValue(sentence, span, corpus.language, &span_value);
        if (accepted.count(span_value.key) == 0) continue;
        any = true;
        final_labels[span.begin] = text::BeginLabel(span.attribute);
        for (size_t k = span.begin + 1; k < span.end; ++k) {
          final_labels[k] = text::InsideLabel(span.attribute);
        }
        add_iter_triple(page.product_id, span.attribute,
                        span_value.display);
        if (known_value_keys.insert(span_value.key).second) {
          known_values[span.attribute].push_back(span_value.tokens);
          SeedPair pair;
          pair.attribute = span.attribute;
          pair.value_display = span_value.display;
          pair.value_tokens = span_value.tokens;
          all_values.push_back(std::move(pair));
        }
      }
      if (any) {
        text::LabeledSequence seq = sentence;
        seq.labels = std::move(final_labels);
        accepted_labeled.push_back(std::move(seq));
      }
    }

    stats.new_triples = iter_triples.size() - triples.size();
    stats.cumulative_triples = iter_triples.size();

    // Per-iteration telemetry: ordered series mirror IterationStats so
    // the run report tells the full growth story, and the cleaning
    // decisions previously visible only in PipelineResult also reach
    // the global counters.
    metrics.GetSeries("bootstrap.train_sentences")
        ->Append(static_cast<double>(stats.labeled_sentences));
    metrics.GetSeries("bootstrap.candidates")
        ->Append(static_cast<double>(stats.candidate_values));
    metrics.GetSeries("bootstrap.accepted")
        ->Append(static_cast<double>(stats.accepted_values));
    metrics.GetSeries("bootstrap.new_triples")
        ->Append(static_cast<double>(stats.new_triples));
    metrics.GetSeries("bootstrap.triples_total")
        ->Append(static_cast<double>(stats.cumulative_triples));
    metrics.GetSeries("bootstrap.vetoed")
        ->Append(static_cast<double>(stats.cleaning.vetoed()));
    metrics.GetSeries("bootstrap.semantic_removed")
        ->Append(static_cast<double>(stats.cleaning.semantic_removed));
    RecordCleaningMetrics(stats.cleaning);

    result.iteration_stats.push_back(stats);

    std::vector<Triple> snapshot;
    snapshot.reserve(iter_triples.size());
    for (const auto& [key, t] : iter_triples) snapshot.push_back(t);
    result.triples_after.push_back(std::move(snapshot));

    PAE_LOG(INFO) << corpus.category << " iter " << stats.iteration << " ["
                  << ModelTypeName(config_.model)
                  << "] candidates=" << stats.candidate_values
                  << " accepted=" << stats.accepted_values
                  << " triples=" << stats.cumulative_triples;
    previous = std::move(tagger);
  }

  result.known_pair_keys.assign(known_value_keys.begin(),
                                known_value_keys.end());
  std::sort(result.known_pair_keys.begin(), result.known_pair_keys.end());

  if (config_.train_final_model) {
    std::vector<text::LabeledSequence> train = labeled;
    train.insert(train.end(), accepted_labeled.begin(),
                 accepted_labeled.end());
    if (train.size() > config_.max_train_sentences) {
      rng.Shuffle(&train);
      train.resize(config_.max_train_sentences);
    }
    std::unique_ptr<text::SequenceTagger> final_tagger =
        MakeTagger(config_.iterations);
    Status trained = train_tagger(*final_tagger, train);
    if (!trained.ok()) return trained;
    result.final_tagger = std::move(final_tagger);
  }
  return result;
}

}  // namespace pae::core
