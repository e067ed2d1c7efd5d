#ifndef PAE_LSTM_BILSTM_TAGGER_H_
#define PAE_LSTM_BILSTM_TAGGER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "lstm/lstm_cell.h"
#include "math/matrix.h"
#include "text/sequence_tagger.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace pae::util {
class ThreadPool;
}  // namespace pae::util

namespace pae::lstm {

/// Hyper-parameters of the BiLSTM tagger. The epoch count is the
/// experimental knob of Tables II/III and Fig. 6 (2 vs 10 epochs).
struct BiLstmOptions {
  int char_dim = 12;
  int char_hidden = 12;
  int word_dim = 24;
  int word_hidden = 32;
  int epochs = 2;
  float learning_rate = 0.25f;
  float dropout = 0.5f;
  float clip_norm = 5.0f;
  /// Probability of replacing a training-singleton word by <unk> so the
  /// unknown-word embedding gets trained.
  float unk_replace_prob = 0.3f;
  uint64_t seed = 42;
  /// Max sequences per batched GEMM panel (char-LSTM buckets and decode
  /// groups). Purely a memory/throughput trade: every value ≥ 1 yields
  /// byte-identical training and predictions, because the batched
  /// kernels compute each output element with the same fixed-lane
  /// arithmetic as the single-vector path.
  int batch_size = 32;
  /// Test hook: poison one output-bias gradient with a quiet NaN just
  /// before clipping at this global SGD step (-1 = never). Exercises
  /// the non-finite-gradient-norm skip path deterministically.
  int64_t inject_nonfinite_grad_at = -1;
};

/// Bidirectional-LSTM sequence tagger in the NeuroNER configuration the
/// paper describes (§VI-D): character embeddings feed a char-level
/// BiLSTM whose final states are the input of a word-level BiLSTM; the
/// word embedding is appended to the BiLSTM output; a feed-forward
/// layer yields per-token label probabilities. Trained with SGD and
/// (inverted) dropout.
class BiLstmTagger : public text::SequenceTagger {
 public:
  explicit BiLstmTagger(BiLstmOptions options = {});

  Status Train(const std::vector<text::LabeledSequence>& data) override;
  std::vector<std::string> Predict(
      const text::LabeledSequence& seq) const override;
  /// Argmax labels with softmax posteriors as confidences.
  ScoredPrediction PredictScored(
      const text::LabeledSequence& seq) const override;
  /// Batched decode: groups equal-length sentences into panels of up to
  /// options.batch_size and runs one GEMM per timestep per panel; panels
  /// fan out over `pool` when given. Output i is byte-identical to
  /// PredictScored(seqs[i]) for every batch size and thread count.
  std::vector<ScoredPrediction> PredictScoredBatch(
      const std::vector<text::LabeledSequence>& seqs,
      util::ThreadPool* pool = nullptr) const;
  std::string Name() const override { return "bilstm"; }

  /// Mean training loss (per token) of the final epoch.
  double final_epoch_loss() const { return final_epoch_loss_; }
  /// Mean per-token training loss of every epoch, in order.
  const std::vector<double>& epoch_losses() const { return epoch_losses_; }
  const std::vector<std::string>& labels() const { return labels_; }
  bool trained() const { return trained_; }

 private:
  /// Test-only reader of the trained fields (tests/lstm_test.cc).
  friend class BiLstmTaggerTestPeer;

  struct CharBatch;      // one equal-char-length panel of tokens
  struct SentenceBatch;  // forward state of S equal-length sentences

  /// Splits a token into character-unit strings (code points).
  static std::vector<std::string> TokenChars(const std::string& token);

  /// Buckets tokens by exact character count, chunks each bucket into
  /// panels of ≤ options.batch_size, and runs the char BiLSTM once per
  /// panel (one batched GEMM per char position). Fills sb->char_batches
  /// and the token → (panel, column) map sb->char_loc.
  void RunCharBatches(const std::vector<std::vector<int>>& char_ids,
                      SentenceBatch* sb) const;

  /// Forward pass over S same-length sentences (token n = s*T + t).
  /// `dropout_masks` (one [2*char_hidden] mask per token) applies only
  /// when `training`. Fills the activations backprop needs.
  void ForwardBatch(const std::vector<int>& word_ids,
                    const std::vector<std::vector<int>>& char_ids,
                    const std::vector<std::vector<float>>& dropout_masks,
                    bool training, size_t num_sentences, size_t num_tokens,
                    SentenceBatch* sb) const;

  BiLstmOptions options_;
  text::Vocab word_vocab_;
  text::Vocab char_vocab_;
  std::vector<std::string> labels_;
  std::unordered_map<std::string, int> label_ids_;

  math::Matrix char_emb_;   // |chars| × char_dim
  math::Matrix word_emb_;   // |words| × word_dim
  LstmParams char_fwd_, char_bwd_;  // char_dim → char_hidden
  LstmParams word_fwd_, word_bwd_;  // 2*char_hidden → word_hidden
  math::Matrix out_w_;      // L × (2*word_hidden + word_dim)
  std::vector<float> out_b_;

  double final_epoch_loss_ = 0.0;
  std::vector<double> epoch_losses_;
  bool trained_ = false;
};

}  // namespace pae::lstm

#endif  // PAE_LSTM_BILSTM_TAGGER_H_
