#include "lstm/bilstm_tagger.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "math/kernels.h"
#include "math/vec.h"
#include "text/utf8.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pae::lstm {

/// One panel of tokens whose char sequences all have length `len`,
/// processed by the char BiLSTM as a batch of `tokens.size()` columns.
struct BiLstmTagger::CharBatch {
  size_t len = 0;
  std::vector<size_t> tokens;  // global token ids (n = s*T + t), ascending
  LstmBatchTrace fwd;          // chars in reading order
  LstmBatchTrace bwd;          // chars reversed
};

/// Forward activations of S equal-length sentences; token n = s*T + t.
struct BiLstmTagger::SentenceBatch {
  size_t S = 0;
  size_t T = 0;
  std::vector<CharBatch> char_batches;
  /// token → (index into char_batches, column in that panel);
  /// first == SIZE_MAX for tokens with no characters.
  std::vector<std::pair<size_t, size_t>> char_loc;
  std::vector<float> word_inputs;  // [T][S][2*char_hidden], post dropout
  LstmBatchTrace word_fwd, word_bwd;
  std::vector<float> repr;    // [S*T][2*word_hidden + word_dim]
  std::vector<float> logits;  // [S*T][L]
};

BiLstmTagger::BiLstmTagger(BiLstmOptions options) : options_(options) {}

std::vector<std::string> BiLstmTagger::TokenChars(const std::string& token) {
  std::vector<std::string> chars;
  size_t pos = 0;
  while (pos < token.size()) {
    size_t start = pos;
    text::NextCodepoint(token, &pos);
    chars.push_back(token.substr(start, pos - start));
  }
  return chars;
}

void BiLstmTagger::RunCharBatches(
    const std::vector<std::vector<int>>& char_ids, SentenceBatch* sb) const {
  const size_t dc = static_cast<size_t>(options_.char_dim);
  const size_t n_tokens = char_ids.size();
  const size_t cap =
      options_.batch_size < 1 ? 1 : static_cast<size_t>(options_.batch_size);

  sb->char_batches.clear();
  sb->char_loc.assign(n_tokens, {SIZE_MAX, 0});

  // Bucket tokens by exact char count (no padding, no masking); the
  // std::map keeps bucket order a pure function of the input lengths.
  std::map<size_t, std::vector<size_t>> by_len;
  for (size_t n = 0; n < n_tokens; ++n) {
    if (!char_ids[n].empty()) by_len[char_ids[n].size()].push_back(n);
  }

  std::vector<float> flat_fwd, flat_bwd;
  for (const auto& [len, toks] : by_len) {
    for (size_t j = 0; j < toks.size(); j += cap) {
      const size_t B = std::min(cap, toks.size() - j);
      CharBatch cb;
      cb.len = len;
      cb.tokens.assign(toks.begin() + static_cast<long>(j),
                       toks.begin() + static_cast<long>(j + B));
      flat_fwd.assign(len * B * dc, 0.0f);
      flat_bwd.assign(len * B * dc, 0.0f);
      for (size_t b = 0; b < B; ++b) {
        const std::vector<int>& ids = char_ids[cb.tokens[b]];
        for (size_t k = 0; k < len; ++k) {
          const float* row = char_emb_.Row(static_cast<size_t>(ids[k]));
          std::copy(row, row + dc, flat_fwd.begin() + ((k * B + b) * dc));
          std::copy(row, row + dc,
                    flat_bwd.begin() + (((len - 1 - k) * B + b) * dc));
        }
      }
      LstmForwardBatch(char_fwd_, flat_fwd.data(), len, B, &cb.fwd);
      LstmForwardBatch(char_bwd_, flat_bwd.data(), len, B, &cb.bwd);
      for (size_t b = 0; b < B; ++b) {
        sb->char_loc[cb.tokens[b]] = {sb->char_batches.size(), b};
      }
      sb->char_batches.push_back(std::move(cb));
    }
  }
}

void BiLstmTagger::ForwardBatch(
    const std::vector<int>& word_ids,
    const std::vector<std::vector<int>>& char_ids,
    const std::vector<std::vector<float>>& dropout_masks, bool training,
    size_t num_sentences, size_t num_tokens, SentenceBatch* sb) const {
  const size_t S = num_sentences;
  const size_t T = num_tokens;
  const size_t hc = static_cast<size_t>(options_.char_hidden);
  const size_t hw = static_cast<size_t>(options_.word_hidden);
  const size_t dw = static_cast<size_t>(options_.word_dim);
  const size_t L = labels_.size();
  const size_t repr_dim = 2 * hw + dw;
  PAE_DCHECK_EQ(word_ids.size(), S * T);
  PAE_DCHECK_EQ(char_ids.size(), S * T);

  // Gate-dimension contract: the char-BiLSTM representation feeding the
  // word LSTMs must match their input width (2*char_hidden), and the
  // output layer must span [h_fwd; h_bwd; word_emb].
  PAE_DCHECK_EQ(word_fwd_.input_dim, 2 * hc);
  PAE_DCHECK_EQ(word_bwd_.input_dim, 2 * hc);
  PAE_DCHECK_EQ(out_w_.cols(), repr_dim);
  PAE_DCHECK_EQ(out_w_.rows(), L);

  sb->S = S;
  sb->T = T;
  RunCharBatches(char_ids, sb);

  // Word-LSTM inputs, time-major [T][S][2hc]: each token's slot is the
  // concatenated final char-BiLSTM hidden states (zeros for char-less
  // tokens), scaled by its inverted-dropout mask during training.
  sb->word_inputs.assign(T * S * 2 * hc, 0.0f);
  for (size_t s = 0; s < S; ++s) {
    for (size_t t = 0; t < T; ++t) {
      const size_t n = s * T + t;
      float* dst = sb->word_inputs.data() + (t * S + s) * 2 * hc;
      const auto [bi, col] = sb->char_loc[n];
      if (bi != SIZE_MAX) {
        const CharBatch& cb = sb->char_batches[bi];
        const float* hf = cb.fwd.H(cb.len - 1) + col * hc;
        const float* hb = cb.bwd.H(cb.len - 1) + col * hc;
        std::copy(hf, hf + hc, dst);
        std::copy(hb, hb + hc, dst + hc);
      }
      if (training) {
        PAE_DCHECK_EQ(dropout_masks[n].size(), 2 * hc);
        for (size_t k = 0; k < 2 * hc; ++k) dst[k] *= dropout_masks[n][k];
      }
    }
  }

  // Word-level BiLSTM: one batched GEMM pair per timestep over all S
  // sentences.
  LstmForwardBatch(word_fwd_, sb->word_inputs.data(), T, S, &sb->word_fwd);
  std::vector<float> reversed(T * S * 2 * hc);
  for (size_t t = 0; t < T; ++t) {
    std::copy(sb->word_inputs.begin() + static_cast<long>((T - 1 - t) * S *
                                                          2 * hc),
              sb->word_inputs.begin() + static_cast<long>((T - t) * S * 2 *
                                                          hc),
              reversed.begin() + static_cast<long>(t * S * 2 * hc));
  }
  LstmForwardBatch(word_bwd_, reversed.data(), T, S, &sb->word_bwd);

  // Output layer: stack every token's [h_fwd; h_bwd; word_emb] repr and
  // produce all S·T logit rows with a single bias-fused GEMM.
  sb->repr.assign(S * T * repr_dim, 0.0f);
  for (size_t s = 0; s < S; ++s) {
    for (size_t t = 0; t < T; ++t) {
      const size_t n = s * T + t;
      float* row = sb->repr.data() + n * repr_dim;
      const float* hf = sb->word_fwd.H(t) + s * hw;
      const float* hb = sb->word_bwd.H(T - 1 - t) + s * hw;
      std::copy(hf, hf + hw, row);
      std::copy(hb, hb + hw, row + hw);
      const float* emb = word_emb_.Row(static_cast<size_t>(word_ids[n]));
      std::copy(emb, emb + dw, row + 2 * hw);
    }
  }
  sb->logits.assign(S * T * L, 0.0f);
  math::kernels::MatMul(out_w_.data().data(), L, repr_dim, sb->repr.data(),
                        S * T, out_b_.data(), sb->logits.data());
}

Status BiLstmTagger::Train(const std::vector<text::LabeledSequence>& data) {
  if (data.empty()) {
    return Status::InvalidArgument("BiLSTM training set is empty");
  }
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  util::ScopedTimer train_timer(metrics.GetHistogram("lstm.train.seconds"));
  metrics.GetCounter("lstm.trainings")->Increment();
  metrics.GetCounter("lstm.train.sentences")
      ->Add(static_cast<int64_t>(data.size()));
  epoch_losses_.clear();
  Rng rng(options_.seed);

  // Vocabularies and label inventory.
  labels_.clear();
  label_ids_.clear();
  labels_.push_back(text::kOutsideLabel);
  label_ids_[text::kOutsideLabel] = 0;
  word_vocab_ = text::Vocab();
  char_vocab_ = text::Vocab();

  std::unordered_map<std::string, int> word_counts;
  for (const auto& seq : data) {
    if (!seq.HasLabels()) {
      return Status::InvalidArgument("BiLSTM training sequence without labels");
    }
    for (const auto& token : seq.tokens) {
      ++word_counts[token];
      word_vocab_.GetOrAdd(token);
      for (const auto& ch : TokenChars(token)) char_vocab_.GetOrAdd(ch);
    }
    for (const auto& label : seq.labels) {
      if (label_ids_.emplace(label, static_cast<int>(labels_.size())).second) {
        labels_.push_back(label);
      }
    }
  }

  const size_t dc = static_cast<size_t>(options_.char_dim);
  const size_t hc = static_cast<size_t>(options_.char_hidden);
  const size_t hw = static_cast<size_t>(options_.word_hidden);
  const size_t dw = static_cast<size_t>(options_.word_dim);
  const size_t L = labels_.size();
  const size_t repr_dim = 2 * hw + dw;

  char_emb_ = math::Matrix(char_vocab_.size(), dc);
  char_emb_.UniformInit(&rng, 0.1f);
  word_emb_ = math::Matrix(word_vocab_.size(), dw);
  word_emb_.UniformInit(&rng, 0.1f);
  char_fwd_ = LstmParams(dc, hc);
  char_bwd_ = LstmParams(dc, hc);
  word_fwd_ = LstmParams(2 * hc, hw);
  word_bwd_ = LstmParams(2 * hc, hw);
  char_fwd_.Init(&rng);
  char_bwd_.Init(&rng);
  word_fwd_.Init(&rng);
  word_bwd_.Init(&rng);
  out_w_ = math::Matrix(L, repr_dim);
  out_w_.XavierInit(&rng);
  out_b_.assign(L, 0.0f);

  // Gradient buffers (reused across sentences).
  LstmParams g_char_fwd(dc, hc), g_char_bwd(dc, hc);
  LstmParams g_word_fwd(2 * hc, hw), g_word_bwd(2 * hc, hw);
  math::Matrix g_out_w(L, repr_dim);
  std::vector<float> g_out_b(L, 0.0f);
  std::unordered_map<int, std::vector<float>> g_word_emb, g_char_emb;

  std::vector<size_t> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  const float keep = 1.0f - options_.dropout;
  util::Counter* nonfinite_skips =
      metrics.GetCounter("lstm.train.nonfinite_grad_skips");
  int64_t sgd_step = 0;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0;
    size_t epoch_tokens = 0;

    for (size_t si : order) {
      const auto& seq = data[si];
      const size_t T = seq.tokens.size();
      if (T == 0) continue;

      // Encode tokens.
      std::vector<int> word_ids(T);
      std::vector<std::vector<int>> char_ids(T);
      std::vector<int> gold(T);
      for (size_t t = 0; t < T; ++t) {
        int wid = word_vocab_.Lookup(seq.tokens[t]);
        // Stochastic <unk> replacement for singletons.
        auto it = word_counts.find(seq.tokens[t]);
        if (it != word_counts.end() && it->second <= 1 &&
            rng.Bernoulli(options_.unk_replace_prob)) {
          wid = text::Vocab::kUnkId;
        }
        word_ids[t] = wid;
        for (const auto& ch : TokenChars(seq.tokens[t])) {
          char_ids[t].push_back(char_vocab_.Lookup(ch));
        }
        gold[t] = label_ids_.at(seq.labels[t]);
      }

      // Inverted dropout masks on the word-LSTM inputs.
      std::vector<std::vector<float>> masks(T,
                                            std::vector<float>(2 * hc, 0.0f));
      for (auto& mask : masks) {
        for (float& m : mask) {
          m = rng.Bernoulli(keep) ? 1.0f / keep : 0.0f;
        }
      }

      SentenceBatch sb;
      ForwardBatch(word_ids, char_ids, masks, /*training=*/true,
                   /*num_sentences=*/1, T, &sb);

      // Loss and ∂L/∂logits.
      std::vector<float> dlogits(T * L);
      std::vector<float> p(L);
      for (size_t t = 0; t < T; ++t) {
        p.assign(sb.logits.begin() + static_cast<long>(t * L),
                 sb.logits.begin() + static_cast<long>((t + 1) * L));
        math::SoftmaxInPlace(&p);
        epoch_loss -= std::log(std::max(p[static_cast<size_t>(gold[t])],
                                        1e-12f));
        p[static_cast<size_t>(gold[t])] -= 1.0f;
        std::copy(p.begin(), p.end(), dlogits.begin() + static_cast<long>(
                                          t * L));
      }
      epoch_tokens += T;

      // ---- Backward ----
      g_char_fwd.SetZero();
      g_char_bwd.SetZero();
      g_word_fwd.SetZero();
      g_word_bwd.SetZero();
      g_out_w.SetZero();
      std::fill(g_out_b.begin(), g_out_b.end(), 0.0f);
      g_word_emb.clear();
      g_char_emb.clear();

      // d repr = out_w^T · dlogits for all T tokens in one batched
      // transpose product (per-token results bit-equal to MatTVec).
      std::vector<float> drepr(T * repr_dim, 0.0f);
      math::kernels::MatTVecBatch(out_w_.data().data(), L, repr_dim,
                                  dlogits.data(), T, drepr.data());

      std::vector<float> dh_word_fwd(T * hw, 0.0f);
      std::vector<float> dh_word_bwd(T * hw, 0.0f);

      for (size_t t = 0; t < T; ++t) {
        const float* dl = dlogits.data() + t * L;
        const float* dr = drepr.data() + t * repr_dim;
        // Output layer gradients (shared buffer — keep token order).
        math::kernels::AddOuter(1.0f, dl, sb.repr.data() + t * repr_dim,
                                g_out_w.data().data(), L, repr_dim);
        for (size_t y = 0; y < L; ++y) g_out_b[y] += dl[y];
        // Split d repr: word fwd h, word bwd h, word embedding.
        for (size_t k = 0; k < hw; ++k) dh_word_fwd[t * hw + k] += dr[k];
        for (size_t k = 0; k < hw; ++k) {
          dh_word_bwd[(T - 1 - t) * hw + k] += dr[hw + k];
        }
        auto [emb_it, unused] = g_word_emb.try_emplace(
            word_ids[t], std::vector<float>(dw, 0.0f));
        for (size_t k = 0; k < dw; ++k) {
          emb_it->second[k] += dr[2 * hw + k];
        }
      }

      // Word BiLSTM backward → gradients into the (dropped) inputs.
      std::vector<float> dpre_wf(T * 4 * hw), dpre_wb(T * 4 * hw);
      std::vector<float> dx_fwd(T * 2 * hc), dx_bwd(T * 2 * hc);
      LstmBackwardBatch(word_fwd_, sb.word_fwd, dh_word_fwd.data(),
                        dpre_wf.data(), dx_fwd.data());
      LstmBackwardBatch(word_bwd_, sb.word_bwd, dh_word_bwd.data(),
                        dpre_wb.data(), dx_bwd.data());
      LstmAccumulateGrads(sb.word_fwd, dpre_wf.data(), 0, &g_word_fwd);
      LstmAccumulateGrads(sb.word_bwd, dpre_wb.data(), 0, &g_word_bwd);

      // Gradient into each token's char-BiLSTM output (through dropout).
      std::vector<float> dinput(T * 2 * hc, 0.0f);
      for (size_t t = 0; t < T; ++t) {
        for (size_t k = 0; k < 2 * hc; ++k) {
          dinput[t * 2 * hc + k] =
              (dx_fwd[t * 2 * hc + k] + dx_bwd[(T - 1 - t) * 2 * hc + k]) *
              masks[t][k];
        }
      }

      // Char BiLSTM backward, one batched pass per panel: gradient
      // arrives only at the final hidden state of each direction.
      const size_t n_batches = sb.char_batches.size();
      std::vector<std::vector<float>> dpre_cf(n_batches), dpre_cb(n_batches);
      std::vector<std::vector<float>> dxc_f(n_batches), dxc_b(n_batches);
      std::vector<float> dh_c;
      for (size_t bi = 0; bi < n_batches; ++bi) {
        const CharBatch& cb = sb.char_batches[bi];
        const size_t B = cb.tokens.size();
        dpre_cf[bi].resize(cb.len * B * 4 * hc);
        dpre_cb[bi].resize(cb.len * B * 4 * hc);
        dxc_f[bi].resize(cb.len * B * dc);
        dxc_b[bi].resize(cb.len * B * dc);
        dh_c.assign(cb.len * B * hc, 0.0f);
        for (size_t b = 0; b < B; ++b) {
          const float* din = dinput.data() + cb.tokens[b] * 2 * hc;
          std::copy(din, din + hc,
                    dh_c.begin() + static_cast<long>(((cb.len - 1) * B + b) *
                                                     hc));
        }
        LstmBackwardBatch(char_fwd_, cb.fwd, dh_c.data(), dpre_cf[bi].data(),
                          dxc_f[bi].data());
        dh_c.assign(cb.len * B * hc, 0.0f);
        for (size_t b = 0; b < B; ++b) {
          const float* din = dinput.data() + cb.tokens[b] * 2 * hc + hc;
          std::copy(din, din + hc,
                    dh_c.begin() + static_cast<long>(((cb.len - 1) * B + b) *
                                                     hc));
        }
        LstmBackwardBatch(char_bwd_, cb.bwd, dh_c.data(), dpre_cb[bi].data(),
                          dxc_b[bi].data());
      }

      // Replay parameter/embedding accumulation in canonical token
      // order (ascending t), exactly as the unbatched loop did — float
      // accumulation into shared buffers is order-sensitive, and this
      // keeps training byte-identical for every batch_size.
      for (size_t t = 0; t < T; ++t) {
        const auto [bi, col] = sb.char_loc[t];
        if (bi == SIZE_MAX) continue;  // token without characters
        const CharBatch& cb = sb.char_batches[bi];
        const size_t B = cb.tokens.size();
        const size_t n_chars = cb.len;
        LstmAccumulateGrads(cb.fwd, dpre_cf[bi].data(), col, &g_char_fwd);
        LstmAccumulateGrads(cb.bwd, dpre_cb[bi].data(), col, &g_char_bwd);
        for (size_t k = 0; k < n_chars; ++k) {
          auto [it_f, unused2] = g_char_emb.try_emplace(
              char_ids[t][k], std::vector<float>(dc, 0.0f));
          const float* df = dxc_f[bi].data() + (k * B + col) * dc;
          const float* db =
              dxc_b[bi].data() + ((n_chars - 1 - k) * B + col) * dc;
          for (size_t d = 0; d < dc; ++d) {
            // Forward direction saw char k at step k; backward at
            // step n-1-k.
            it_f->second[d] += df[d] + db[d];
          }
        }
      }

      // Test hook: deterministically fake the NaN-gradient failure the
      // clipping guard must catch.
      if (options_.inject_nonfinite_grad_at >= 0 &&
          sgd_step == options_.inject_nonfinite_grad_at) {
        g_out_b[0] = std::numeric_limits<float>::quiet_NaN();
      }
      ++sgd_step;

      // Global-norm gradient clipping.
      double sq = g_char_fwd.SquaredNorm() + g_char_bwd.SquaredNorm() +
                  g_word_fwd.SquaredNorm() + g_word_bwd.SquaredNorm();
      sq += math::kernels::SumSq(g_out_w.data().data(), g_out_w.data().size());
      sq += math::kernels::SumSq(g_out_b.data(), g_out_b.size());
      for (const auto& [id, g] : g_word_emb) {
        sq += math::kernels::SumSq(g.data(), g.size());
      }
      for (const auto& [id, g] : g_char_emb) {
        sq += math::kernels::SumSq(g.data(), g.size());
      }
      double norm = std::sqrt(sq);
      // A non-finite norm would sail through the `norm > clip_norm`
      // comparison (NaN compares false), apply the poisoned gradients
      // at full scale, and destroy the model. Skip the step instead and
      // leave an auditable trace in the metrics.
      if (!std::isfinite(norm)) {
        nonfinite_skips->Increment();
        continue;
      }
      float scale = 1.0f;
      if (norm > options_.clip_norm && norm > 0) {
        scale = static_cast<float>(options_.clip_norm / norm);
      }
      const float step = -options_.learning_rate * scale;

      char_fwd_.AddScaled(step, g_char_fwd);
      char_bwd_.AddScaled(step, g_char_bwd);
      word_fwd_.AddScaled(step, g_word_fwd);
      word_bwd_.AddScaled(step, g_word_bwd);
      out_w_.AddScaled(step, g_out_w);
      math::kernels::Axpy(step, g_out_b.data(), out_b_.data(), L);
      for (const auto& [id, g] : g_word_emb) {
        math::kernels::Axpy(step, g.data(),
                            word_emb_.Row(static_cast<size_t>(id)), dw);
      }
      for (const auto& [id, g] : g_char_emb) {
        math::kernels::Axpy(step, g.data(),
                            char_emb_.Row(static_cast<size_t>(id)), dc);
      }
    }
    final_epoch_loss_ =
        epoch_tokens > 0 ? epoch_loss / static_cast<double>(epoch_tokens) : 0;
    PAE_DCHECK_FINITE(final_epoch_loss_);
    epoch_losses_.push_back(final_epoch_loss_);
  }
  metrics.GetSeries("lstm.epoch_loss")->Extend(epoch_losses_);
  trained_ = true;
  return Status::Ok();
}

std::vector<std::string> BiLstmTagger::Predict(
    const text::LabeledSequence& seq) const {
  return PredictScored(seq).labels;
}

text::SequenceTagger::ScoredPrediction BiLstmTagger::PredictScored(
    const text::LabeledSequence& seq) const {
  return PredictScoredBatch({seq})[0];
}

std::vector<text::SequenceTagger::ScoredPrediction>
BiLstmTagger::PredictScoredBatch(
    const std::vector<text::LabeledSequence>& seqs,
    util::ThreadPool* pool) const {
  const size_t L = labels_.size();
  std::vector<ScoredPrediction> out(seqs.size());

  // Group decodable sentences by exact token count; each group is cut
  // into panels of ≤ batch_size sentences that share one forward pass.
  std::map<size_t, std::vector<size_t>> by_len;
  for (size_t i = 0; i < seqs.size(); ++i) {
    const size_t T = seqs[i].tokens.size();
    if (!trained_ || T == 0) {
      out[i].labels.assign(T, text::kOutsideLabel);
      out[i].confidence.assign(T, 1.0);
    } else {
      by_len[T].push_back(i);
    }
  }

  struct Panel {
    size_t T = 0;
    std::vector<size_t> seq_ids;
  };
  std::vector<Panel> panels;
  const size_t cap =
      options_.batch_size < 1 ? 1 : static_cast<size_t>(options_.batch_size);
  for (const auto& [T, ids] : by_len) {
    for (size_t j = 0; j < ids.size(); j += cap) {
      Panel panel;
      panel.T = T;
      panel.seq_ids.assign(
          ids.begin() + static_cast<long>(j),
          ids.begin() + static_cast<long>(std::min(j + cap, ids.size())));
      panels.push_back(std::move(panel));
    }
  }

  // Each panel writes only its own sentences' output slots, so panels
  // are independent: results are byte-identical for any thread count.
  auto run_panel = [&](size_t pi) {
    const Panel& panel = panels[pi];
    const size_t S = panel.seq_ids.size();
    const size_t T = panel.T;
    std::vector<int> word_ids(S * T);
    std::vector<std::vector<int>> char_ids(S * T);
    for (size_t s = 0; s < S; ++s) {
      const auto& seq = seqs[panel.seq_ids[s]];
      for (size_t t = 0; t < T; ++t) {
        word_ids[s * T + t] = word_vocab_.Lookup(seq.tokens[t]);
        for (const auto& ch : TokenChars(seq.tokens[t])) {
          char_ids[s * T + t].push_back(char_vocab_.Lookup(ch));
        }
      }
    }
    SentenceBatch sb;
    ForwardBatch(word_ids, char_ids, {}, /*training=*/false, S, T, &sb);
    for (size_t s = 0; s < S; ++s) {
      ScoredPrediction& pred = out[panel.seq_ids[s]];
      pred.labels.resize(T);
      pred.confidence.resize(T);
      std::vector<float> probs(L);
      for (size_t t = 0; t < T; ++t) {
        const size_t n = s * T + t;
        probs.assign(sb.logits.begin() + static_cast<long>(n * L),
                     sb.logits.begin() + static_cast<long>((n + 1) * L));
        math::SoftmaxInPlace(&probs);
        size_t best = 0;
        for (size_t y = 1; y < L; ++y) {
          if (probs[y] > probs[best]) best = y;
        }
        pred.labels[t] = labels_[best];
        pred.confidence[t] = probs[best];
      }
    }
  };
  if (pool != nullptr && panels.size() > 1) {
    pool->ParallelFor(0, panels.size(), /*grain=*/1, run_panel);
  } else {
    for (size_t pi = 0; pi < panels.size(); ++pi) run_panel(pi);
  }
  return out;
}

}  // namespace pae::lstm
