// The `.paez` zero-copy model artifact: pack/open round-trips,
// byte-identical inference between the trained in-memory tagger and
// the mmap'ed load (at 1 and 8 threads and on the scalar kernel tier),
// and the zero-copy claim proven through the model.load.bytes_copied
// counter.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/apply.h"
#include "core/bootstrap.h"
#include "core/ingest.h"
#include "core/model_artifact.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "math/kernels.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace pae {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / ("pae_artifact_" + name)).string();
}

/// Restores the dispatched kernel tier on scope exit.
class ScopedIsa {
 public:
  explicit ScopedIsa(math::kernels::Isa isa) { math::kernels::SetIsa(isa); }
  ~ScopedIsa() { math::kernels::SetIsa(math::kernels::BestSupportedIsa()); }
};

/// One bootstrap-trained model + corpus, built once per process: the
/// realistic fixture behind every packed-vs-trained comparison here.
struct TrainedFixture {
  core::ProcessedCorpus corpus;
  std::shared_ptr<crf::CrfTagger> tagger;  // the in-memory original
  std::string paez_path;                   // packed artifact
};

const TrainedFixture& Fixture() {
  static const TrainedFixture* fixture = [] {
    auto* f = new TrainedFixture();
    datagen::GeneratorConfig config;
    config.num_products = 150;
    config.seed = 42;
    auto crawl = datagen::GenerateCategory(
        datagen::CategoryId::kVacuumCleaner, config);
    f->corpus = core::IngestCorpus(crawl.corpus, {}).corpus;

    core::PipelineConfig pipeline_config;
    pipeline_config.iterations = 1;
    pipeline_config.crf.max_iterations = 25;
    pipeline_config.train_final_model = true;
    pipeline_config.seed = 7;
    core::Pipeline pipeline(pipeline_config);
    auto trained = pipeline.Run(f->corpus);
    PAE_CHECK(trained.ok());
    PAE_CHECK(trained.value().final_tagger != nullptr);
    f->tagger = std::dynamic_pointer_cast<crf::CrfTagger>(
        trained.value().final_tagger);
    PAE_CHECK(f->tagger != nullptr);

    f->paez_path = TempPath("fixture.paez");
    PAE_CHECK(core::PackModelArtifact(*f->tagger, f->paez_path).ok());
    return f;
  }();
  return *fixture;
}

/// Opens the fixture artifact and binds a packed tagger to it.
crf::CrfTagger LoadPackedFixture() {
  auto artifact = core::ModelArtifact::Open(Fixture().paez_path);
  PAE_CHECK(artifact.ok()) << artifact.status().ToString();
  auto packed = core::MakePackedCrfModel(std::move(artifact).value());
  PAE_CHECK(packed.ok()) << packed.status().ToString();
  crf::CrfTagger tagger;
  PAE_CHECK(tagger.LoadPacked(std::move(packed).value()).ok());
  return tagger;
}

// ---------------- format round-trip ----------------

TEST(ModelArtifactTest, OpenWithChecksumVerificationSucceeds) {
  core::ModelArtifact::OpenOptions options;
  options.verify_checksums = true;
  auto artifact = core::ModelArtifact::Open(Fixture().paez_path, options);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  const core::ModelArtifact& a = *artifact.value();
  EXPECT_EQ(a.header().flags, core::kPaezFlagCrf);
  const crf::CrfModel& model = Fixture().tagger->model();
  EXPECT_EQ(a.crf_meta().num_labels, model.num_labels());
  EXPECT_EQ(a.crf_meta().num_features, model.num_features());
  EXPECT_EQ(a.crf_meta().weight_count,
            Fixture().tagger->weights_span().size());
  // The weight block is page-aligned so the kernels see the same
  // alignment mmap grants a fresh allocation.
  for (const core::PaezSection& s : a.sections()) {
    if (s.kind == core::kCrfWeights) {
      EXPECT_EQ(s.offset % 4096, 0u);
    }
  }
}

TEST(ModelArtifactTest, PackingAPackedTaggerIsRefused) {
  crf::CrfTagger packed = LoadPackedFixture();
  EXPECT_TRUE(packed.packed());
  const Status status =
      core::PackModelArtifact(packed, TempPath("repack.paez"));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ModelArtifactTest, RepackingALiveArtifactLeavesItsMappingReadable) {
  // pae-serve keeps the artifact it serves mapped. Packing a new model
  // over the same path must not truncate the mapped file: a reader of
  // the old mapping would take SIGBUS past the new end of file.
  const std::string path = TempPath("live.paez");
  ASSERT_TRUE(core::PackModelArtifact(*Fixture().tagger, path).ok());
  auto live = core::ModelArtifact::Open(path);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  crf::CrfTagger tiny;
  text::LabeledSequence seq;
  seq.tokens = {"色", "は", "赤"};
  seq.pos = {"NOUN", "PRT", "NOUN"};
  seq.labels = {text::kOutsideLabel, text::kOutsideLabel, "B-色"};
  ASSERT_TRUE(tiny.Train({seq}).ok());
  ASSERT_TRUE(core::PackModelArtifact(tiny, path).ok());
  auto replaced = core::ModelArtifact::Open(path);
  ASSERT_TRUE(replaced.ok()) << replaced.status().ToString();
  ASSERT_LT(replaced.value()->file_bytes(), live.value()->file_bytes());

  // Read every byte of the old mapping in a child, so a SIGBUS fails
  // this test instead of killing the suite.
  const core::ModelArtifact& old = *live.value();
  EXPECT_EXIT(
      {
        bool intact = true;
        for (const core::PaezSection& s : old.sections()) {
          const uint8_t* data =
              old.SectionData(static_cast<core::PaezSectionKind>(s.kind));
          intact &= core::ArtifactChecksum(data, s.length) == s.checksum;
        }
        std::_Exit(intact ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  std::filesystem::remove(path);
}

// ---------------- packed vs trained equivalence ----------------

TEST(ModelArtifactTest, PackedPredictionsMatchTrainedExactly) {
  const crf::CrfTagger& trained = *Fixture().tagger;
  crf::CrfTagger packed = LoadPackedFixture();

  int compared = 0;
  for (const auto& page : Fixture().corpus.pages) {
    for (const auto& sentence : page.sentences) {
      const auto a = trained.PredictScored(sentence);
      const auto b = packed.PredictScored(sentence);
      EXPECT_EQ(a.labels, b.labels);
      // Same doubles, same arithmetic: bitwise equality, not tolerance.
      EXPECT_EQ(a.confidence, b.confidence);
      if (++compared >= 200) return;
    }
  }
}

// "Formats" here are the two forms of one model: the trained tagger in
// memory and its mmap'ed artifact.
TEST(ModelArtifactTest, TriplesByteIdenticalAcrossFormatsAndThreads) {
  const crf::CrfTagger& trained = *Fixture().tagger;
  crf::CrfTagger packed = LoadPackedFixture();

  core::ApplyOptions options;
  options.threads = 1;
  const std::vector<core::Triple> reference =
      core::ExtractWithModel(trained, Fixture().corpus, options);
  ASSERT_FALSE(reference.empty());

  for (const int threads : {1, 8}) {
    options.threads = threads;
    EXPECT_EQ(core::ExtractWithModel(packed, Fixture().corpus, options),
              reference)
        << "packed triples diverge at threads=" << threads;
    EXPECT_EQ(core::ExtractWithModel(trained, Fixture().corpus, options),
              reference)
        << "trained triples diverge at threads=" << threads;
  }

  // And on the scalar kernel tier (the PAE_SIMD=scalar run of check.sh).
  ScopedIsa scalar(math::kernels::Isa::kScalar);
  options.threads = 8;
  EXPECT_EQ(core::ExtractWithModel(packed, Fixture().corpus, options),
            reference);
}

// ---------------- zero-copy metric proof ----------------

TEST(ModelArtifactTest, PackedLoadCopiesOnlyLabelBytes) {
  util::Counter* copied = util::MetricsRegistry::Global().GetCounter(
      "model.load.bytes_copied");
  int64_t label_bytes = 0;
  for (const std::string& label : Fixture().tagger->model().labels()) {
    label_bytes += static_cast<int64_t>(label.size());
  }
  ASSERT_GT(label_bytes, 0);

  const int64_t before = copied->value();
  {
    crf::CrfTagger packed = LoadPackedFixture();
    EXPECT_FALSE(packed.weights_span().empty());
  }
  // Labels are the single copied piece; the feature table and the
  // weights stay in the mapping. "Zero model-sized allocations" as a
  // counter.
  EXPECT_EQ(copied->value() - before, label_bytes);
}

}  // namespace
}  // namespace pae
