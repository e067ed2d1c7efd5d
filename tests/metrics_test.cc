// Metrics layer: counter/gauge/histogram/series semantics, scoped
// timers, registry identity and reset, JSON run-report shape, and the
// observational guarantee — extraction output is byte-identical with
// metrics enabled or disabled, at any thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/bootstrap.h"
#include "core/ingest.h"
#include "datagen/generator.h"
#include "support/json_checker.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pae::util {
namespace {

/// Restores the global registry's enabled flag on scope exit so tests
/// that flip it cannot poison later tests in the same process.
class EnabledGuard {
 public:
  EnabledGuard() : was_(MetricsRegistry::Global().enabled()) {}
  ~EnabledGuard() { MetricsRegistry::Global().set_enabled(was_); }

 private:
  bool was_;
};

TEST(MetricsTest, CounterAddsAndIncrements) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.counter.a");
  const int64_t before = counter->value();
  counter->Increment();
  counter->Add(41);
  EXPECT_EQ(counter->value(), before + 42);
}

TEST(MetricsTest, GaugeIsLastWriteWins) {
  Gauge* gauge = MetricsRegistry::Global().GetGauge("test.gauge.a");
  gauge->Set(1.5);
  gauge->Set(-2.25);
  EXPECT_EQ(gauge->value(), -2.25);
}

TEST(MetricsTest, HistogramBucketsUseLeSemantics) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test.histogram.le", std::vector<double>{1.0, 2.0, 3.0});
  h->Observe(1.0);  // exactly on a bound lands in that bucket
  h->Observe(1.5);
  h->Observe(3.0);
  h->Observe(4.0);  // past the last bound → overflow
  EXPECT_EQ(h->bucket_counts(), (std::vector<uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 9.5);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 4.0);
}

TEST(MetricsTest, SeriesPreservesOrder) {
  Series* series = MetricsRegistry::Global().GetSeries("test.series.a");
  series->Append(3.0);
  series->Append(1.0);
  series->Extend({2.0, 0.5});
  EXPECT_EQ(series->values(), (std::vector<double>{3.0, 1.0, 2.0, 0.5}));
  EXPECT_EQ(series->size(), 4u);
}

TEST(MetricsTest, ScopedTimerObservesOnceAndOnlyOnce) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test.timer.seconds", DefaultLatencyBoundsSeconds());
  const uint64_t before = h->count();
  ScopedTimer timer(h);
  const double elapsed = timer.Stop();
  EXPECT_GE(elapsed, 0.0);
  EXPECT_EQ(h->count(), before + 1);
  EXPECT_EQ(timer.Stop(), 0.0);  // second Stop is a no-op
  EXPECT_EQ(h->count(), before + 1);
}

TEST(MetricsTest, NullTimerIsInert) {
  ScopedTimer timer(nullptr);
  EXPECT_EQ(timer.Stop(), 0.0);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("test.identity.c"),
            registry.GetCounter("test.identity.c"));
  EXPECT_EQ(registry.GetGauge("test.identity.g"),
            registry.GetGauge("test.identity.g"));
  EXPECT_EQ(registry.GetHistogram("test.identity.h"),
            registry.GetHistogram("test.identity.h"));
  EXPECT_EQ(registry.GetSeries("test.identity.s"),
            registry.GetSeries("test.identity.s"));
}

TEST(MetricsTest, TypeMismatchIsFatal) {
  MetricsRegistry::Global().GetCounter("test.mismatch");
  EXPECT_DEATH(MetricsRegistry::Global().GetGauge("test.mismatch"),
               "different type");
}

TEST(MetricsTest, DisabledRegistryMutationsAreNoOps) {
  EnabledGuard guard;
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.disabled.c");
  Histogram* h = registry.GetHistogram("test.disabled.h");
  Series* series = registry.GetSeries("test.disabled.s");
  registry.set_enabled(false);
  const int64_t counter_before = counter->value();
  counter->Add(100);
  h->Observe(1.0);
  series->Append(1.0);
  {
    ScopedTimer timer(h);  // must not observe either
  }
  EXPECT_EQ(counter->value(), counter_before);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(series->size(), 0u);
}

TEST(MetricsTest, StandaloneRegistryResetsToZero) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(5);
  registry.GetGauge("g")->Set(2.0);
  registry.GetHistogram("h")->Observe(1.0);
  registry.GetSeries("s")->Append(1.0);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("c")->value(), 0);
  EXPECT_EQ(registry.GetGauge("g")->value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("h")->count(), 0u);
  EXPECT_EQ(registry.GetSeries("s")->size(), 0u);
}

TEST(MetricsTest, ConcurrentCounterIncrementsAreExact) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.concurrent.c");
  const int64_t before = counter->value();
  ThreadPool pool(4);
  pool.ParallelFor(0, 10000, 1, [&](size_t) { counter->Increment(); });
  EXPECT_EQ(counter->value(), before + 10000);
}

// ---------------- JSON report ----------------

using support::JsonChecker;

TEST(MetricsTest, JsonReportHasAllTopLevelKeysAndParses) {
  MetricsRegistry registry;
  registry.GetCounter("c.one")->Add(7);
  registry.GetGauge("g.one")->Set(0.5);
  registry.GetHistogram("h.one", {1.0, 10.0})->Observe(2.0);
  registry.GetSeries("s.one")->Extend({1.0, 2.0, 3.0});

  std::ostringstream os;
  registry.Snapshot().WriteJson(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

TEST(MetricsTest, JsonReportEmitsNullForNonFinite) {
  MetricsRegistry registry;
  registry.GetGauge("g.nan")->Set(std::nan(""));
  std::ostringstream os;
  registry.Snapshot().WriteJson(os);
  EXPECT_NE(os.str().find("\"g.nan\": null"), std::string::npos);
  EXPECT_TRUE(JsonChecker(os.str()).Valid()) << os.str();
}

TEST(MetricsTest, EmptyReportIsStillValidJson) {
  MetricsRegistry registry;
  std::ostringstream os;
  registry.Snapshot().WriteJson(os);
  EXPECT_TRUE(JsonChecker(os.str()).Valid()) << os.str();
}

TEST(MetricsTest, PrintSummaryRendersEveryKind) {
  MetricsRegistry registry;
  registry.GetCounter("c.one")->Add(7);
  registry.GetGauge("g.one")->Set(0.5);
  registry.GetHistogram("h.one")->Observe(2.0);
  registry.GetSeries("s.one")->Extend({1.0, 2.0});
  std::ostringstream os;
  registry.Snapshot().PrintSummary(os);
  EXPECT_NE(os.str().find("c.one"), std::string::npos);
  EXPECT_NE(os.str().find("g.one"), std::string::npos);
  EXPECT_NE(os.str().find("h.one"), std::string::npos);
  EXPECT_NE(os.str().find("s.one"), std::string::npos);
}

// ---------------- observational guarantee ----------------

std::vector<core::Triple> RunSmallPipeline(int threads) {
  datagen::GeneratorConfig generator_config;
  generator_config.num_products = 40;
  generator_config.seed = 13;
  datagen::GeneratedCategory generated = datagen::GenerateCategory(
      datagen::CategoryId::kVacuumCleaner, generator_config);
  core::ProcessedCorpus corpus =
      core::IngestCorpus(generated.corpus, {threads}).corpus;

  core::PipelineConfig config;
  config.model = core::ModelType::kCrf;
  config.iterations = 2;
  config.crf.max_iterations = 15;
  config.threads = threads;
  config.seed = 5;
  core::Pipeline pipeline(config);
  auto result = pipeline.Run(corpus);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  return result.value().final_triples();
}

TEST(MetricsTest, ExtractionIsIdenticalWithMetricsOnOrOff) {
  EnabledGuard guard;
  MetricsRegistry::Global().set_enabled(true);
  const std::vector<core::Triple> with_metrics = RunSmallPipeline(1);
  MetricsRegistry::Global().set_enabled(false);
  const std::vector<core::Triple> without_metrics = RunSmallPipeline(1);
  const std::vector<core::Triple> without_metrics_mt = RunSmallPipeline(4);
  ASSERT_FALSE(with_metrics.empty());
  EXPECT_EQ(with_metrics, without_metrics);
  EXPECT_EQ(with_metrics, without_metrics_mt);
}

TEST(MetricsTest, PipelineFillsCoreMetrics) {
  EnabledGuard guard;
  MetricsRegistry::Global().set_enabled(true);
  RunSmallPipeline(2);
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_GT(registry.GetCounter("preprocess.pages")->value(), 0);
  EXPECT_GT(registry.GetCounter("seed.pairs")->value(), 0);
  EXPECT_GT(registry.GetCounter("crf.trainings")->value(), 0);
  EXPECT_GT(registry.GetCounter("cleaning.input")->value(), 0);
  EXPECT_GT(registry.GetCounter("threadpool.jobs")->value(), 0);
  EXPECT_GE(registry.GetSeries("bootstrap.triples_total")->size(), 2u);
  EXPECT_GT(registry.GetSeries("crf.objective")->size(), 0u);
  EXPECT_GT(registry.GetHistogram("bootstrap.seconds")->count(), 0u);
}

}  // namespace
}  // namespace pae::util
