#include "workloads.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/apply.h"
#include "core/bootstrap.h"
#include "core/corpus_io.h"
#include "core/engine.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "core/model_artifact.h"
#include "core/preprocess.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "html/parser.h"
#include "math/kernels.h"
#include "openloop.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "stats.h"
#include "text/negation.h"
#include "text/pos_tagger.h"
#include "text/sentence.h"
#include "text/tokenizer.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using pae::Result;
using pae::Status;
using pae::core::ExtractionEngine;
using pae::core::Triple;
using EnginePtr = std::shared_ptr<const ExtractionEngine>;

// Quality floors, set well below EXPERIMENTS.md (vacuum CRF after five
// cycles: 88.4% precision; mailbox 94.4% / 80.0%) so they catch broken
// output, not seed-to-seed noise.
constexpr double kPrecisionFloorPct = 60;
constexpr double kCoverageFloorPct = 30;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Checksum(const std::vector<Triple>& triples) {
  uint64_t sum = 0;
  for (const Triple& t : triples) sum += pae::serve::TripleHash(t);
  return sum;
}

std::string Hex(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

std::string Fmt(double v, int digits = 3) { return pae::FormatDouble(v, digits); }

std::string Serialize(const std::vector<Triple>& triples) {
  std::string out;
  for (const Triple& t : triples) {
    out += t.product_id + '\t' + t.attribute + '\t' + t.value + '\n';
  }
  return out;
}

/// NURand page popularity (TPC-C's skew, as pae-loadgen uses it).
std::vector<uint32_t> MakeSchedule(uint64_t seed, size_t requests,
                                   size_t pages) {
  pae::Rng rng(seed);
  uint64_t a = 1;
  while (a < pages - 1) a = a * 2 + 1;
  const uint64_t c = rng.NextBounded(pages);
  std::vector<uint32_t> schedule(requests);
  for (uint32_t& page : schedule) {
    page = static_cast<uint32_t>(pae::serve::NURand(a, c, pages, rng));
  }
  return schedule;
}

/// Every page once per sweep, in one seeded order, repeated: capacity is
/// then the mean over all held-out pages, not over the few hot pages a
/// skewed schedule draws, which differ from seed to seed.
std::vector<uint32_t> MakeSweep(uint64_t seed, size_t requests, size_t pages) {
  std::vector<uint32_t> order(pages);
  std::iota(order.begin(), order.end(), 0u);
  pae::Rng rng(seed);
  rng.Shuffle(&order);
  std::vector<uint32_t> schedule(requests);
  for (size_t i = 0; i < requests; ++i) schedule[i] = order[i % pages];
  return schedule;
}

pae::util::RunReport Registry() {
  return pae::util::MetricsRegistry::Global().Snapshot();
}

double HistSum(const pae::util::RunReport& r, const std::string& name) {
  auto it = r.histograms.find(name);
  return it == r.histograms.end() ? 0 : it->second.sum;
}

double HistMean(const pae::util::RunReport& r, const std::string& name) {
  auto it = r.histograms.find(name);
  if (it == r.histograms.end() || it->second.count == 0) return 0;
  return it->second.sum / static_cast<double>(it->second.count);
}

double SeriesSum(const pae::util::RunReport& r, const std::string& name) {
  auto it = r.series.find(name);
  if (it == r.series.end()) return 0;
  return std::accumulate(it->second.begin(), it->second.end(), 0.0);
}

double CounterValue(const pae::util::RunReport& r, const std::string& name) {
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : static_cast<double>(it->second);
}

void ResetRegistry() { pae::util::MetricsRegistry::Global().Reset(); }

void Problem(RunResult* r, const std::string& what) {
  r->correct = false;
  r->problems.push_back(what);
}

Status WriteCategory(const pae::datagen::GeneratedCategory& category,
                     const std::string& dir) {
  PAE_RETURN_IF_ERROR(pae::core::SaveCorpus(category.corpus, dir));
  return pae::core::SaveTruth(category.truth, dir);
}

pae::datagen::GeneratedCategory Generate(const WorkloadPlan& plan,
                                         int products, uint64_t seed) {
  pae::datagen::GeneratorConfig config;
  config.num_products = products;
  config.seed = seed;
  return pae::datagen::GenerateCategory(plan.category, config);
}

/// Datagen seed of training crawl `c` (crawl 0 uses plan.train_seed).
uint64_t CorpusSeed(const WorkloadPlan& plan, size_t c) {
  return c == 0 ? plan.train_seed : Mix(plan.train_seed, c);
}

/// The paper's Fig. 1 configuration: CRF, five Tagger–Cleaner cycles,
/// syntactic + semantic cleaning on (the PipelineConfig defaults).
pae::core::PipelineConfig BootstrapConfig(int threads) {
  pae::core::PipelineConfig config;
  config.threads = threads;
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Bootstraps a model on `train_dir` and packs it as a `.paez` with its
/// known-values list.
Status TrainAndPack(const std::string& train_dir,
                    const std::string& model_path, int threads) {
  pae::core::IngestOptions ingest;
  ingest.threads = threads;
  auto ingested = pae::core::IngestCorpusDir(train_dir, ingest);
  if (!ingested.ok()) return ingested.status();
  pae::core::PipelineConfig config = BootstrapConfig(threads);
  config.train_final_model = true;
  auto result = pae::core::Pipeline(config).Run(ingested.value());
  if (!result.ok()) return result.status();
  auto* crf = dynamic_cast<pae::crf::CrfTagger*>(
      result.value().final_tagger.get());
  if (crf == nullptr) return Status::Internal("final model is not a CRF");
  PAE_RETURN_IF_ERROR(
      pae::core::PackModelArtifact(*crf, nullptr, {}, model_path));
  std::ofstream pairs(model_path + ".pairs", std::ios::trunc);
  for (const std::string& key : result.value().known_pair_keys) {
    pairs << key << "\n";
  }
  pairs.flush();
  if (!pairs) return Status::Internal("cannot write " + model_path + ".pairs");
  return Status::Ok();
}

/// TrainAndPack in a child process, then loads the model the way
/// pae-serve does. Training runs apart from the workload process, as an
/// operator trains before deploying, so its memory stays out of the
/// peak_rss_mb of the apply and serving workloads. Call it only while
/// the benchmark runs no other thread.
Result<EnginePtr> TrainAndLoadModel(const std::string& train_dir,
                                    const std::string& model_path,
                                    int threads) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork: " + pae::ErrnoString(errno));
  if (pid == 0) {
    const Status trained = TrainAndPack(train_dir, model_path, threads);
    if (!trained.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", trained.ToString().c_str());
    }
    std::_Exit(trained.ok() ? 0 : 1);  // skips the parent's atexit and stdio
  }
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0) {
    if (errno != EINTR) return Status::Internal("waitpid: " + pae::ErrnoString(errno));
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("model training failed in the set-up process");
  }
  return pae::core::LoadCrfEngine(model_path, train_dir,
                                  pae::core::EngineOptions{});
}

/// Runs `setup` plan.setup_repeats times, each in a fresh directory, and
/// returns the median wall time. The last repetition's state is the one
/// the workload uses; `fingerprint` (when set) must read the same after
/// every repetition, since set-up is deterministic in the seed.
Result<double> RepeatSetup(const WorkloadPlan& plan,
                           const std::string& work_dir,
                           const std::function<Status(const std::string&)>& setup,
                           const std::function<std::string()>& fingerprint,
                           RunResult* r) {
  std::vector<double> times;
  std::string first;
  for (int k = 0; k < plan.setup_repeats; ++k) {
    const std::string dir = work_dir + "/setup" + std::to_string(k);
    std::filesystem::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    PAE_RETURN_IF_ERROR(setup(dir));
    times.push_back(SecondsSince(t0));
    if (fingerprint) {
      const std::string print = fingerprint();
      if (k == 0) first = print;
      if (print != first) {
        Problem(r, "set-up is not deterministic: repetition " +
                       std::to_string(k) + " produced a different model");
      }
    }
  }
  std::string line = "setup_s repetitions:";
  for (double t : times) {
    line += ' ';
    line += Fmt(t);
  }
  r->report.push_back(line);
  return Median(times);
}

void CheckQuality(const std::string& what, const pae::core::TripleMetrics& m,
                  RunResult* r) {
  r->metrics["precision_pct"] = m.precision;
  r->metrics["coverage_pct"] = m.coverage;
  r->report.push_back(what + ": precision_pct = " + Fmt(m.precision, 2) +
                      " %  coverage_pct = " + Fmt(m.coverage, 2) +
                      " %  (EvaluateTriples: correct=" +
                      std::to_string(m.correct) +
                      " incorrect=" + std::to_string(m.incorrect) +
                      " maybe=" + std::to_string(m.maybe_incorrect) + ")");
  if (m.precision < kPrecisionFloorPct) {
    Problem(r, what + " precision " + Fmt(m.precision, 2) +
                   "% is below the floor " + Fmt(kPrecisionFloorPct, 0) + "%");
  }
  if (m.coverage < kCoverageFloorPct) {
    Problem(r, what + " coverage " + Fmt(m.coverage, 2) +
                   "% is below the floor " + Fmt(kCoverageFloorPct, 0) + "%");
  }
}

/// Runs `job` until `budget_s` has elapsed (at least once), and returns
/// each run's wall time.
std::vector<double> RepeatFor(double budget_s,
                              const std::function<Result<double>()>& job,
                              RunResult* r) {
  std::vector<double> walls;
  const Clock::time_point t0 = Clock::now();
  do {
    Result<double> wall = job();
    ++r->attempted;
    if (!wall.ok()) {
      ++r->failed;
      Problem(r, wall.status().ToString());
      break;
    }
    walls.push_back(wall.value());
  } while (SecondsSince(t0) < budget_s);
  return walls;
}

/// pages_per_s and latency_p50_ms of a batch workload from per-job wall
/// times: a page's triples exist when its batch returns, so its latency
/// is the job's time.
void SetJobMetrics(const std::vector<double>& walls, double pages,
                   const std::string& label, const std::string& rate_name,
                   RunResult* r) {
  const double median = Median(walls);
  r->metrics["pages_per_s"] = pages / median;
  r->metrics["latency_p50_ms"] = median * 1e3;
  r->report.push_back(label + " = " + Fmt(median) + " s (median of " +
                      std::to_string(walls.size()) + ", max " +
                      Fmt(*std::max_element(walls.begin(), walls.end())) +
                      " s); " + rate_name + " = " + Fmt(pages / median, 1) +
                      " 1/s");
}

double OverheadPct(double traced, double untraced) {
  return untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0;
}

// ---------------------------------------------------------------- bootstrap

RunResult RunBootstrap(const WorkloadPlan& plan, bool trace,
                       const std::string& work_dir, Tracer* tracer) {
  RunResult r;
  // Several crawls, timed in whole rotations (each crawl once per
  // rotation), so every run weighs the same inputs equally, whatever its
  // speed, rather than one corpus's convergence.
  const size_t n_corpora = static_cast<size_t>(plan.corpora);
  std::vector<std::string> corpus_dirs(n_corpora);
  std::vector<pae::core::TruthSample> truths(n_corpora);
  const size_t pages = static_cast<size_t>(plan.train_products);
  Result<double> setup = RepeatSetup(
      plan, work_dir,
      [&](const std::string& dir) {
        for (size_t c = 0; c < n_corpora; ++c) {
          pae::datagen::GeneratedCategory category =
              Generate(plan, plan.train_products, CorpusSeed(plan, c));
          corpus_dirs[c] = dir + "/corpus" + std::to_string(c);
          PAE_RETURN_IF_ERROR(WriteCategory(category, corpus_dirs[c]));
          truths[c] = std::move(category.truth);
        }
        return Status::Ok();
      },
      nullptr, &r);
  if (!setup.ok()) {
    Problem(&r, setup.status().ToString());
    return r;
  }
  r.metrics["setup_s"] = setup.value();

  const pae::core::PipelineConfig config = BootstrapConfig(plan.threads);
  std::vector<std::vector<Triple>> reference(n_corpora);
  pae::core::IngestedCorpus traced_ingest;
  // Timed from IngestCorpusDir to Pipeline::Run returning.
  auto bootstrap = [&](size_t c, Tracer* tr) -> Result<double> {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan root(tr, "bootstrap");
    ScopedSpan ingest_span(tr, "core.ingest", root.id());
    pae::core::IngestOptions ingest;
    ingest.threads = plan.threads;
    auto ingested = pae::core::IngestCorpusDir(corpus_dirs[c], ingest);
    ingest_span.End();
    if (!ingested.ok()) return ingested.status();
    ScopedSpan run_span(tr, "core.bootstrap", root.id());
    auto result = pae::core::Pipeline(config).Run(ingested.value());
    run_span.End();
    root.End();
    const double wall = SecondsSince(t0);
    if (!result.ok()) return result.status();
    const std::vector<Triple>& triples = result.value().final_triples();
    if (reference[c].empty()) {
      reference[c] = triples;
    } else if (triples != reference[c]) {
      Problem(&r, "bootstrap output differs between repetitions");
    }
    if (tr != nullptr) traced_ingest = std::move(ingested).value();
    return wall;
  };

  // A rotation starts only when the last one's length still fits in the
  // budget; there is always at least one. A crawl's time is its median
  // over the rotations, and the figure is the mean over the crawls, so
  // every crawl weighs the same however many rotations fit.
  const double budget_s = trace ? plan.seconds / 2 : plan.seconds;
  const Clock::time_point start = Clock::now();
  std::vector<std::vector<double>> crawl_walls(n_corpora);
  size_t rotations = 0;
  for (;;) {
    double rotation_s = 0;
    for (size_t c = 0; c < n_corpora; ++c) {
      Result<double> wall = bootstrap(c, nullptr);
      ++r.attempted;
      if (!wall.ok()) {
        ++r.failed;
        Problem(&r, wall.status().ToString());
        return r;
      }
      crawl_walls[c].push_back(wall.value());
      rotation_s += wall.value();
    }
    ++rotations;
    if (SecondsSince(start) + rotation_s > budget_s) break;
  }
  double crawl_s = 0;
  std::string per_crawl;
  for (const std::vector<double>& walls : crawl_walls) {
    crawl_s += Median(walls) / static_cast<double>(n_corpora);
    per_crawl += ' ' + Fmt(Median(walls));
  }
  r.metrics["pages_per_s"] = static_cast<double>(pages) / crawl_s;
  r.metrics["latency_p50_ms"] = crawl_s * 1e3;
  r.report.push_back(
      "bootstrap_s per crawl = " + Fmt(crawl_s) + " s (mean over " +
      std::to_string(n_corpora) + " crawls of " + std::to_string(pages) +
      " pages of each crawl's median over " + std::to_string(rotations) +
      " rotations, " + std::to_string(plan.threads) + " threads; crawls:" +
      per_crawl + " s); pages_per_s = " +
      Fmt(static_cast<double>(pages) / crawl_s, 1) + " 1/s");
  uint64_t checksum = 0;
  pae::core::TripleMetrics quality;
  for (size_t c = 0; c < n_corpora; ++c) {
    checksum += Checksum(reference[c]);
    const pae::core::TripleMetrics m =
        pae::core::EvaluateTriples(reference[c], truths[c], pages);
    quality.correct += m.correct;
    quality.incorrect += m.incorrect;
    quality.maybe_incorrect += m.maybe_incorrect;
    quality.precision += m.precision / static_cast<double>(n_corpora);
    quality.coverage += m.coverage / static_cast<double>(n_corpora);
  }
  r.report.push_back("output checksum = " + Hex(checksum));
  CheckQuality("bootstrap_ja (mean over crawls)", quality, &r);

  if (!trace) return r;
  ResetRegistry();
  Result<double> traced = bootstrap(0, tracer);
  ++r.attempted;
  if (!traced.ok()) {
    ++r.failed;
    Problem(&r, traced.status().ToString());
    return r;
  }
  const pae::util::RunReport reg = Registry();
  double seed_s = 0;
  {
    ScopedSpan seed_span(tracer, "core.seed");
    const Clock::time_point t0 = Clock::now();
    pae::core::Seed seed = pae::core::BuildSeedFromCandidates(
        traced_ingest.corpus, traced_ingest.candidates, config.preprocess);
    seed_s = SecondsSince(t0);
    if (seed.pairs.empty()) Problem(&r, "seed replay produced no pairs");
  }
  const auto spans = tracer->Totals();
  const double wall = traced.value();
  const double ingest_s = spans.at("core.ingest").total_s;
  const double ds_s = HistSum(reg, "bootstrap.ds.seconds");
  const double train_s = HistSum(reg, "crf.train.seconds");
  const double tag_s = HistSum(reg, "bootstrap.tag.seconds");
  const double clean_s = HistSum(reg, "bootstrap.clean.seconds");
  const double other_s = wall - ingest_s - seed_s - ds_s - train_s - tag_s - clean_s;
  auto& m = r.metrics;
  m["core.ingest.s"] = ingest_s;
  m["core.ingest.pages_per_s"] = static_cast<double>(pages) / ingest_s;
  m["crf.train.s"] = train_s;
  m["crf.lbfgs_iters"] = SeriesSum(reg, "crf.iterations");
  m["core.bootstrap.tag.s"] = tag_s;
  m["core.bootstrap.ds.s"] = ds_s;
  m["core.seed.s"] = seed_s;
  m["core.bootstrap.other.s"] = other_s;
  m["util.threadpool.busy_ratio"] =
      CounterValue(reg, "threadpool.busy_nanos") / (wall * 1e9 * plan.threads);
  m["core.cleaning.s"] = clean_s;
  m["embed.train.s"] = HistSum(reg, "embed.train.seconds");
  const double candidates = SeriesSum(reg, "bootstrap.candidates");
  m["core.cleaning.accept_ratio"] =
      candidates > 0 ? SeriesSum(reg, "bootstrap.accepted") / candidates : 0;
  m["trace.overhead_pct"] = OverheadPct(wall, Median(crawl_walls[0]));
  r.report.push_back(
      "stages (s): ingest=" + Fmt(ingest_s) + " seed=" + Fmt(seed_s) +
      " ds=" + Fmt(ds_s) + " crf.train=" + Fmt(train_s) + " tag=" +
      Fmt(tag_s) + " cleaning=" + Fmt(clean_s) + " (embed " +
      Fmt(m["embed.train.s"]) + ") core.bootstrap.other.s=" + Fmt(other_s) +
      " of " + Fmt(wall));
  if (other_s < -0.02 * wall) {
    Problem(&r, "bootstrap stages add up to more than its wall time (" +
                    Fmt(wall - other_s) + " s > " + Fmt(wall) + " s)");
  }
  return r;
}

// -------------------------------------------------------------------- apply

RunResult RunApply(const WorkloadPlan& plan, bool trace,
                   const std::string& work_dir, Tracer* tracer) {
  RunResult r;
  std::string heldout_dir;
  std::string model_path;
  pae::core::TruthSample truth;
  EnginePtr engine;
  Result<double> setup = RepeatSetup(
      plan, work_dir,
      [&](const std::string& dir) {
        engine.reset();
        const std::string train_dir = dir + "/train";
        heldout_dir = dir + "/heldout";
        model_path = dir + "/model.paez";
        PAE_RETURN_IF_ERROR(WriteCategory(
            Generate(plan, plan.train_products, plan.train_seed), train_dir));
        pae::datagen::GeneratedCategory heldout =
            Generate(plan, plan.heldout_products, plan.heldout_seed);
        PAE_RETURN_IF_ERROR(WriteCategory(heldout, heldout_dir));
        truth = std::move(heldout.truth);
        auto loaded = TrainAndLoadModel(train_dir, model_path, plan.threads);
        if (!loaded.ok()) return loaded.status();
        engine = loaded.value();
        return Status::Ok();
      },
      [&] { return ReadFile(model_path); }, &r);
  if (!setup.ok()) {
    Problem(&r, setup.status().ToString());
    return r;
  }
  r.metrics["setup_s"] = setup.value();

  // Production apply: veto rules on, known catalog values, plan threads.
  pae::core::ApplyOptions apply;
  apply.threads = plan.threads;
  apply.accepted_pairs = engine->options().accepted_pairs;
  size_t pages = 0;
  std::vector<Triple> reference;
  auto pass = [&](Tracer* tr, pae::core::ApplyOptions options,
                  std::vector<Triple>* out) -> Result<double> {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan root(tr, "apply");
    ScopedSpan ingest_span(tr, "core.ingest", root.id());
    pae::core::IngestOptions ingest;
    ingest.threads = plan.threads;
    auto ingested = pae::core::IngestCorpusDir(heldout_dir, ingest);
    ingest_span.End();
    if (!ingested.ok()) return ingested.status();
    ScopedSpan apply_span(tr, "core.apply", root.id());
    std::vector<Triple> triples = pae::core::ExtractWithModel(
        engine->tagger(), ingested.value().corpus, options);
    apply_span.End();
    root.End();
    const double wall = SecondsSince(t0);
    pages = ingested.value().corpus.pages.size();
    if (out->empty()) {
      *out = std::move(triples);
    } else if (triples != *out) {
      Problem(&r, "apply output differs between repetitions");
    }
    return wall;
  };

  const std::vector<double> walls =
      RepeatFor(trace ? plan.seconds / 2 : plan.seconds,
                [&] { return pass(nullptr, apply, &reference); }, &r);
  if (walls.empty()) return r;
  r.attempted = r.attempted * static_cast<int64_t>(pages);
  r.failed = r.failed * static_cast<int64_t>(pages);
  SetJobMetrics(walls, static_cast<double>(pages),
                "apply pass (" + std::to_string(pages) + " pages, " +
                    std::to_string(plan.threads) + " threads)",
                "apply_pages_per_s", &r);
  r.report.push_back("output checksum = " + Hex(Checksum(reference)) + " (" +
                     std::to_string(reference.size()) + " triples)");
  CheckQuality("apply_de", pae::core::EvaluateTriples(reference, truth, pages),
               &r);

  // Oracle (engine.h contract): veto off == the engine's per-page Extract
  // concatenated in page order; the veto-on output is a subset of it.
  {
    pae::core::ApplyOptions no_veto = apply;
    no_veto.veto_rules = false;
    std::vector<Triple> unvetoed;
    Result<double> unvetoed_pass = pass(nullptr, no_veto, &unvetoed);
    auto corpus = pae::core::LoadCorpus(heldout_dir);
    if (!unvetoed_pass.ok() || !corpus.ok()) {
      Problem(&r, "apply oracle could not run");
      return r;
    }
    std::vector<Triple> per_page;
    auto scratch = ExtractionEngine::NewScratch();
    for (const auto& page : corpus.value().pages) {
      for (Triple& t : engine->Extract(page.product_id, page.html, scratch.get())) {
        per_page.push_back(std::move(t));
      }
    }
    if (Serialize(per_page) != Serialize(unvetoed)) {
      Problem(&r, "ExtractWithModel (veto off) differs from per-page "
                  "ExtractionEngine::Extract");
    }
    std::unordered_map<std::string, int> pool;
    for (const Triple& t : unvetoed) ++pool[Serialize({t})];
    for (const Triple& t : reference) {
      if (--pool[Serialize({t})] < 0) {
        Problem(&r, "veto-on output is not a subset of the veto-off output");
        break;
      }
    }
    r.report.push_back("oracle: veto-off " + std::to_string(unvetoed.size()) +
                       " triples == per-page engine " +
                       std::to_string(per_page.size()) + "; veto-on " +
                       std::to_string(reference.size()) + " ⊆ veto-off");
  }

  if (!trace) return r;
  ResetRegistry();
  pae::core::ApplyStats stats;
  pae::core::ApplyOptions traced_options = apply;
  traced_options.stats = &stats;
  std::vector<Triple> traced_out;
  Result<double> traced = pass(tracer, traced_options, &traced_out);
  r.attempted += static_cast<int64_t>(pages);
  if (!traced.ok()) {
    r.failed += static_cast<int64_t>(pages);
    Problem(&r, traced.status().ToString());
    return r;
  }
  if (traced_out != reference) Problem(&r, "traced apply output differs");
  const pae::util::RunReport reg = Registry();
  const auto spans = tracer->Totals();
  const double wall = traced.value();
  const double ingest_s = spans.at("core.ingest").total_s;
  const double apply_s = spans.at("core.apply").total_s;
  auto& m = r.metrics;
  m["core.ingest.s"] = ingest_s;
  m["core.ingest.pages_per_s"] = static_cast<double>(pages) / ingest_s;
  m["core.apply.s"] = apply_s;
  m["core.apply.sentences_per_s"] = static_cast<double>(stats.sentences) / apply_s;
  m["core.apply.triples_per_span"] =
      stats.spans > 0 ? static_cast<double>(stats.triples) /
                            static_cast<double>(stats.spans)
                      : 0;
  m["util.threadpool.busy_ratio"] =
      CounterValue(reg, "threadpool.busy_nanos") / (wall * 1e9 * plan.threads);
  m["trace.overhead_pct"] = OverheadPct(wall, Median(walls));
  const double other = wall - ingest_s - apply_s;
  r.report.push_back("stages (s): ingest=" + Fmt(ingest_s) + " apply=" +
                     Fmt(apply_s) + " other=" + Fmt(other) + " of " + Fmt(wall));
  return r;
}

// ------------------------------------------------------------------ serving

struct ServedResponse {
  uint64_t generation = 0;
  std::string bytes;
};

struct Phase {
  double rate = 0;
  std::vector<uint32_t> pages;
  std::vector<ServedResponse> responses;
  OpenLoopOptions options;
  OpenLoopResult result;
  pae::util::RunReport registry;
};

/// Republishes the served model at a fixed interval while a phase runs,
/// through LoadCrfEngine + Server::Publish, and keeps every generation's
/// engine for the response oracle.
class Publisher {
 public:
  Publisher(pae::serve::Server* server, std::string model_path,
            std::string resources_dir, double interval_s)
      : server_(server),
        model_path_(std::move(model_path)),
        resources_dir_(std::move(resources_dir)),
        interval_(interval_s) {}
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  /// Loads the model afresh and installs it as a new generation; the
  /// recorded time covers both, the whole cost of one hot swap.
  Status PublishNow(Tracer* tracer) {
    ScopedSpan span(tracer, "serve.publish");
    const Clock::time_point t0 = Clock::now();
    ScopedSpan load_span(tracer, "core.load_engine", span.id());
    auto engine = pae::core::LoadCrfEngine(model_path_, resources_dir_,
                                           pae::core::EngineOptions{});
    load_span.End();
    if (!engine.ok()) return engine.status();
    const uint64_t generation = server_->Publish(engine.value());
    const double ms = SecondsSince(t0) * 1e3;
    span.End();
    pae::util::MutexLock lock(mutex_);
    publish_ms_.push_back(ms);
    engines_[generation] = engine.value();
    return Status::Ok();
  }

  /// Runs `phase` with republishing alongside it.
  void RunAlongside(const std::function<void()>& phase, Tracer* tracer) {
    std::atomic<bool> stop{false};
    Status status = Status::Ok();
    std::thread publisher([&] {
      const auto interval = std::chrono::duration<double>(interval_);
      Clock::time_point next = Clock::now() + std::chrono::duration_cast<
                                                  Clock::duration>(interval);
      while (!stop.load(std::memory_order_relaxed)) {
        if (Clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        next += std::chrono::duration_cast<Clock::duration>(interval);
        Status published = PublishNow(tracer);
        if (!published.ok()) status = published;
      }
    });
    phase();
    stop.store(true, std::memory_order_relaxed);
    publisher.join();
    if (!status.ok()) failures_.push_back(status.ToString());
  }

  EnginePtr Engine(uint64_t generation) const {
    pae::util::MutexLock lock(mutex_);
    auto it = engines_.find(generation);
    return it == engines_.end() ? nullptr : it->second;
  }
  std::vector<double> PublishMs() const {
    pae::util::MutexLock lock(mutex_);
    return publish_ms_;
  }
  size_t Generations() const {
    pae::util::MutexLock lock(mutex_);
    return engines_.size();
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  pae::serve::Server* server_;
  const std::string model_path_;
  const std::string resources_dir_;
  const double interval_;
  mutable pae::util::Mutex mutex_;
  std::map<uint64_t, EnginePtr> engines_ PAE_GUARDED_BY(mutex_);
  std::vector<double> publish_ms_ PAE_GUARDED_BY(mutex_);
  std::vector<std::string> failures_;
};

/// Engine stage times from replaying the public calls Extract makes.
struct StageTimes {
  double parse_s = 0;
  double segment_s = 0;
  double negation_s = 0;
  double predict_s = 0;
  int64_t sentences = 0;
};

StageTimes ReplayEngineStages(const std::string& html,
                              const ExtractionEngine& engine,
                              const pae::text::Tokenizer& tokenizer,
                              const pae::text::PosTagger& pos,
                              const pae::text::NegationDetector& negation,
                              Tracer* tracer, int64_t request) {
  StageTimes t;
  ScopedSpan root(tracer, "core.engine.replay", 0, request);
  Clock::time_point t0 = Clock::now();
  ScopedSpan parse_span(tracer, "html.parse", root.id(), request);
  std::unique_ptr<pae::html::HtmlNode> dom = pae::html::ParseHtml(html);
  const std::string raw_text = pae::html::ExtractText(*dom);
  parse_span.End();
  t.parse_s = SecondsSince(t0);

  t0 = Clock::now();
  ScopedSpan segment_span(tracer, "text.segment", root.id(), request);
  std::vector<pae::text::LabeledSequence> sentences;
  for (const std::string& sentence : pae::text::SplitSentences(raw_text)) {
    std::vector<std::string> tokens = tokenizer.Tokenize(sentence);
    if (tokens.empty()) continue;
    pae::text::LabeledSequence seq;
    seq.tokens = std::move(tokens);
    seq.pos = pos.Tag(seq.tokens);
    seq.sentence_index = static_cast<int>(sentences.size());
    sentences.push_back(std::move(seq));
  }
  segment_span.End();
  t.segment_s = SecondsSince(t0);
  t.sentences = static_cast<int64_t>(sentences.size());

  t0 = Clock::now();
  ScopedSpan negation_span(tracer, "text.negation", root.id(), request);
  std::vector<bool> negated(sentences.size());
  const bool filter = engine.options().negation_filtering;
  for (size_t i = 0; i < sentences.size(); ++i) {
    negated[i] = filter && negation.IsNegated(sentences[i].tokens);
  }
  negation_span.End();
  t.negation_s = SecondsSince(t0);

  t0 = Clock::now();
  ScopedSpan predict_span(tracer, "crf.predict", root.id(), request);
  for (size_t i = 0; i < sentences.size(); ++i) {
    if (!negated[i]) engine.tagger().PredictScored(sentences[i]);
  }
  predict_span.End();
  t.predict_s = SecondsSince(t0);
  return t;
}

RunResult RunServe(const WorkloadPlan& plan, bool trace,
                   const std::string& work_dir, Tracer* tracer) {
  RunResult r;
  std::string train_dir;
  std::string model_path;
  pae::datagen::GeneratedCategory heldout;
  EnginePtr engine;
  Result<double> setup = RepeatSetup(
      plan, work_dir,
      [&](const std::string& dir) {
        engine.reset();
        train_dir = dir + "/train";
        model_path = dir + "/model.paez";
        PAE_RETURN_IF_ERROR(WriteCategory(
            Generate(plan, plan.train_products, plan.train_seed), train_dir));
        heldout = Generate(plan, plan.heldout_products, plan.heldout_seed);
        auto loaded = TrainAndLoadModel(train_dir, model_path, plan.threads);
        if (!loaded.ok()) return loaded.status();
        engine = loaded.value();
        return Status::Ok();
      },
      [&] { return ReadFile(model_path); }, &r);
  if (!setup.ok()) {
    Problem(&r, setup.status().ToString());
    return r;
  }
  r.metrics["setup_s"] = setup.value();
  const auto& pages = heldout.corpus.pages;

  pae::serve::ServerOptions server_options;
  const bool unix_socket = plan.transport == "unix";
  if (unix_socket) {
    server_options.unix_path = work_dir + "/pae.sock";
  } else {
    server_options.tcp_port = 0;
  }
  server_options.workers = plan.server_workers;
  pae::serve::Server server(server_options);
  Status started = server.Start();
  if (!started.ok()) {
    Problem(&r, started.ToString());
    return r;
  }
  Publisher publisher(&server, model_path, train_dir,
                      plan.publish_interval_seconds);
  Status first = publisher.PublishNow(nullptr);
  if (!first.ok()) {
    server.Stop();
    Problem(&r, first.ToString());
    return r;
  }

  // Oracle, run after each phase and outside its timed region: every
  // response byte-equals in-process Extract on the same page with the
  // same generation's engine. A wrong answer fails its request, so the
  // phase is re-tallied (it then misses the limit and leaves the
  // throughput) before the phase's SLO verdict.
  std::map<std::pair<uint32_t, uint64_t>, std::pair<std::string, uint64_t>>
      expected;
  auto scratch = ExtractionEngine::NewScratch();
  size_t wrong = 0;
  auto verify = [&](Phase& phase) {
    size_t wrong_here = 0;
    for (size_t i = 0; i < phase.pages.size(); ++i) {
      RequestRecord& rec = phase.result.records[i];
      if (!rec.ok) continue;
      const ServedResponse& got = phase.responses[i];
      auto key = std::make_pair(phase.pages[i], got.generation);
      auto it = expected.find(key);
      if (it == expected.end()) {
        EnginePtr gen_engine = publisher.Engine(got.generation);
        std::pair<std::string, uint64_t> value{"<unknown generation>", 0};
        if (gen_engine != nullptr) {
          const auto& page = pages[phase.pages[i]];
          std::vector<Triple> triples =
              gen_engine->Extract(page.product_id, page.html, scratch.get());
          value = {Serialize(triples), Checksum(triples)};
        }
        it = expected.emplace(key, std::move(value)).first;
      }
      if (it->second.first != got.bytes) {
        rec.ok = false;
        ++wrong_here;
      }
    }
    if (wrong_here > 0) Tally(phase.options, &phase.result);
    wrong += wrong_here;
  };

  std::vector<Phase> phases;
  phases.reserve(plan.ladder_qps.size() + 2 +
                 static_cast<size_t>(plan.saturation_slices));
  // closed = true runs the saturation probe instead of the open loop.
  auto run_phase = [&](double rate, std::vector<uint32_t> schedule,
                       size_t stop_after, bool closed, Tracer* tr) -> Phase& {
    phases.emplace_back();
    Phase& phase = phases.back();
    phase.rate = rate;
    phase.pages = std::move(schedule);
    phase.responses.resize(phase.pages.size());
    phase.options.rate_qps = rate;
    phase.options.requests = phase.pages.size();
    phase.options.connections = plan.server_workers;
    phase.options.limit_ms = plan.limit_ms;
    phase.options.stop_after_misses = stop_after;
    ConnectFn connect = [&](int) -> Result<SendFn> {
      auto client = unix_socket
                        ? pae::serve::Client::ConnectUnixSocket(
                              server_options.unix_path)
                        : pae::serve::Client::ConnectTcpSocket(
                              "127.0.0.1", server.tcp_port());
      if (!client.ok()) return client.status();
      auto shared =
          std::make_shared<pae::serve::Client>(std::move(client).value());
      return SendFn([shared, &phase, &pages, tr](size_t i) -> Status {
        const auto& page = pages[phase.pages[i]];
        ScopedSpan span(tr, "serve.client", 0, static_cast<int64_t>(i) + 1);
        auto response = shared->Extract(page.product_id, page.html);
        span.End();
        if (!response.ok()) return response.status();
        phase.responses[i].generation = response.value().generation;
        phase.responses[i].bytes = Serialize(response.value().triples);
        return Status::Ok();
      });
    };
    ResetRegistry();
    publisher.RunAlongside(
        [&] {
          phase.result =
              closed ? RunClosedLoop(phase.options, plan.saturation_seconds,
                                     connect)
                     : RunOpenLoop(phase.options, connect);
        },
        tr);
    phase.registry = Registry();
    verify(phase);
    return phase;
  };

  // Saturation, untraced: the throughput the server sets. Its slices are
  // spread over the run (before the base rate, after it, after the
  // ladder, a third of them each time) and reported as their median, so
  // one slow second of a shared host does not decide the figure.
  std::vector<double> saturation_qps;
  size_t saturation_ok = 0;
  auto saturate = [&](int third) {
    if (trace) return;
    const int n = plan.saturation_slices;
    for (int slice = third * n / 3; slice < (third + 1) * n / 3; ++slice) {
      const OpenLoopResult& res =
          run_phase(0, plan.saturation_schedule, SIZE_MAX, true, nullptr)
              .result;
      saturation_qps.push_back(res.goodput_qps);
      saturation_ok += res.ok;
    }
  };
  saturate(0);

  // Base rate, untraced: the end-to-end latency sample.
  const size_t base_requests =
      trace ? plan.schedule.size() / 2 : plan.schedule.size();
  std::vector<uint32_t> base_schedule(plan.schedule.begin(),
                                      plan.schedule.begin() +
                                          static_cast<long>(base_requests));
  Phase& base = run_phase(plan.base_qps, base_schedule, SIZE_MAX, false,
                          nullptr);
  const size_t base_index = phases.size() - 1;

  // The ladder above the base rate, climbing until a rung misses the SLO.
  double max_qps = MeetsSlo(base.options, base.result) ? plan.base_qps : 0;
  std::vector<std::string> rung_lines;
  auto rung_line = [&](const Phase& p, bool meets) {
    const OpenLoopResult& res = p.result;
    rung_lines.push_back(
        "rung " + Fmt(p.rate, 0) + " qps: sent=" + std::to_string(res.sent) +
        " ok=" + std::to_string(res.ok) + " failed=" +
        std::to_string(res.failed) + " skipped=" + std::to_string(res.skipped) +
        " misses=" + std::to_string(res.misses) + " p50=" +
        Fmt(res.latency.p50) + "ms " + TailLabel(res.latency) + "=" +
        Fmt(res.latency.tail) + "ms max=" + Fmt(res.latency.max) +
        "ms late_max=" + Fmt(res.generator_late.max) + "ms -> " +
        (meets ? "meets" : "misses") + " SLO");
  };
  rung_line(phases[base_index], max_qps > 0);
  saturate(1);
  if (max_qps > 0) {
    for (size_t k = 1; k < plan.ladder_qps.size(); ++k) {
      const double rate = plan.ladder_qps[k];
      const std::vector<uint32_t>& schedule = plan.rung_schedules[k - 1];
      Phase& rung =
          run_phase(rate, schedule, schedule.size() / 100, false, nullptr);
      const bool meets = MeetsSlo(rung.options, rung.result);
      rung_line(rung, meets);
      if (!meets) break;
      max_qps = rate;
    }
  }

  saturate(2);

  // Traced replay of the base schedule.
  Phase* traced = nullptr;
  if (trace) {
    traced = &run_phase(plan.base_qps, base_schedule, SIZE_MAX, false, tracer);
  }
  server.Stop();
  for (const std::string& failure : publisher.failures()) Problem(&r, failure);
  for (const Phase& phase : phases) {
    r.attempted += static_cast<int64_t>(phase.result.records.size() -
                                        phase.result.skipped);
    r.failed += static_cast<int64_t>(phase.result.failed);
  }
  if (wrong > 0) {
    Problem(&r, std::to_string(wrong) +
                    " served responses differ from in-process Extract");
  }

  const Phase& b = phases[base_index];
  uint64_t checksum = 0;
  for (size_t i = 0; i < b.pages.size(); ++i) {
    if (!b.result.records[i].ok) continue;
    checksum += expected.at({b.pages[i], b.responses[i].generation}).second;
  }
  // Quality of what the server returns for every held-out page: the
  // oracle above holds served bytes equal to in-process Extract, so the
  // whole held-out set is judged rather than only the pages the skewed
  // schedule happened to draw.
  std::vector<Triple> served;
  for (const auto& page : pages) {
    for (Triple& t : engine->Extract(page.product_id, page.html, scratch.get())) {
      served.push_back(std::move(t));
    }
  }
  const LatencySummary& lat = b.result.latency;
  auto& m = r.metrics;
  m["latency_p50_ms"] = lat.p50;
  if (!saturation_qps.empty()) {
    m["pages_per_s"] = Median(saturation_qps);
    std::string slices;
    for (double qps : saturation_qps) slices += " " + Fmt(qps, 1);
    r.report.push_back(
        "saturation_pages_per_s = " + Fmt(m["pages_per_s"], 1) +
        " 1/s (median of slices" + slices + "; " +
        std::to_string(plan.server_workers) +
        " connections back to back for " + Fmt(plan.saturation_seconds, 1) +
        " s each, " + std::to_string(saturation_ok) + " correct responses)");
  }
  if (!lat.ordered) Problem(&r, "latency quantiles out of order");
  r.report.push_back("extract_p50_ms = " + Fmt(lat.p50) + " ms at base rate " +
                     Fmt(plan.base_qps, 0) + " qps (from due time, n=" +
                     std::to_string(lat.n) + ")");
  r.report.push_back("extract_p99_ms: not supported by n=" +
                     std::to_string(lat.n) + "; highest supported is " +
                     TailLabel(lat) + " = " + Fmt(lat.tail) + " ms; max = " +
                     Fmt(lat.max) + " ms");
  r.report.push_back("max_qps_in_slo = " + Fmt(max_qps, 0) + " 1/s (p99 limit " +
                     Fmt(plan.limit_ms, 0) + " ms, ladder up to " +
                     Fmt(plan.ladder_qps.back(), 0) + ")");
  for (const std::string& line : rung_lines) r.report.push_back(line);
  r.report.push_back("generator late at base rate: mean=" +
                     Fmt(b.result.generator_late.mean) + "ms max=" +
                     Fmt(b.result.generator_late.max) + "ms");
  r.report.push_back("output checksum = " + Hex(checksum) + " (" +
                     std::to_string(b.result.ok) + " responses, " +
                     std::to_string(publisher.Generations()) + " generations)");
  CheckQuality(plan.workload,
               pae::core::EvaluateTriples(served, heldout.truth, pages.size()),
               &r);

  // Reconciliation: a client waits at least as long as the server works,
  // and the server at least as long as the engine inside it.
  auto reconcile = [&](const Phase& p, const std::string& label,
                       double* client_ms, double* server_ms,
                       double* engine_ms) {
    double sum = 0;
    size_t n = 0;
    for (const RequestRecord& rec : p.result.records) {
      if (!rec.ok) continue;
      sum += static_cast<double>(rec.done_ns - rec.sent_ns) / 1e6;
      ++n;
    }
    *client_ms = n > 0 ? sum / static_cast<double>(n) : 0;
    *server_ms = HistMean(p.registry, "serve.request.seconds") * 1e3;
    *engine_ms = HistMean(p.registry, "engine.request.seconds") * 1e3;
    r.report.push_back(label + ": client=" + Fmt(*client_ms) + "ms server=" +
                       Fmt(*server_ms) + "ms engine=" + Fmt(*engine_ms) +
                       "ms serve.wire.ms=" + Fmt(*client_ms - *server_ms));
    if (!(*client_ms >= *server_ms && *server_ms >= *engine_ms)) {
      Problem(&r, label + ": impossible ordering, expected client >= server "
                          ">= engine means");
    }
  };
  double client_ms = 0;
  double server_ms = 0;
  double engine_ms = 0;
  reconcile(b, "reconcile base", &client_ms, &server_ms, &engine_ms);
  if (traced == nullptr) return r;

  reconcile(*traced, "reconcile traced", &client_ms, &server_ms, &engine_ms);
  const auto spans_before_replay = tracer->Totals();
  const SpanTotals client_span = spans_before_replay.count("serve.client")
                                     ? spans_before_replay.at("serve.client")
                                     : SpanTotals{};
  auto resources = pae::core::LoadCorpusResources(train_dir);
  if (!resources.ok()) {
    Problem(&r, resources.status().ToString());
    return r;
  }
  const auto tokenizer = pae::text::MakeTokenizer(
      resources.value().language, resources.value().tokenizer_lexicon);
  const pae::text::PosTagger pos(resources.value().language,
                                 resources.value().pos_lexicon);
  const pae::text::NegationDetector negation(resources.value().language);
  StageTimes total;
  size_t replayed = 0;
  int64_t sentence_mismatches = 0;
  for (size_t i = 0; i < traced->pages.size(); ++i) {
    if (!traced->result.records[i].ok) continue;
    const auto& page = pages[traced->pages[i]];
    const StageTimes t =
        ReplayEngineStages(page.html, *engine, *tokenizer, pos,
                           negation, tracer, static_cast<int64_t>(i) + 1);
    pae::core::EngineRequestStats stats;
    engine->Extract(page.product_id, page.html, scratch.get(), &stats);
    if (stats.sentences != t.sentences) ++sentence_mismatches;
    total.parse_s += t.parse_s;
    total.segment_s += t.segment_s;
    total.negation_s += t.negation_s;
    total.predict_s += t.predict_s;
    total.sentences += t.sentences;
    ++replayed;
  }
  if (sentence_mismatches > 0) {
    Problem(&r, "engine replay sentence count differs from "
                "EngineRequestStats.sentences on " +
                    std::to_string(sentence_mismatches) + " requests");
  }
  const double per = replayed > 0 ? 1e3 / static_cast<double>(replayed) : 0;
  const double stage_sum_ms = (total.parse_s + total.segment_s +
                               total.negation_s + total.predict_s) * per;
  const std::vector<double> publish_ms = publisher.PublishMs();
  m["serve.client.ms"] =
      client_span.count > 0
          ? client_span.total_s * 1e3 / static_cast<double>(client_span.count)
          : 0;
  m["serve.server.ms"] = server_ms;
  m["serve.wire.ms"] = m["serve.client.ms"] - server_ms;
  m["serve.publish.ms"] =
      publish_ms.empty() ? 0
                         : std::accumulate(publish_ms.begin(), publish_ms.end(), 0.0) /
                               static_cast<double>(publish_ms.size());
  m["serve.generator_late.ms"] = traced->result.generator_late.mean;
  m["serve.max_qps_in_slo"] = max_qps;
  m["core.engine.ms"] = engine_ms;
  m["core.engine.sentences_per_req"] =
      replayed > 0 ? static_cast<double>(total.sentences) /
                         static_cast<double>(replayed)
                   : 0;
  m["html.parse.ms"] = total.parse_s * per;
  m["text.segment.ms"] = total.segment_s * per;
  m["text.negation.ms"] = total.negation_s * per;
  m["crf.predict.ms"] = total.predict_s * per;
  m["core.engine.other.ms"] = engine_ms - stage_sum_ms;
  m["trace.overhead_pct"] = OverheadPct(traced->result.latency.p50, lat.p50);
  r.report.push_back("engine stages (ms/request): html.parse=" +
                     Fmt(m["html.parse.ms"]) + " text.segment=" +
                     Fmt(m["text.segment.ms"]) + " text.negation=" +
                     Fmt(m["text.negation.ms"]) + " crf.predict=" +
                     Fmt(m["crf.predict.ms"]) + " core.engine.other.ms=" +
                     Fmt(m["core.engine.other.ms"]) + " of engine " +
                     Fmt(engine_ms));
  // Latency from the due time, mean over the traced phase, split into
  // the layers it passes through; the remainders are the named gaps and
  // what the spans do not cover (span bookkeeping in the load generator).
  const double from_due_ms = traced->result.latency.mean;
  const double late_ms = traced->result.generator_late.mean;
  const double span_client_ms = m["serve.client.ms"];
  r.report.push_back(
      "traced latency from due (mean) " + Fmt(from_due_ms) +
      " ms = generator late " + Fmt(late_ms) + " + serve.wire.ms " +
      Fmt(span_client_ms - server_ms) + " + server outside the engine " +
      Fmt(server_ms - engine_ms) + " + engine stages " + Fmt(stage_sum_ms) +
      " + core.engine.other.ms " + Fmt(engine_ms - stage_sum_ms) +
      " + unexplained " + Fmt(from_due_ms - late_ms - span_client_ms));
  if (stage_sum_ms > engine_ms) {
    Problem(&r, "engine stage sum " + Fmt(stage_sum_ms) +
                    " ms exceeds the engine mean " + Fmt(engine_ms) + " ms");
  }
  return r;
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
      {"pages_per_s", "1/s"},   {"latency_p50_ms", "ms"},
      {"precision_pct", "%"},   {"coverage_pct", "%"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"core.ingest.s", "s"},
      {"core.ingest.pages_per_s", "1/s"},
      {"crf.train.s", "s"},
      {"crf.lbfgs_iters", "count"},
      {"core.bootstrap.tag.s", "s"},
      {"core.bootstrap.ds.s", "s"},
      {"core.seed.s", "s"},
      {"core.bootstrap.other.s", "s"},
      {"util.threadpool.busy_ratio", "ratio"},
      {"core.cleaning.s", "s"},
      {"embed.train.s", "s"},
      {"core.cleaning.accept_ratio", "ratio"},
      {"core.apply.s", "s"},
      {"core.apply.sentences_per_s", "1/s"},
      {"core.apply.triples_per_span", "ratio"},
      {"serve.client.ms", "ms"},
      {"serve.server.ms", "ms"},
      {"serve.wire.ms", "ms"},
      {"serve.publish.ms", "ms"},
      {"serve.generator_late.ms", "ms"},
      {"serve.max_qps_in_slo", "1/s"},
      {"core.engine.ms", "ms"},
      {"core.engine.sentences_per_req", "count"},
      {"html.parse.ms", "ms"},
      {"text.segment.ms", "ms"},
      {"text.negation.ms", "ms"},
      {"crf.predict.ms", "ms"},
      {"core.engine.other.ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"bootstrap_ja", "apply_de",
                                                  "serve_unix", "serve_tcp"};
  return kNames;
}

bool PlanWorkload(const std::string& workload, uint64_t seed, double seconds,
                  WorkloadPlan* plan) {
  using pae::datagen::CategoryId;
  WorkloadPlan p;
  p.workload = workload;
  p.seed = seed;
  p.seconds = seconds;
  p.train_seed = Mix(seed, 1);
  if (workload == "bootstrap_ja") {
    p.category = CategoryId::kVacuumCleaner;
    p.train_products = 200;
    // Eight crawls take about --seconds 25 on a 4-vCPU x86-64 VM, so a
    // run weighs eight datagen draws once each rather than fewer twice.
    p.corpora = 8;
    // Set-up only writes files here; its time swings with the page
    // cache's write-back, so take the median of more repetitions.
    p.setup_repeats = 5;
  } else if (workload == "apply_de") {
    p.category = CategoryId::kMailboxDe;
    p.train_products = 200;
    p.heldout_products = 1500;
    p.heldout_seed = Mix(seed, 2);
  } else if (workload == "serve_unix" || workload == "serve_tcp") {
    p.category = CategoryId::kVacuumCleaner;
    p.train_products = 200;
    p.heldout_products = 400;
    p.heldout_seed = Mix(seed, 2);
    p.transport = workload == "serve_unix" ? "unix" : "tcp";
    p.server_workers = 2;
    // The base rate and the limit come from measurement; no caller's
    // stated need is on record. Loopback TCP with two connections carries
    // about 23 requests/s today (one or two 40 ms delayed-ACK stalls per
    // request), and at 10/s it answers every request, so both transports
    // run the same schedule without failures. The 20 ms p99 limit lies
    // far above the Unix socket's p50 (about 0.9 ms) and below one TCP
    // stall, so the ladder separates the two transports. The ladder
    // doubles from the base rate to find the knee; the saturation probe
    // measures the capacity behind it.
    p.base_qps = 10;
    for (double rate = p.base_qps; rate <= 10240; rate *= 2) {
      p.ladder_qps.push_back(rate);
    }
    p.limit_ms = 20;
    p.rung_seconds = 0.5;
    // Slices shorter than the publish interval hold no republish.
    p.saturation_slices = 6;
    p.saturation_seconds = 1.5;
    p.publish_interval_seconds = 2;
    const auto pages = static_cast<size_t>(p.heldout_products);
    // The base rate runs for half of --seconds; the ladder and the
    // saturation slices take about the other half.
    p.schedule = MakeSchedule(
        Mix(seed, 3), static_cast<size_t>(p.base_qps * seconds / 2), pages);
    for (size_t k = 1; k < p.ladder_qps.size(); ++k) {
      p.rung_schedules.push_back(MakeSchedule(
          Mix(seed, 100 + k),
          static_cast<size_t>(p.ladder_qps[k] * p.rung_seconds), pages));
    }
    p.saturation_schedule = MakeSweep(
        Mix(seed, 4),
        static_cast<size_t>(p.ladder_qps.back() * p.saturation_seconds),
        pages);
  } else {
    return false;
  }
  *plan = std::move(p);
  return true;
}

RunResult RunWorkload(const WorkloadPlan& plan, bool trace,
                      const std::string& work_dir,
                      const std::string& trace_path) {
  pae::math::kernels::RecordSimdMetrics();
  const pae::util::RunReport start = Registry();
  const auto isa = start.gauges.find("math.simd.isa_level");
  Tracer tracer;
  RunResult r;
  if (plan.workload == "bootstrap_ja") {
    r = RunBootstrap(plan, trace, work_dir, &tracer);
  } else if (plan.workload == "apply_de") {
    r = RunApply(plan, trace, work_dir, &tracer);
  } else {
    r = RunServe(plan, trace, work_dir, &tracer);
  }
  r.metrics["peak_rss_mb"] = PeakRssMb();
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  r.report.insert(
      r.report.begin(),
      "provenance: workload=" + plan.workload + " seed=" +
          std::to_string(plan.seed) + " seconds=" + Fmt(plan.seconds, 0) +
          " build_type=" + build_type +
          (build_type == "Release" ? "" : " (NON-RELEASE BUILD)") +
          " isa=" +
          pae::math::kernels::IsaName(pae::math::kernels::ActiveIsa()) +
          " math.simd.isa_level=" +
          (isa == start.gauges.end() ? std::string("?")
                                     : Fmt(isa->second, 0)) +
          " transport=" + (plan.transport.empty() ? "none" : plan.transport) +
          " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
          " threads=" + std::to_string(plan.threads) +
          " server_workers=" + std::to_string(plan.server_workers) +
          " client_connections=" + std::to_string(plan.server_workers) +
          " trace=" + (trace ? "1" : "0"));
  if (trace) {
    r.report.push_back("trace: " + std::to_string(tracer.Spans().size()) +
                       " spans -> " + trace_path);
    Status written = tracer.WriteJsonLines(trace_path);
    if (!written.ok()) Problem(&r, written.ToString());
  }
  return r;
}

}  // namespace perfbench

