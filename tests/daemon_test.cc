// End-to-end smoke of the pae-serve daemon binary. The test spawns the
// built executable on a CRF model saved with SaveCrfModel and talks to
// it over its unix socket through serve::Client, as a deployment
// would. Every response must equal the in-process engine loaded from
// the same artifact, byte for byte. The daemon must survive a hot swap
// over the wire and exit 0 on a protocol shutdown and on SIGTERM.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/bootstrap.h"
#include "core/corpus_io.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "serve/client.h"
#include "support/json_checker.h"
#include "util/strings.h"

extern char** environ;

namespace pae {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Generous, because the sanitizer builds run the daemon several times
// slower; a healthy daemon answers in milliseconds.
constexpr std::chrono::seconds kTimeout{60};

/// One pae-serve child process with its stdout and stderr on a pipe.
/// The destructor kills and reaps a child that has not exited, so a
/// failed assertion or a timeout never leaves a daemon running.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }

  /// Spawns PAE_SERVE_BINARY with `args`. On failure the reason is in
  /// output().
  bool Start(const std::vector<std::string>& args) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
      output_ = "pipe2: " + ErrnoString(errno);
      return false;
    }
    std::vector<std::string> argv_strings = {PAE_SERVE_BINARY};
    argv_strings.insert(argv_strings.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : argv_strings) argv.push_back(arg.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDERR_FILENO);
    const int rc = posix_spawn(&pid_, PAE_SERVE_BINARY, &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      output_ = "posix_spawn: " + ErrnoString(rc);
      return false;
    }
    return true;
  }

  /// Reads the child's output until it contains `needle`. False on EOF
  /// (the child exited without printing it) or timeout.
  bool WaitForOutput(std::string_view needle) {
    const Clock::time_point deadline = Clock::now() + kTimeout;
    while (output_.find(needle) == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{out_fd_, POLLIN, 0};
      const int ready = poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      char buffer[4096];
      const ssize_t n = read(out_fd_, buffer, sizeof(buffer));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      output_.append(buffer, static_cast<size_t>(n));
    }
    return true;
  }

  /// Reaps the child. Returns its exit code, or -1 when a signal ended
  /// it or it outlived the timeout (the destructor then kills it).
  int WaitForExit() {
    const Clock::time_point deadline = Clock::now() + kTimeout;
    while (Clock::now() < deadline) {
      int status = 0;
      const pid_t reaped = waitpid(pid_, &status, WNOHANG);
      if (reaped == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      if (reaped < 0 && errno != EINTR) return -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  bool Signal(int sig) const { return pid_ > 0 && kill(pid_, sig) == 0; }
  const std::string& output() const { return output_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string output_;
};

/// A per-process scratch directory: ctest runs each case as its own
/// process, possibly in parallel with the others.
fs::path ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("pae_daemon_" + name + "_" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Trains a small CRF on a synthetic vacuum crawl and saves it as
/// pae-extract --save-model does (SaveCrfModel), with the crawl's
/// language resources next to it (SaveCorpus). Fresh pages of the same
/// category go to `fresh_pages` when non-null.
void SaveSmallModel(const fs::path& dir,
                    std::vector<core::ProductPage>* fresh_pages) {
  datagen::GeneratorConfig gen;
  gen.num_products = 120;
  gen.seed = 42;
  auto crawl =
      datagen::GenerateCategory(datagen::CategoryId::kVacuumCleaner, gen);
  core::ProcessedCorpus corpus = core::IngestCorpus(crawl.corpus, {}).corpus;

  core::PipelineConfig config;
  config.iterations = 1;
  config.crf.max_iterations = 20;
  config.train_final_model = true;
  config.seed = 7;
  auto trained = core::Pipeline(config).Run(corpus);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  auto* tagger =
      dynamic_cast<crf::CrfTagger*>(trained.value().final_tagger.get());
  ASSERT_NE(tagger, nullptr);
  ASSERT_TRUE(core::SaveCrfModel(*tagger, trained.value().known_pair_keys,
                                 (dir / "model.paez").string())
                  .ok());
  ASSERT_TRUE(core::SaveCorpus(crawl.corpus, dir.string()).ok());

  if (fresh_pages != nullptr) {
    datagen::GeneratorConfig fresh = gen;
    fresh.num_products = 40;
    fresh.seed = 4242;
    *fresh_pages =
        datagen::GenerateCategory(datagen::CategoryId::kVacuumCleaner, fresh)
            .corpus.pages;
  }
}

/// A client whose reads give up after kTimeout, so a daemon that stops
/// answering fails the test instead of hanging it.
Result<serve::Client> Connect(const std::string& socket_path) {
  Result<serve::Client> client =
      serve::Client::ConnectUnixSocket(socket_path);
  if (!client.ok()) return client;
  timeval timeout{};
  timeout.tv_sec = kTimeout.count();
  if (setsockopt(client.value().fd().get(), SOL_SOCKET, SO_RCVTIMEO,
                 &timeout, sizeof(timeout)) != 0) {
    return Status::Internal("SO_RCVTIMEO: " + ErrnoString(errno));
  }
  return client;
}

TEST(DaemonTest, TwoHundredRequestsOneSwapProtocolShutdown) {
  const fs::path dir = ScratchDir("smoke");
  std::vector<core::ProductPage> pages;
  SaveSmallModel(dir, &pages);
  ASSERT_FALSE(HasFatalFailure());
  const std::string model_path = (dir / "model.paez").string();
  const std::string socket_path = (dir / "daemon.sock").string();

  // The reference: the same artifact and resources, loaded in process
  // with the daemon's default options.
  auto engine =
      core::LoadCrfEngine(model_path, dir.string(), core::EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<std::vector<core::Triple>> expected;
  size_t expected_triples = 0;
  for (const core::ProductPage& page : pages) {
    expected.push_back(
        engine.value()->Extract(page.product_id, page.html, nullptr));
    expected_triples += expected.back().size();
  }
  ASSERT_GT(expected_triples, 0u);

  DaemonProcess daemon;
  ASSERT_TRUE(daemon.Start({"--socket", socket_path, "--model", model_path,
                            "--resources", dir.string(), "--workers", "4"}))
      << daemon.output();
  ASSERT_TRUE(daemon.WaitForOutput("pae-serve ready")) << daemon.output();

  // Request i goes out on client i % kClients. Client 0 republishes the
  // same artifact just before it sends request kPublishAt, so its
  // earlier requests are served by generation 1 and its later ones by
  // generation 2.
  constexpr int kRequests = 200;
  constexpr int kClients = 2;
  constexpr int kPublishAt = 100;
  std::vector<Result<serve::ExtractResponse>> responses(
      kRequests, Status::Internal("request not sent"));
  Result<uint64_t> published = Status::Internal("publish not sent");
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Result<serve::Client> client = Connect(socket_path);
      if (!client.ok()) {
        responses[static_cast<size_t>(t)] = client.status();
        return;
      }
      for (int i = t; i < kRequests; i += kClients) {
        if (i == kPublishAt) {
          published = client.value().Publish(model_path, dir.string());
        }
        const core::ProductPage& page = pages[i % pages.size()];
        responses[static_cast<size_t>(i)] =
            client.value().Extract(page.product_id, page.html);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(published.value(), 2u);
  int generation_1 = 0;
  int generation_2 = 0;
  for (int i = 0; i < kRequests; ++i) {
    const Result<serve::ExtractResponse>& response =
        responses[static_cast<size_t>(i)];
    ASSERT_TRUE(response.ok())
        << "request " << i << ": " << response.status().ToString();
    EXPECT_EQ(response.value().triples, expected[i % pages.size()])
        << "request " << i;
    if (response.value().generation == 1) {
      ++generation_1;
    } else {
      EXPECT_EQ(response.value().generation, 2u) << "request " << i;
      ++generation_2;
    }
  }
  EXPECT_GT(generation_1, 0);
  EXPECT_GT(generation_2, 0);

  Result<serve::Client> admin = Connect(socket_path);
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();
  auto stats = admin.value().Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().generation, 2u);
  EXPECT_EQ(stats.value().hot_swaps, 1u);
  EXPECT_EQ(stats.value().protocol_errors, 0u);
  ASSERT_TRUE(admin.value().Shutdown().ok());

  EXPECT_EQ(daemon.WaitForExit(), 0) << daemon.output();
  EXPECT_TRUE(daemon.WaitForOutput("pae-serve exit")) << daemon.output();
  fs::remove_all(dir);
}

TEST(DaemonTest, SigtermExitsCleanlyAndWritesMetrics) {
  const fs::path dir = ScratchDir("sigterm");
  SaveSmallModel(dir, nullptr);
  ASSERT_FALSE(HasFatalFailure());
  const std::string metrics_path = (dir / "metrics.json").string();

  DaemonProcess daemon;
  ASSERT_TRUE(daemon.Start({"--socket", (dir / "daemon.sock").string(),
                            "--model", (dir / "model.paez").string(),
                            "--resources", dir.string(), "--metrics-out",
                            metrics_path}))
      << daemon.output();
  ASSERT_TRUE(daemon.WaitForOutput("pae-serve ready")) << daemon.output();
  ASSERT_TRUE(daemon.Signal(SIGTERM));
  EXPECT_EQ(daemon.WaitForExit(), 0) << daemon.output();
  EXPECT_TRUE(daemon.WaitForOutput("pae-serve exit")) << daemon.output();

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "no metrics report at " << metrics_path;
  std::stringstream report;
  report << in.rdbuf();
  const std::string json = report.str();
  EXPECT_TRUE(support::JsonChecker(json).Valid()) << json;
  // The initial model load is the one timed publish.
  EXPECT_NE(json.find("\"serve.publish.load_seconds\": {\"count\": 1,"),
            std::string::npos)
      << json;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pae
