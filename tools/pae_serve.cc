// CLI: pae-serve, the always-on extraction daemon. Loads a persisted
// CRF model + language resources into an immutable ExtractionEngine,
// publishes it behind the generation pointer and serves the
// length-prefixed protocol until a kShutdown request or SIGINT/SIGTERM.
//
//   pae-serve --socket /tmp/pae.sock --model m.paez --resources corpus/
//   pae-serve --port 0 --model m.paez --resources corpus/ --workers 8
//
// Flags: --socket PATH | --port N (0 = ephemeral; the resolved port is
//          printed on the ready line)
//        --model m.paez --resources DIR  (initial generation; omit both
//          to start empty and publish over the wire)
//        --workers N (default 4)        --min-confidence X
//        --no-negation                  --no-pairs (ignore m.paez.pairs)
//        --metrics-out report.json      (written at shutdown)

#include <csignal>
#include <iostream>
#include <string>

#include <chrono>
#include <thread>

#include "args.h"
#include "core/engine.h"
#include "serve/server.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int sig) { g_signal = sig; }

int Usage() {
  std::cerr
      << "usage: pae-serve (--socket PATH | --port N)\n"
      << "                 [--model m.paez --resources DIR]\n"
      << "                 [--workers N] [--min-confidence X]\n"
      << "                 [--no-negation] [--no-pairs]\n"
      << "                 [--metrics-out report.json]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pae::tools::Args args(argc, argv);
  const std::string socket_path = args.GetString("socket", "");
  const bool has_port = args.Has("port");
  if (socket_path.empty() == !has_port) return Usage();

  pae::serve::ServerOptions options;
  options.unix_path = socket_path;
  options.tcp_port = has_port ? args.GetInt("port", 0) : -1;
  options.workers = args.GetInt("workers", 4);
  options.publish_engine_options.min_span_confidence =
      args.GetDouble("min-confidence", 0.0);
  if (args.Has("no-negation")) {
    options.publish_engine_options.negation_filtering = false;
  }

  pae::serve::Server server(options);

  const std::string model_path = args.GetString("model", "");
  const std::string resources_dir = args.GetString("resources", "");
  if (model_path.empty() != resources_dir.empty()) {
    std::cerr << "--model and --resources must be given together\n";
    return 2;
  }
  std::shared_ptr<const pae::core::ExtractionEngine> engine;
  if (!model_path.empty()) {
    // Timed into the same histogram kPublish hot swaps use, so a
    // metrics report shows the initial load next to the swaps.
    pae::util::Histogram* load_seconds =
        pae::util::MetricsRegistry::Global().GetHistogram(
            "serve.publish.load_seconds", pae::core::RequestLatencyBounds());
    pae::util::ScopedTimer load_timer(load_seconds);
    auto loaded = pae::core::LoadCrfEngine(
        model_path, resources_dir, options.publish_engine_options,
        /*load_accepted_pairs=*/!args.Has("no-pairs"));
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      return 1;
    }
    engine = std::move(loaded.value());
  }

  pae::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }
  if (engine != nullptr) {
    server.Publish(std::move(engine));
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // The ready line is the scripted startup handshake: a supervisor
  // (tests/daemon_test.cc does) blocks on it before connecting.
  if (!socket_path.empty()) {
    std::cout << "pae-serve ready unix:" << socket_path
              << " generation=" << server.generation() << std::endl;
  } else {
    std::cout << "pae-serve ready tcp:" << server.tcp_port()
              << " generation=" << server.generation() << std::endl;
  }

  // Park until a kShutdown request flips the server's stop flag or a
  // signal arrives. Polling keeps the signal handler async-safe.
  while (g_signal == 0 && server.running()) {
    if (server.stop_requested()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();

  const std::string metrics_out = args.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    const pae::util::RunReport report =
        pae::util::MetricsRegistry::Global().Snapshot();
    pae::Status written = report.WriteJsonFile(metrics_out);
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
  }
  std::cout << "pae-serve exit\n";
  return 0;
}
