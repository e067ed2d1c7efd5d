// CLI: pae-loadgen, the deterministic load driver for pae-serve.
//
// Connect mode — drive a running daemon:
//   pae-loadgen --socket /tmp/pae.sock --corpus corpus/ --requests 2000 \
//               --threads 4 [--swap-at 1000 --swap-model m.paez \
//               --swap-resources corpus/] [--shutdown-after]
//
// Self-serve sweep mode — start an in-process server per worker count
// and write the serving benchmark JSON:
//   pae-loadgen --self-serve --model m.paez --resources corpus/ \
//               --corpus corpus/ --worker-counts 1,4,8 \
//               --json BENCH_serving.json
//
// Flags: --requests N (default 1000)  --threads N (driver threads)
//        --warmup N                   --seed S
//        --extract-fraction X         --qps X (open loop; 0 = closed)
//        --host H (default 127.0.0.1) --port N | --socket PATH
//        --json OUT ("-" = stdout)
//
// Every run prints one summary line; the request schedule, aggregate
// triple count and response checksum depend only on --seed, --requests,
// --extract-fraction and the corpus+model — never on --threads, --qps
// or timing.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "args.h"
#include "core/corpus_io.h"
#include "core/engine.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "util/strings.h"

namespace {

using pae::core::Corpus;
using pae::serve::Client;
using pae::serve::LoadgenOptions;
using pae::serve::LoadgenProduct;
using pae::serve::LoadgenReport;

std::string ChecksumHex(uint64_t checksum) {
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << checksum;
  return os.str();
}

int Usage() {
  std::cerr
      << "usage: pae-loadgen --corpus DIR (--socket PATH | --port N)\n"
      << "                   [--host H] [--requests N] [--threads N]\n"
      << "                   [--warmup N] [--seed S]\n"
      << "                   [--extract-fraction X] [--qps X]\n"
      << "                   [--swap-at N --swap-model m.paez\n"
      << "                    --swap-resources DIR] [--shutdown-after]\n"
      << "                   [--json OUT]\n"
      << "       pae-loadgen --self-serve --model m.paez --resources DIR\n"
      << "                   --corpus DIR [--worker-counts 1,4,8]\n"
      << "                   [--json BENCH_serving.json] [...same knobs]\n";
  return 2;
}

LoadgenOptions OptionsFromArgs(const pae::tools::Args& args) {
  LoadgenOptions options;
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  options.threads = args.GetInt("threads", 4);
  options.requests = args.GetInt("requests", 1000);
  options.warmup_requests = args.GetInt("warmup", 0);
  options.extract_fraction = args.GetDouble("extract-fraction", 1.0);
  options.open_loop_qps = args.GetDouble("qps", 0.0);
  options.swap_at = args.GetInt("swap-at", -1);
  return options;
}

std::vector<LoadgenProduct> ProductsFromCorpus(const Corpus& corpus) {
  std::vector<LoadgenProduct> products;
  products.reserve(corpus.pages.size());
  for (const auto& page : corpus.pages) {
    products.push_back(LoadgenProduct{page.product_id, page.html});
  }
  return products;
}

void PrintReport(const std::string& label, const LoadgenReport& report) {
  std::cout << label << ": requests=" << report.requests_sent
            << " ok=" << report.ok_responses
            << " errors=" << report.error_responses
            << " transport_errors=" << report.transport_errors
            << " triples=" << report.triples << " checksum="
            << ChecksumHex(report.checksum) << " generations=["
            << report.generation_min << "," << report.generation_max
            << "] qps=" << pae::FormatDouble(report.qps, 1)
            << " p50=" << pae::FormatDouble(report.p50_seconds * 1e3, 3)
            << "ms p95=" << pae::FormatDouble(report.p95_seconds * 1e3, 3)
            << "ms p99=" << pae::FormatDouble(report.p99_seconds * 1e3, 3)
            << "ms saturated=" << (report.saturated ? 1 : 0) << "\n";
}

void AppendReportJson(std::ostringstream& os, const LoadgenReport& report,
                      int workers, const LoadgenOptions& options) {
  os << "    {\n"
     << "      \"workers\": " << workers << ",\n"
     << "      \"driver_threads\": " << options.threads << ",\n"
     << "      \"requests\": " << report.requests_sent << ",\n"
     << "      \"ok\": " << report.ok_responses << ",\n"
     << "      \"errors\": " << report.error_responses << ",\n"
     << "      \"transport_errors\": " << report.transport_errors << ",\n"
     << "      \"triples\": " << report.triples << ",\n"
     << "      \"checksum\": \"" << ChecksumHex(report.checksum) << "\",\n"
     << "      \"qps\": " << report.qps << ",\n"
     << "      \"p50_ms\": " << report.p50_seconds * 1e3 << ",\n"
     << "      \"p95_ms\": " << report.p95_seconds * 1e3 << ",\n"
     << "      \"p99_ms\": " << report.p99_seconds * 1e3 << ",\n"
     << "      \"max_ms\": " << report.max_seconds * 1e3 << ",\n"
     << "      \"saturated\": " << (report.saturated ? "true" : "false")
     << "\n"
     << "    }";
}

int WriteJson(const std::string& path, const std::string& body) {
  if (path == "-") {
    std::cout << body;
    return 0;
  }
  std::ofstream out(path, std::ios::trunc);
  out << body;
  out.flush();
  if (!out) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "serving benchmark -> " << path << "\n";
  return 0;
}

std::vector<int> ParseWorkerCounts(const std::string& spec) {
  std::vector<int> counts;
  std::stringstream ss(spec);
  for (std::string item; std::getline(ss, item, ',');) {
    const int n = std::atoi(item.c_str());
    if (n > 0) counts.push_back(n);
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  pae::tools::Args args(argc, argv);
  const std::string corpus_dir = args.GetString("corpus", "");
  if (corpus_dir.empty()) return Usage();

  auto corpus = pae::core::LoadCorpus(corpus_dir);
  if (!corpus.ok()) {
    std::cerr << corpus.status().ToString() << "\n";
    return 1;
  }
  const std::vector<LoadgenProduct> products =
      ProductsFromCorpus(corpus.value());
  if (products.empty()) {
    std::cerr << "corpus has no pages\n";
    return 1;
  }
  LoadgenOptions options = OptionsFromArgs(args);
  const std::string json_path = args.GetString("json", "");

  // ---- self-serve sweep: in-process server per worker count ----
  if (args.Has("self-serve")) {
    const std::string model_path = args.GetString("model", "");
    const std::string resources_dir = args.GetString("resources", "");
    if (model_path.empty() || resources_dir.empty()) return Usage();
    auto engine = pae::core::LoadCrfEngine(model_path, resources_dir,
                                           pae::core::EngineOptions{});
    if (!engine.ok()) {
      std::cerr << engine.status().ToString() << "\n";
      return 1;
    }
    const std::vector<int> worker_counts =
        ParseWorkerCounts(args.GetString("worker-counts", "1,4,8"));

    std::ostringstream json;
    json << "{\n  \"version\": 1,\n  \"benchmark\": \"pae-serve\",\n"
         << "  \"requests_per_run\": " << options.requests << ",\n"
         << "  \"seed\": " << options.seed << ",\n  \"runs\": [\n";
    bool first = true;
    for (int workers : worker_counts) {
      pae::serve::ServerOptions server_options;
      server_options.tcp_port = 0;  // ephemeral loopback port
      server_options.workers = workers;
      pae::serve::Server server(server_options);
      pae::Status started = server.Start();
      if (!started.ok()) {
        std::cerr << started.ToString() << "\n";
        return 1;
      }
      server.Publish(engine.value());
      const int port = server.tcp_port();
      auto connect = [port] {
        return Client::ConnectTcpSocket("127.0.0.1", port);
      };
      // One driver per worker: the server hands each connection to one
      // pool thread for its whole lifetime, so more persistent drivers
      // than workers would queue behind the pool instead of adding load.
      LoadgenOptions run_options = options;
      run_options.threads = workers;
      auto report = RunLoadgen(run_options, products, connect);
      server.Stop();
      if (!report.ok()) {
        std::cerr << report.status().ToString() << "\n";
        return 1;
      }
      PrintReport("workers=" + std::to_string(workers), report.value());
      if (!first) json << ",\n";
      first = false;
      AppendReportJson(json, report.value(), workers, run_options);
    }
    json << "\n  ]\n}\n";
    return json_path.empty() ? 0 : WriteJson(json_path, json.str());
  }

  // ---- connect mode: drive a running daemon ----
  const std::string socket_path = args.GetString("socket", "");
  const std::string host = args.GetString("host", "127.0.0.1");
  const int port = args.GetInt("port", -1);
  if (socket_path.empty() && port < 0) return Usage();

  auto connect = [&]() -> pae::Result<Client> {
    if (!socket_path.empty()) return Client::ConnectUnixSocket(socket_path);
    return Client::ConnectTcpSocket(host, port);
  };

  std::function<void()> swap_hook;
  const std::string swap_model = args.GetString("swap-model", "");
  if (options.swap_at >= 0 && !swap_model.empty()) {
    const std::string swap_resources =
        args.GetString("swap-resources", corpus_dir);
    swap_hook = [&, swap_model, swap_resources] {
      auto admin = connect();
      if (!admin.ok()) {
        std::cerr << "swap connect failed: " << admin.status().ToString()
                  << "\n";
        return;
      }
      auto generation = admin.value().Publish(swap_model, swap_resources);
      if (!generation.ok()) {
        std::cerr << "swap failed: " << generation.status().ToString()
                  << "\n";
        return;
      }
      std::cout << "hot-swapped to generation " << generation.value()
                << "\n";
    };
  }

  auto report = RunLoadgen(options, products, connect, swap_hook);
  if (!report.ok()) {
    std::cerr << report.status().ToString() << "\n";
    return 1;
  }
  PrintReport("loadgen", report.value());

  if (args.Has("shutdown-after")) {
    auto admin = connect();
    if (admin.ok()) {
      pae::Status shutdown = admin.value().Shutdown();
      if (!shutdown.ok()) {
        std::cerr << "shutdown failed: " << shutdown.ToString() << "\n";
        return 1;
      }
      std::cout << "daemon shutdown acknowledged\n";
    }
  }

  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n  \"version\": 1,\n  \"benchmark\": \"pae-serve\",\n"
         << "  \"requests_per_run\": " << options.requests << ",\n"
         << "  \"seed\": " << options.seed << ",\n  \"runs\": [\n";
    AppendReportJson(json, report.value(), /*workers=*/-1, options);
    json << "\n  ]\n}\n";
    return WriteJson(json_path, json.str());
  }
  return 0;
}
