// Tests of the benchmark's own machinery: the open-loop load generator, the
// quantile summary and the seed → inputs mapping.

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "datagen/generator.h"
#include "openloop.h"
#include "serve/client.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

ConnectFn StubServer(size_t stall_request, int stall_ms) {
  return [=](int) -> pae::Result<SendFn> {
    return SendFn([=](size_t i) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(i == stall_request ? stall_ms : 1));
      return pae::Status::Ok();
    });
  };
}

TEST(OpenLoopTest, OneStallRaisesTheLatencyOfLaterRequests) {
  OpenLoopOptions options;
  options.rate_qps = 100;  // due every 10 ms
  options.requests = 30;
  options.connections = 1;
  options.limit_ms = 20;
  const OpenLoopResult result = RunOpenLoop(options, StubServer(2, 150));
  ASSERT_EQ(result.ok, 30u);
  EXPECT_EQ(result.failed, 0u);
  auto latency_ms = [&](size_t i) {
    const RequestRecord& rec = result.records[i];
    return static_cast<double>(rec.done_ns - rec.due_ns) / 1e6;
  };
  // Requests 3.. were due while request 2 stalled; each waits for the
  // stall to end, so its latency from the due time includes that wait.
  EXPECT_GE(latency_ms(2), 150);
  EXPECT_GE(latency_ms(3), 140 - 10);
  EXPECT_GE(latency_ms(8), 150 - 60 - 5);
  EXPECT_LT(latency_ms(0), 20);
  EXPECT_LT(latency_ms(29), 20);  // the backlog has drained by then
  EXPECT_GE(result.generator_late.max, 100);
  EXPECT_GT(result.misses, result.records.size() / 100);
  EXPECT_FALSE(MeetsSlo(options, result));
}

TEST(OpenLoopTest, HealthyServerMeetsTheSlo) {
  OpenLoopOptions options;
  options.rate_qps = 200;
  options.requests = 100;
  options.connections = 2;
  options.limit_ms = 20;
  const OpenLoopResult result = RunOpenLoop(options, StubServer(SIZE_MAX, 0));
  EXPECT_EQ(result.ok, 100u);
  EXPECT_EQ(result.misses, 0u);
  EXPECT_TRUE(MeetsSlo(options, result));
  EXPECT_GT(result.goodput_qps, 150);
}

TEST(OpenLoopTest, RefusedConnectionCountsAsFailedAndMissesTheLimit) {
  OpenLoopOptions options;
  options.rate_qps = 100;
  options.requests = 20;
  options.connections = 2;
  ConnectFn half_refused = [](int c) -> pae::Result<SendFn> {
    if (c == 0) {
      auto client = pae::serve::Client::ConnectUnixSocket(
          "perfbench-test-no-such-socket.sock");
      EXPECT_FALSE(client.ok());
      return client.status();
    }
    return SendFn([](size_t) { return pae::Status::Ok(); });
  };
  const OpenLoopResult result = RunOpenLoop(options, half_refused);
  EXPECT_EQ(result.failed, 10u);  // every request on connection 0
  EXPECT_EQ(result.ok, 10u);
  EXPECT_EQ(result.misses, 10u);
  for (size_t i = 0; i < result.records.size(); i += 2) {
    EXPECT_FALSE(result.records[i].ok);
    EXPECT_EQ(result.records[i].sent_ns, -1);
  }
  EXPECT_FALSE(MeetsSlo(options, result));
}

TEST(OpenLoopTest, WrongAnswersFailAndStopEarlyOnceTheRungIsLost) {
  OpenLoopOptions options;
  options.rate_qps = 1000;
  options.requests = 200;
  options.connections = 1;
  options.stop_after_misses = 2;
  ConnectFn wrong = [](int) -> pae::Result<SendFn> {
    return SendFn([](size_t) { return pae::Status::Internal("wrong answer"); });
  };
  const OpenLoopResult result = RunOpenLoop(options, wrong);
  EXPECT_EQ(result.ok, 0u);
  EXPECT_EQ(result.failed, 3u);
  EXPECT_EQ(result.skipped, 197u);
  EXPECT_FALSE(MeetsSlo(options, result));
}

TEST(OpenLoopTest, AnswersJudgedWrongAfterTheRunFailAndMissOnRetally) {
  OpenLoopOptions options;
  options.rate_qps = 200;
  options.requests = 100;
  options.connections = 2;
  options.limit_ms = 20;
  OpenLoopResult result = RunOpenLoop(options, StubServer(SIZE_MAX, 0));
  ASSERT_EQ(result.ok, 100u);
  ASSERT_TRUE(MeetsSlo(options, result));
  const double goodput = result.goodput_qps;
  // The oracle finds three answers wrong once the run is over.
  for (size_t i : {3, 50, 97}) result.records[i].ok = false;
  Tally(options, &result);
  EXPECT_EQ(result.ok, 97u);
  EXPECT_EQ(result.failed, 3u);
  EXPECT_EQ(result.misses, 3u);
  EXPECT_EQ(result.latency.n, 97u);
  EXPECT_LT(result.goodput_qps, goodput);
  EXPECT_FALSE(MeetsSlo(options, result));  // 3 misses > 1% of 100
}

TEST(ClosedLoopTest, GoodputIsTheServersCapacityAndUnsentRequestsAreSkipped) {
  OpenLoopOptions options;
  options.requests = 10000;  // far more than two 2 ms connections send in 0.5 s
  options.connections = 2;
  ConnectFn two_ms = [](int) -> pae::Result<SendFn> {
    return SendFn([](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return pae::Status::Ok();
    });
  };
  const OpenLoopResult result = RunClosedLoop(options, 0.5, two_ms);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.skipped, 0u);
  EXPECT_EQ(result.ok + result.skipped, options.requests);
  // At most 1000/s: each connection waits 2 ms per request.
  EXPECT_LE(result.goodput_qps, 1000);
  EXPECT_GT(result.goodput_qps, 300);
  EXPECT_LT(result.latency.p50, 20);
}

TEST(ClosedLoopTest, RefusedConnectionFailsAndSendsNothing) {
  OpenLoopOptions options;
  options.requests = 1000;
  options.connections = 2;
  ConnectFn half_refused = [](int c) -> pae::Result<SendFn> {
    if (c == 0) return pae::Status::Internal("connection refused");
    return SendFn([](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return pae::Status::Ok();
    });
  };
  const OpenLoopResult result = RunClosedLoop(options, 0.1, half_refused);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_FALSE(result.records[0].ok);
  EXPECT_EQ(result.records[0].sent_ns, -1);
  for (size_t i = 2; i < result.records.size(); i += 2) {
    EXPECT_TRUE(result.records[i].skipped);
  }
  EXPECT_GT(result.ok, 0u);
}

void ExpectOrdered(const LatencySummary& s) {
  EXPECT_TRUE(s.ordered);
  EXPECT_LE(s.p50, s.tail);
  EXPECT_LE(s.tail, s.max);
}

TEST(StatsTest, QuantilesHoldTheirInvariantsOnEdgeInputs) {
  const LatencySummary empty = Summarize({});
  EXPECT_EQ(empty.n, 0u);

  const LatencySummary one = Summarize({5});
  EXPECT_EQ(one.p50, 5);
  EXPECT_EQ(one.tail, 5);
  EXPECT_EQ(one.tail_percentile, 100);
  ExpectOrdered(one);

  ExpectOrdered(Summarize(std::vector<double>(1000, 2.5)));
  EXPECT_EQ(Summarize(std::vector<double>(1000, 2.5)).tail, 2.5);

  // The tail is the highest percentile with at least ten samples beyond.
  auto ramp = [](size_t n) {
    std::vector<double> v;
    for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  EXPECT_EQ(Summarize(ramp(19)).tail_percentile, 100);
  EXPECT_EQ(Summarize(ramp(19)).tail, 19);
  EXPECT_EQ(Summarize(ramp(20)).tail_percentile, 50);
  EXPECT_EQ(Summarize(ramp(100)).tail_percentile, 90);
  EXPECT_EQ(Summarize(ramp(100)).tail, 90);
  EXPECT_EQ(Summarize(ramp(250)).tail_percentile, 95);
  EXPECT_EQ(Summarize(ramp(1000)).tail_percentile, 99);
  EXPECT_EQ(Summarize(ramp(1000)).tail, 990);
  EXPECT_EQ(Summarize(ramp(10000)).tail_percentile, 99.9);
  EXPECT_EQ(Summarize(ramp(100)).p50, 50);
  EXPECT_EQ(Summarize(ramp(100)).max, 100);

  const std::vector<double> sorted = {1, 2, 3, 4};
  EXPECT_EQ(ExactQuantile(sorted, 0), 1);
  EXPECT_EQ(ExactQuantile(sorted, 1), 4);
  EXPECT_EQ(ExactQuantile(sorted, 0.5), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);

  // One huge outlier can raise the tail only as far as the max.
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(0, 1.5);
  for (size_t n = 1; n <= 400; n += 13) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) v.push_back(dist(rng));
    v.push_back(1e9);
    ExpectOrdered(Summarize(v));
  }
}

TEST(PlanTest, ChangingTheSeedChangesTheInputsAndNothingElse) {
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    WorkloadPlan a, a_again, b;
    ASSERT_TRUE(PlanWorkload(workload, 1, 10, &a));
    ASSERT_TRUE(PlanWorkload(workload, 1, 10, &a_again));
    ASSERT_TRUE(PlanWorkload(workload, 2, 10, &b));
    EXPECT_EQ(a.train_seed, a_again.train_seed);
    EXPECT_EQ(a.heldout_seed, a_again.heldout_seed);
    EXPECT_EQ(a.schedule, a_again.schedule);
    EXPECT_EQ(a.rung_schedules, a_again.rung_schedules);
    EXPECT_EQ(a.saturation_schedule, a_again.saturation_schedule);

    EXPECT_NE(a.train_seed, b.train_seed);
    if (a.heldout_products > 0) {
      EXPECT_NE(a.heldout_seed, b.heldout_seed);
    }
    if (!a.schedule.empty()) {
      EXPECT_NE(a.schedule, b.schedule);
      EXPECT_NE(a.rung_schedules, b.rung_schedules);
      EXPECT_NE(a.saturation_schedule, b.saturation_schedule);
    }
    // Everything else is fixed per workload.
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.train_products, b.train_products);
    EXPECT_EQ(a.corpora, b.corpora);
    EXPECT_EQ(a.heldout_products, b.heldout_products);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.setup_repeats, b.setup_repeats);
    EXPECT_EQ(a.transport, b.transport);
    EXPECT_EQ(a.server_workers, b.server_workers);
    EXPECT_EQ(a.base_qps, b.base_qps);
    EXPECT_EQ(a.ladder_qps, b.ladder_qps);
    EXPECT_EQ(a.limit_ms, b.limit_ms);
    EXPECT_EQ(a.rung_seconds, b.rung_seconds);
    EXPECT_EQ(a.saturation_slices, b.saturation_slices);
    EXPECT_EQ(a.saturation_seconds, b.saturation_seconds);
    EXPECT_EQ(a.saturation_schedule.size(), b.saturation_schedule.size());
    EXPECT_EQ(a.publish_interval_seconds, b.publish_interval_seconds);
    EXPECT_EQ(a.schedule.size(), b.schedule.size());
    ASSERT_EQ(a.rung_schedules.size(), b.rung_schedules.size());
    for (size_t k = 0; k < a.rung_schedules.size(); ++k) {
      EXPECT_EQ(a.rung_schedules[k].size(), b.rung_schedules[k].size());
    }

    // The seed reaches the generated pages.
    pae::datagen::GeneratorConfig config_a, config_b;
    config_a.num_products = config_b.num_products = 20;
    config_a.seed = a.train_seed;
    config_b.seed = b.train_seed;
    const auto pages_a = pae::datagen::GenerateCategory(a.category, config_a);
    const auto pages_b = pae::datagen::GenerateCategory(b.category, config_b);
    bool differ = false;
    for (size_t i = 0; i < pages_a.corpus.pages.size(); ++i) {
      differ |= pages_a.corpus.pages[i].html != pages_b.corpus.pages[i].html;
    }
    EXPECT_TRUE(differ);
  }
}

TEST(PlanTest, BothTransportsRunTheSameSchedule) {
  WorkloadPlan unix_plan, tcp_plan;
  ASSERT_TRUE(PlanWorkload("serve_unix", 5, 10, &unix_plan));
  ASSERT_TRUE(PlanWorkload("serve_tcp", 5, 10, &tcp_plan));
  EXPECT_EQ(unix_plan.schedule, tcp_plan.schedule);
  EXPECT_EQ(unix_plan.rung_schedules, tcp_plan.rung_schedules);
  EXPECT_EQ(unix_plan.saturation_schedule, tcp_plan.saturation_schedule);
  EXPECT_EQ(unix_plan.saturation_slices, tcp_plan.saturation_slices);
  EXPECT_EQ(unix_plan.saturation_seconds, tcp_plan.saturation_seconds);
  EXPECT_EQ(unix_plan.train_seed, tcp_plan.train_seed);
  EXPECT_EQ(unix_plan.heldout_seed, tcp_plan.heldout_seed);
  EXPECT_EQ(unix_plan.ladder_qps, tcp_plan.ladder_qps);
  EXPECT_EQ(unix_plan.server_workers, tcp_plan.server_workers);
  EXPECT_EQ(unix_plan.publish_interval_seconds,
            tcp_plan.publish_interval_seconds);
  EXPECT_NE(unix_plan.transport, tcp_plan.transport);
  // The base rate runs for half of --seconds.
  EXPECT_EQ(unix_plan.schedule.size(),
            static_cast<size_t>(unix_plan.base_qps * 10 / 2));
}

TEST(PlanTest, UnknownWorkloadIsRejected) {
  WorkloadPlan plan;
  EXPECT_FALSE(PlanWorkload("serve_udp", 1, 10, &plan));
}

}  // namespace
}  // namespace perfbench
