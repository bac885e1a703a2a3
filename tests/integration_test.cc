// End-to-end integration tests spanning every module: the complete offline
// workflow over real files, the complete online workflow over real loopback
// UDP, and multi-query sessions.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "analysis/trace_index.h"
#include "dot/parser.h"
#include "layout/svg.h"
#include "layout/sugiyama.h"
#include "net/udp.h"
#include "profiler/sink.h"
#include "scope/analysis.h"
#include "scope/online.h"
#include "scope/replayer.h"
#include "scope/textual.h"
#include "scope/trace.h"
#include "server/mserver.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho {
namespace {

storage::Catalog SmallTpch() {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  EXPECT_TRUE(cat.ok());
  return std::move(cat.value());
}

/// The full offline workflow of paper §4.1, against real files: server
/// records dot + trace; a fresh session reads the files, builds the graph
/// via the dot→svg→graph pipeline, replays, and analyzes.
TEST(IntegrationTest, OfflineWorkflowOverFiles) {
  std::string dir = testing::TempDir();
  std::string dot_path = dir + "/offline_it.dot";
  std::string trace_path = dir + "/offline_it.trace";

  size_t plan_size = 0;
  {
    server::MserverOptions options;
    options.dop = 2;
    options.mitosis_pieces = 4;
    server::Mserver server(SmallTpch(), options);
    auto sink = profiler::FileSink::Open(trace_path);
    ASSERT_TRUE(sink.ok());
    server.profiler()->AddSink(std::move(sink).value());
    auto outcome = server.ExecuteSql(tpch::GetQuery("q1").value().sql);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    plan_size = outcome.value().plan->size();
    std::ofstream(dot_path) << outcome.value().dot;
    ASSERT_TRUE(server.profiler()->GetFilter().Matches(
        profiler::TraceEvent{}));  // default filter passes all
  }

  // Fresh session: dot file -> svg -> in-memory graph (the paper's shared
  // workflow steps), trace file -> events.
  std::ifstream dot_in(dot_path);
  std::string dot_text((std::istreambuf_iterator<char>(dot_in)),
                       std::istreambuf_iterator<char>());
  auto graph0 = dot::ParseDot(dot_text);
  ASSERT_TRUE(graph0.ok());
  auto layout = layout::LayoutGraph(graph0.value());
  ASSERT_TRUE(layout.ok());
  auto svg_doc = layout::ParseSvg(
      layout::LayoutToSvg(graph0.value(), layout.value()));
  ASSERT_TRUE(svg_doc.ok());
  dot::Graph graph = layout::SvgToGraph(svg_doc.value());
  EXPECT_EQ(graph.num_nodes(), plan_size);

  auto events = scope::ReadTraceFile(trace_path);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events.value().size(), 2 * plan_size);

  scope::ReplayOptions replay;
  replay.render_interval_us = 0;
  auto replayer =
      scope::OfflineReplayer::Create(graph, events.value(), replay);
  ASSERT_TRUE(replayer.ok());
  auto played = replayer.value()->Play(1e12, events.value().size());
  ASSERT_TRUE(played.ok());
  EXPECT_EQ(played.value(), events.value().size());
  // All instructions completed -> every node green.
  for (size_t pc = 0; pc < plan_size; ++pc) {
    EXPECT_EQ(replayer.value()
                  ->NodeColor(dot::NodeName(static_cast<int>(pc)))
                  .value(),
              viz::Color::Green());
  }
  // Every instruction completed exactly once.
  const analysis::TraceIndex index(events.value());
  EXPECT_EQ(index.pcs().size(), plan_size);
  for (const auto& [pc, pair] : index.pcs()) {
    EXPECT_TRUE(pair.completed() && pair.dones == 1) << pc;
  }

  std::remove(dot_path.c_str());
  std::remove(trace_path.c_str());
}

/// The online workflow of paper §4.2 over REAL loopback UDP: server
/// profiler -> UDP -> textual Stethoscope -> dot + trace demux -> graph +
/// analysis.
TEST(IntegrationTest, OnlineWorkflowOverRealUdp) {
  auto udp_receiver = net::UdpReceiver::Bind(0);
  ASSERT_TRUE(udp_receiver.ok());
  uint16_t port = udp_receiver.value()->port();

  std::string trace_path = testing::TempDir() + "/online_it.trace";
  scope::TextualOptions topt;
  topt.trace_path = trace_path;
  scope::TextualStethoscope textual(topt);
  ASSERT_TRUE(textual.AddServer("udp0", std::move(udp_receiver).value()).ok());

  server::MserverOptions options;
  options.dop = 2;
  options.mitosis_pieces = 4;
  server::Mserver server(SmallTpch(), options);
  auto udp_sender = net::UdpSender::Connect(port);
  ASSERT_TRUE(udp_sender.ok());
  server.AttachStream(
      std::shared_ptr<net::DatagramSender>(std::move(udp_sender).value()));

  // Launch the query in a separate thread (online-mode shape).
  std::thread query([&server] {
    auto outcome = server.ExecuteSql(tpch::GetQuery("q6").value().sql);
    EXPECT_TRUE(outcome.ok());
  });
  // Await the dot file + EOF on the stream.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (textual.FinishedQueries().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  query.join();
  ASSERT_FALSE(textual.FinishedQueries().empty());
  std::string name = textual.FinishedQueries().front();

  auto dot_text = textual.DotFor(name);
  ASSERT_TRUE(dot_text.ok());
  auto graph = dot::ParseDot(dot_text.value());
  ASSERT_TRUE(graph.ok());
  EXPECT_GT(graph.value().num_nodes(), 0u);

  // UDP on loopback delivers the full trace here: 2 events per node.
  auto buffer = textual.BufferSnapshot();
  EXPECT_EQ(buffer.size(), 2 * graph.value().num_nodes());
  auto util = scope::AnalyzeThreadUtilization(buffer);
  EXPECT_GT(util.wall_us, 0);
  textual.Stop();
  ASSERT_TRUE(textual.Flush().ok());

  // The redirected trace file matches the in-memory buffer.
  auto from_file = scope::ReadTraceFile(trace_path);
  ASSERT_TRUE(from_file.ok());
  EXPECT_EQ(from_file.value().size(), buffer.size());
  std::remove(trace_path.c_str());
}

/// Several queries through one monitored server session; per-query dot
/// files are kept apart and every query finishes.
TEST(IntegrationTest, MultiQueryOnlineSession) {
  server::MserverOptions options;
  options.dop = 2;
  server::Mserver server(SmallTpch(), options);
  scope::OnlineOptions online;
  online.render_interval_us = 0;
  online.analysis_period_us = 1000;

  for (const char* id : {"paper", "q6", "q14"}) {
    scope::OnlineMonitor monitor(&server, online);
    auto report = monitor.MonitorQuery(tpch::GetQuery(id).value().sql);
    ASSERT_TRUE(report.ok()) << id << ": " << report.status().ToString();
    EXPECT_DOUBLE_EQ(report.value().final_progress, 1.0) << id;
    EXPECT_EQ(report.value().graph_nodes, report.value().outcome.plan->size());
  }
}

/// Server-side filter set "through Stethoscope" (paper §3): only costly
/// done events cross the wire; the client analysis still works.
TEST(IntegrationTest, RemoteFilterReducesStream) {
  server::MserverOptions options;
  server::Mserver server(SmallTpch(), options);
  ASSERT_TRUE(server.SetProfilerFilter("start=0;done=1;min_usec=0;").ok());

  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 14);
  server.profiler()->AddSink(ring);
  auto outcome = server.ExecuteSql(tpch::GetQuery("q6").value().sql);
  ASSERT_TRUE(outcome.ok());
  auto events = ring->Snapshot();
  ASSERT_EQ(events.size(), outcome.value().plan->size());  // done only
  for (const auto& e : events) {
    EXPECT_EQ(e.state, profiler::EventState::kDone);
  }
  // Operator analysis works on the filtered stream.
  EXPECT_FALSE(scope::AnalyzeOperators(events).empty());
}

/// Two independent servers streaming into ONE textual Stethoscope — the
/// paper's distributed-sources scenario (§3.2).
TEST(IntegrationTest, TwoServersOneStethoscope) {
  scope::TextualOptions topt;
  scope::TextualStethoscope textual(topt);

  server::MserverOptions options;
  options.dop = 2;
  server::Mserver server_a(SmallTpch(), options);
  server::Mserver server_b(SmallTpch(), options);
  for (server::Mserver* server : {&server_a, &server_b}) {
    auto receiver = net::UdpReceiver::Bind(0);
    ASSERT_TRUE(receiver.ok());
    auto sender = net::UdpSender::Connect(receiver.value()->port());
    ASSERT_TRUE(sender.ok());
    ASSERT_TRUE(textual
                    .AddServer(server == &server_a ? "A" : "B",
                               std::move(receiver).value())
                    .ok());
    server->AttachStream(
        std::shared_ptr<net::DatagramSender>(std::move(sender).value()));
  }

  std::thread qa([&] {
    EXPECT_TRUE(server_a.ExecuteSql(tpch::GetQuery("q6").value().sql).ok());
  });
  std::thread qb([&] {
    EXPECT_TRUE(server_b.ExecuteSql(tpch::GetQuery("paper").value().sql).ok());
  });
  qa.join();
  qb.join();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (textual.FinishedQueries().size() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(textual.FinishedQueries().size(), 2u);
  // Both dot files arrived and stay distinguishable even though each server
  // named its query "s0": keys are namespaced per server.
  auto dots = textual.CompletedDots();
  ASSERT_EQ(dots.size(), 2u);
  EXPECT_TRUE(textual.DotFor("A/s0").ok());
  EXPECT_TRUE(textual.DotFor("B/s0").ok());
  // The two plans differ (different queries).
  EXPECT_NE(textual.DotFor("A/s0").value(), textual.DotFor("B/s0").value());
  EXPECT_GT(textual.events_received(), 0);
  textual.Stop();
}

/// Replaying the same trace in the three coloring modes touches disjoint
/// node sets consistently.
TEST(IntegrationTest, ColoringModesConsistentOnSameTrace) {
  server::MserverOptions options;
  options.force_sequential = true;
  server::Mserver server(SmallTpch(), options);
  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 14);
  server.profiler()->AddSink(ring);
  auto outcome = server.ExecuteSql(tpch::GetQuery("q14").value().sql);
  ASSERT_TRUE(outcome.ok());
  auto graph = dot::ParseDot(outcome.value().dot);
  ASSERT_TRUE(graph.ok());
  auto events = ring->Snapshot();

  auto count_colored = [&](scope::ColoringMode mode, int64_t threshold) {
    scope::ReplayOptions replay;
    replay.render_interval_us = 0;
    replay.mode = mode;
    replay.threshold_us = threshold;
    auto replayer =
        scope::OfflineReplayer::Create(graph.value(), events, replay);
    EXPECT_TRUE(replayer.ok());
    (void)replayer.value()->Play(1e12, events.size());
    size_t colored = 0;
    for (size_t pc = 0; pc < outcome.value().plan->size(); ++pc) {
      auto c = replayer.value()->NodeColor(
          dot::NodeName(static_cast<int>(pc)));
      if (c.ok() && !(c.value() == viz::Color::Gray())) ++colored;
    }
    return colored;
  };
  // State mode colors every executed node; threshold(∞) colors none;
  // gradient colors every completed node.
  EXPECT_EQ(count_colored(scope::ColoringMode::kState, 0),
            outcome.value().plan->size());
  EXPECT_EQ(count_colored(scope::ColoringMode::kThreshold, 1LL << 60), 0u);
  EXPECT_EQ(count_colored(scope::ColoringMode::kGradient, 0),
            outcome.value().plan->size());
}

}  // namespace
}  // namespace stetho
