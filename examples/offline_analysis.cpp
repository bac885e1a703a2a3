// Offline mode (paper §4.1 / §5 "Offline Demo"): record a query's dot and
// trace files to disk, then analyze them in a fresh Stethoscope session —
// trace replay with step / fast-forward / rewind, costly-instruction
// clustering, thread utilization, per-operator memory usage, and a rendered
// display window (paper Fig. 4) written as SVG.

#include <cstdio>
#include <fstream>

#include "dot/parser.h"
#include "net/trace_stream.h"
#include "profiler/sink.h"
#include "scope/analysis.h"
#include "scope/coloring.h"
#include "scope/replayer.h"
#include "scope/timeline.h"
#include "scope/trace.h"
#include "server/mserver.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace stetho;

namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string query_id = argc > 1 ? argv[1] : "q3";
  const std::string dot_path = "offline_plan.dot";
  const std::string trace_path = "offline_trace.trace";

  // ---- recording session ----
  {
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    auto catalog = tpch::GenerateTpch(config);
    if (!catalog.ok()) return Fail(catalog.status());
    server::MserverOptions options;
    options.dop = 4;
    options.mitosis_pieces = 4;
    server::Mserver server(std::move(catalog.value()), options);

    auto file_sink = profiler::FileSink::Open(trace_path);
    if (!file_sink.ok()) return Fail(file_sink.status());
    server.profiler()->AddSink(std::move(file_sink).value());

    auto query = tpch::GetQuery(query_id);
    if (!query.ok()) return Fail(query.status());
    std::printf("recording query '%s': %s\n", query_id.c_str(),
                query.value().title.c_str());
    auto outcome = server.ExecuteSql(query.value().sql);
    if (!outcome.ok()) return Fail(outcome.status());

    std::ofstream dot_file(dot_path);
    dot_file << outcome.value().dot;
    std::printf("wrote %s (%zu plan nodes) and %s\n", dot_path.c_str(),
                outcome.value().plan->size(), trace_path.c_str());
  }

  // ---- offline analysis session: only the two files are used ----
  std::ifstream dot_in(dot_path);
  std::string dot_text((std::istreambuf_iterator<char>(dot_in)),
                       std::istreambuf_iterator<char>());
  auto graph = dot::ParseDot(dot_text);
  if (!graph.ok()) return Fail(graph.status());
  auto events = scope::ReadTraceFile(trace_path);
  if (!events.ok()) return Fail(events.status());
  std::printf("\noffline session: %zu graph nodes, %zu trace events\n",
              graph.value().num_nodes(), events.value().size());

  scope::ReplayOptions replay_options;
  replay_options.render_interval_us = 0;
  replay_options.mode = scope::ColoringMode::kGradient;
  auto replayer = scope::OfflineReplayer::Create(graph.value(),
                                                 events.value(), replay_options);
  if (!replayer.ok()) return Fail(replayer.status());

  // Step-by-step walk-through of the first events...
  for (int i = 0; i < 4; ++i) {
    if (!replayer.value()->Step().ok()) break;
    std::printf("step %d -> %s\n", i + 1,
                replayer.value()->DebugWindowText().c_str());
  }
  // ...then fast-forward to the end, rewind, and seek to the middle.
  if (auto p = replayer.value()->Play(1e9, events.value().size()); !p.ok()) {
    return Fail(p.status());
  }
  std::printf("\nfast-forwarded to event %zu/%zu\n", replayer.value()->cursor(),
              replayer.value()->size());
  replayer.value()->Rewind();
  if (auto st = replayer.value()->SeekTo(events.value().size() / 2); !st.ok()) {
    return Fail(st);
  }
  std::printf("rewound and sought to event %zu\n", replayer.value()->cursor());
  if (auto st = replayer.value()->SeekTo(events.value().size()); !st.ok()) {
    return Fail(st);
  }

  // Costly-instruction clustering over the full trace.
  auto clusters = scope::FindCostlyClusters(events.value(), /*min_usec=*/100);
  std::printf("\ncostly-instruction clusters (>=100us):\n");
  for (size_t i = 0; i < clusters.size() && i < 5; ++i) {
    std::printf("  cluster %zu: events [%zu..%zu], %zu instructions, %lldus\n",
                i, clusters[i].first_event, clusters[i].last_event,
                clusters[i].pcs.size(),
                static_cast<long long>(clusters[i].total_usec));
  }

  // Thread utilization + operator memory.
  std::printf("\n%s", scope::AnalyzeThreadUtilization(events.value())
                          .ToString()
                          .c_str());
  auto ops = scope::AnalyzeOperators(events.value());
  std::printf("\nper-operator profile (top 8 by total time):\n");
  for (size_t i = 0; i < ops.size() && i < 8; ++i) {
    std::printf("  %-22s calls=%-5lld total=%-8lldus peak_rss=%lldB\n",
                ops[i].op.c_str(), static_cast<long long>(ops[i].calls),
                static_cast<long long>(ops[i].total_usec),
                static_cast<long long>(ops[i].max_rss_bytes));
  }

  // Per-thread utilization timeline (Gantt) artifact.
  std::ofstream("offline_timeline.svg")
      << scope::RenderUtilizationTimeline(events.value());
  std::printf("wrote offline_timeline.svg\n");

  // Birds-eye view + display window (paper Fig. 4) as SVG artifacts.
  std::ofstream("offline_birdseye.svg")
      << replayer.value()->BirdsEyeView().ToSvg();
  (void)replayer.value()->FocusNode("n4");
  std::ofstream("offline_display.svg")
      << replayer.value()->CurrentView().ToSvg();
  std::printf("\nwrote offline_birdseye.svg and offline_display.svg\n");
  std::printf("offline analysis OK\n");
  return 0;
}
