// Quickstart: the paper's Fig. 1 pipeline in one sitting.
//
// Loads a small TPC-H catalog, starts an in-process Mserver, executes the
// paper's query (`select l_tax from lineitem where l_partkey = 1`), prints
// the optimized MAL plan (Fig. 1), an execution-trace excerpt (Fig. 3), and
// replays the trace through the Stethoscope scene with the pair-sequence
// coloring algorithm.

#include <cstdio>

#include "dot/parser.h"
#include "profiler/sink.h"
#include "scope/analysis.h"
#include "scope/mapping.h"
#include "scope/replayer.h"
#include "server/mserver.h"
#include "tpch/dbgen.h"

using namespace stetho;

int main() {
  // 1. Generate deterministic TPC-H data (SF 0.01 ≈ 60k lineitem rows).
  tpch::TpchConfig config;
  config.scale_factor = 0.01;
  auto catalog = tpch::GenerateTpch(config);
  if (!catalog.ok()) {
    std::fprintf(stderr, "dbgen failed: %s\n",
                 catalog.status().ToString().c_str());
    return 1;
  }
  std::printf("== TPC-H catalog ready: %zu lineitem rows ==\n",
              catalog.value().GetTable("lineitem").value()->num_rows());

  // 2. Start the server and attach an in-memory trace sink.
  server::MserverOptions options;
  options.dop = 4;
  options.mitosis_pieces = 4;
  server::Mserver server(std::move(catalog.value()), options);
  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 16);
  server.profiler()->AddSink(ring);

  // 3. Execute the paper's query.
  auto outcome =
      server.ExecuteSql("select l_tax from lineitem where l_partkey = 1");
  if (!outcome.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== MAL plan (paper Fig. 1) ==\n%s\n",
              outcome.value().plan->program().ToString().c_str());
  std::printf("result rows: %zu, total %lld us\n",
              outcome.value().result.columns[0].column->size(),
              static_cast<long long>(outcome.value().result.total_usec));

  // 4. The execution trace (paper Fig. 3) — first 8 lines.
  std::printf("\n== execution trace excerpt (paper Fig. 3) ==\n");
  auto events = ring->Snapshot();
  for (size_t i = 0; i < events.size() && i < 8; ++i) {
    std::printf("%s\n", profiler::FormatTraceLine(events[i]).c_str());
  }
  std::printf("... (%zu events total)\n", events.size());

  // 5. Replay the trace on the plan graph with state coloring.
  auto graph = dot::ParseDot(outcome.value().dot);
  if (!graph.ok()) return 1;
  scope::ReplayOptions replay_options;
  replay_options.render_interval_us = 0;  // no pacing for a batch demo
  auto replayer = scope::OfflineReplayer::Create(
      graph.value(), events, replay_options);
  if (!replayer.ok()) return 1;
  auto played = replayer.value()->Play(/*speed=*/1e9, events.size());
  if (!played.ok()) return 1;
  std::printf("\n== replayed %zu events; node n4 tooltip ==\n%s\n",
              played.value(),
              replayer.value()->TooltipFor(scope::NodeForPc(4)).c_str());

  // 6. Run-time analyses.
  std::printf("\n== thread utilization ==\n%s",
              scope::AnalyzeThreadUtilization(events).ToString().c_str());
  auto ops = scope::AnalyzeOperators(events);
  std::printf("\n== top operators ==\n");
  for (size_t i = 0; i < ops.size() && i < 5; ++i) {
    std::printf("  %-22s calls=%-4lld total=%lldus max_rss=%lldB\n",
                ops[i].op.c_str(), static_cast<long long>(ops[i].calls),
                static_cast<long long>(ops[i].total_usec),
                static_cast<long long>(ops[i].max_rss_bytes));
  }
  std::printf("\nquickstart OK\n");
  return 0;
}
