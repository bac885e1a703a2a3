// Online mode (paper §4.2 / §5 "Online Demo"): monitor live query execution.
//
// The server streams its plan's dot file and the profiler trace over the
// datagram stream; the textual Stethoscope demultiplexes them; a monitoring
// thread applies the §4.2.1 pair-sequence coloring algorithm to the glyph
// scene while the query runs. A second session shows the paper's anomaly:
// a server that silently executes sequentially although parallelism was
// expected.

#include <cstdio>
#include <fstream>

#include "scope/online.h"
#include "server/mserver.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace stetho;

namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

storage::Catalog MakeCatalog() {
  tpch::TpchConfig config;
  config.scale_factor = 0.01;
  auto catalog = tpch::GenerateTpch(config);
  if (!catalog.ok()) {
    std::fprintf(stderr, "dbgen failed\n");
    std::exit(1);
  }
  return std::move(catalog.value());
}

void PrintReport(const scope::OnlineReport& r) {
  std::printf("  query: %s\n", r.outcome.sql.c_str());
  std::printf("  plan nodes: %zu, events: %lld (filtered %lld)\n",
              r.graph_nodes, static_cast<long long>(r.events_received),
              static_cast<long long>(r.events_filtered));
  std::printf("  analysis rounds: %zu, node color updates: %zu\n",
              r.analysis_rounds, r.color_updates);
  std::printf("  progress: %.0f%%\n", 100.0 * r.final_progress);
  std::printf("  %s\n", r.parallelism.summary.c_str());
  std::printf("  utilization:\n%s",
              scope::AnalyzeThreadUtilization(r.events).ToString().c_str());
}

}  // namespace

int main() {
  // ---- healthy parallel server ----
  {
    server::MserverOptions options;
    options.dop = 4;
    options.mitosis_pieces = 8;
    server::Mserver server(MakeCatalog(), options);

    scope::OnlineOptions online;
    online.render_interval_us = 1000;  // fast pacing: batch demo
    online.trace_path = "online_trace.trace";
    scope::OnlineMonitor monitor(&server, online);

    auto q6 = tpch::GetQuery("q6");
    if (!q6.ok()) return Fail(q6.status());
    std::printf("== monitoring TPC-H Q6 on a parallel server (dop=4, "
                "mitosis=8) ==\n");
    auto report = monitor.MonitorQuery(q6.value().sql);
    if (!report.ok()) return Fail(report.status());
    PrintReport(report.value());

    // The colored scene is available for inspection after the run.
    std::ofstream("online_display.svg")
        << monitor.scene()->BirdsEyeView().ToSvg();
    std::printf("  wrote online_display.svg and online_trace.trace\n");
  }

  // ---- the paper's uncovered anomaly: sequential where parallel expected --
  {
    server::MserverOptions options;
    options.dop = 4;
    options.mitosis_pieces = 8;
    options.force_sequential = true;  // the kernel misbehaves
    server::Mserver server(MakeCatalog(), options);

    scope::OnlineOptions online;
    online.render_interval_us = 1000;
    scope::OnlineMonitor monitor(&server, online);
    std::printf("\n== same query on a misbehaving server ==\n");
    auto report = monitor.MonitorQuery(tpch::GetQuery("q6").value().sql);
    if (!report.ok()) return Fail(report.status());
    PrintReport(report.value());
    if (!report.value().parallelism.sequential_anomaly) {
      std::fprintf(stderr, "expected the sequential-execution anomaly!\n");
      return 1;
    }
  }
  std::printf("\nonline monitoring OK\n");
  return 0;
}
