#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "analysis/perfdiff.h"
#include "analysis/trace_index.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/profile_store.h"
#include "profiler/sink.h"
#include "server/mserver.h"
#include "server/result_printer.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho::server {
namespace {

/// Current value of the process-global slow-query counter (0 before the
/// first slow query registers it) — delta-assert against this, the
/// registry is shared across cases.
int64_t SlowQueriesValue() {
  auto value = obs::Registry::Default()->CounterValue("stetho_slow_queries_total");
  return value.ok() ? value.value() : 0;
}

storage::Catalog TinyCatalog() {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  EXPECT_TRUE(cat.ok());
  return std::move(cat.value());
}

TEST(MserverTest, ExecutePaperQuery) {
  Mserver server(TinyCatalog(), MserverOptions{});
  auto r = server.ExecuteSql("select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().name, "s0");
  EXPECT_FALSE(r.value().dot.empty());
  EXPECT_GT(r.value().plan->size(), 0u);
  ASSERT_EQ(r.value().result.columns.size(), 1u);
}

// The two products differ in the seventh significant digit, which CSE once
// dropped by keying constants on their %g rendering, so b came back equal
// to a.
TEST(MserverTest, NearlyEqualDoubleConstantsStayApart) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  Mserver server(std::move(cat.value()), MserverOptions{});
  auto r = server.ExecuteSql(
      "select sum(l_extendedprice * 1.0000001) as a, "
      "sum(l_extendedprice * 1.0000002) as b from lineitem");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<engine::ResultColumn>& columns = r.value().result.columns;
  ASSERT_EQ(columns.size(), 2u);
  std::vector<double> sums;
  for (const engine::ResultColumn& column : columns) {
    const storage::Value value =
        column.is_scalar ? column.scalar : column.column->GetValue(0);
    auto sum = value.ToDouble();
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    sums.push_back(sum.value());
  }
  EXPECT_NEAR(sums[1] / sums[0], 1.0000002 / 1.0000001, 1e-12);
}

TEST(MserverTest, QueryNamesIncrement) {
  Mserver server(TinyCatalog(), MserverOptions{});
  auto a = server.ExecuteSql("select l_tax from lineitem where l_partkey = 1");
  auto b = server.ExecuteSql("select l_tax from lineitem where l_partkey = 2");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().name, "s0");
  EXPECT_EQ(b.value().name, "s1");
  EXPECT_NE(a.value().plan->program().function_name(), b.value().plan->program().function_name());
}

TEST(MserverTest, ExplainDoesNotExecute) {
  Mserver server(TinyCatalog(), MserverOptions{});
  auto plan = server.Explain("select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT(plan.value().size(), 0u);
  EXPECT_EQ(plan.value().instruction(0).FullName(), "language.dataflow");
}

TEST(MserverTest, MitosisGrowsPlan) {
  MserverOptions plain_opts;
  Mserver plain(TinyCatalog(), plain_opts);
  MserverOptions split_opts;
  split_opts.mitosis_pieces = 8;
  Mserver split(TinyCatalog(), split_opts);
  const char* sql = "select l_tax from lineitem where l_partkey = 1";
  auto a = plain.Explain(sql);
  auto b = split.Explain(sql);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b.value().size(), a.value().size());
}

TEST(MserverTest, ProfilerEventsFlowDuringQuery) {
  Mserver server(TinyCatalog(), MserverOptions{});
  auto ring = std::make_shared<profiler::RingBufferSink>(10000);
  server.profiler()->AddSink(ring);
  auto r = server.ExecuteSql("select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(r.ok());
  // Two events per instruction.
  EXPECT_EQ(ring->total_consumed(),
            static_cast<int64_t>(2 * r.value().plan->size()));
}

TEST(MserverTest, FilterSetRemotely) {
  Mserver server(TinyCatalog(), MserverOptions{});
  auto ring = std::make_shared<profiler::RingBufferSink>(10000);
  server.profiler()->AddSink(ring);
  ASSERT_TRUE(server.SetProfilerFilter("start=0;done=1;").ok());
  auto r = server.ExecuteSql("select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(r.ok());
  auto events = ring->Snapshot();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_EQ(e.state, profiler::EventState::kDone);
  }
  EXPECT_FALSE(server.SetProfilerFilter("garbage").ok());
}

TEST(MserverTest, StreamCarriesDotThenTraceThenEof) {
  Mserver server(TinyCatalog(), MserverOptions{});
  auto [sender, receiver] = net::Channel::CreatePair(1 << 18);
  server.AttachStream(std::shared_ptr<net::DatagramSender>(std::move(sender)));
  auto r = server.ExecuteSql("select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(r.ok());

  // A datagram carries one or more newline-separated lines.
  std::vector<std::string> lines;
  std::string payload;
  while (true) {
    auto got = receiver->Receive(&payload, 10);
    if (!got.ok() || !got.value()) break;
    for (std::string& line : Split(payload, '\n')) {
      lines.push_back(std::move(line));
    }
  }
  ASSERT_GT(lines.size(), 4u);
  EXPECT_EQ(lines.front().rfind("%DOT-BEGIN", 0), 0u);
  EXPECT_EQ(lines.back().rfind("%EOF", 0), 0u);
  // Dot content precedes all trace lines.
  size_t dot_end = 0;
  size_t first_trace = lines.size();
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("%DOT-END", 0) == 0) dot_end = i;
    if (lines[i].front() == '[' && i < first_trace) first_trace = i;
  }
  EXPECT_LT(dot_end, first_trace);
  EXPECT_LT(first_trace, lines.size());
}

TEST(MserverTest, ForceSequentialUsesOneThread) {
  MserverOptions options;
  options.force_sequential = true;
  Mserver server(TinyCatalog(), options);
  auto r = server.ExecuteSql("select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(r.ok());
  for (const auto& stat : r.value().result.stats) {
    EXPECT_EQ(stat.thread, 0);
  }
}

// --- budgeted admission (memory gate between optimize and execute) ---

obs::Counter* AdmissionCounterByName(const char* outcome) {
  return obs::Registry::Default()->GetOrCreateCounter(
      std::string("stetho_admission_") + outcome + "_total", "");
}

TEST(MserverAdmissionTest, TinyBudgetRejectsWithPredictedPeak) {
  MserverOptions options;
  options.mem_budget_bytes = 1024;  // far below any real plan's peak
  Mserver server(TinyCatalog(), options);
  obs::Counter* rejected = AdmissionCounterByName("rejected");
  int64_t rejected_before = rejected->value();
  auto r = server.ExecuteSql(tpch::GetQuery("q1").value().sql);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("predicted peak"), std::string::npos);
  EXPECT_NE(r.status().message().find("budget"), std::string::npos);
  EXPECT_EQ(rejected->value(), rejected_before + 1);
}

TEST(MserverAdmissionTest, GenerousBudgetAdmitsAndExportsPrediction) {
  MserverOptions options;
  options.mem_budget_bytes = int64_t{1} << 40;
  Mserver server(TinyCatalog(), options);
  obs::Counter* admitted = AdmissionCounterByName("admitted");
  obs::Gauge* predicted = obs::Registry::Default()->GetOrCreateGauge(
      "stetho_mem_predicted_peak_bytes", "");
  int64_t admitted_before = admitted->value();
  auto r = server.ExecuteSql(tpch::GetQuery("q1").value().sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(admitted->value(), admitted_before + 1);
  // The exported prediction is a genuine upper bound for this very run.
  EXPECT_GE(predicted->value(), r.value().result.peak_rss_bytes);
}

TEST(MserverAdmissionTest, QueuesUntilEngineMemoryDrains) {
  MserverOptions options;
  options.mem_budget_bytes = int64_t{1} << 40;
  options.admission_wait_ms = 2000;
  Mserver server(TinyCatalog(), options);
  obs::Counter* queued = AdmissionCounterByName("queued");
  obs::Counter* admitted = AdmissionCounterByName("admitted");
  int64_t queued_before = queued->value();
  int64_t admitted_before = admitted->value();
  // Simulate another query holding the whole budget, releasing it shortly:
  // the gauge is the interpreter's live-byte mirror, so a raw Add looks
  // exactly like in-flight registers (restored below).
  obs::Gauge* live = obs::Registry::Default()->GetOrCreateGauge(
      "stetho_engine_live_bytes",
      "Live column bytes currently held by executing queries "
      "(Column::MemoryBytes accounting)");
  live->Add(options.mem_budget_bytes);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    live->Add(-options.mem_budget_bytes);
  });
  auto r = server.ExecuteSql(tpch::GetQuery("q6").value().sql);
  releaser.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(queued->value(), queued_before + 1);
  EXPECT_EQ(admitted->value(), admitted_before + 1);
}

TEST(MserverAdmissionTest, QueueTimeoutRejects) {
  MserverOptions options;
  options.mem_budget_bytes = int64_t{1} << 40;
  options.admission_wait_ms = 20;
  Mserver server(TinyCatalog(), options);
  obs::Counter* rejected = AdmissionCounterByName("rejected");
  int64_t rejected_before = rejected->value();
  obs::Gauge* live = obs::Registry::Default()->GetOrCreateGauge(
      "stetho_engine_live_bytes",
      "Live column bytes currently held by executing queries "
      "(Column::MemoryBytes accounting)");
  live->Add(options.mem_budget_bytes);  // headroom never appears
  auto r = server.ExecuteSql(tpch::GetQuery("q6").value().sql);
  live->Add(-options.mem_budget_bytes);  // restore the global gauge
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("queueing"), std::string::npos);
  EXPECT_EQ(rejected->value(), rejected_before + 1);
}

TEST(MserverProfileTest, ExecuteFoldsIntoInjectedStore) {
  obs::ProfileStore store;
  MserverOptions options;
  options.dop = 2;
  options.profile_store = &store;
  Mserver server(TinyCatalog(), options);

  const int64_t slow_before = SlowQueriesValue();
  auto r = server.ExecuteSql("select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const uint64_t shape = analysis::PlanShapeHash(r.value().plan->program());
  auto profile = store.Lookup(shape);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->queries, 1);
  EXPECT_EQ(profile->plan_size, r.value().plan->size());
  EXPECT_EQ(profile->pcs.size(), r.value().plan->size());
  EXPECT_GE(profile->total_usec.max(), 0);
  // First run of the shape: no pre-fold baseline, so nothing is "slow".
  EXPECT_EQ(SlowQueriesValue(), slow_before);

  // A second run of the same SQL folds into the same shape despite the
  // fresh function name.
  ASSERT_TRUE(
      server.ExecuteSql("select l_tax from lineitem where l_partkey = 1")
          .ok());
  profile = store.Lookup(shape);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->queries, 2);
}

/// A VirtualClock that moves 10 us forward on every read. The server has no
/// per-instruction padding option, so this stands in for
/// `ExecOptions::pad_instruction_usec`: every instruction gets a non-zero
/// duration and the dataflow slots overlap, with no real sleep.
class PaddedClock : public VirtualClock {
 public:
  static constexpr int64_t kPadUs = 10;

  int64_t NowMicros() const override {
    return VirtualClock::NowMicros() +
           kPadUs * reads_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<int64_t> reads_{0};
};

// The fold pin: what the server stores for a finished query equals a fold
// of the observation built from the interpreter's own per-pc record
// (QueryResult::stats): each pc's [start_us, start_us + usec] interval and
// the concurrency at its start, its duration and its live bytes after,
// both clamped at 0.
TEST(MserverProfileTest, FoldEqualsObservationOfInstructionStats) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  PaddedClock clock;
  obs::ProfileStore store;
  MserverOptions options;
  options.dop = 2;
  options.mitosis_pieces = 4;
  options.profile_store = &store;
  options.slow_query_factor = 0;
  options.clock = &clock;
  Mserver server(std::move(cat.value()), options);

  const auto& queries = tpch::TpchQueries();
  auto q1 = std::find_if(queries.begin(), queries.end(),
                         [](const tpch::TpchQuery& q) { return q.id == "q1"; });
  ASSERT_NE(q1, queries.end());
  auto r = server.ExecuteSql(q1->sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryOutcome& outcome = r.value();
  const uint64_t shape = outcome.plan->shape_hash();
  ASSERT_EQ(outcome.result.stats.size(), outcome.plan->size());

  obs::QueryObservation observation;
  observation.shape_hash = shape;
  observation.plan_size = outcome.plan->size();
  observation.total_usec = outcome.result.total_usec;
  std::vector<analysis::ExecInterval> intervals;
  for (const engine::InstructionStat& stat : outcome.result.stats) {
    const int64_t done_us = stat.start_us + stat.usec;
    intervals.push_back({done_us - std::max<int64_t>(0, stat.usec), done_us});
  }
  const std::vector<int> concurrency = analysis::ConcurrencyAtStart(intervals);
  for (size_t i = 0; i < outcome.result.stats.size(); ++i) {
    const engine::InstructionStat& stat = outcome.result.stats[i];
    obs::PcSample sample;
    sample.pc = stat.pc;
    sample.usec = std::max<int64_t>(0, stat.usec);
    sample.bytes = std::max<int64_t>(0, stat.rss_after_bytes);
    sample.concurrency = concurrency[i];
    EXPECT_GT(sample.usec, 0) << "pc " << stat.pc;
    observation.pcs.push_back(sample);
  }
  obs::ProfileStore expected_store;
  ASSERT_TRUE(expected_store.Fold(observation).ok());

  std::shared_ptr<const obs::PlanProfile> got = store.Lookup(shape);
  std::shared_ptr<const obs::PlanProfile> want = expected_store.Lookup(shape);
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(got->queries, want->queries);
  EXPECT_EQ(got->plan_size, want->plan_size);
  EXPECT_TRUE(got->total_usec == want->total_usec);
  ASSERT_EQ(got->pcs.size(), want->pcs.size());
  for (size_t pc = 0; pc < got->pcs.size(); ++pc) {
    EXPECT_TRUE(got->pcs[pc].usec == want->pcs[pc].usec) << "pc " << pc;
    EXPECT_TRUE(got->pcs[pc].bytes == want->pcs[pc].bytes) << "pc " << pc;
    EXPECT_TRUE(got->pcs[pc].concurrency == want->pcs[pc].concurrency)
        << "pc " << pc;
  }
}

TEST(MserverProfileTest, SlowQueryLogsAndEmitsPostmortem) {
  const std::string dir = testing::TempDir() + "mserver_flight";
  mkdir(dir.c_str(), 0755);

  obs::ProfileStore store;
  MserverOptions options;
  options.dop = 2;
  options.profile_store = &store;
  options.slow_query_factor = 3.0;
  options.flight_dir = dir;
  Mserver server(TinyCatalog(), options);

  const std::string sql = "select l_tax from lineitem where l_partkey = 1";
  // Seed a pathologically fast baseline for this shape (median 1us), so
  // the real run blows past the 3x gate deterministically.
  auto plan = server.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  obs::QueryObservation seed;
  seed.shape_hash = analysis::PlanShapeHash(plan.value());
  seed.plan_size = plan.value().size();
  seed.total_usec = 1;
  ASSERT_TRUE(store.Fold(seed).ok());

  const int64_t slow_before = SlowQueriesValue();
  auto r = server.ExecuteSql(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(SlowQueriesValue(), slow_before + 1);

  const std::string path = dir + "/postmortem_" + r.value().name + ".txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::string bundle((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(bundle.find("slow query postmortem"), std::string::npos);
  EXPECT_NE(bundle.find(sql), std::string::npos);
  EXPECT_NE(bundle.find("== plan =="), std::string::npos);
  EXPECT_NE(bundle.find("== recent trace events"), std::string::npos);
  EXPECT_NE(bundle.find("== flight recorder =="), std::string::npos);
  // The attached ring captured the query's profiler events.
  EXPECT_NE(bundle.find("\"done\""), std::string::npos) << bundle;
  std::remove(path.c_str());
}

TEST(MserverProfileTest, FastQueryWritesNoPostmortem) {
  // A fresh directory per run: a postmortem an earlier slow run left
  // behind must not fail this one.
  std::string dir = testing::TempDir() + "mserver_flight_quiet_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);

  obs::ProfileStore store;
  MserverOptions options;
  options.dop = 2;
  options.profile_store = &store;
  options.flight_dir = dir;
  Mserver server(TinyCatalog(), options);

  const std::string sql = "select l_tax from lineitem where l_partkey = 1";
  const int64_t slow_before = SlowQueriesValue();
  // Two comparable runs: the second judges against the first's baseline
  // and should sit well under 3x.
  ASSERT_TRUE(server.ExecuteSql(sql).ok());
  auto r = server.ExecuteSql(sql);
  ASSERT_TRUE(r.ok());
  const std::string path = dir + "/postmortem_" + r.value().name + ".txt";
  if (SlowQueriesValue() == slow_before) {
    std::ifstream in(path);
    EXPECT_FALSE(in.good());
  }
  std::remove(path.c_str());
  rmdir(dir.c_str());
}

TEST(MserverTest, CompileErrorsSurface) {
  Mserver server(TinyCatalog(), MserverOptions{});
  EXPECT_FALSE(server.ExecuteSql("select nonsense from nothing").ok());
  EXPECT_FALSE(server.Explain("not even sql").ok());
}

TEST(ResultPrinterTest, FormatsColumnsAndRows) {
  Mserver server(TinyCatalog(), MserverOptions{});
  auto r = server.ExecuteSql(
      "select l_returnflag, count(*) as n from lineitem group by "
      "l_returnflag order by l_returnflag");
  ASSERT_TRUE(r.ok());
  std::string table = FormatResultTable(r.value().result);
  EXPECT_NE(table.find("| l_returnflag |"), std::string::npos);
  EXPECT_NE(table.find(" n |"), std::string::npos);  // right-aligned header
  EXPECT_NE(table.find(" A "), std::string::npos);
  // Bordered: starts and ends with a rule.
  EXPECT_EQ(table.rfind("+--", 0), 0u);
  EXPECT_NE(table.find("rows)"), std::string::npos);
}

TEST(ResultPrinterTest, ScalarResultSingleRow) {
  Mserver server(TinyCatalog(), MserverOptions{});
  auto r = server.ExecuteSql("select count(*) from lineitem");
  ASSERT_TRUE(r.ok());
  std::string table = FormatResultTable(r.value().result);
  EXPECT_NE(table.find("(1 row)"), std::string::npos);
}

TEST(ResultPrinterTest, ElidesLongResults) {
  Mserver server(TinyCatalog(), MserverOptions{});
  auto r = server.ExecuteSql("select l_orderkey from lineitem");
  ASSERT_TRUE(r.ok());
  PrintOptions options;
  options.max_rows = 5;
  std::string table = FormatResultTable(r.value().result, options);
  EXPECT_NE(table.find("(5 of "), std::string::npos);
}

TEST(ResultPrinterTest, EmptyResult) {
  engine::QueryResult empty;
  EXPECT_EQ(FormatResultTable(empty), "(no result columns)\n");
}

TEST(MserverTest, EveryTpchQueryExecutes) {
  MserverOptions options;
  options.mitosis_pieces = 4;
  options.dop = 4;
  Mserver server(TinyCatalog(), options);
  for (const auto& q : tpch::TpchQueries()) {
    auto r = server.ExecuteSql(q.sql);
    EXPECT_TRUE(r.ok()) << q.id << ": " << r.status().ToString();
  }
}

}  // namespace
}  // namespace stetho::server
