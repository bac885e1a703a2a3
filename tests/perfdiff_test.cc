#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/checks.h"
#include "analysis/perfdiff.h"
#include "analysis/runner.h"
#include "engine/prepared_plan.h"
#include "mal/parser.h"
#include "obs/profile_store.h"
#include "profiler/sink.h"
#include "scope/trace.h"
#include "server/mserver.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho::analysis {
namespace {

using obs::PcSample;
using obs::PlanProfile;
using obs::ProfileStore;
using obs::ProfileStoreOptions;
using obs::QueryObservation;
using obs::RobustStat;
using profiler::EventState;
using profiler::TraceEvent;

std::string ExamplePath(const char* name) {
  return std::string(STETHO_EXAMPLES_DIR) + "/" + name;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

/// A deterministic synthetic observation: `plan_size` pcs with durations
/// spread over three octaves so median/MAD are nontrivial.
QueryObservation MakeObservation(uint64_t shape_hash, size_t plan_size,
                                 int64_t usec_scale) {
  QueryObservation observation;
  observation.shape_hash = shape_hash;
  observation.plan_size = plan_size;
  observation.total_usec = static_cast<int64_t>(plan_size) * usec_scale;
  for (size_t pc = 0; pc < plan_size; ++pc) {
    PcSample sample;
    sample.pc = static_cast<int>(pc);
    sample.usec = usec_scale * static_cast<int64_t>(1 + pc % 7);
    sample.bytes = static_cast<int64_t>(1) << (pc % 16);
    sample.concurrency = static_cast<int>(1 + pc % 4);
    observation.pcs.push_back(sample);
  }
  return observation;
}

// --- RobustStat -----------------------------------------------------------

TEST(RobustStatTest, ObserveTracksCountSumMinMax) {
  RobustStat stat;
  EXPECT_EQ(stat.count(), 0);
  EXPECT_EQ(stat.Median(), 0.0);
  for (int64_t v : {100, 200, 400, 800, 1600}) stat.Observe(v);
  EXPECT_EQ(stat.count(), 5);
  EXPECT_EQ(stat.sum(), 3100);
  EXPECT_EQ(stat.min(), 100);
  EXPECT_EQ(stat.max(), 1600);
}

TEST(RobustStatTest, MedianIsWithinBucketError) {
  RobustStat stat;
  for (int i = 0; i < 101; ++i) stat.Observe(1000);
  // The log-bucket center is within ~4.5% of the true value.
  EXPECT_NEAR(stat.Median(), 1000.0, 1000.0 * 0.045);
  EXPECT_NEAR(stat.Mad(), 0.0, 1.0);
}

TEST(RobustStatTest, MergeEqualsFoldingEverySample) {
  RobustStat left;
  RobustStat right;
  RobustStat all;
  for (int64_t v = 1; v <= 50; ++v) {
    (v % 2 == 0 ? left : right).Observe(v * 13);
    all.Observe(v * 13);
  }
  RobustStat merged = left;
  merged.Merge(right);
  EXPECT_EQ(merged, all);
  // Merge is commutative: the opposite order lands on the same state.
  RobustStat flipped = right;
  flipped.Merge(left);
  EXPECT_EQ(flipped, all);
}

TEST(RobustStatTest, SerializeParseRoundTrip) {
  RobustStat stat;
  for (int64_t v : {0, 1, 7, 7, 4096, 123456789}) stat.Observe(v);
  RobustStat parsed;
  ASSERT_TRUE(RobustStat::Parse(stat.Serialize(), &parsed));
  EXPECT_EQ(parsed, stat);

  RobustStat garbage;
  EXPECT_FALSE(RobustStat::Parse("", &garbage));
  EXPECT_FALSE(RobustStat::Parse("not,a,stat", &garbage));
  EXPECT_FALSE(RobustStat::Parse("1,2,3", &garbage));
}

// --- The regression rule --------------------------------------------------

// Each gate at its edge, one step either side: the ratio gate at exactly
// 1.5 and the error ratio at exactly 2.0, the excess gate at exactly
// 4 * MAD and at exactly the 10us floor, and the 1us floor under the ratio
// for a sub-microsecond median.
TEST(RegressionRuleTest, GatesHoldAtTheirEdges) {
  const struct {
    const char* edge;
    int64_t observed;
    double median;
    double mad;
    double want_ratio;  ///< 0 = no regression
  } kCases[] = {
      {"ratio exactly 1.5", 150, 100, 0, 1.5},
      {"ratio just below 1.5", 149, 100, 0, 0},
      {"ratio exactly 2.0", 200, 100, 0, 2.0},
      {"ratio just below 2.0", 199, 100, 0, 1.99},
      {"excess exactly 4*MAD", 60, 20, 10, 3.0},
      {"excess just below 4*MAD", 59, 20, 10, 0},
      {"excess exactly 10us", 14, 4, 1, 3.5},
      {"excess just below 10us", 13, 4, 1, 0},
      {"median below 1us", 11, 0.25, 0, 11.0},
      {"median below 1us, excess below 10us", 10, 0.25, 0, 0},
  };
  for (const auto& c : kCases) {
    std::optional<double> ratio =
        obs::RegressionRatio(c.observed, c.median, c.mad);
    if (c.want_ratio == 0) {
      EXPECT_FALSE(ratio.has_value()) << c.edge;
      continue;
    }
    ASSERT_TRUE(ratio.has_value()) << c.edge;
    EXPECT_DOUBLE_EQ(*ratio, c.want_ratio) << c.edge;
    EXPECT_EQ(*ratio >= obs::kRegressionErrorRatio, c.want_ratio >= 2.0)
        << c.edge;
  }
}

// --- ProfileStore ---------------------------------------------------------

TEST(ProfileStoreTest, FoldThenLookup) {
  ProfileStore store;
  ASSERT_TRUE(store.Fold(MakeObservation(0xabcdef, 8, 100)).ok());
  ASSERT_TRUE(store.Fold(MakeObservation(0xabcdef, 8, 120)).ok());
  EXPECT_EQ(store.size(), 1u);

  auto profile = store.Lookup(0xabcdef);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->queries, 2);
  EXPECT_EQ(profile->plan_size, 8u);
  ASSERT_EQ(profile->pcs.size(), 8u);
  EXPECT_EQ(profile->pcs[0].usec.count(), 2);
  EXPECT_EQ(profile->total_usec.count(), 2);

  EXPECT_EQ(store.Lookup(0x1234), nullptr);
  // Observations without a shape hash are rejected.
  EXPECT_FALSE(store.Fold(MakeObservation(0, 8, 100)).ok());
}

TEST(ProfileStoreTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("perfdiff_roundtrip.profile");
  ProfileStore store;
  ASSERT_TRUE(store.Fold(MakeObservation(0x11, 6, 50)).ok());
  ASSERT_TRUE(store.Fold(MakeObservation(0x11, 6, 75)).ok());
  ASSERT_TRUE(store.Fold(MakeObservation(0x22, 3, 10)).ok());
  ASSERT_TRUE(store.SaveFile(path).ok());

  ProfileStore loaded;
  ASSERT_TRUE(loaded.LoadFile(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.corrupt_lines(), 0);

  auto original = store.Lookup(0x11);
  auto restored = loaded.Lookup(0x11);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->queries, original->queries);
  EXPECT_EQ(restored->total_usec, original->total_usec);
  ASSERT_EQ(restored->pcs.size(), original->pcs.size());
  for (size_t pc = 0; pc < restored->pcs.size(); ++pc) {
    EXPECT_EQ(restored->pcs[pc].usec, original->pcs[pc].usec) << pc;
    EXPECT_EQ(restored->pcs[pc].bytes, original->pcs[pc].bytes) << pc;
    EXPECT_EQ(restored->pcs[pc].concurrency, original->pcs[pc].concurrency)
        << pc;
  }
  std::remove(path.c_str());
}

TEST(ProfileStoreTest, OpenDirJournalsAndCompacts) {
  const std::string dir = TempPath("perfdiff_journal_dir");
  const std::string journal = dir + "/profile.journal";
  std::remove(journal.c_str());
  mkdir(dir.c_str(), 0755);
  {
    ProfileStore store;
    ASSERT_TRUE(store.OpenDir(dir).ok());
    ASSERT_TRUE(store.Fold(MakeObservation(0x33, 4, 40)).ok());
    ASSERT_TRUE(store.Fold(MakeObservation(0x33, 4, 44)).ok());
  }
  // The journal now carries per-query q-records appended after the (empty)
  // compacted state.
  {
    std::ifstream in(journal);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("q "), std::string::npos);
  }
  // Reopening replays the q-records and rewrites the journal compacted to
  // one p-record per shape.
  {
    ProfileStore store;
    ASSERT_TRUE(store.OpenDir(dir).ok());
    auto profile = store.Lookup(0x33);
    ASSERT_NE(profile, nullptr);
    EXPECT_EQ(profile->queries, 2);

    std::ifstream in(journal);
    ASSERT_TRUE(in.good());
    std::string line;
    int p_records = 0;
    int q_records = 0;
    while (std::getline(in, line)) {
      if (line.rfind("p ", 0) == 0) ++p_records;
      if (line.rfind("q ", 0) == 0) ++q_records;
    }
    EXPECT_EQ(p_records, 1);
    EXPECT_EQ(q_records, 0);
  }
  std::remove(journal.c_str());
}

TEST(ProfileStoreTest, CorruptLinesAreCountedNotFatal) {
  const std::string path = TempPath("perfdiff_corrupt.profile");
  {
    ProfileStore store;
    ASSERT_TRUE(store.Fold(MakeObservation(0x44, 2, 30)).ok());
    ASSERT_TRUE(store.SaveFile(path).ok());
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "this is not a record\n";
    out << "q zz nonsense\n";
    out << "p 00 truncated\n";
  }
  ProfileStore store;
  ASSERT_TRUE(store.LoadFile(path).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.corrupt_lines(), 3);
  auto profile = store.Lookup(0x44);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->queries, 1);

  ProfileStore missing;
  EXPECT_FALSE(missing.LoadFile(TempPath("does_not_exist.profile")).ok());
  std::remove(path.c_str());
}

TEST(ProfileStoreTest, CapacityEvictsLeastRecentlyTouched) {
  ProfileStoreOptions options;
  options.capacity = 2;
  ProfileStore store(options);
  ASSERT_TRUE(store.Fold(MakeObservation(0x1, 2, 10)).ok());
  ASSERT_TRUE(store.Fold(MakeObservation(0x2, 2, 10)).ok());
  // Touch shape 1 so shape 2 is the eviction victim.
  ASSERT_NE(store.Lookup(0x1), nullptr);
  ASSERT_TRUE(store.Fold(MakeObservation(0x3, 2, 10)).ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_NE(store.Lookup(0x1), nullptr);
  EXPECT_EQ(store.Lookup(0x2), nullptr);
  EXPECT_NE(store.Lookup(0x3), nullptr);
}

TEST(ProfileStoreTest, ConcurrentFoldAndLookup) {
  ProfileStore store;
  constexpr int kThreads = 4;
  constexpr int kFolds = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      for (int i = 0; i < kFolds; ++i) {
        const uint64_t shape = 0x100 + static_cast<uint64_t>(i % 8);
        ASSERT_TRUE(store.Fold(MakeObservation(shape, 4, 10 + t)).ok());
        auto profile = store.Lookup(shape);
        ASSERT_NE(profile, nullptr);
        ASSERT_GE(profile->queries, 1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(store.size(), 8u);
  auto profile = store.Lookup(0x100);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->queries, kThreads * kFolds / 8);
}

// --- Shape hashing + trace observation on the recorded artifacts ----------

class PerfdiffExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::ifstream in(ExamplePath("c4_q1.mal"));
    ASSERT_TRUE(in.good()) << "missing " << ExamplePath("c4_q1.mal");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto program = mal::ParseProgram(text);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();

    auto events = scope::ReadTraceFile(ExamplePath("c4_q1.trace"));
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    trace_ = std::move(events).value();
    ASSERT_FALSE(trace_.empty());
  }

  /// The example trace with its slowest instruction's done event
  /// inflated 5x: well past both the 2.0x ratio gate and the 4*MAD jitter
  /// floor. Reports that pc and its original duration.
  std::vector<TraceEvent> InjectSlowdown(int* slow_pc, int64_t* slow_usec) {
    *slow_pc = -1;
    *slow_usec = 0;
    for (const PcSample& sample : ObservationFromTrace(trace_).pcs) {
      if (sample.usec > *slow_usec) {
        *slow_usec = sample.usec;
        *slow_pc = sample.pc;
      }
    }
    std::vector<TraceEvent> slow_trace = trace_;
    for (TraceEvent& event : slow_trace) {
      if (event.pc == *slow_pc && event.state == EventState::kDone) {
        event.usec *= 5;
      }
    }
    return slow_trace;
  }

  mal::Program program_;
  std::vector<TraceEvent> trace_;
};

// The three happens-before checks read one replay per lint, not one each.
TEST_F(PerfdiffExampleTest, DefaultLintReplaysTheScheduleOnce) {
  CheckContext ctx;
  ctx.program = &program_;
  ctx.trace = &trace_;
  obs::Registry* registry = obs::Registry::Default();
  Runner::Default().Run(ctx);  // registers the counter
  const int64_t replays =
      registry->CounterValue("stetho_hb_replays_total").value();
  Runner::Default().Run(ctx);
  EXPECT_EQ(registry->CounterValue("stetho_hb_replays_total").value(),
            replays + 1);
}

TEST_F(PerfdiffExampleTest, PlanAndTraceShapeHashesAgree) {
  const uint64_t plan_hash = PlanShapeHash(program_);
  EXPECT_NE(plan_hash, 0u);
  // The recorded trace covers every pc, so hashing its statement texts in
  // pc order reproduces the plan-shape key exactly.
  EXPECT_EQ(TraceShapeHash(trace_), plan_hash);
}

TEST_F(PerfdiffExampleTest, ShapeHashIsFunctionNameBlind) {
  std::string renamed = program_.ToString();
  const size_t at = renamed.find("user.main");
  ASSERT_NE(at, std::string::npos);
  renamed.replace(at, 9, "user.renamed");
  auto program = mal::ParseProgram(renamed);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(PlanShapeHash(program.value()), PlanShapeHash(program_));
}

// The prepared plan hashes the text it renders once; that hash must be the
// key every stored profile already uses: the rendered-program hash, the
// hash of the executed query's own trace, and the key recorded in
// examples/c4_q1.profile for examples/c4_q1.mal.
TEST(PreparedPlanTest, HashMatchesRenderedAndTraceHash) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  for (int m : {0, 16, 128}) {
    obs::ProfileStore store;
    server::MserverOptions options;
    options.dop = 2;
    options.mitosis_pieces = m;
    options.profile_store = &store;
    server::Mserver server(cat.value(), options);
    for (const tpch::TpchQuery& query : tpch::TpchQueries()) {
      SCOPED_TRACE(query.id + " m=" + std::to_string(m));
      auto ring = std::make_shared<profiler::RingBufferSink>(1 << 16);
      server.profiler()->ClearSinks();
      server.profiler()->AddSink(ring);
      auto outcome = server.ExecuteSql(query.sql);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      const engine::PreparedPlan& plan = *outcome.value().plan;
      EXPECT_EQ(plan.shape_hash(), PlanShapeHash(plan.program()));
      EXPECT_EQ(plan.shape_hash(), TraceShapeHash(ring->Snapshot()));
      // The server folded the run under the prepared hash.
      ASSERT_NE(store.Lookup(plan.shape_hash()), nullptr);
    }
  }

  std::ifstream mal(ExamplePath("c4_q1.mal"));
  std::string text((std::istreambuf_iterator<char>(mal)),
                   std::istreambuf_iterator<char>());
  auto program = mal::ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::ifstream profile(ExamplePath("c4_q1.profile"));
  std::string kind;
  std::string key;
  ASSERT_TRUE(profile >> kind >> key);
  ASSERT_EQ(kind, "p");
  const uint64_t recorded = std::stoull(key, nullptr, 16);
  EXPECT_EQ(engine::PreparedPlan(program.value()).shape_hash(), recorded);
  EXPECT_EQ(PlanShapeHash(program.value()), recorded);
}

TEST_F(PerfdiffExampleTest, ObservationFromTraceCoversEveryPc) {
  QueryObservation observation = ObservationFromTrace(trace_);
  EXPECT_EQ(observation.shape_hash, PlanShapeHash(program_));
  EXPECT_EQ(observation.plan_size, program_.size());
  EXPECT_EQ(observation.pcs.size(), program_.size());
  EXPECT_GT(observation.total_usec, 0);
  for (const PcSample& sample : observation.pcs) {
    EXPECT_GE(sample.usec, 0);
    EXPECT_GE(sample.concurrency, 1);
  }
}

// --- trace-perf-regression ------------------------------------------------

TEST_F(PerfdiffExampleTest, RegressionCheckIsQuietOnItsOwnBaseline) {
  ProfileStore store;
  QueryObservation observation = ObservationFromTrace(trace_);
  observation.shape_hash = PlanShapeHash(program_);
  ASSERT_TRUE(store.Fold(observation).ok());

  auto check = MakeTracePerfRegressionCheck();
  CheckContext context;
  context.program = &program_;
  context.trace = &trace_;
  context.profile = &store;
  std::vector<Diagnostic> findings;
  check->Run(context, &findings);
  EXPECT_TRUE(findings.empty()) << findings.front().ToString();
}

TEST_F(PerfdiffExampleTest, RegressionCheckFlagsInjectedSlowdown) {
  ProfileStore store;
  QueryObservation observation = ObservationFromTrace(trace_);
  observation.shape_hash = PlanShapeHash(program_);
  ASSERT_TRUE(store.Fold(observation).ok());

  int slow_pc;
  int64_t slow_usec;
  std::vector<TraceEvent> slow_trace = InjectSlowdown(&slow_pc, &slow_usec);
  ASSERT_GE(slow_pc, 0);

  auto check = MakeTracePerfRegressionCheck();
  CheckContext context;
  context.program = &program_;
  context.trace = &slow_trace;
  context.profile = &store;
  std::vector<Diagnostic> findings;
  check->Run(context, &findings);
  ASSERT_FALSE(findings.empty());
  bool flagged = false;
  for (const Diagnostic& finding : findings) {
    EXPECT_EQ(finding.check_id, "trace-perf-regression");
    if (finding.pc == slow_pc) {
      flagged = true;
      EXPECT_EQ(finding.severity, Severity::kError) << finding.ToString();
    }
  }
  EXPECT_TRUE(flagged);
}

TEST_F(PerfdiffExampleTest, RegressionCheckNotesMissingBaseline) {
  ProfileStore store;  // empty: shape never observed
  auto check = MakeTracePerfRegressionCheck();
  CheckContext context;
  context.program = &program_;
  context.trace = &trace_;
  context.profile = &store;
  std::vector<Diagnostic> findings;
  check->Run(context, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kNote);
  EXPECT_EQ(findings[0].check_id, "trace-perf-regression");
}

// --- DiffTraces -----------------------------------------------------------

TEST_F(PerfdiffExampleTest, DiffAgainstSelfIsFlat) {
  TraceDiff diff = DiffTraces(trace_, trace_, &program_);
  EXPECT_TRUE(diff.shapes_match);
  EXPECT_EQ(diff.a_hash, diff.b_hash);
  EXPECT_EQ(diff.a_makespan_usec, diff.b_makespan_usec);
  EXPECT_GT(diff.a_critical_usec, 0);
  EXPECT_EQ(diff.a_critical_usec, diff.b_critical_usec);
  EXPECT_TRUE(diff.only_a.empty());
  EXPECT_TRUE(diff.only_b.empty());
  for (const PcDelta& delta : diff.deltas) {
    EXPECT_EQ(delta.delta_usec, 0) << delta.pc;
    // ratio is b / max(a, 1), so a zero-duration pc self-diffs to 0.
    if (delta.a_usec > 0) EXPECT_DOUBLE_EQ(delta.ratio, 1.0) << delta.pc;
  }
}

TEST_F(PerfdiffExampleTest, DiffSurfacesInjectedSlowdownFirst) {
  int slow_pc;
  int64_t slow_usec;
  std::vector<TraceEvent> slow_trace = InjectSlowdown(&slow_pc, &slow_usec);

  TraceDiff diff = DiffTraces(trace_, slow_trace, &program_);
  EXPECT_TRUE(diff.shapes_match);
  ASSERT_FALSE(diff.deltas.empty());
  // Deltas sort by absolute change, so the injected pc leads the report.
  EXPECT_EQ(diff.deltas[0].pc, slow_pc);
  EXPECT_EQ(diff.deltas[0].delta_usec, slow_usec * 4);
  EXPECT_NEAR(diff.deltas[0].ratio, 5.0, 0.01);

  const std::string report = FormatTraceDiff(diff);
  EXPECT_NE(report.find("shape"), std::string::npos);
  EXPECT_NE(report.find("pc " + std::to_string(slow_pc)),
            std::string::npos);
}

TEST_F(PerfdiffExampleTest, DiffReportMatchesGolden) {
  int slow_pc;
  int64_t slow_usec;
  std::vector<TraceEvent> slow_trace = InjectSlowdown(&slow_pc, &slow_usec);
  const std::string report =
      FormatTraceDiff(DiffTraces(trace_, slow_trace, &program_));

  const std::string golden_path =
      std::string(STETHO_TESTS_DIR) + "/golden/c4_q1_diff.txt";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(report, golden) << "diff report diverged from " << golden_path;
}

TEST(DiffTracesTest, ReportsUnmatchedPcs) {
  auto make_pair = [](int pc, int64_t usec, const std::string& stmt) {
    TraceEvent start;
    start.pc = pc;
    start.state = EventState::kStart;
    start.time_us = pc * 100;
    start.stmt = stmt;
    TraceEvent done = start;
    done.state = EventState::kDone;
    done.time_us = start.time_us + usec;
    done.usec = usec;
    return std::vector<TraceEvent>{start, done};
  };
  std::vector<TraceEvent> a;
  std::vector<TraceEvent> b;
  for (const TraceEvent& e : make_pair(0, 10, "X_1 := a.b();")) {
    a.push_back(e);
    b.push_back(e);
  }
  for (const TraceEvent& e : make_pair(1, 20, "X_2 := c.d(X_1);"))
    a.push_back(e);
  for (const TraceEvent& e : make_pair(2, 30, "X_3 := e.f(X_1);"))
    b.push_back(e);

  TraceDiff diff = DiffTraces(a, b, nullptr);
  EXPECT_FALSE(diff.shapes_match);
  EXPECT_EQ(diff.a_critical_usec, -1);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_EQ(diff.deltas[0].pc, 0);
  ASSERT_EQ(diff.only_a.size(), 1u);
  EXPECT_EQ(diff.only_a[0], 1);
  ASSERT_EQ(diff.only_b.size(), 1u);
  EXPECT_EQ(diff.only_b[0], 2);
}

}  // namespace
}  // namespace stetho::analysis
