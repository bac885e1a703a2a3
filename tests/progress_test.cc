#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/progress.h"
#include "mal/parser.h"
#include "scope/trace.h"
#include "server/mserver.h"
#include "tpch/dbgen.h"

namespace stetho::analysis {
namespace {

using profiler::EventState;
using profiler::TraceEvent;

std::string ExamplePath(const char* name) {
  return std::string(STETHO_EXAMPLES_DIR) + "/" + name;
}

/// The recorded demo artifacts: the c4_q1 plan (with its cardinality
/// pragmas, so the byte model is bounded) and its trace's done-events in
/// emission order — the ground truth the estimator is graded against.
class ProgressExampleTest : public ::testing::Test {
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
    for (const TraceEvent& e : events.value()) {
      if (e.state == EventState::kDone) done_.push_back(e);
    }
    ASSERT_FALSE(done_.empty());
    std::stable_sort(done_.begin(), done_.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.time_us < b.time_us;
                     });
  }

  std::shared_ptr<const ProgressModel> Model() const {
    return ProgressModel::Build(engine::PreparedPlan(program_));
  }

  mal::Program program_;
  std::vector<TraceEvent> done_;  // done-events in emission-time order
};

TEST_F(ProgressExampleTest, ModelPricesEveryInstruction) {
  auto model = Model();
  ASSERT_EQ(model->plan_size(), program_.size());
  double sum = 0;
  for (size_t pc = 0; pc < model->plan_size(); ++pc) {
    EXPECT_GE(model->weight(static_cast<int>(pc)), 1.0) << pc;
    sum += model->weight(static_cast<int>(pc));
  }
  EXPECT_DOUBLE_EQ(model->total_weight(), sum);
  EXPECT_GT(model->critical_path_weight(), 0.0);
  EXPECT_LE(model->critical_path_weight(), model->total_weight());
  // Nothing done: the full critical path remains.
  std::vector<bool> none(model->plan_size(), false);
  EXPECT_DOUBLE_EQ(model->RemainingCriticalWeight(none),
                   model->critical_path_weight());
  std::vector<bool> all(model->plan_size(), true);
  EXPECT_DOUBLE_EQ(model->RemainingCriticalWeight(all), 0.0);
}

TEST_F(ProgressExampleTest, RatioMonotoneAndFinishesAtOne) {
  ProgressEstimator estimator(Model());
  EXPECT_DOUBLE_EQ(estimator.ratio(), 0.0);
  EXPECT_EQ(estimator.EtaUsec(), -1);  // nothing observed yet
  double last = 0.0;
  for (const TraceEvent& e : done_) {
    estimator.ObserveEvent(e);
    const double r = estimator.ratio();
    EXPECT_GE(r, last);
    EXPECT_LE(r, 1.0);
    last = r;
  }
  EXPECT_GT(estimator.done_count(), 0);
  EXPECT_GT(last, 0.9);  // the trace covers (nearly) the whole plan
  estimator.MarkFinished();
  EXPECT_DOUBLE_EQ(estimator.ratio(), 1.0);
  EXPECT_EQ(estimator.EtaUsec(), 0);
  EXPECT_NE(estimator.ScoreboardLine("q1").find("100.0%"), std::string::npos);
}

TEST_F(ProgressExampleTest, StartEventsDoNotAdvanceProgress) {
  ProgressEstimator estimator(Model());
  TraceEvent start = done_.front();
  start.state = EventState::kStart;
  estimator.ObserveEvent(start);
  EXPECT_EQ(estimator.done_count(), 0);
  EXPECT_DOUBLE_EQ(estimator.ratio(), 0.0);
}

TEST_F(ProgressExampleTest, DuplicateDoneEventsAccountOnce) {
  ProgressEstimator estimator(Model());
  estimator.ObserveEvent(done_.front());
  const double once = estimator.ratio();
  estimator.ObserveEvent(done_.front());  // duplicated delivery
  EXPECT_EQ(estimator.done_count(), 1);
  EXPECT_DOUBLE_EQ(estimator.ratio(), once);
}

/// Satellite (f) acceptance: replay the recorded trace into the estimator
/// in event-time order and grade the ETA at the halfway point (first sample
/// at ratio >= 0.5) against the true remaining event-time. The model prices
/// work in bytes, not microseconds, so the grade is a 2x band, not
/// equality.
TEST_F(ProgressExampleTest, EtaAtHalfwayWithinTwofoldOfTruth) {
  ProgressEstimator estimator(Model());
  const int64_t end_us = done_.back().time_us;
  int64_t eta = -1;
  int64_t truth = -1;
  for (const TraceEvent& e : done_) {
    estimator.ObserveEvent(e);
    if (eta < 0 && estimator.ratio() >= 0.5) {
      eta = estimator.EtaUsec();
      truth = end_us - e.time_us;
    }
  }
  ASSERT_GE(eta, 0) << "never reached the halfway point";
  ASSERT_GT(truth, 0) << "halfway fell on the last event; trace too small";
  EXPECT_GE(eta, truth / 2) << "eta " << eta << "us vs true " << truth << "us";
  EXPECT_LE(eta, truth * 2) << "eta " << eta << "us vs true " << truth << "us";
}

TEST_F(ProgressExampleTest, CacheSharesOneModelAcrossQueryNames) {
  ProgressModelCache cache(4);
  mal::Program a = program_;
  a.set_function_name("user.s0");
  mal::Program b = program_;
  b.set_function_name("user.s17");  // same shape, server-renamed
  auto ma = cache.GetOrBuild(engine::PreparedPlan(a));
  auto mb = cache.GetOrBuild(engine::PreparedPlan(b));
  EXPECT_EQ(ma.get(), mb.get());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(ProgressScoreboardTest, MserverProgressTextTracksQueries) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions options;
  options.dop = 2;
  server::Mserver server(std::move(cat.value()), options);
  EXPECT_NE(server.ProgressText().find("no queries tracked"),
            std::string::npos);
  auto outcome = server.ExecuteSql("select count(*) from nation");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  std::string board = server.ProgressText();
  EXPECT_NE(board.find(outcome.value().name), std::string::npos) << board;
  EXPECT_NE(board.find("100.0%"), std::string::npos) << board;
}

}  // namespace
}  // namespace stetho::analysis
