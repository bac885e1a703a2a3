#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/clock.h"
#include "dot/parser.h"
#include "profiler/sink.h"
#include "scope/session.h"
#include "server/mserver.h"
#include "tpch/dbgen.h"

namespace stetho::scope {
namespace {

class SessionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;
    auto cat = tpch::GenerateTpch(config);
    ASSERT_TRUE(cat.ok());
    server::MserverOptions options;
    options.force_sequential = true;
    server_ = std::make_unique<server::Mserver>(std::move(cat.value()), options);
    ring_ = std::make_shared<profiler::RingBufferSink>(1 << 14);
    server_->profiler()->AddSink(ring_);
    auto outcome = server_->ExecuteSql(
        "select l_tax from lineitem where l_partkey = 1");
    ASSERT_TRUE(outcome.ok());
    auto graph = dot::ParseDot(outcome.value().dot);
    ASSERT_TRUE(graph.ok());
    graph_ = std::move(graph).value();

    ReplayOptions replay;
    replay.clock = &clock_;
    replay.render_interval_us = 0;
    auto replayer = OfflineReplayer::Create(graph_, ring_->Snapshot(), replay);
    ASSERT_TRUE(replayer.ok());
    replayer_ = std::move(replayer).value();
    session_ = std::make_unique<InteractiveSession>(replayer_.get(), &clock_,
                                                    /*animation_ms=*/200);
  }

  VirtualClock clock_;
  std::unique_ptr<server::Mserver> server_;
  std::shared_ptr<profiler::RingBufferSink> ring_;
  dot::Graph graph_;
  std::unique_ptr<OfflineReplayer> replayer_;
  std::unique_ptr<InteractiveSession> session_;
};

TEST_F(SessionFixture, HelpListsCommands) {
  auto r = session_->Execute("help");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().find("zoom"), std::string::npos);
  EXPECT_NE(r.value().find("lens"), std::string::npos);
}

TEST_F(SessionFixture, ZoomAnimatesAltitude) {
  double before = session_->camera()->altitude();
  int64_t clock_before = clock_.NowMicros();
  auto r = session_->Execute("zoom out");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(session_->camera()->altitude(), before);
  // The transition consumed (virtual) animation time.
  EXPECT_GE(clock_.NowMicros() - clock_before, 200000);
  ASSERT_TRUE(session_->Execute("zoom in").ok());
  EXPECT_LT(session_->camera()->altitude(),
            session_->camera()->altitude() * 10 + 1);  // sane
}

TEST_F(SessionFixture, ZoomFitShowsWholeScene) {
  ASSERT_TRUE(session_->Execute("zoom fit").ok());
  viz::Frame frame = session_->Render();
  EXPECT_EQ(frame.culled, 0u);
  EXPECT_EQ(frame.commands.size(),
            replayer_->space()->size());  // everything visible
}

TEST_F(SessionFixture, PanMovesCamera) {
  ASSERT_TRUE(session_->Execute("zoom fit").ok());
  double x0 = session_->camera()->x();
  auto r = session_->Execute("pan 100 -50");
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(session_->camera()->x(), x0 + 100, 1e-6);
}

TEST_F(SessionFixture, FocusAndNextNavigate) {
  auto r = session_->Execute("focus n3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().find("focused n3"), std::string::npos);
  EXPECT_NE(r.value().find("sql.bind"), std::string::npos);
  auto next = session_->Execute("next");
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next.value().find("focused n4"), std::string::npos);
  auto prev = session_->Execute("prev");
  ASSERT_TRUE(prev.ok());
  EXPECT_NE(prev.value().find("focused n3"), std::string::npos);
  EXPECT_FALSE(session_->Execute("focus bogus").ok());
}

TEST_F(SessionFixture, LensToggles) {
  EXPECT_FALSE(session_->lens_active());
  ASSERT_TRUE(session_->Execute("lens on 4").ok());
  EXPECT_TRUE(session_->lens_active());
  viz::Frame with_lens = session_->Render();
  ASSERT_TRUE(session_->Execute("lens off").ok());
  EXPECT_FALSE(session_->lens_active());
  EXPECT_FALSE(session_->Execute("lens sideways").ok());
  (void)with_lens;
}

TEST_F(SessionFixture, TransportCommands) {
  auto r = session_->Execute("step");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().find("state=start"), std::string::npos);
  ASSERT_TRUE(session_->Execute("play 1000 6").ok());
  EXPECT_EQ(replayer_->cursor(), 7u);
  ASSERT_TRUE(session_->Execute("back").ok());
  EXPECT_EQ(replayer_->cursor(), 6u);
  auto progress = session_->Execute("progress");
  ASSERT_TRUE(progress.ok());
  EXPECT_NE(progress.value().find("6/"), std::string::npos);
  ASSERT_TRUE(session_->Execute("seek 0").ok());
  ASSERT_TRUE(session_->Execute("rewind").ok());
  EXPECT_EQ(replayer_->cursor(), 0u);
}

TEST_F(SessionFixture, TooltipDebugView) {
  ASSERT_TRUE(session_->Execute("play 1e9 100").ok());
  auto tip = session_->Execute("tooltip n2");
  ASSERT_TRUE(tip.ok());
  EXPECT_NE(tip.value().find("sql.tid"), std::string::npos);
  auto dbg = session_->Execute("debug");
  ASSERT_TRUE(dbg.ok());
  EXPECT_NE(dbg.value().find("state=done"), std::string::npos);
  EXPECT_TRUE(session_->Execute("view").ok());
  EXPECT_TRUE(session_->Execute("birdseye").ok());
}

TEST_F(SessionFixture, FilterOptionsWindow) {
  size_t full = replayer_->size();
  auto r = session_->Execute("filter start=0;done=1;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(replayer_->size(), full / 2);  // done events only
  EXPECT_TRUE(replayer_->filtered());
  EXPECT_EQ(replayer_->cursor(), 0u);  // filter rewinds
  // Stepping now sees only done events.
  ASSERT_TRUE(session_->Execute("step").ok());
  EXPECT_NE(session_->Execute("debug").value().find("state=done"),
            std::string::npos);
  ASSERT_TRUE(session_->Execute("filter off").ok());
  EXPECT_EQ(replayer_->size(), full);
  EXPECT_FALSE(replayer_->filtered());
  EXPECT_FALSE(session_->Execute("filter bogus=1;").ok());
}

TEST_F(SessionFixture, ModuleFilter) {
  auto r = session_->Execute("filter modules=algebra;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(replayer_->size(), 0u);
  EXPECT_LT(replayer_->size(), replayer_->events_filtered_out() +
                                   replayer_->size());
  for (const auto& e : replayer_->events()) {
    EXPECT_NE(e.stmt.find("algebra."), std::string::npos);
  }
}

TEST_F(SessionFixture, UnknownAndMalformedCommands) {
  EXPECT_FALSE(session_->Execute("teleport").ok());
  EXPECT_FALSE(session_->Execute("").ok());
  EXPECT_FALSE(session_->Execute("pan 1").ok());
  EXPECT_FALSE(session_->Execute("play fast now").ok());
  EXPECT_FALSE(session_->Execute("seek -nope").ok());
}

TEST_F(SessionFixture, ScreenshotCommands) {
  std::string svg_path = testing::TempDir() + "/session_shot.svg";
  std::string ppm_path = testing::TempDir() + "/session_shot.ppm";
  ASSERT_TRUE(session_->Execute("zoom fit").ok());
  ASSERT_TRUE(session_->Execute("shot " + svg_path).ok());
  ASSERT_TRUE(session_->Execute("shot " + ppm_path).ok());
  std::ifstream svg_in(svg_path);
  std::string svg((std::istreambuf_iterator<char>(svg_in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  std::ifstream ppm_in(ppm_path, std::ios::binary);
  std::string header(2, '\0');
  ppm_in.read(header.data(), 2);
  EXPECT_EQ(header, "P6");
  std::remove(svg_path.c_str());
  std::remove(ppm_path.c_str());
  EXPECT_FALSE(session_->Execute("shot").ok());
}

TEST_F(SessionFixture, TranscriptRecordsSuccessfulCommands) {
  ASSERT_TRUE(session_->Execute("zoom fit").ok());
  ASSERT_TRUE(session_->Execute("step").ok());
  (void)session_->Execute("bogus");
  ASSERT_EQ(session_->transcript().size(), 2u);
  EXPECT_EQ(session_->transcript()[0].first, "zoom fit");
  EXPECT_EQ(session_->transcript()[1].first, "step");
}

}  // namespace
}  // namespace stetho::scope
