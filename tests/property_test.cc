// Property-based and parameterized sweeps across module invariants.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "dot/graph.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "engine/interpreter.h"
#include "layout/sugiyama.h"
#include "layout/svg.h"
#include "mal/parser.h"
#include "optimizer/pass.h"
#include "profiler/event.h"
#include "scope/coloring.h"
#include "sql/compiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "viz/lens.h"

namespace stetho {
namespace {

using profiler::EventState;
using profiler::TraceEvent;

// ---------------------------------------------------------------------------
// Query sweep: every TPC-H query must produce identical results under every
// execution strategy (sequential, dataflow, dataflow + mitosis).
// ---------------------------------------------------------------------------

class QueryEquivalenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    auto cat = tpch::GenerateTpch(config);
    ASSERT_TRUE(cat.ok());
    catalog_ = new storage::Catalog(std::move(cat.value()));
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static storage::Catalog* catalog_;
};

storage::Catalog* QueryEquivalenceTest::catalog_ = nullptr;

void ExpectSameResults(const engine::QueryResult& a,
                       const engine::QueryResult& b, const std::string& tag) {
  ASSERT_EQ(a.columns.size(), b.columns.size()) << tag;
  for (size_t c = 0; c < a.columns.size(); ++c) {
    const auto& ca = a.columns[c];
    const auto& cb = b.columns[c];
    ASSERT_EQ(ca.is_scalar, cb.is_scalar) << tag;
    if (ca.is_scalar) {
      EXPECT_EQ(ca.scalar.Compare(cb.scalar), 0) << tag;
      continue;
    }
    ASSERT_EQ(ca.column->size(), cb.column->size()) << tag << " col " << c;
    for (size_t i = 0; i < ca.column->size(); ++i) {
      ASSERT_EQ(ca.column->GetValue(i), cb.column->GetValue(i))
          << tag << " col " << c << " row " << i;
    }
  }
}

TEST_P(QueryEquivalenceTest, AllSchedulersAgree) {
  const std::string sql = tpch::GetQuery(GetParam()).value().sql;
  auto base = sql::Compiler::CompileSql(catalog_, sql);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  engine::Interpreter interp(catalog_);
  engine::ExecOptions seq;
  seq.use_dataflow = false;
  auto ref = interp.Execute(base.value(), seq);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  engine::ExecOptions par;
  par.num_threads = 4;
  auto dataflow = interp.Execute(base.value(), par);
  ASSERT_TRUE(dataflow.ok());
  ExpectSameResults(ref.value(), dataflow.value(), "dataflow");

  for (int pieces : {2, 7, 16}) {
    mal::Program optimized = base.value();
    optimizer::Pipeline pipeline = optimizer::Pipeline::Default(pieces);
    auto fired = pipeline.Run(&optimized);
    ASSERT_TRUE(fired.ok()) << fired.status().ToString();
    auto split = interp.Execute(optimized, par);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    ExpectSameResults(ref.value(), split.value(),
                      "mitosis x" + std::to_string(pieces));
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, QueryEquivalenceTest,
                         ::testing::Values("paper", "q1", "q3", "q5", "q6",
                                           "q12", "q14", "big_group",
                                           "scan_heavy", "q18", "q11",
                                           "q16", "distinct_flags"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Trace-line round trip over randomized events.
// ---------------------------------------------------------------------------

class TraceRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceRoundTripTest, FormatParseIdentity) {
  SplitMix64 rng(GetParam());
  const char* stmts[] = {
      "X_1 := sql.mvc();",
      "X_9:bat[:oid] := algebra.thetaselect(X_2,X_8,1,\"==\");",
      "io.print(X_5);",
      "X_4:bat[:str] := sql.bind(X_0,\"sys\",\"lineitem\",\"l_comment\",0);",
      "weird \"quotes\" and \\ backslashes",
  };
  for (int i = 0; i < 200; ++i) {
    TraceEvent e;
    e.event = static_cast<int64_t>(rng.Next() >> 1);
    e.time_us = static_cast<int64_t>(rng.Next() >> 1);
    e.pc = static_cast<int>(rng.NextBounded(10000));
    e.thread = static_cast<int>(rng.NextBounded(64));
    e.state = rng.NextBool(0.5) ? EventState::kStart : EventState::kDone;
    e.usec = static_cast<int64_t>(rng.NextBounded(1 << 30));
    e.rss_bytes = static_cast<int64_t>(rng.NextBounded(1ULL << 40));
    e.stmt = stmts[rng.NextBounded(5)];
    auto back = profiler::ParseTraceLine(profiler::FormatTraceLine(e));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back.value(), e);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTripTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// Layout invariants over random DAGs.
// ---------------------------------------------------------------------------

struct LayoutCase {
  int nodes;
  uint64_t seed;
};

class LayoutInvariantTest : public ::testing::TestWithParam<LayoutCase> {};

dot::Graph RandomDag(int n, uint64_t seed) {
  SplitMix64 rng(seed);
  dot::Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddNode("n" + std::to_string(i)).given_label =
        std::string(1 + rng.NextBounded(40), 'x');
  }
  for (int i = 1; i < n; ++i) {
    int parent = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i)));
    g.AddEdge("n" + std::to_string(parent), "n" + std::to_string(i));
    if (rng.NextBool(0.3)) {
      int extra = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i)));
      g.AddEdge("n" + std::to_string(extra), "n" + std::to_string(i));
    }
  }
  return g;
}

TEST_P(LayoutInvariantTest, StructuralInvariantsHold) {
  dot::Graph g = RandomDag(GetParam().nodes, GetParam().seed);
  auto layout = layout::LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  const layout::GraphLayout& l = layout.value();

  // 1. Every node inside the canvas.
  for (const layout::NodeLayout& n : l.nodes) {
    EXPECT_GE(n.x - n.width / 2, -1e-6);
    EXPECT_GE(n.y - n.height / 2, -1e-6);
    EXPECT_LE(n.x + n.width / 2, l.width + 1e-6);
    EXPECT_LE(n.y + n.height / 2, l.height + 1e-6);
  }
  // 2. No horizontal overlap within a layer; same layer implies same y.
  std::map<int, std::vector<const layout::NodeLayout*>> by_layer;
  for (const layout::NodeLayout& n : l.nodes) by_layer[n.layer].push_back(&n);
  for (auto& [layer, nodes] : by_layer) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_DOUBLE_EQ(nodes[i]->y, nodes[0]->y);
      for (size_t j = i + 1; j < nodes.size(); ++j) {
        double gap = std::abs(nodes[i]->x - nodes[j]->x);
        EXPECT_GE(gap + 1e-6, (nodes[i]->width + nodes[j]->width) / 2)
            << "overlap in layer " << layer;
      }
    }
  }
  // 3. Edges strictly descend (longest-path layering guarantees child layer
  //    > parent layer).
  for (const layout::EdgeLayout& e : l.edges) {
    ASSERT_EQ(e.points.size(), 2u);
    EXPECT_LT(e.points[0].y, e.points[1].y);
  }
  // 4. SVG round trip preserves topology.
  auto doc = layout::ParseSvg(layout::LayoutToSvg(g, l));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().nodes.size(), g.num_nodes());
  EXPECT_EQ(doc.value().edges.size(), g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LayoutInvariantTest,
    ::testing::Values(LayoutCase{2, 1}, LayoutCase{10, 2}, LayoutCase{10, 99},
                      LayoutCase{60, 3}, LayoutCase{60, 77},
                      LayoutCase{250, 4}, LayoutCase{250, 123},
                      LayoutCase{1000, 5}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.nodes) + "_s" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Coloring invariants over random well-formed traces.
// ---------------------------------------------------------------------------

class ColoringInvariantTest : public ::testing::TestWithParam<uint64_t> {};

/// Random well-formed trace: every start is eventually closed by its done.
std::vector<TraceEvent> RandomCompleteTrace(uint64_t seed, size_t n_instr) {
  SplitMix64 rng(seed);
  std::vector<TraceEvent> events;
  std::vector<int> open;
  int pc = 0;
  size_t started = 0;
  while (started < n_instr || !open.empty()) {
    bool can_start = started < n_instr;
    bool do_start = can_start && (open.empty() || rng.NextBool(0.5));
    TraceEvent e;
    e.time_us = static_cast<int64_t>(events.size()) * 5;
    e.thread = static_cast<int>(rng.NextBounded(4));
    e.stmt = "X := m.f();";
    if (do_start) {
      e.pc = pc++;
      e.state = EventState::kStart;
      open.push_back(e.pc);
      ++started;
    } else {
      size_t pick = rng.NextBounded(open.size());
      e.pc = open[pick];
      open.erase(open.begin() + static_cast<long>(pick));
      e.state = EventState::kDone;
      e.usec = static_cast<int64_t>(rng.NextBounded(5000));
    }
    events.push_back(std::move(e));
  }
  return events;
}

TEST_P(ColoringInvariantTest, PairSequenceProperties) {
  auto events = RandomCompleteTrace(GetParam(), 300);
  auto decisions = scope::PairSequenceColoring(events);

  // Every decided pc occurs in the buffer.
  std::map<int, int> occurrences;
  for (const TraceEvent& e : events) ++occurrences[e.pc];
  std::map<int, viz::Color> last;
  for (const auto& d : decisions) {
    ASSERT_TRUE(occurrences.count(d.pc)) << d.pc;
    ASSERT_TRUE(d.color == viz::Color::Red() || d.color == viz::Color::Green());
    last[d.pc] = d.color;
  }
  // In a complete trace every colored instruction's final state is GREEN:
  // its done event always follows any unpaired start.
  for (const auto& [pc, color] : last) {
    EXPECT_EQ(color, viz::Color::Green()) << pc;
  }
}

TEST_P(ColoringInvariantTest, ThresholdProperties) {
  auto events = RandomCompleteTrace(GetParam(), 300);
  const int64_t threshold = 2500;
  auto decisions = scope::ThresholdColoring(events, threshold);
  // RED decisions correspond exactly to done events meeting the threshold;
  // complete traces leave nothing running, so no ORANGE.
  size_t expected_red = 0;
  for (const TraceEvent& e : events) {
    if (e.state == EventState::kDone && e.usec >= threshold) ++expected_red;
  }
  size_t red = 0;
  for (const auto& d : decisions) {
    EXPECT_NE(d.color, viz::Color::Orange());
    if (d.color == viz::Color::Red()) ++red;
  }
  EXPECT_EQ(red, expected_red);
}

TEST_P(ColoringInvariantTest, GradientBounds) {
  auto events = RandomCompleteTrace(GetParam(), 300);
  auto decisions = scope::GradientColoring(events);
  for (const auto& d : decisions) {
    // Every gradient color lies on the white→red ramp: g == b, r >= g.
    EXPECT_EQ(d.color.g, d.color.b);
    EXPECT_GE(d.color.r, d.color.g);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringInvariantTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// MAL listing round trip over compiler output for every query.
// ---------------------------------------------------------------------------

class MalRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MalRoundTripTest, PrintParsePrintFixpoint) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  auto program = sql::Compiler::CompileSql(
      &cat.value(), tpch::GetQuery(GetParam()).value().sql);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  // Also exercise optimized plans (mitosis renames/multiplies variables).
  optimizer::Pipeline pipeline = optimizer::Pipeline::Default(3);
  mal::Program plan = std::move(program).value();
  ASSERT_TRUE(pipeline.Run(&plan).ok());

  std::string text = plan.ToString();
  auto parsed = mal::ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToString(), text);
  EXPECT_EQ(parsed.value().size(), plan.size());
}

INSTANTIATE_TEST_SUITE_P(AllQueries, MalRoundTripTest,
                         ::testing::Values("paper", "q1", "q3", "q5", "q6",
                                           "q12", "q14", "big_group",
                                           "scan_heavy", "q18", "q11",
                                           "q16", "distinct_flags"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Dot round trip over compiled plans.
// ---------------------------------------------------------------------------

class DotRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DotRoundTripTest, GraphSurvivesDotText) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  auto program = sql::Compiler::CompileSql(
      &cat.value(), tpch::GetQuery(GetParam()).value().sql);
  ASSERT_TRUE(program.ok());
  dot::Graph direct = dot::ProgramToGraph(program.value());
  auto parsed = dot::ParseDot(dot::ProgramToDot(program.value()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().num_nodes(), direct.num_nodes());
  ASSERT_EQ(parsed.value().num_edges(), direct.num_edges());
  for (size_t i = 0; i < direct.num_nodes(); ++i) {
    int j = parsed.value().FindNode(direct.node(i).id);
    ASSERT_GE(j, 0);
    EXPECT_EQ(parsed.value().node(static_cast<size_t>(j)).label(),
              direct.node(i).label());
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, DotRoundTripTest,
                         ::testing::Values("paper", "q1", "q3", "q6", "q14"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Fisheye lens invariants across parameter combinations.
// ---------------------------------------------------------------------------

struct LensCase {
  double radius;
  double mag;
};

class LensInvariantTest : public ::testing::TestWithParam<LensCase> {};

TEST_P(LensInvariantTest, MonotoneBoundedRimFixed) {
  viz::FisheyeLens lens(0, 0, GetParam().radius, GetParam().mag);
  double r = GetParam().radius;
  double prev = 0;
  for (int i = 1; i <= 100; ++i) {
    double d = r * i / 100.0;
    layout::Point moved = lens.Apply({d, 0});
    EXPECT_GT(moved.x, prev - 1e-12) << d;          // monotone
    EXPECT_LE(moved.x, r + 1e-9) << d;              // bounded by the rim
    EXPECT_GE(moved.x, d - 1e-9) << d;              // magnifies outward
    prev = moved.x;
  }
  layout::Point rim = lens.Apply({r, 0});
  EXPECT_NEAR(rim.x, r, 1e-9);
  EXPECT_NEAR(lens.GainAt(0), GetParam().mag, 1e-9);
  EXPECT_NEAR(lens.GainAt(r), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Params, LensInvariantTest,
    ::testing::Values(LensCase{50, 2}, LensCase{50, 8}, LensCase{200, 3},
                      LensCase{10, 1.5}, LensCase{400, 12}));

// ---------------------------------------------------------------------------
// TPC-H date arithmetic vs day-by-day reference.
// ---------------------------------------------------------------------------

class DateSweepTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DateSweepTest, AddDaysConsistentWithDayCount) {
  int64_t start = GetParam();
  int64_t days = tpch::DateToDays(start);
  for (int delta = 0; delta <= 400; ++delta) {
    int64_t date = tpch::AddDays(start, delta);
    EXPECT_EQ(tpch::DateToDays(date), days + delta);
    // Valid calendar components.
    int64_t m = (date / 100) % 100;
    int64_t d = date % 100;
    EXPECT_GE(m, 1);
    EXPECT_LE(m, 12);
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 31);
  }
}

INSTANTIATE_TEST_SUITE_P(Starts, DateSweepTest,
                         ::testing::Values(19920101, 19951230, 19960115,
                                           19981231, 20000101));

}  // namespace
}  // namespace stetho
