#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/string_util.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "layout/sugiyama.h"
#include "obs/metrics.h"
#include "optimizer/pass.h"
#include "sql/compiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "viz/animation.h"
#include "viz/camera.h"
#include "viz/color.h"
#include "viz/event_dispatch.h"
#include "viz/lens.h"
#include "viz/raster.h"
#include "viz/renderer.h"
#include "viz/virtual_space.h"

namespace stetho::viz {
namespace {

// --- Color ---

TEST(ColorTest, HexRoundTrip) {
  Color c{0x12, 0xAB, 0xEF};
  auto parsed = Color::Parse(c.ToHex());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), c);
}

TEST(ColorTest, NamedColors) {
  EXPECT_EQ(Color::Parse("red").value(), Color::Red());
  EXPECT_EQ(Color::Parse("GREEN").value(), Color::Green());
  EXPECT_FALSE(Color::Parse("mauve-ish").ok());
}

TEST(ColorTest, LerpEndpointsAndClamp) {
  Color a = Color::White();
  Color b = Color::Black();
  EXPECT_EQ(Color::Lerp(a, b, 0.0), a);
  EXPECT_EQ(Color::Lerp(a, b, 1.0), b);
  EXPECT_EQ(Color::Lerp(a, b, -5.0), a);
  EXPECT_EQ(Color::Lerp(a, b, 5.0), b);
  Color mid = Color::Lerp(a, b, 0.5);
  EXPECT_NEAR(mid.r, 128, 2);
}

// --- VirtualSpace + scene building ---

dot::Graph TwoNodeGraph() {
  dot::Graph g;
  g.AddNode("n0").given_label = "first";
  g.AddNode("n1").given_label = "second";
  g.AddEdge("n0", "n1");
  return g;
}

TEST(VirtualSpaceTest, GlyphModelMatchesZvtm) {
  // Paper §3.1: a two-node graph with one edge is represented by two shape
  // glyphs, two text glyphs, and one edge glyph — five objects.
  dot::Graph g = TwoNodeGraph();
  auto layout = layout::LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  VirtualSpace space;
  BuildScene(g, layout.value(), &space);
  EXPECT_EQ(space.size(), 5u);
  int shapes = 0;
  int texts = 0;
  int edges = 0;
  for (const Glyph& glyph : space.Snapshot()) {
    switch (glyph.kind) {
      case GlyphKind::kShape:
        ++shapes;
        break;
      case GlyphKind::kText:
        ++texts;
        break;
      case GlyphKind::kEdge:
        ++edges;
        break;
    }
  }
  EXPECT_EQ(shapes, 2);
  EXPECT_EQ(texts, 2);
  EXPECT_EQ(edges, 1);
}

TEST(VirtualSpaceTest, OwnerLookup) {
  dot::Graph g = TwoNodeGraph();
  auto layout = layout::LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  VirtualSpace space;
  BuildScene(g, layout.value(), &space);
  EXPECT_EQ(space.GlyphsForOwner("n0").size(), 2u);  // shape + text
  int shape = space.ShapeFor("n0");
  ASSERT_GE(shape, 0);
  EXPECT_EQ(space.GetGlyph(shape).value().kind, GlyphKind::kShape);
  EXPECT_EQ(space.ShapeFor("nope"), -1);
}

TEST(VirtualSpaceTest, MutateGlyph) {
  VirtualSpace space;
  Glyph g;
  g.kind = GlyphKind::kShape;
  g.owner = "n0";
  int id = space.AddGlyph(g);
  ASSERT_TRUE(space.MutateGlyph(id, [](Glyph* gg) {
    gg->fill = Color::Red();
  }).ok());
  EXPECT_EQ(space.GetGlyph(id).value().fill, Color::Red());
  EXPECT_FALSE(space.MutateGlyph(999, [](Glyph*) {}).ok());
}

TEST(VirtualSpaceTest, SnapshotZOrder) {
  VirtualSpace space;
  Glyph top;
  top.z = 5;
  top.owner = "a";
  Glyph bottom;
  bottom.z = 1;
  bottom.owner = "b";
  space.AddGlyph(top);
  space.AddGlyph(bottom);
  auto snap = space.Snapshot();
  EXPECT_EQ(snap[0].owner, "b");
  EXPECT_EQ(snap[1].owner, "a");
}

// --- Camera ---

TEST(CameraTest, ProjectUnprojectInverse) {
  Camera cam(800, 600);
  cam.MoveTo(100, 50);
  cam.SetAltitude(150);
  layout::Point world{37.5, -12.25};
  layout::Point screen = cam.Project(world);
  layout::Point back = cam.Unproject(screen);
  EXPECT_NEAR(back.x, world.x, 1e-9);
  EXPECT_NEAR(back.y, world.y, 1e-9);
}

TEST(CameraTest, AltitudeZoomsOut) {
  Camera cam(800, 600);
  cam.SetAltitude(0);
  double scale0 = cam.Scale();
  cam.SetAltitude(100);
  EXPECT_LT(cam.Scale(), scale0);
  layout::Point size = cam.VisibleSize();
  EXPECT_GT(size.x, 800);  // sees more world than the viewport at 1:1
}

TEST(CameraTest, AltitudeClampedNonNegative) {
  Camera cam(800, 600);
  cam.SetAltitude(-50);
  EXPECT_EQ(cam.altitude(), 0);
  EXPECT_DOUBLE_EQ(cam.Scale(), 1.0);
}

TEST(CameraTest, FitRectContainsRect) {
  Camera cam(800, 600);
  cam.FitRect(0, 0, 4000, 1000);
  layout::Point origin = cam.VisibleOrigin();
  layout::Point size = cam.VisibleSize();
  EXPECT_LE(origin.x, 0.0 + 1e-6);
  EXPECT_LE(origin.y, 0.0 + 1e-6);
  EXPECT_GE(origin.x + size.x, 4000 - 1e-6);
  EXPECT_GE(origin.y + size.y, 1000 - 1e-6);
}

TEST(CameraTest, FitSmallRectStaysAtUnitScale) {
  Camera cam(800, 600);
  cam.FitRect(0, 0, 100, 100);
  EXPECT_DOUBLE_EQ(cam.Scale(), 1.0);
}

// --- Animator ---

TEST(AnimatorTest, CameraAnimationReachesTarget) {
  VirtualClock clock;
  Camera cam(800, 600);
  Animator animator(&clock);
  animator.AnimateCamera(&cam, 200, 300, 50, 100000);
  EXPECT_EQ(animator.active(), 1u);
  clock.Advance(50000);
  animator.Tick();
  // Mid-flight: somewhere strictly between start and target.
  EXPECT_GT(cam.x(), 0);
  EXPECT_LT(cam.x(), 200);
  clock.Advance(60000);
  animator.Tick();
  EXPECT_DOUBLE_EQ(cam.x(), 200);
  EXPECT_DOUBLE_EQ(cam.y(), 300);
  EXPECT_DOUBLE_EQ(cam.altitude(), 50);
  EXPECT_EQ(animator.active(), 0u);
}

TEST(AnimatorTest, GlyphFillAnimation) {
  VirtualClock clock;
  VirtualSpace space;
  Glyph g;
  g.kind = GlyphKind::kShape;
  g.fill = Color::White();
  int id = space.AddGlyph(g);
  Animator animator(&clock);
  animator.AnimateGlyphFill(&space, id, Color::Red(), 10000);
  clock.Advance(20000);
  animator.Tick();
  EXPECT_EQ(space.GetGlyph(id).value().fill, Color::Red());
}

TEST(AnimatorTest, RunToCompletionOnVirtualClock) {
  VirtualClock clock;
  Camera cam(800, 600);
  Animator animator(&clock);
  animator.AnimateCamera(&cam, 10, 10, 0, 500000);
  animator.RunToCompletion(50000);
  EXPECT_DOUBLE_EQ(cam.x(), 10);
  EXPECT_EQ(animator.active(), 0u);
}

TEST(AnimatorTest, EasingMonotone) {
  double prev = 0;
  for (int i = 0; i <= 10; ++i) {
    double t = ApplyEasing(Easing::kEaseInOut, i / 10.0);
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_DOUBLE_EQ(ApplyEasing(Easing::kEaseInOut, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ApplyEasing(Easing::kEaseInOut, 1.0), 1.0);
}

// --- FisheyeLens ---

TEST(LensTest, CenterMagnificationAndRimFixed) {
  FisheyeLens lens(100, 100, 50, 3.0);
  EXPECT_NEAR(lens.GainAt(0), 3.0, 1e-9);
  EXPECT_NEAR(lens.GainAt(50), 1.0, 1e-9);
  // Point at the rim is unmoved.
  layout::Point rim{150, 100};
  layout::Point moved = lens.Apply(rim);
  EXPECT_NEAR(moved.x, rim.x, 1e-9);
}

TEST(LensTest, MagnifiesNearFocus) {
  FisheyeLens lens(0, 0, 100, 4.0);
  layout::Point p{10, 0};
  layout::Point moved = lens.Apply(p);
  EXPECT_GT(moved.x, p.x * 2);   // strongly magnified
  EXPECT_LT(moved.x, 100.0);     // never escapes the lens
}

TEST(LensTest, MonotoneRadialMapping) {
  FisheyeLens lens(0, 0, 100, 5.0);
  double prev = 0;
  for (int d = 1; d < 100; ++d) {
    layout::Point moved = lens.Apply({static_cast<double>(d), 0});
    EXPECT_GT(moved.x, prev) << "fold-over at d=" << d;
    prev = moved.x;
  }
}

TEST(LensTest, OutsideUntouched) {
  FisheyeLens lens(0, 0, 10, 3.0);
  layout::Point p{50, 50};
  layout::Point moved = lens.Apply(p);
  EXPECT_EQ(moved.x, p.x);
  EXPECT_EQ(moved.y, p.y);
  EXPECT_FALSE(lens.Contains(p));
}

// --- EventDispatchThread ---

TEST(EventDispatchTest, TasksRunInOrder) {
  VirtualClock clock;
  EventDispatchThread edt(&clock, 0);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 10; ++i) {
    edt.Post([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  edt.Drain();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventDispatchTest, RenderPacingEnforcesInterval) {
  // The paper's observation: queued rendering introduces a delay of up to
  // 150 ms between consecutive node renders. On a virtual clock the pacing
  // is exact.
  VirtualClock clock;
  EventDispatchThread edt(&clock, 150000);
  std::atomic<int> renders{0};
  for (int i = 0; i < 5; ++i) {
    edt.PostRender([&] { renders.fetch_add(1); });
  }
  edt.Drain();
  EXPECT_EQ(renders.load(), 5);
  DispatchStats stats = edt.Stats();
  EXPECT_EQ(stats.renders, 5);
  ASSERT_EQ(stats.render_gaps_us.size(), 4u);
  for (int64_t gap : stats.render_gaps_us) {
    EXPECT_GE(gap, 150000);
  }
}

TEST(EventDispatchTest, NonRenderTasksNotThrottled) {
  VirtualClock clock;
  EventDispatchThread edt(&clock, 150000);
  for (int i = 0; i < 100; ++i) {
    edt.Post([] {});
  }
  edt.Drain();
  // Virtual clock never advanced: no pacing sleeps happened.
  EXPECT_EQ(clock.NowMicros(), 0);
  EXPECT_EQ(edt.Stats().tasks_executed, 100);
}

TEST(EventDispatchTest, QueueDepthTracked) {
  VirtualClock clock;
  EventDispatchThread edt(&clock, 150000);
  for (int i = 0; i < 20; ++i) {
    edt.PostRender([] {});
  }
  edt.Drain();
  EXPECT_GE(edt.Stats().max_queue_depth, 1);
}

TEST(EventDispatchTest, ShutdownIdempotent) {
  VirtualClock clock;
  auto* edt = new EventDispatchThread(&clock, 0);
  edt->Post([] {});
  edt->Shutdown();
  edt->Shutdown();
  delete edt;
}

// --- Renderer ---

TEST(RendererTest, FrameContainsProjectedGlyphs) {
  dot::Graph g = TwoNodeGraph();
  auto layout = layout::LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  VirtualSpace space;
  BuildScene(g, layout.value(), &space);
  Camera cam(800, 600);
  cam.FitRect(0, 0, layout.value().width, layout.value().height);
  Frame frame = Renderer::RenderFrame(space, cam);
  EXPECT_EQ(frame.commands.size(), 5u);
  EXPECT_EQ(frame.culled, 0u);
  std::string svg = frame.ToSvg();
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find(">first<"), std::string::npos);
}

TEST(RendererTest, CullsOffscreenGlyphs) {
  VirtualSpace space;
  Glyph g;
  g.kind = GlyphKind::kShape;
  g.x = 1e6;
  g.y = 1e6;
  g.width = 10;
  g.height = 10;
  space.AddGlyph(g);
  Camera cam(800, 600);
  Frame frame = Renderer::RenderFrame(space, cam);
  EXPECT_TRUE(frame.commands.empty());
  EXPECT_EQ(frame.culled, 1u);
}

TEST(RendererTest, InvisibleGlyphsSkipped) {
  VirtualSpace space;
  Glyph g;
  g.kind = GlyphKind::kShape;
  g.visible = false;
  space.AddGlyph(g);
  Camera cam(800, 600);
  Frame frame = Renderer::RenderFrame(space, cam);
  EXPECT_TRUE(frame.commands.empty());
}

TEST(RendererTest, MinimapShowsViewportMarker) {
  dot::Graph g = TwoNodeGraph();
  auto layout = layout::LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  VirtualSpace space;
  BuildScene(g, layout.value(), &space);

  Camera main(800, 600);
  main.SetAltitude(0);
  main.CenterOn(layout.value().nodes[0].x, layout.value().nodes[0].y);
  Frame minimap = Renderer::RenderMinimap(space, main, 200, 150);
  EXPECT_EQ(minimap.viewport_width, 200);
  // Whole scene (5 glyphs) plus the viewport marker.
  ASSERT_EQ(minimap.commands.size(), 6u);
  const DrawCommand& marker = minimap.commands.back();
  EXPECT_EQ(marker.owner, "viewport");
  EXPECT_EQ(marker.stroke, Color::Red());
  EXPECT_GT(marker.width, 0);
  // Zooming the main camera out grows the marker.
  main.SetAltitude(500);
  Frame wider = Renderer::RenderMinimap(space, main, 200, 150);
  EXPECT_GT(wider.commands.back().width, marker.width);
}

TEST(RendererTest, MinimapFiniteWhenEveryGlyphHidden) {
  // A space whose only glyph is hidden has nothing to bound: the minimap
  // fits an empty box at the origin, so its viewport marker stays finite.
  VirtualSpace space;
  Glyph hidden;
  hidden.owner = "n0";
  hidden.x = 50;
  hidden.y = 40;
  hidden.width = 20;
  hidden.height = 10;
  hidden.visible = false;
  space.AddGlyph(hidden);
  Camera main(800, 600);
  Frame minimap = Renderer::RenderMinimap(space, main, 200, 150);
  ASSERT_EQ(minimap.commands.size(), 1u);  // the viewport marker only
  const DrawCommand& marker = minimap.commands.back();
  EXPECT_EQ(marker.owner, "viewport");
  for (double v : {marker.x, marker.y, marker.width, marker.height}) {
    EXPECT_TRUE(std::isfinite(v)) << v;
  }
}

TEST(RendererTest, LensMagnifiesNearbyGlyphs) {
  VirtualSpace space;
  Glyph g;
  g.kind = GlyphKind::kShape;
  g.x = 0;
  g.y = 0;
  g.width = 20;
  g.height = 10;
  space.AddGlyph(g);
  Camera cam(800, 600);
  cam.MoveTo(0, 0);
  // Lens centered on the glyph's screen position (viewport center).
  FisheyeLens lens(400, 300, 200, 3.0);
  Frame plain = Renderer::RenderFrame(space, cam);
  Frame magnified = Renderer::RenderFrame(space, cam, &lens);
  ASSERT_EQ(plain.commands.size(), 1u);
  ASSERT_EQ(magnified.commands.size(), 1u);
  EXPECT_GT(magnified.commands[0].width, plain.commands[0].width * 2);
}

// --- Raster ---

TEST(RasterTest, SetGetAndClipping) {
  Raster raster(10, 8, Color::White());
  EXPECT_EQ(raster.At(0, 0), Color::White());
  raster.Set(3, 4, Color::Red());
  EXPECT_EQ(raster.At(3, 4), Color::Red());
  raster.Set(-1, 0, Color::Red());   // clipped, no crash
  raster.Set(10, 8, Color::Red());
  EXPECT_EQ(raster.At(-1, 0), Color::Black());  // out of range sentinel
}

TEST(RasterTest, PpmFormat) {
  Raster raster(4, 2);
  std::string ppm = raster.ToPpm();
  EXPECT_EQ(ppm.rfind("P6\n4 2\n255\n", 0), 0u);
  EXPECT_EQ(ppm.size(), std::string("P6\n4 2\n255\n").size() + 4 * 2 * 3);
}

TEST(RasterTest, RasterizeColoredScene) {
  // One red node centered in the viewport over a white background.
  VirtualSpace space;
  Glyph shape;
  shape.kind = GlyphKind::kShape;
  shape.x = 0;
  shape.y = 0;
  shape.width = 40;
  shape.height = 20;
  shape.fill = Color::Red();
  shape.stroke = Color::Black();
  space.AddGlyph(shape);
  Camera cam(200, 100);
  cam.MoveTo(0, 0);
  Frame frame = Renderer::RenderFrame(space, cam);
  Raster raster = RasterizeFrame(frame);
  EXPECT_EQ(raster.width(), 200);
  EXPECT_EQ(raster.height(), 100);
  // Center pixel: node fill. Corner: background. Node border: stroke.
  EXPECT_EQ(raster.At(100, 50), Color::Red());
  EXPECT_EQ(raster.At(2, 2), Color::White());
  EXPECT_EQ(raster.At(100 - 20, 50), Color::Black());  // left border
}

TEST(RasterTest, EdgesDrawLines) {
  VirtualSpace space;
  Glyph edge;
  edge.kind = GlyphKind::kEdge;
  edge.x = -50;
  edge.y = 0;
  edge.x2 = 50;
  edge.y2 = 0;
  edge.stroke = Color::Black();
  space.AddGlyph(edge);
  Camera cam(200, 100);
  Frame frame = Renderer::RenderFrame(space, cam);
  Raster raster = RasterizeFrame(frame);
  // Horizontal line through the middle.
  EXPECT_EQ(raster.At(100, 50), Color::Black());
  EXPECT_EQ(raster.At(60, 50), Color::Black());
  EXPECT_EQ(raster.At(100, 40), Color::White());
}

TEST(RasterTest, DiffRatioDetectsChange) {
  Raster a(20, 20);
  Raster b(20, 20);
  EXPECT_DOUBLE_EQ(a.DiffRatio(b), 0.0);
  b.Set(0, 0, Color::Red());
  EXPECT_NEAR(a.DiffRatio(b), 1.0 / 400.0, 1e-12);
  Raster c(10, 10);
  EXPECT_DOUBLE_EQ(a.DiffRatio(c), 1.0);
}

TEST(RasterTest, ReplayChangesPixels) {
  // A colored replay produces a visually different screenshot than the
  // initial gray scene — the pixel-level proof of the coloring pipeline.
  dot::Graph g = TwoNodeGraph();
  auto layout = layout::LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  VirtualSpace space;
  BuildScene(g, layout.value(), &space);
  Camera cam(400, 300);
  cam.FitRect(0, 0, layout.value().width, layout.value().height);
  Raster before = RasterizeFrame(Renderer::RenderFrame(space, cam));
  int shape = space.ShapeFor("n0");
  ASSERT_GE(shape, 0);
  ASSERT_TRUE(space.MutateGlyph(shape, [](Glyph* gg) {
    gg->fill = Color::Green();
  }).ok());
  Raster after = RasterizeFrame(Renderer::RenderFrame(space, cam));
  EXPECT_GT(after.DiffRatio(before), 0.001);
}

// --- dirty-glyph epochs + delta rendering ---

TEST(VirtualSpaceTest, EpochTracksMutations) {
  VirtualSpace space;
  Glyph g;
  g.kind = GlyphKind::kShape;
  int id = space.AddGlyph(g);
  int64_t e0 = space.epoch();
  ASSERT_TRUE(space.SetFill(id, Color::Red()).ok());
  EXPECT_GT(space.epoch(), e0);
  // A no-op fill (same color) must not dirty the glyph.
  int64_t e1 = space.epoch();
  ASSERT_TRUE(space.SetFill(id, Color::Red()).ok());
  EXPECT_EQ(space.epoch(), e1);
  EXPECT_TRUE(space.SnapshotSince(e1).empty());
}

TEST(VirtualSpaceTest, SnapshotSinceReturnsOnlyDirtyGlyphs) {
  VirtualSpace space;
  Glyph g;
  g.kind = GlyphKind::kShape;
  int a = space.AddGlyph(g);
  int b = space.AddGlyph(g);
  int64_t epoch = 0;
  auto all = space.Snapshot(&epoch);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(space.SnapshotSince(epoch).empty());
  ASSERT_TRUE(space.SetFill(b, Color::Green()).ok());
  auto dirty = space.SnapshotSince(epoch);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].id, b);
  EXPECT_EQ(dirty[0].fill, Color::Green());
  // The other glyph is untouched.
  EXPECT_NE(a, b);
}

TEST(VirtualSpaceTest, AddGlyphsMatchesRepeatedAddGlyph) {
  Glyph g;
  g.kind = GlyphKind::kShape;
  g.owner = "n0";
  VirtualSpace one_by_one;
  VirtualSpace batched;
  std::vector<Glyph> batch;
  for (int i = 0; i < 5; ++i) {
    Glyph gi = g;
    gi.z = i % 2;
    one_by_one.AddGlyph(gi);
    batch.push_back(gi);
  }
  int first = batched.AddGlyphs(std::move(batch));
  EXPECT_EQ(first, 0);
  ASSERT_EQ(batched.size(), one_by_one.size());
  auto a = one_by_one.Snapshot();
  auto b = batched.Snapshot();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].z, b[i].z);
  }
  EXPECT_EQ(batched.GlyphsForOwner("n0").size(), 5u);
}

TEST(VirtualSpaceTest, AddGlyphAfterAddGlyphsKeepsIdsAndOwnerChain) {
  VirtualSpace space;
  std::vector<Glyph> batch;
  for (const char* owner : {"a", "b", "a"}) {
    Glyph g;
    g.kind = GlyphKind::kText;
    g.owner = owner;
    batch.push_back(g);
  }
  EXPECT_EQ(space.AddGlyphs(std::move(batch)), 0);
  Glyph shape;
  shape.kind = GlyphKind::kShape;
  shape.owner = "a";
  EXPECT_EQ(space.AddGlyph(shape), 3);
  shape.owner = "c";
  EXPECT_EQ(space.AddGlyph(shape), 4);
  std::vector<Glyph> more(2);
  more[0].owner = "b";
  more[1].owner = "a";
  EXPECT_EQ(space.AddGlyphs(std::move(more)), 5);
  ASSERT_EQ(space.size(), 7u);
  for (int id = 0; id < 7; ++id) {
    EXPECT_EQ(space.GetGlyph(id).value().id, id);
  }
  EXPECT_EQ(space.GlyphsForOwner("a"), (std::vector<int>{0, 2, 3, 6}));
  EXPECT_EQ(space.GlyphsForOwner("b"), (std::vector<int>{1, 5}));
  EXPECT_EQ(space.GlyphsForOwner("c"), (std::vector<int>{4}));
  EXPECT_TRUE(space.GlyphsForOwner("d").empty());
  EXPECT_EQ(space.ShapeFor("a"), 3);
  EXPECT_EQ(space.ShapeFor("b"), 5);  // the batch's glyphs default to shapes
  EXPECT_EQ(space.ShapeFor("c"), 4);
  EXPECT_EQ(space.ShapeFor("d"), -1);
}

TEST(RendererTest, RenderDeltaContainsOnlyChangedGlyphs) {
  dot::Graph g = TwoNodeGraph();
  auto layout = layout::LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  VirtualSpace space;
  BuildScene(g, layout.value(), &space);
  Camera cam(400, 300);
  cam.FitRect(0, 0, layout.value().width, layout.value().height);
  Frame full = Renderer::RenderFrame(space, cam);
  EXPECT_TRUE(Renderer::RenderDelta(space, cam, full.epoch).commands.empty());
  int shape = space.ShapeFor("n1");
  ASSERT_GE(shape, 0);
  ASSERT_TRUE(space.SetFill(shape, Color::Red()).ok());
  Frame delta = Renderer::RenderDelta(space, cam, full.epoch);
  ASSERT_EQ(delta.commands.size(), 1u);
  EXPECT_EQ(delta.commands[0].glyph, shape);
  EXPECT_EQ(delta.commands[0].fill, Color::Red());
}

TEST(RasterTest, IncrementalDeltaMatchesFullRedraw) {
  // Pixel-identity: dirty-rect redraw == full re-rasterization after a
  // sequence of color changes.
  dot::Graph g = TwoNodeGraph();
  auto layout = layout::LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  VirtualSpace space;
  BuildScene(g, layout.value(), &space);
  Camera cam(400, 300);
  cam.FitRect(0, 0, layout.value().width, layout.value().height);
  Frame full = Renderer::RenderFrame(space, cam);
  IncrementalRasterizer inc(400, 300);
  inc.Draw(full);
  int64_t epoch = full.epoch;
  const Color colors[] = {Color::Red(), Color::Green(), Color::Orange()};
  const char* nodes[] = {"n0", "n1", "n0"};
  for (int step = 0; step < 3; ++step) {
    int shape = space.ShapeFor(nodes[step]);
    ASSERT_GE(shape, 0);
    ASSERT_TRUE(space.SetFill(shape, colors[step]).ok());
    Frame delta = Renderer::RenderDelta(space, cam, epoch);
    epoch = delta.epoch;
    ASSERT_TRUE(inc.ApplyDelta(delta).ok());
    Raster oracle = RasterizeFrame(Renderer::RenderFrame(space, cam));
    EXPECT_DOUBLE_EQ(inc.raster().DiffRatio(oracle), 0.0) << "step " << step;
  }
}

TEST(RasterTest, IncrementalRedrawIsLocalAndCounted) {
  dot::Graph g = TwoNodeGraph();
  auto layout = layout::LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  VirtualSpace space;
  BuildScene(g, layout.value(), &space);
  Camera cam(400, 300);
  cam.FitRect(0, 0, layout.value().width, layout.value().height);
  Frame full = Renderer::RenderFrame(space, cam);
  IncrementalRasterizer inc(400, 300);
  inc.Draw(full);
  obs::Counter* redrawn = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_viz_glyphs_redrawn_total", "");
  int64_t before = redrawn->value();
  int shape = space.ShapeFor("n0");
  ASSERT_TRUE(space.SetFill(shape, Color::Red()).ok());
  ASSERT_TRUE(
      inc.ApplyDelta(Renderer::RenderDelta(space, cam, full.epoch)).ok());
  // Only commands intersecting the node's dirty rectangle were redrawn —
  // strictly fewer than the full scene.
  EXPECT_GT(inc.last_redrawn(), 0);
  EXPECT_LT(inc.last_redrawn(), static_cast<int64_t>(full.commands.size()));
  EXPECT_EQ(redrawn->value() - before, inc.last_redrawn());
}

TEST(RasterTest, ApplyDeltaRequiresMatchingScene) {
  IncrementalRasterizer inc(100, 100);
  Frame delta;
  delta.viewport_width = 100;
  delta.viewport_height = 100;
  EXPECT_FALSE(inc.ApplyDelta(delta).ok());  // no Draw yet
  Frame full;
  full.viewport_width = 100;
  full.viewport_height = 100;
  inc.Draw(full);
  EXPECT_TRUE(inc.ApplyDelta(delta).ok());
  Frame wrong;
  wrong.viewport_width = 50;
  wrong.viewport_height = 100;
  EXPECT_FALSE(inc.ApplyDelta(wrong).ok());
}

// --- Scene golden: the glyphs each suite plan opens into ---

/// FNV-1a 64 over length-prefixed strings and the bytes of numbers.
class Fnv {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Int(static_cast<int64_t>(bits));
  }
  void Str(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Color3(Color c) {
    const unsigned char rgb[3] = {c.r, c.g, c.b};
    Bytes(rgb, sizeof(rgb));
  }
  void Text(const std::string& s) { Bytes(s.data(), s.size()); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

struct SuiteScene {
  std::string query;
  int mitosis = 0;
  dot::Graph graph;
  layout::GraphLayout layout;
  std::unique_ptr<VirtualSpace> space;
};

/// Every suite query after Pipeline::Default at mitosis 0, 16 and 64 on sf
/// 0.002, opened the way a replay opens its dot: written, parsed, laid out
/// and built into a scene.
const std::vector<SuiteScene>& SuiteScenes() {
  static const std::vector<SuiteScene>* scenes = [] {
    auto* out = new std::vector<SuiteScene>;
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    auto cat = tpch::GenerateTpch(config);
    EXPECT_TRUE(cat.ok());
    if (!cat.ok()) return out;
    for (const tpch::TpchQuery& query : tpch::TpchQueries()) {
      for (int m : {0, 16, 64}) {
        auto program = sql::Compiler::CompileSql(&cat.value(), query.sql);
        EXPECT_TRUE(program.ok()) << query.id;
        if (!program.ok()) continue;
        auto fired = optimizer::Pipeline::Default(m).Run(&program.value());
        EXPECT_TRUE(fired.ok()) << query.id << " m=" << m;
        if (!fired.ok()) continue;
        dot::DotWriterOptions options;
        options.graph_name = program.value().function_name();
        auto graph =
            dot::ParseDot(dot::ProgramToDot(program.value(), options));
        EXPECT_TRUE(graph.ok()) << query.id << " m=" << m;
        if (!graph.ok()) continue;
        auto layout = layout::LayoutGraph(graph.value());
        EXPECT_TRUE(layout.ok()) << query.id << " m=" << m;
        if (!layout.ok()) continue;
        SuiteScene scene;
        scene.query = query.id;
        scene.mitosis = m;
        scene.graph = std::move(graph).value();
        scene.layout = std::move(layout).value();
        scene.space = std::make_unique<VirtualSpace>();
        BuildScene(scene.graph, scene.layout, scene.space.get());
        out->push_back(std::move(scene));
      }
    }
    return out;
  }();
  return *scenes;
}

struct PinnedScene {
  const char* query;
  int mitosis;
  size_t glyphs;
  uint64_t glyph_fnv;  ///< every glyph in id order
  uint64_t frame_fnv;  ///< the fitted whole-scene frame's SVG
};

// Regenerate from the failure message after a deliberate scene change.
const PinnedScene kPinnedScenes[] = {
    {"paper", 0, 24, 0x68ff80302e84ce9full, 0xc465380c1e9f859full},
    {"paper", 16, 210, 0xbe161c6ccac38eebull, 0x22ffb51dd751d20eull},
    {"paper", 64, 786, 0xf02bcf95a071bcdbull, 0x1ce1eeb612adbb71ull},
    {"q1", 0, 236, 0x805e54839ed9e3c2ull, 0x8e7f9610b562fff2ull},
    {"q1", 16, 830, 0x5bb1c9a2c1e9e891ull, 0xd3f532b925911dd1ull},
    {"q1", 64, 2654, 0xdcbad149271f35abull, 0xa52f217dce31dc3aull},
    {"q3", 0, 207, 0x85c0333335729d3aull, 0xa7dd6a62035b6943ull},
    {"q3", 16, 801, 0xba18f1487bde7972ull, 0xb668d46bef4c9ad2ull},
    {"q3", 64, 2625, 0xe6fc6b741f6b2965ull, 0x71bb447e7b9feb0aull},
    {"q5", 0, 276, 0x78eb595cf6d5af57ull, 0x7fadced745030cffull},
    {"q5", 16, 726, 0x279852b2f09dffdfull, 0x29b0242dad07cd9bull},
    {"q5", 64, 2118, 0xf8e84fc4d2578c76ull, 0x3260116c786c31b9ull},
    {"q6", 0, 53, 0xa2b38a0c86295f28ull, 0x795c36b120377817ull},
    {"q6", 16, 497, 0x0ad9c01b962a7042ull, 0x8d706239b32feef1ull},
    {"q6", 64, 1889, 0x33b12f88b5865f78ull, 0xaae73530ddbe1700ull},
    {"q12", 0, 215, 0x501b4c7d45054edbull, 0x031459f8feb1897full},
    {"q12", 16, 479, 0x7a7f5b5a18757f74ull, 0x6addc89bdbaadb1full},
    {"q12", 64, 1295, 0x9e4673e0029f2e6dull, 0x3cef5e197e05450eull},
    {"q14", 0, 98, 0xb19c4eb8a7bc118full, 0xe1a7cd3c6b09464cull},
    {"q14", 16, 362, 0x569dcf5c78099e7aull, 0xe19b121d225a2e9dull},
    {"q14", 64, 1178, 0xd18ba852f609e4f6ull, 0x1b66368edd267d5dull},
    {"q11", 0, 138, 0x9aa06e0a8a537cadull, 0xb9c69ae27da776e4ull},
    {"q11", 16, 324, 0x5f25d004353058e6ull, 0x4dcb33c11188289aull},
    {"q11", 64, 900, 0x8cb4042e54a5fe75ull, 0x1cea0dcb7a22d516ull},
    {"q16", 0, 135, 0x9cf8c6155929875cull, 0x3de00a21edd05f5dull},
    {"q16", 16, 339, 0x2c83087d1032ffa6ull, 0xa0462d61318ccc7aull},
    {"q16", 64, 963, 0xbd9a5e709346fc58ull, 0x303c2c691153e6fdull},
    {"q18", 0, 84, 0x3eafa1bbd89746ecull, 0xc4619b07496463dbull},
    {"q18", 16, 84, 0x3eafa1bbd89746ecull, 0xc4619b07496463dbull},
    {"q18", 64, 84, 0x3eafa1bbd89746ecull, 0xc4619b07496463dbull},
    {"distinct_flags", 0, 64, 0xf5d61ca199a6599bull, 0x931ced1a0806b852ull},
    {"distinct_flags", 16, 64, 0xf5d61ca199a6599bull, 0x931ced1a0806b852ull},
    {"distinct_flags", 64, 64, 0xf5d61ca199a6599bull, 0x931ced1a0806b852ull},
    {"big_group", 0, 128, 0x5dcdc81871954809ull, 0x1ee37e84b6c14097ull},
    {"big_group", 16, 128, 0x5dcdc81871954809ull, 0x1ee37e84b6c14097ull},
    {"big_group", 64, 128, 0x5dcdc81871954809ull, 0x1ee37e84b6c14097ull},
    {"scan_heavy", 0, 66, 0x5af462570aba418bull, 0xefd36c28b0fc62a3ull},
    {"scan_heavy", 16, 630, 0x05cc26acb0c66cedull, 0xfc4d109648285895ull},
    {"scan_heavy", 64, 2406, 0x53a7caa10671bfdbull, 0xcab62aab74628b24ull},
};

TEST(SceneGoldenTest, SuiteScenesArePinned) {
  const std::vector<SuiteScene>& scenes = SuiteScenes();
  std::string actual;
  bool same = scenes.size() == std::size(kPinnedScenes);
  for (size_t i = 0; i < scenes.size(); ++i) {
    const SuiteScene& scene = scenes[i];
    const VirtualSpace& space = *scene.space;
    Fnv glyphs;
    for (int id = 0; id < static_cast<int>(space.size()); ++id) {
      const Glyph g = space.GetGlyph(id).value();
      glyphs.Int(g.id);
      glyphs.Int(static_cast<int64_t>(g.kind));
      glyphs.Str(g.owner);
      for (double v : {g.x, g.y, g.width, g.height, g.x2, g.y2}) {
        glyphs.Double(v);
      }
      glyphs.Str(g.text);
      glyphs.Int(g.z);
      glyphs.Color3(g.fill);
      glyphs.Color3(g.stroke);
      glyphs.Int(g.visible ? 1 : 0);
      glyphs.Int(g.epoch);
    }
    // What BirdsEyeView and a fresh CurrentView draw: the whole layout
    // fitted into the replay's default viewport.
    Camera camera(1280, 800);
    camera.FitRect(0, 0, scene.layout.width, scene.layout.height);
    Fnv frame;
    frame.Text(Renderer::RenderFrame(space, camera).ToSvg());
    actual += StrFormat("    {\"%s\", %d, %zu, 0x%016llxull, 0x%016llxull},\n",
                        scene.query.c_str(), scene.mitosis, space.size(),
                        static_cast<unsigned long long>(glyphs.value()),
                        static_cast<unsigned long long>(frame.value()));
    if (i >= std::size(kPinnedScenes)) continue;
    const PinnedScene& pin = kPinnedScenes[i];
    same = same && scene.query == pin.query && scene.mitosis == pin.mitosis &&
           space.size() == pin.glyphs && glyphs.value() == pin.glyph_fnv &&
           frame.value() == pin.frame_fnv;
  }
  EXPECT_TRUE(same) << "actual table:\n" << actual;
}

TEST(SceneGoldenTest, OwnerIndexMatchesBruteForceScan) {
  for (const SuiteScene& scene : SuiteScenes()) {
    SCOPED_TRACE(scene.query + " m=" + std::to_string(scene.mitosis));
    const VirtualSpace& space = *scene.space;
    // Reference: one pass over every glyph in id order.
    std::map<std::string, std::vector<int>> owned;
    std::map<std::string, int> shape;
    for (int id = 0; id < static_cast<int>(space.size()); ++id) {
      const Glyph g = space.GetGlyph(id).value();
      owned[g.owner].push_back(id);
      if (g.kind == GlyphKind::kShape) shape.emplace(g.owner, id);
    }
    std::vector<std::string> owners;
    for (const dot::GraphNode& node : scene.graph.nodes()) {
      owners.push_back(node.id);
    }
    for (const dot::GraphEdge& edge : scene.graph.edges()) {
      owners.push_back(edge.from + "->" + edge.to);
    }
    owners.push_back("no-such-owner");
    for (const std::string& owner : owners) {
      auto it = owned.find(owner);
      EXPECT_EQ(space.GlyphsForOwner(owner),
                it != owned.end() ? it->second : std::vector<int>{})
          << owner;
      auto s = shape.find(owner);
      EXPECT_EQ(space.ShapeFor(owner), s != shape.end() ? s->second : -1)
          << owner;
    }
  }
}

}  // namespace
}  // namespace stetho::viz
