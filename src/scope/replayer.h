#ifndef STETHO_SCOPE_REPLAYER_H_
#define STETHO_SCOPE_REPLAYER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "dot/graph.h"
#include "layout/sugiyama.h"
#include "profiler/event.h"
#include "profiler/filter.h"
#include "scope/coloring.h"
#include "viz/animation.h"
#include "viz/camera.h"
#include "viz/event_dispatch.h"
#include "viz/renderer.h"
#include "viz/virtual_space.h"

namespace stetho::scope {

/// How replayed events color the plan nodes.
enum class ColoringMode {
  /// Live state colors: start → RED, done → GREEN (paper §4.2.1 base rule).
  kState,
  /// Only done events at/above a threshold color RED (algorithm 2).
  kThreshold,
  /// White→red ramp by cumulative execution time (paper §6 extension).
  kGradient,
};

struct ReplayOptions {
  Clock* clock = nullptr;            ///< nullptr = steady clock
  int64_t render_interval_us = 150000;  ///< EDT pacing (paper's 150 ms)
  ColoringMode mode = ColoringMode::kState;
  int64_t threshold_us = 1000;
  /// When > 0, node colors fade to their target over this duration instead
  /// of switching instantly (paper §5: animation effects on color changes).
  int64_t color_fade_us = 0;
  double viewport_width = 1280;
  double viewport_height = 800;
};

/// Offline trace replay (paper §4.1/§5): drives the glyph scene from a
/// recorded trace with step / play / pause / fast-forward / rewind controls,
/// color-coded execution state, tool-tip text, a debug window, and a
/// birds-eye view.
///
/// All coloring flows through the event-dispatch thread, reproducing the
/// render-pacing behaviour of the Java implementation. Deterministic when
/// constructed over a VirtualClock.
class OfflineReplayer {
 public:
  /// Builds scene state (layout + glyphs + camera) for `graph` and takes
  /// ownership of the graph and the trace: a caller done with its graph
  /// moves it in instead of copying it.
  static Result<std::unique_ptr<OfflineReplayer>> Create(
      dot::Graph graph, std::vector<profiler::TraceEvent> events,
      const ReplayOptions& options = {});

  ~OfflineReplayer();

  /// --- transport controls ---

  /// Applies the next event; OutOfRange at end of trace.
  Status Step();
  /// Rewinds one event (recomputes colors up to the new cursor).
  Status StepBack();
  /// Replays up to `count` events, sleeping the inter-event trace gap
  /// scaled by 1/speed between consecutive events (speed 2 = twice as
  /// fast). Returns the number of events applied.
  Result<size_t> Play(double speed, size_t count);
  /// Jumps to absolute event index (fast-forward or rewind).
  Status SeekTo(size_t index);
  /// Back to the beginning, all node colors reset.
  void Rewind();

  size_t cursor() const { return cursor_; }
  size_t size() const { return events_.size(); }
  bool AtEnd() const { return cursor_ >= events_.size(); }

  /// --- filter options window (paper §5: "monitoring individual
  /// instruction using Stethoscope filter options window") ---

  /// Restricts the replay to events passing `filter` and rewinds. The full
  /// trace is kept; clearing restores it.
  void SetFilter(profiler::EventFilter filter);
  void ClearFilter();
  bool filtered() const { return filtered_; }
  /// Events hidden by the active filter.
  size_t events_filtered_out() const { return all_events_.size() - events_.size(); }

  /// --- inspection (the demo's tool-tip / debug window / birds-eye) ---

  /// Tool-tip text for a node: its MAL statement plus observed timing.
  std::string TooltipFor(const std::string& node_id) const;

  /// Debug-window text for the instruction at the cursor.
  std::string DebugWindowText() const;

  /// Whole-graph frame (camera fitted to the full scene).
  viz::Frame BirdsEyeView() const;

  /// Frame through the current camera.
  viz::Frame CurrentView() const;

  /// Centers the camera on a node ("navigate to the next node in the
  /// graph"); NotFound for unknown ids.
  Status FocusNode(const std::string& node_id);

  /// The color currently applied to a node's shape (White = uncolored).
  Result<viz::Color> NodeColor(const std::string& node_id) const;

  viz::VirtualSpace* space() { return &space_; }
  viz::Camera* camera() { return &camera_; }
  viz::EventDispatchThread* dispatcher() { return edt_.get(); }
  /// Color-fade animation engine (active when color_fade_us > 0). Step/Play
  /// run pending fades to completion before returning; callers that want to
  /// observe mid-fade colors tick it manually.
  viz::Animator* animator() { return &animator_; }
  const dot::Graph& graph() const { return graph_; }
  const std::vector<profiler::TraceEvent>& events() const { return events_; }

 private:
  /// Per-pc event history over the active (filtered) trace: for each event
  /// touching the pc, its index, the node color after it, and the
  /// cumulative done-usec after it. Seeks binary-search these instead of
  /// replaying the trace, making SeekTo O(changed nodes · log events).
  struct PcEventHistory {
    std::vector<size_t> index;      ///< event indices, ascending
    std::vector<viz::Color> color;  ///< color after that event (state/threshold)
    std::vector<int64_t> cum_usec;  ///< cumulative done-usec after that event
  };

  OfflineReplayer(dot::Graph graph,
                  std::shared_ptr<const layout::GraphLayout> layout,
                  std::vector<profiler::TraceEvent> events,
                  const ReplayOptions& options);

  /// Applies event `index`'s coloring through the EDT.
  void ApplyEvent(size_t index);
  /// Rebuilds the per-pc histories from events_ (ctor / filter changes).
  void RebuildHistory();
  /// Moves the applied color state from cursor_ to `target`, touching only
  /// pcs whose color can differ (gradient mode re-derives every colored pc
  /// because the global maximum shifts). Callers flush the EDT first.
  void ApplyColorsAt(size_t target);
  /// Sets a node's fill (render-paced; faded when color_fade_us > 0).
  void PostColor(int pc, viz::Color color);
  /// Applies `color` directly (no pacing) when it differs from the mirror.
  void SetFillIfChanged(int pc, viz::Color color);
  /// Drains the render queue and finishes outstanding color fades.
  void FinishPendingColorWork();
  void ResetColors();

  dot::Graph graph_;
  std::shared_ptr<const layout::GraphLayout> layout_;  ///< cache-shared
  std::vector<profiler::TraceEvent> all_events_;  ///< unfiltered trace
  std::vector<profiler::TraceEvent> events_;      ///< active (filtered) view
  bool filtered_ = false;
  ReplayOptions options_;
  Clock* clock_;
  viz::VirtualSpace space_;
  viz::Camera camera_;
  viz::Animator animator_;
  std::unique_ptr<viz::EventDispatchThread> edt_;
  size_t cursor_ = 0;
  /// Cumulative usec per pc (gradient mode input).
  std::vector<int64_t> usec_by_pc_;
  /// Shape glyph id per pc (-1 when the trace pc has no plan node).
  std::vector<int> shape_by_pc_;
  /// Mirror of the currently applied fill per pc; seeks diff against it so
  /// unchanged nodes cost nothing. Written on the EDT inside posted tasks,
  /// read on the caller thread only after an EDT drain (happens-before).
  std::vector<viz::Color> cur_color_;
  std::vector<PcEventHistory> history_;
  std::vector<int> colored_pcs_;  ///< pcs with at least one history entry
  /// Seek scratch: last mark generation per pc (dedups touched pcs).
  std::vector<uint32_t> pc_mark_;
  uint32_t mark_gen_ = 0;
};

}  // namespace stetho::scope

#endif  // STETHO_SCOPE_REPLAYER_H_
