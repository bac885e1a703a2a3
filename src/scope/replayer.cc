#include "scope/replayer.h"

#include <algorithm>

#include "common/string_util.h"
#include "layout/layout_cache.h"
#include "obs/metrics.h"
#include "scope/mapping.h"

namespace stetho::scope {

using profiler::EventState;
using profiler::TraceEvent;

namespace {

obs::Histogram* SeekHistogram() {
  static obs::Histogram* h = obs::Registry::Default()->GetOrCreateHistogram(
      "stetho_replay_seek_usec", "Latency of OfflineReplayer seeks",
      obs::Histogram::DefaultLatencyBounds());
  return h;
}

}  // namespace

Result<std::unique_ptr<OfflineReplayer>> OfflineReplayer::Create(
    dot::Graph graph, std::vector<TraceEvent> events,
    const ReplayOptions& options) {
  STETHO_ASSIGN_OR_RETURN(std::shared_ptr<const layout::GraphLayout> layout,
                          layout::LayoutCache::Default()->GetOrCompute(graph));
  return std::unique_ptr<OfflineReplayer>(new OfflineReplayer(
      std::move(graph), std::move(layout), std::move(events), options));
}

OfflineReplayer::OfflineReplayer(
    dot::Graph graph, std::shared_ptr<const layout::GraphLayout> layout,
    std::vector<TraceEvent> events, const ReplayOptions& options)
    : graph_(std::move(graph)),
      layout_(std::move(layout)),
      all_events_(std::move(events)),
      events_(all_events_),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : static_cast<Clock*>(SteadyClock::Default())),
      camera_(options.viewport_width, options.viewport_height),
      animator_(clock_) {
  viz::BuildScene(graph_, *layout_, &space_);
  edt_ = std::make_unique<viz::EventDispatchThread>(
      clock_, options_.render_interval_us);
  camera_.FitRect(0, 0, layout_->width, layout_->height);
  int max_pc = 0;
  for (const TraceEvent& e : all_events_) max_pc = std::max(max_pc, e.pc);
  size_t num_pcs = static_cast<size_t>(max_pc) + 1;
  usec_by_pc_.assign(num_pcs, 0);
  shape_by_pc_.assign(num_pcs, -1);
  for (size_t pc = 0; pc < num_pcs; ++pc) {
    shape_by_pc_[pc] = space_.ShapeFor(NodeForPc(static_cast<int>(pc)));
  }
  cur_color_.assign(num_pcs, viz::Color::Gray());
  pc_mark_.assign(num_pcs, 0);
  RebuildHistory();
}

OfflineReplayer::~OfflineReplayer() {
  if (edt_ != nullptr) edt_->Shutdown();
}

void OfflineReplayer::RebuildHistory() {
  size_t num_pcs = usec_by_pc_.size();
  history_.assign(num_pcs, {});
  colored_pcs_.clear();
  std::vector<viz::Color> running(num_pcs, viz::Color::Gray());
  std::vector<int64_t> cum(num_pcs, 0);
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    if (e.pc < 0 || static_cast<size_t>(e.pc) >= num_pcs) continue;
    size_t pc = static_cast<size_t>(e.pc);
    bool done = (e.state == EventState::kDone);
    PcEventHistory& h = history_[pc];
    switch (options_.mode) {
      case ColoringMode::kState:
        if (done) cum[pc] += e.usec;
        h.index.push_back(i);
        h.color.push_back(done ? viz::Color::Green() : viz::Color::Red());
        h.cum_usec.push_back(cum[pc]);
        break;
      case ColoringMode::kThreshold:
        if (!done) break;  // starts change neither color nor cumulative time
        cum[pc] += e.usec;
        if (e.usec >= options_.threshold_us) running[pc] = viz::Color::Red();
        h.index.push_back(i);
        h.color.push_back(running[pc]);
        h.cum_usec.push_back(cum[pc]);
        break;
      case ColoringMode::kGradient:
        if (!done) break;
        cum[pc] += e.usec;
        h.index.push_back(i);
        h.color.push_back(viz::Color::Gray());  // derived at seek time
        h.cum_usec.push_back(cum[pc]);
        break;
    }
  }
  for (size_t pc = 0; pc < num_pcs; ++pc) {
    if (!history_[pc].index.empty()) {
      colored_pcs_.push_back(static_cast<int>(pc));
    }
  }
}

void OfflineReplayer::PostColor(int pc, viz::Color color) {
  int glyph = (pc >= 0 && static_cast<size_t>(pc) < shape_by_pc_.size())
                  ? shape_by_pc_[static_cast<size_t>(pc)]
                  : -1;
  if (glyph < 0) return;  // trace event without a plan node: ignore
  if (options_.color_fade_us > 0) {
    // Animated transition: the render task *starts* the fade; the fade
    // itself progresses on Animator ticks.
    int64_t fade = options_.color_fade_us;
    edt_->PostRender([this, glyph, pc, color, fade] {
      animator_.AnimateGlyphFill(&space_, glyph, color, fade);
      cur_color_[static_cast<size_t>(pc)] = color;
    });
    return;
  }
  edt_->PostRender([this, glyph, pc, color] {
    (void)space_.SetFill(glyph, color);
    cur_color_[static_cast<size_t>(pc)] = color;
  });
}

void OfflineReplayer::SetFillIfChanged(int pc, viz::Color color) {
  size_t idx = static_cast<size_t>(pc);
  int glyph = shape_by_pc_[idx];
  if (glyph < 0) return;
  if (cur_color_[idx] == color) return;
  (void)space_.SetFill(glyph, color);
  cur_color_[idx] = color;
}

void OfflineReplayer::FinishPendingColorWork() {
  edt_->Drain();
  if (options_.color_fade_us > 0) {
    animator_.RunToCompletion(options_.color_fade_us / 8 + 1);
  }
}

void OfflineReplayer::ResetColors() {
  for (size_t pc = 0; pc < cur_color_.size(); ++pc) {
    SetFillIfChanged(static_cast<int>(pc), viz::Color::Gray());
  }
  std::fill(usec_by_pc_.begin(), usec_by_pc_.end(), 0);
}

void OfflineReplayer::ApplyEvent(size_t index) {
  const TraceEvent& e = events_[index];
  if (e.state == EventState::kDone && static_cast<size_t>(e.pc) < usec_by_pc_.size()) {
    usec_by_pc_[static_cast<size_t>(e.pc)] += e.usec;
  }
  switch (options_.mode) {
    case ColoringMode::kState:
      PostColor(e.pc, e.state == EventState::kStart ? viz::Color::Red()
                                                    : viz::Color::Green());
      break;
    case ColoringMode::kThreshold:
      if (e.state == EventState::kDone && e.usec >= options_.threshold_us) {
        PostColor(e.pc, viz::Color::Red());
      }
      break;
    case ColoringMode::kGradient: {
      if (e.state != EventState::kDone) break;
      int64_t max_usec = 1;
      for (int64_t u : usec_by_pc_) max_usec = std::max(max_usec, u);
      double t = static_cast<double>(usec_by_pc_[static_cast<size_t>(e.pc)]) /
                 static_cast<double>(max_usec);
      PostColor(e.pc,
                viz::Color::Lerp(viz::Color::White(), viz::Color::Red(), t));
      break;
    }
  }
}

Status OfflineReplayer::Step() {
  if (AtEnd()) return Status::OutOfRange("end of trace");
  ApplyEvent(cursor_);
  ++cursor_;
  FinishPendingColorWork();
  return Status::OK();
}

Status OfflineReplayer::StepBack() {
  if (cursor_ == 0) return Status::OutOfRange("already at start of trace");
  return SeekTo(cursor_ - 1);
}

Result<size_t> OfflineReplayer::Play(double speed, size_t count) {
  if (speed <= 0) return Status::InvalidArgument("speed must be positive");
  size_t applied = 0;
  while (applied < count && !AtEnd()) {
    if (applied > 0 && cursor_ > 0) {
      int64_t gap = events_[cursor_].time_us - events_[cursor_ - 1].time_us;
      if (gap > 0) {
        clock_->SleepMicros(static_cast<int64_t>(
            static_cast<double>(gap) / speed));
      }
    }
    ApplyEvent(cursor_);
    ++cursor_;
    ++applied;
    // Advance any in-flight color fades alongside the replay.
    animator_.Tick();
  }
  FinishPendingColorWork();
  return applied;
}

Status OfflineReplayer::SeekTo(size_t index) {
  if (index > events_.size()) return Status::OutOfRange("seek beyond trace");
  int64_t t0 = obs::Active() ? SteadyClock::Default()->NowMicros() : 0;
  // Flush in-flight color work so the mirror matches the applied state,
  // then move only the pcs whose color can differ between the cursors.
  FinishPendingColorWork();
  ApplyColorsAt(index);
  cursor_ = index;
  if (obs::Active()) {
    SeekHistogram()->Observe(SteadyClock::Default()->NowMicros() - t0);
  }
  return Status::OK();
}

void OfflineReplayer::Rewind() {
  FinishPendingColorWork();
  ResetColors();
  cursor_ = 0;
}

void OfflineReplayer::SetFilter(profiler::EventFilter filter) {
  events_.clear();
  for (const TraceEvent& e : all_events_) {
    if (filter.Matches(e)) events_.push_back(e);
  }
  filtered_ = true;
  RebuildHistory();
  Rewind();
}

void OfflineReplayer::ClearFilter() {
  events_ = all_events_;
  filtered_ = false;
  RebuildHistory();
  Rewind();
}

void OfflineReplayer::ApplyColorsAt(size_t target) {
  // Number of history entries of `h` that precede event index `target`.
  auto entries_before = [target](const PcEventHistory& h) {
    return static_cast<size_t>(
        std::lower_bound(h.index.begin(), h.index.end(), target) -
        h.index.begin());
  };
  if (options_.mode == ColoringMode::kGradient) {
    // The ramp divides by the global maximum, which shifts with the
    // cursor, so every colored pc is re-derived (and diffed) on a seek.
    int64_t max_usec = 1;
    for (int pc : colored_pcs_) {
      size_t k = entries_before(history_[static_cast<size_t>(pc)]);
      int64_t cum =
          k > 0 ? history_[static_cast<size_t>(pc)].cum_usec[k - 1] : 0;
      usec_by_pc_[static_cast<size_t>(pc)] = cum;
      max_usec = std::max(max_usec, cum);
    }
    for (int pc : colored_pcs_) {
      int64_t cum = usec_by_pc_[static_cast<size_t>(pc)];
      viz::Color color =
          cum > 0 ? viz::Color::Lerp(viz::Color::White(), viz::Color::Red(),
                                     static_cast<double>(cum) /
                                         static_cast<double>(max_usec))
                  : viz::Color::Gray();
      SetFillIfChanged(pc, color);
    }
    return;
  }
  // State/threshold colors are per-pc: only pcs touched by events between
  // the two cursors can change, and each is settled with one binary search.
  size_t lo = std::min(target, cursor_);
  size_t hi = std::max(target, cursor_);
  ++mark_gen_;
  for (size_t i = lo; i < hi; ++i) {
    const TraceEvent& e = events_[i];
    if (e.pc < 0 || static_cast<size_t>(e.pc) >= usec_by_pc_.size()) continue;
    size_t pc = static_cast<size_t>(e.pc);
    if (pc_mark_[pc] == mark_gen_) continue;
    pc_mark_[pc] = mark_gen_;
    const PcEventHistory& h = history_[pc];
    size_t k = entries_before(h);
    usec_by_pc_[pc] = k > 0 ? h.cum_usec[k - 1] : 0;
    SetFillIfChanged(static_cast<int>(pc),
                     k > 0 ? h.color[k - 1] : viz::Color::Gray());
  }
}

std::string OfflineReplayer::TooltipFor(const std::string& node_id) const {
  int idx = graph_.FindNode(node_id);
  if (idx < 0) return "unknown node " + node_id;
  const std::string& stmt = graph_.node(static_cast<size_t>(idx)).label();
  auto pc = PcForNode(node_id);
  std::string out = node_id + ": " + stmt;
  if (!pc.ok()) return out;
  // Observed executions of this pc up to the cursor.
  int64_t total_usec = 0;
  int64_t count = 0;
  int64_t last_rss = 0;
  int last_thread = -1;
  for (size_t i = 0; i < cursor_; ++i) {
    const TraceEvent& e = events_[i];
    if (e.pc != pc.value()) continue;
    if (e.state == EventState::kDone) {
      total_usec += e.usec;
      ++count;
      last_rss = e.rss_bytes;
      last_thread = e.thread;
    }
  }
  if (count > 0) {
    out += StrFormat("\nexecutions=%lld total=%lldus thread=%d rss=%lldB",
                     static_cast<long long>(count),
                     static_cast<long long>(total_usec), last_thread,
                     static_cast<long long>(last_rss));
  } else {
    out += "\nnot yet executed";
  }
  return out;
}

std::string OfflineReplayer::DebugWindowText() const {
  if (cursor_ == 0) return "trace not started";
  const TraceEvent& e = events_[cursor_ - 1];
  return StrFormat(
      "event=%lld time=%lldus pc=%d thread=%d state=%s usec=%lld rss=%lldB\n"
      "stmt: %s\nprogress: %zu/%zu events",
      static_cast<long long>(e.event), static_cast<long long>(e.time_us), e.pc,
      e.thread, profiler::EventStateName(e.state),
      static_cast<long long>(e.usec), static_cast<long long>(e.rss_bytes),
      e.stmt.c_str(), cursor_, events_.size());
}

viz::Frame OfflineReplayer::BirdsEyeView() const {
  viz::Camera overview(camera_.viewport_width(), camera_.viewport_height());
  overview.FitRect(0, 0, layout_->width, layout_->height);
  return viz::Renderer::RenderFrame(space_, overview);
}

viz::Frame OfflineReplayer::CurrentView() const {
  return viz::Renderer::RenderFrame(space_, camera_);
}

Status OfflineReplayer::FocusNode(const std::string& node_id) {
  int idx = graph_.FindNode(node_id);
  if (idx < 0) return Status::NotFound("no node '" + node_id + "'");
  const layout::NodeLayout& nl = layout_->nodes[static_cast<size_t>(idx)];
  camera_.CenterOn(nl.x, nl.y);
  return Status::OK();
}

Result<viz::Color> OfflineReplayer::NodeColor(const std::string& node_id) const {
  int glyph = space_.ShapeFor(node_id);
  if (glyph < 0) return Status::NotFound("no shape glyph for '" + node_id + "'");
  STETHO_ASSIGN_OR_RETURN(viz::Glyph g, space_.GetGlyph(glyph));
  return g.fill;
}

}  // namespace stetho::scope
