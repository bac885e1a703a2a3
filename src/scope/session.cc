#include "scope/session.h"

#include <fstream>

#include "common/string_util.h"
#include "dot/graph.h"
#include "viz/raster.h"
#include "viz/renderer.h"

namespace stetho::scope {
namespace {

/// Altitude multiplier per zoom step (scroll-wheel notch equivalent).
constexpr double kZoomStep = 1.6;

}  // namespace

InteractiveSession::InteractiveSession(OfflineReplayer* replayer, Clock* clock,
                                       int64_t animation_ms)
    : replayer_(replayer),
      clock_(clock),
      animation_us_(animation_ms * 1000),
      animator_(clock) {}

void InteractiveSession::AnimateCameraTo(double x, double y, double altitude) {
  animator_.AnimateCamera(replayer_->camera(), x, y, altitude, animation_us_,
                          viz::Easing::kEaseInOut);
  animator_.RunToCompletion(animation_us_ / 16);
}

Result<std::string> InteractiveSession::Execute(const std::string& command) {
  std::vector<std::string> words = SplitAndTrim(command, ' ');
  if (words.empty()) return Status::InvalidArgument("empty command");
  auto response = Dispatch(words);
  if (response.ok()) {
    transcript_.emplace_back(command, response.value());
  }
  return response;
}

Result<std::string> InteractiveSession::Dispatch(
    const std::vector<std::string>& words) {
  viz::Camera* cam = replayer_->camera();
  const std::string& verb = words[0];

  if (verb == "help") {
    return std::string(
        "zoom in|out|fit, pan <dx> <dy>, focus <node>, next, prev, "
        "lens on [mag]|off, filter <spec>|off, step, back, rewind, "
        "play <speed> <events>, seek <index>, tooltip <node>, debug, "
        "progress, view, birdseye, shot <file.svg|.ppm>");
  }
  if (verb == "zoom") {
    if (words.size() < 2) return Status::InvalidArgument("zoom in|out|fit");
    if (words[1] == "in") {
      double target = cam->altitude() / kZoomStep;
      if (cam->altitude() < 1) target = 0;
      AnimateCameraTo(cam->x(), cam->y(), target);
    } else if (words[1] == "out") {
      double target = cam->altitude() < 1 ? cam->focal() * 0.5
                                          : cam->altitude() * kZoomStep;
      AnimateCameraTo(cam->x(), cam->y(), target);
    } else if (words[1] == "fit") {
      viz::Camera fitted(cam->viewport_width(), cam->viewport_height());
      const viz::Box bounds = replayer_->space()->VisibleBounds();
      fitted.FitRect(bounds.x, bounds.y, bounds.width, bounds.height);
      AnimateCameraTo(fitted.x(), fitted.y(), fitted.altitude());
    } else {
      return Status::InvalidArgument("zoom in|out|fit");
    }
    return StrFormat("altitude=%.1f scale=%.3f", cam->altitude(), cam->Scale());
  }
  if (verb == "pan") {
    if (words.size() != 3) return Status::InvalidArgument("pan <dx> <dy>");
    STETHO_ASSIGN_OR_RETURN(double dx, ParseDouble(words[1]));
    STETHO_ASSIGN_OR_RETURN(double dy, ParseDouble(words[2]));
    AnimateCameraTo(cam->x() + dx, cam->y() + dy, cam->altitude());
    return StrFormat("camera=(%.1f, %.1f)", cam->x(), cam->y());
  }
  if (verb == "focus" || verb == "next" || verb == "prev") {
    std::string node;
    if (verb == "focus") {
      if (words.size() != 2) return Status::InvalidArgument("focus <node>");
      node = words[1];
      const int pc = dot::PcOfNode(node);
      if (pc < 0) {
        return Status::ParseError("node id is not of the form n<pc>: " + node);
      }
      focused_pc_ = pc;
    } else {
      // Navigate to the next/previous node in plan order — the paper's
      // "navigate to the next node in the graph" click action.
      int count = static_cast<int>(replayer_->graph().num_nodes());
      if (count == 0) return Status::NotFound("empty graph");
      int delta = verb == "next" ? 1 : -1;
      for (int step = 0; step < count; ++step) {
        focused_pc_ = ((focused_pc_ + delta) % count + count) % count;
        if (replayer_->graph().FindNode(dot::NodeName(focused_pc_)) >= 0) break;
      }
      node = dot::NodeName(focused_pc_);
    }
    int idx = replayer_->graph().FindNode(node);
    if (idx < 0) return Status::NotFound("no node '" + node + "'");
    // Animated center: reuse the replayer's layout through FocusNode's
    // target, but animate the transition.
    viz::Camera before(cam->viewport_width(), cam->viewport_height());
    before.MoveTo(cam->x(), cam->y());
    STETHO_RETURN_IF_ERROR(replayer_->FocusNode(node));
    double tx = cam->x();
    double ty = cam->y();
    cam->MoveTo(before.x(), before.y());
    AnimateCameraTo(tx, ty, cam->altitude());
    return "focused " + node + ": " + replayer_->TooltipFor(node);
  }
  if (verb == "lens") {
    if (words.size() >= 2 && words[1] == "off") {
      lens_.reset();
      return std::string("lens off");
    }
    if (words.size() >= 2 && words[1] == "on") {
      double mag = 3.0;
      if (words.size() == 3) {
        STETHO_ASSIGN_OR_RETURN(mag, ParseDouble(words[2]));
      }
      lens_ = std::make_unique<viz::FisheyeLens>(
          cam->viewport_width() / 2, cam->viewport_height() / 2,
          std::min(cam->viewport_width(), cam->viewport_height()) / 3, mag);
      return StrFormat("fisheye lens on (x%.1f)", mag);
    }
    return Status::InvalidArgument("lens on [mag] | lens off");
  }
  if (verb == "filter") {
    // The filter-options window: "filter off" restores the full trace;
    // anything else is an EventFilter in its key=value;... serialization,
    // e.g. "filter start=0;done=1;modules=algebra;min_usec=100".
    if (words.size() < 2) return Status::InvalidArgument("filter <spec>|off");
    if (words[1] == "off") {
      replayer_->ClearFilter();
      return StrFormat("filter off (%zu events)", replayer_->size());
    }
    std::string spec;
    for (size_t w = 1; w < words.size(); ++w) spec += words[w];
    STETHO_ASSIGN_OR_RETURN(profiler::EventFilter filter,
                            profiler::EventFilter::Deserialize(spec));
    replayer_->SetFilter(std::move(filter));
    return StrFormat("filter on: %zu of %zu events visible", replayer_->size(),
                     replayer_->size() + replayer_->events_filtered_out());
  }
  if (verb == "step") {
    STETHO_RETURN_IF_ERROR(replayer_->Step());
    return replayer_->DebugWindowText();
  }
  if (verb == "back") {
    STETHO_RETURN_IF_ERROR(replayer_->StepBack());
    return StrFormat("cursor=%zu", replayer_->cursor());
  }
  if (verb == "rewind") {
    replayer_->Rewind();
    return std::string("rewound to start");
  }
  if (verb == "play") {
    if (words.size() != 3) return Status::InvalidArgument("play <speed> <events>");
    STETHO_ASSIGN_OR_RETURN(double speed, ParseDouble(words[1]));
    STETHO_ASSIGN_OR_RETURN(int64_t count, ParseInt64(words[2]));
    STETHO_ASSIGN_OR_RETURN(size_t applied,
                            replayer_->Play(speed, static_cast<size_t>(count)));
    return StrFormat("played %zu events, cursor=%zu/%zu", applied,
                     replayer_->cursor(), replayer_->size());
  }
  if (verb == "seek") {
    if (words.size() != 2) return Status::InvalidArgument("seek <index>");
    STETHO_ASSIGN_OR_RETURN(int64_t index, ParseInt64(words[1]));
    STETHO_RETURN_IF_ERROR(replayer_->SeekTo(static_cast<size_t>(index)));
    return StrFormat("cursor=%zu", replayer_->cursor());
  }
  if (verb == "tooltip") {
    if (words.size() != 2) return Status::InvalidArgument("tooltip <node>");
    return replayer_->TooltipFor(words[1]);
  }
  if (verb == "debug") {
    return replayer_->DebugWindowText();
  }
  if (verb == "progress") {
    double fraction = replayer_->size() == 0
                          ? 0.0
                          : static_cast<double>(replayer_->cursor()) /
                                static_cast<double>(replayer_->size());
    return StrFormat("%zu/%zu events (%.0f%%)", replayer_->cursor(),
                     replayer_->size(), fraction * 100.0);
  }
  if (verb == "view" || verb == "birdseye") {
    viz::Frame frame = verb == "view" ? Render() : replayer_->BirdsEyeView();
    return StrFormat("%zu draw commands, %zu culled", frame.commands.size(),
                     frame.culled);
  }
  if (verb == "shot") {
    // Headless screenshot of the current view: .svg or .ppm by extension.
    if (words.size() != 2) return Status::InvalidArgument("shot <file.svg|.ppm>");
    viz::Frame frame = Render();
    if (EndsWith(words[1], ".ppm")) {
      STETHO_RETURN_IF_ERROR(viz::RasterizeFrame(frame).WritePpm(words[1]));
    } else {
      std::ofstream out(words[1]);
      if (!out) return Status::IoError("cannot write " + words[1]);
      out << frame.ToSvg();
    }
    return "wrote " + words[1];
  }
  return Status::InvalidArgument("unknown command '" + verb + "' (try help)");
}

viz::Frame InteractiveSession::Render() const {
  return viz::Renderer::RenderFrame(*replayer_->space(), *replayer_->camera(),
                                    lens_.get());
}

}  // namespace stetho::scope
