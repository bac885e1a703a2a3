#include "analysis/perfdiff.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "analysis/hb.h"
#include "analysis/trace_index.h"
#include "common/string_util.h"

namespace stetho::analysis {
namespace {

std::string Truncate(const std::string& s, size_t max) {
  if (s.size() <= max) return s;
  return s.substr(0, max - 3) + "...";
}

}  // namespace

uint64_t PlanShapeHash(const mal::Program& program) {
  mal::ShapeHasher hasher;
  std::string statement;
  for (const mal::Instruction& ins : program.instructions()) {
    statement.clear();
    program.AppendInstruction(ins, &statement);
    hasher.Mix(statement);
  }
  return hasher.value();
}

uint64_t TraceShapeHash(const std::vector<profiler::TraceEvent>& trace) {
  std::map<int, std::string> stmts;  // pc-ascending
  for (const profiler::TraceEvent& event : trace) {
    if (event.pc < 0 || event.stmt.empty()) continue;
    stmts.emplace(event.pc, event.stmt);  // first text per pc wins
  }
  mal::ShapeHasher hasher;
  for (const auto& [pc, stmt] : stmts) hasher.Mix(stmt);
  return hasher.value();
}

obs::QueryObservation ObservationFromTrace(
    const std::vector<profiler::TraceEvent>& trace) {
  const TraceIndex index(trace);
  obs::QueryObservation observation;
  observation.shape_hash = TraceShapeHash(trace);
  observation.total_usec = index.Makespan();
  if (!index.pcs().empty()) {
    observation.plan_size =
        static_cast<size_t>(index.pcs().rbegin()->first) + 1;
  }

  // Observed concurrency of every started pc's first interval.
  std::vector<ExecInterval> intervals;
  for (const auto& [pc, events] : index.pcs()) {
    if (!events.started()) continue;
    ExecInterval interval;
    interval.start_us = index.event(events.first_start).time_us;
    if (events.completed()) {
      interval.done_us = index.event(events.first_done).time_us;
    }
    intervals.push_back(interval);
  }
  const std::vector<int> concurrency = ConcurrencyAtStart(intervals);

  size_t next_interval = 0;
  for (const auto& [pc, events] : index.pcs()) {
    const int open = events.started() ? concurrency[next_interval++] : 1;
    if (!events.completed()) continue;  // never completed: nothing to fold
    const profiler::TraceEvent& done = index.event(events.first_done);
    obs::PcSample sample;
    sample.pc = pc;
    sample.usec = std::max<int64_t>(0, done.usec);
    sample.bytes = std::max<int64_t>(0, done.rss_bytes);
    sample.concurrency = open;
    observation.pcs.push_back(sample);
  }
  return observation;
}

obs::QueryObservation ObservationFromStats(const engine::QueryResult& result,
                                           uint64_t shape_hash) {
  obs::QueryObservation observation;
  observation.shape_hash = shape_hash;
  observation.plan_size = result.stats.size();
  observation.total_usec = result.total_usec;

  // A negative duration is an instant at the instruction's end.
  std::vector<ExecInterval> intervals;
  intervals.reserve(result.stats.size());
  for (const engine::InstructionStat& stat : result.stats) {
    const int64_t done_us = stat.start_us + stat.usec;
    intervals.push_back({done_us - std::max<int64_t>(0, stat.usec), done_us});
  }
  const std::vector<int> concurrency = ConcurrencyAtStart(intervals);

  observation.pcs.reserve(result.stats.size());
  for (size_t i = 0; i < result.stats.size(); ++i) {
    const engine::InstructionStat& stat = result.stats[i];
    obs::PcSample sample;
    sample.pc = stat.pc;
    sample.usec = std::max<int64_t>(0, stat.usec);
    sample.bytes = std::max<int64_t>(0, stat.rss_after_bytes);
    sample.concurrency = concurrency[i];
    observation.pcs.push_back(sample);
  }
  return observation;
}

TraceDiff DiffTraces(const std::vector<profiler::TraceEvent>& a,
                     const std::vector<profiler::TraceEvent>& b,
                     const mal::Program* plan) {
  TraceDiff diff;
  diff.a_hash = TraceShapeHash(a);
  diff.b_hash = TraceShapeHash(b);
  diff.shapes_match = diff.a_hash == diff.b_hash;

  const TraceIndex ia(a);
  const TraceIndex ib(b);
  diff.a_makespan_usec = ia.Makespan();
  diff.b_makespan_usec = ib.Makespan();

  std::vector<bool> critical_a;
  std::vector<bool> critical_b;
  if (plan != nullptr) {
    const mal::Dependencies deps = plan->BuildDependencies();
    ScheduleReport ra = AnalyzeSchedule(*plan, deps, ia);
    ScheduleReport rb = AnalyzeSchedule(*plan, deps, ib);
    diff.a_critical_usec = ra.critical_path_usec;
    diff.b_critical_usec = rb.critical_path_usec;
    critical_a.assign(plan->size(), false);
    critical_b.assign(plan->size(), false);
    for (const CriticalPathStep& step : ra.critical_path) {
      if (step.pc >= 0 && static_cast<size_t>(step.pc) < critical_a.size()) {
        critical_a[static_cast<size_t>(step.pc)] = true;
      }
    }
    for (const CriticalPathStep& step : rb.critical_path) {
      if (step.pc >= 0 && static_cast<size_t>(step.pc) < critical_b.size()) {
        critical_b[static_cast<size_t>(step.pc)] = true;
      }
    }
  }

  // A pc takes part when it completed: its first done event carries the
  // duration and the statement text.
  auto first_done = [](const TraceIndex& index,
                       int pc) -> const profiler::TraceEvent* {
    const PcEvents* events = index.Find(pc);
    if (events == nullptr || !events->completed()) return nullptr;
    return &index.event(events->first_done);
  };
  for (const auto& [pc, events] : ia.pcs()) {
    if (!events.completed()) continue;
    const profiler::TraceEvent& done_a = ia.event(events.first_done);
    const profiler::TraceEvent* done_b = first_done(ib, pc);
    if (done_b == nullptr) {
      diff.only_a.push_back(pc);
      continue;
    }
    PcDelta delta;
    delta.pc = pc;
    delta.stmt = !done_b->stmt.empty() ? done_b->stmt : done_a.stmt;
    delta.a_usec = std::max<int64_t>(0, done_a.usec);
    delta.b_usec = std::max<int64_t>(0, done_b->usec);
    delta.delta_usec = delta.b_usec - delta.a_usec;
    delta.ratio = static_cast<double>(delta.b_usec) /
                  static_cast<double>(std::max<int64_t>(1, delta.a_usec));
    if (static_cast<size_t>(pc) < critical_a.size()) {
      delta.critical_a = critical_a[static_cast<size_t>(pc)];
      delta.critical_b = critical_b[static_cast<size_t>(pc)];
    }
    diff.deltas.push_back(std::move(delta));
  }
  for (const auto& [pc, events] : ib.pcs()) {
    if (events.completed() && first_done(ia, pc) == nullptr) {
      diff.only_b.push_back(pc);
    }
  }
  std::sort(diff.deltas.begin(), diff.deltas.end(),
            [](const PcDelta& x, const PcDelta& y) {
              const int64_t ax = std::abs(x.delta_usec);
              const int64_t ay = std::abs(y.delta_usec);
              if (ax != ay) return ax > ay;
              return x.pc < y.pc;
            });
  return diff;
}

std::string FormatTraceDiff(const TraceDiff& diff) {
  std::string out = "== trace diff ==\n";
  if (diff.shapes_match) {
    out += StrFormat("plan shape: match (%016llx)\n",
                     static_cast<unsigned long long>(diff.a_hash));
  } else {
    out += StrFormat(
        "plan shape: MISMATCH (a=%016llx b=%016llx) — per-pc alignment is "
        "best-effort\n",
        static_cast<unsigned long long>(diff.a_hash),
        static_cast<unsigned long long>(diff.b_hash));
  }
  const int64_t makespan_delta = diff.b_makespan_usec - diff.a_makespan_usec;
  out += StrFormat(
      "makespan: %lldus -> %lldus  (%+lldus, %.2fx)\n",
      static_cast<long long>(diff.a_makespan_usec),
      static_cast<long long>(diff.b_makespan_usec),
      static_cast<long long>(makespan_delta),
      static_cast<double>(diff.b_makespan_usec) /
          static_cast<double>(std::max<int64_t>(1, diff.a_makespan_usec)));
  if (diff.a_critical_usec >= 0 && diff.b_critical_usec >= 0) {
    out += StrFormat(
        "critical path: %lldus -> %lldus  (%+lldus, %.2fx)\n",
        static_cast<long long>(diff.a_critical_usec),
        static_cast<long long>(diff.b_critical_usec),
        static_cast<long long>(diff.b_critical_usec - diff.a_critical_usec),
        static_cast<double>(diff.b_critical_usec) /
            static_cast<double>(std::max<int64_t>(1, diff.a_critical_usec)));
  }
  constexpr size_t kTop = 16;
  out += StrFormat("matched pcs: %zu (top %zu by |delta|)\n",
                   diff.deltas.size(), std::min(kTop, diff.deltas.size()));
  for (size_t i = 0; i < diff.deltas.size() && i < kTop; ++i) {
    const PcDelta& d = diff.deltas[i];
    out += StrFormat("  pc %-4d %8lldus -> %8lldus  (%+lldus, %.2fx)",
                     d.pc, static_cast<long long>(d.a_usec),
                     static_cast<long long>(d.b_usec),
                     static_cast<long long>(d.delta_usec), d.ratio);
    if (d.critical_a || d.critical_b) {
      out += StrFormat(" [critical:%s%s]", d.critical_a ? "a" : "",
                       d.critical_b ? "b" : "");
    }
    if (!d.stmt.empty()) out += "  " + Truncate(d.stmt, 56);
    out += '\n';
  }
  auto list_pcs = [&out](const char* label, const std::vector<int>& pcs) {
    out += label;
    if (pcs.empty()) {
      out += " none\n";
      return;
    }
    for (size_t i = 0; i < pcs.size() && i < 32; ++i) {
      out += StrFormat(" %d", pcs[i]);
    }
    if (pcs.size() > 32) out += StrFormat(" ... (%zu total)", pcs.size());
    out += '\n';
  };
  list_pcs("pcs only in a:", diff.only_a);
  list_pcs("pcs only in b:", diff.only_b);
  return out;
}

}  // namespace stetho::analysis
