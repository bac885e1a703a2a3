#include "analysis/checks.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "analysis/emitter.h"
#include "analysis/signatures.h"
#include "common/string_util.h"

namespace stetho::analysis {
namespace {

using mal::Argument;
using mal::Instruction;
using mal::Program;
using profiler::EventState;
using profiler::TraceEvent;

/// Static shape of one argument: constants are always scalars; variables
/// follow their declared MAL type.
ValueKind ArgKind(const Program& p, const Argument& arg) {
  if (arg.kind == Argument::Kind::kConst) return ValueKind::kScalar;
  if (arg.var < 0 || static_cast<size_t>(arg.var) >= p.num_variables()) {
    return ValueKind::kAny;
  }
  return p.variable(arg.var).type.is_bat ? ValueKind::kBat : ValueKind::kScalar;
}

ValueKind ResultKind(const Program& p, int var) {
  if (var < 0 || static_cast<size_t>(var) >= p.num_variables()) {
    return ValueKind::kAny;
  }
  return p.variable(var).type.is_bat ? ValueKind::kBat : ValueKind::kScalar;
}

bool Satisfies(ValueKind actual, ValueKind constraint) {
  return constraint == ValueKind::kAny || actual == ValueKind::kAny ||
         actual == constraint;
}

bool VarInRange(const Program& p, int var) {
  return var >= 0 && static_cast<size_t>(var) < p.num_variables();
}

/// Parses the dot naming convention "n<pc>"; returns -1 on mismatch.
int PcFromNodeId(const std::string& id) {
  if (id.size() < 2 || id[0] != 'n') return -1;
  int pc = 0;
  for (size_t i = 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return -1;
    if (pc > 100000000) return -1;  // overflow guard; no plan is this large
    pc = pc * 10 + (id[i] - '0');
  }
  return pc;
}

std::string Ellipsize(const std::string& s, size_t limit = 96) {
  if (s.size() <= limit) return s;
  return s.substr(0, limit) + "...";
}

/// The signature the lint's absint sweep resolved for `ins`.
const KernelSignature* SignatureAt(const CheckContext& ctx,
                                   const Instruction& ins) {
  return ctx.facts->instructions()[static_cast<size_t>(ins.pc)].sig;
}

// ---------------------------------------------------------------------------
// ssa-def-before-use
// ---------------------------------------------------------------------------

class DefBeforeUseCheck final : public Check {
 public:
  const char* id() const override { return "ssa-def-before-use"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "every variable argument is in range and defined by an earlier "
           "instruction";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    std::vector<bool> defined(p.num_variables(), false);
    for (const Instruction& ins : p.instructions()) {
      for (size_t i = 0; i < ins.args.size(); ++i) {
        const Argument& arg = ins.args[i];
        if (arg.kind != Argument::Kind::kVar) continue;
        if (!VarInRange(p, arg.var)) {
          emit.Emit(Severity::kError, ins.pc, arg.var,
                    StrFormat("argument %zu references out-of-range variable "
                              "id %d (program has %zu variables)",
                              i, arg.var, p.num_variables()));
          continue;
        }
        if (!defined[static_cast<size_t>(arg.var)]) {
          emit.Emit(Severity::kError, ins.pc, arg.var,
                    StrFormat("argument %zu uses %s before its definition", i,
                              VarName(p, arg.var).c_str()),
                    "reorder the plan so the producing instruction precedes "
                    "this consumer");
        }
      }
      for (int r : ins.results) {
        if (VarInRange(p, r)) defined[static_cast<size_t>(r)] = true;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// ssa-single-assignment
// ---------------------------------------------------------------------------

class SingleAssignmentCheck final : public Check {
 public:
  const char* id() const override { return "ssa-single-assignment"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "every variable has exactly one defining instruction (SSA)";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    std::vector<int> writer(p.num_variables(), -1);
    for (const Instruction& ins : p.instructions()) {
      for (int r : ins.results) {
        if (!VarInRange(p, r)) {
          emit.Emit(Severity::kError, ins.pc, r,
                    StrFormat("result references out-of-range variable id %d "
                              "(program has %zu variables)",
                              r, p.num_variables()));
          continue;
        }
        int& w = writer[static_cast<size_t>(r)];
        if (w >= 0) {
          emit.Emit(Severity::kError, ins.pc, r,
                    StrFormat("%s assigned a second time (first assignment at "
                              "pc=%d)",
                              VarName(p, r).c_str(), w),
                    "introduce a fresh variable for the second definition");
        } else {
          w = ins.pc;
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// dead-instruction
// ---------------------------------------------------------------------------

class DeadInstructionCheck final : public Check {
 public:
  const char* id() const override { return "dead-instruction"; }
  Severity ceiling() const override { return Severity::kWarning; }
  const char* description() const override {
    return "side-effect-free instruction whose results are never consumed";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    const mal::Dependencies& deps = ctx.facts->deps();
    for (const Instruction& ins : p.instructions()) {
      if (ins.results.empty()) continue;  // sinks and markers are effects
      const KernelSignature* sig = SignatureAt(ctx, ins);
      if (sig == nullptr || !sig->side_effect_free) continue;
      bool any_used = false;
      for (int r : ins.results) {
        if (VarInRange(p, r) && !deps.readers(r).empty()) {
          any_used = true;
          break;
        }
      }
      if (any_used) continue;
      // Mid-pipeline dead code is routine — an earlier pass just orphaned
      // the instruction and a later MakeDeadCodePass cleans it up — so it is
      // only worth a note there. From the CLI it is a real hazard.
      Severity severity =
          ctx.in_pipeline ? Severity::kNote : Severity::kWarning;
      emit.Emit(severity, ins.pc,
                ins.results.empty() ? -1 : ins.results[0],
                StrFormat("%s result is never consumed — the instruction is "
                          "dead",
                          ins.FullName().c_str()),
                "optimizer::MakeDeadCodePass removes it");
    }
  }
};

// ---------------------------------------------------------------------------
// kernel-signature
// ---------------------------------------------------------------------------

class KernelSignatureCheck final : public Check {
 public:
  const char* id() const override { return "kernel-signature"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "operations resolve to registered kernels and match their "
           "arity and BAT/scalar register shapes";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    const std::vector<InstructionFacts>& facts = ctx.facts->instructions();
    for (const Instruction& ins : p.instructions()) {
      const InstructionFacts& at = facts[static_cast<size_t>(ins.pc)];
      if (ctx.registry != nullptr && !at.resolved) {
        emit.Emit(Severity::kError, ins.pc, -1,
                  StrFormat("unknown kernel %s — not in the module registry",
                            ins.FullName().c_str()),
                  "register the kernel or fix the operation name");
        continue;
      }
      const KernelSignature* sig = at.sig;
      if (sig == nullptr) continue;  // extension kernel; no shape info

      // Arity.
      if (sig->variadic) {
        if (ins.args.size() < static_cast<size_t>(sig->min_args)) {
          emit.Emit(Severity::kError, ins.pc, -1,
                    StrFormat("%s needs at least %d arguments, got %zu",
                              ins.FullName().c_str(), sig->min_args,
                              ins.args.size()));
          continue;
        }
      } else if (ins.args.size() != sig->args.size()) {
        emit.Emit(Severity::kError, ins.pc, -1,
                  StrFormat("%s takes %zu arguments, got %zu",
                            ins.FullName().c_str(), sig->args.size(),
                            ins.args.size()));
        continue;
      }
      if (ins.results.size() != sig->results.size()) {
        emit.Emit(Severity::kError, ins.pc, -1,
                  StrFormat("%s produces %zu results, got %zu",
                            ins.FullName().c_str(), sig->results.size(),
                            ins.results.size()));
        continue;
      }

      // Argument shapes.
      bool saw_bat_arg = false;
      for (size_t i = 0; i < ins.args.size(); ++i) {
        ValueKind want = sig->variadic ? sig->variadic_kind : sig->args[i];
        ValueKind got = ArgKind(p, ins.args[i]);
        if (got == ValueKind::kBat) saw_bat_arg = true;
        if (!Satisfies(got, want)) {
          int var = ins.args[i].kind == Argument::Kind::kVar ? ins.args[i].var
                                                             : -1;
          emit.Emit(Severity::kError, ins.pc, var,
                    StrFormat("argument %zu of %s must be a %s, got %s%s", i,
                              ins.FullName().c_str(), ValueKindName(want),
                              ValueKindName(got),
                              var >= 0
                                  ? (" (" + VarName(p, var) + ")").c_str()
                                  : ""));
        }
      }
      if (sig->needs_bat_arg && !ins.args.empty() && !saw_bat_arg) {
        emit.Emit(Severity::kError, ins.pc, -1,
                  StrFormat("%s needs at least one BAT argument (all "
                            "arguments are scalars)",
                            ins.FullName().c_str()),
                  "use the calc.* scalar variant instead");
      }

      // Result shapes, against the declared variable types.
      for (size_t i = 0; i < ins.results.size(); ++i) {
        if (!VarInRange(p, ins.results[i])) continue;  // ssa checks flag it
        ValueKind want = sig->results[i];
        ValueKind got = ResultKind(p, ins.results[i]);
        if (!Satisfies(got, want)) {
          emit.Emit(Severity::kError, ins.pc, ins.results[i],
                    StrFormat("result %zu of %s is a %s but %s is declared "
                              "%s",
                              i, ins.FullName().c_str(), ValueKindName(want),
                              VarName(p, ins.results[i]).c_str(),
                              p.variable(ins.results[i]).type.ToString().c_str()),
                    "fix the declared variable type");
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// bat-lifetime
// ---------------------------------------------------------------------------

class BatLifetimeCheck final : public Check {
 public:
  const char* id() const override { return "bat-lifetime"; }
  Severity ceiling() const override { return Severity::kWarning; }
  const char* description() const override {
    return "BAT registers produced by effectful instructions are consumed "
           "by someone (plan-only; the trace-side producer/consumer "
           "ordering lives in trace-dependency-violation)";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    const mal::Dependencies& deps = ctx.facts->deps();

    // A BAT produced by an effectful instruction that nobody reads is
    // allocated, charged to the memory accountant, and released without
    // ever being used. (Pure producers are the dead-instruction check's
    // territory; unused side results of pure ops are normal MAL — the
    // interpreter releases them immediately.) The trace-side half this
    // check used to carry — consumers starting before their producer's
    // done event — re-reported what the happens-before replay proves
    // properly; trace-dependency-violation (checks_hb.cc) is the single
    // source of truth for that now, and the baseline loader aliases old
    // bat-lifetime fingerprints onto it so recorded baselines stay valid.
    for (const Instruction& ins : p.instructions()) {
      const KernelSignature* sig = SignatureAt(ctx, ins);
      if (sig != nullptr && sig->side_effect_free) continue;
      for (int r : ins.results) {
        if (!VarInRange(p, r)) continue;
        if (!p.variable(r).type.is_bat) continue;
        if (deps.readers(r).empty()) {
          emit.Emit(Severity::kWarning, ins.pc, r,
                    StrFormat("BAT %s is defined but never consumed — it is "
                              "released without a reader",
                              VarName(p, r).c_str()),
                    "drop the unused result or add its consumer");
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// sink-order-key
// ---------------------------------------------------------------------------

class SinkOrderKeyCheck final : public Check {
 public:
  const char* id() const override { return "sink-order-key"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "result sinks carry a well-defined ResultColumn::order key so "
           "parallel sink execution keeps columns in statement order";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    size_t sinks = 0;
    for (const Instruction& ins : p.instructions()) {
      const KernelSignature* sig = SignatureAt(ctx, ins);
      if (sig != nullptr && sig->is_sink) {
        ++sinks;
        // The order key is engine::ResultOrderKey(pc, arg-index); more
        // arguments than its per-pc key space would collide with the next
        // pc's keys.
        constexpr size_t kKeysPerPc = size_t{1}
                                      << engine::kResultOrderArgBits;
        if (ins.args.size() > kKeysPerPc) {
          emit.Emit(Severity::kError, ins.pc, -1,
                    StrFormat("%s emits %zu result columns but the order key "
                              "only encodes %zu per instruction — output "
                              "order would collide with pc=%d",
                              ins.FullName().c_str(), ins.args.size(),
                              kKeysPerPc, ins.pc + 1),
                    "split the sink into several instructions");
        }
      } else if (sig == nullptr &&
                 LooksLikeResultSink(ins.module, ins.function)) {
        ++sinks;  // intended as a sink, however broken
        emit.Emit(Severity::kError, ins.pc, -1,
                  StrFormat("%s looks like a result sink but carries no "
                            "ResultColumn::order key — sinks run in parallel "
                            "under the dataflow scheduler, so its output "
                            "column order is nondeterministic",
                            ins.FullName().c_str()),
                  "emit through sql.resultSet / io.print, or register the "
                  "kernel with an order key");
      }
    }
    if (sinks == 0 && p.size() > 0) {
      emit.Emit(Severity::kNote, -1, -1,
                "plan has no result sink — execution produces no output");
    }
  }
};

// ---------------------------------------------------------------------------
// dot-contract
// ---------------------------------------------------------------------------

class DotContractCheck final : public Check {
 public:
  const char* id() const override { return "dot-contract"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "dot nodes follow the pc N <-> \"nN\" <-> label contract and "
           "edges match the plan's dataflow dependencies";
  }
  unsigned needs() const override { return kNeedsGraph; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const dot::Graph& g = *ctx.graph;
    Emitter emit(id(), out);

    // Node ids must follow the "n<pc>" convention regardless of whether we
    // have the plan; the trace↔graph join is impossible otherwise.
    for (const dot::GraphNode& node : g.nodes()) {
      int pc = PcFromNodeId(node.id);
      if (pc < 0) {
        emit.Emit(Severity::kError, -1, -1,
                  StrFormat("node \"%s\" does not follow the \"n<pc>\" naming "
                            "convention — trace events cannot be joined to it",
                            Ellipsize(node.id).c_str()));
        continue;
      }
      if (!node.given_label) {
        emit.Emit(Severity::kWarning, pc, -1,
                  StrFormat("node \"n%d\" has no label attribute — the "
                            "statement text is lost",
                            pc));
      }
      if (ctx.program != nullptr &&
          static_cast<size_t>(pc) >= ctx.program->size()) {
        emit.Emit(Severity::kError, pc, -1,
                  StrFormat("node \"n%d\" is beyond the plan (size %zu)", pc,
                            ctx.program->size()));
      }
    }
    if (ctx.program == nullptr) return;
    const Program& p = *ctx.program;

    // Every pc renders as node "nN" carrying the statement as its label.
    for (const Instruction& ins : p.instructions()) {
      int node_index = g.FindNode(StrFormat("n%d", ins.pc));
      if (node_index < 0) {
        emit.Emit(Severity::kError, ins.pc, -1,
                  StrFormat("plan instruction pc=%d has no dot node \"n%d\"",
                            ins.pc, ins.pc));
        continue;
      }
      const std::string& label = g.node(static_cast<size_t>(node_index)).label();
      std::string stmt = p.InstructionToString(ins);
      if (label != stmt) {
        emit.Emit(Severity::kError, ins.pc, -1,
                  StrFormat("label mismatch: dot says \"%s\" but the plan "
                            "says \"%s\"",
                            Ellipsize(label).c_str(), Ellipsize(stmt).c_str()),
                  "re-emit the dot file from the executed plan");
      }
    }

    // Edges must be exactly the dataflow dependencies (producer -> consumer).
    std::set<std::pair<int, int>> expected;
    const mal::Dependencies& deps = ctx.facts->deps();
    for (size_t pc = 0; pc < deps.size(); ++pc) {
      for (int producer : deps.producers(static_cast<int>(pc))) {
        expected.emplace(producer, static_cast<int>(pc));
      }
    }
    std::set<std::pair<int, int>> actual;
    for (const dot::GraphEdge& edge : g.edges()) {
      int from = PcFromNodeId(edge.from);
      int to = PcFromNodeId(edge.to);
      if (from < 0 || to < 0) continue;  // ids already flagged above
      actual.emplace(from, to);
    }
    for (const auto& [from, to] : expected) {
      if (actual.find({from, to}) == actual.end()) {
        emit.Emit(Severity::kError, to, -1,
                  StrFormat("dependency edge n%d -> n%d is missing from the "
                            "dot file",
                            from, to));
      }
    }
    for (const auto& [from, to] : actual) {
      if (expected.find({from, to}) == expected.end()) {
        emit.Emit(Severity::kWarning, to, -1,
                  StrFormat("dot edge n%d -> n%d has no matching dataflow "
                            "dependency in the plan",
                            from, to));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// trace-conformance
// ---------------------------------------------------------------------------

class TraceConformanceCheck final : public Check {
 public:
  const char* id() const override { return "trace-conformance"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "each executed pc emits exactly one start and one done event, "
           "clocks are monotonic, pcs are in range, statements match";
  }
  unsigned needs() const override { return kNeedsTrace; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    const TraceIndex& index = ctx.facts->trace_index();
    // Pcs whose statement text was already reported as diverging.
    std::vector<bool> stmt_mismatch(
        ctx.program != nullptr ? ctx.program->size() : 0, false);

    int64_t prev_time = 0;
    bool reported_clock = false;
    for (size_t i = 0; i < index.size(); ++i) {
      const TraceEvent& e = index.event(i);
      if (e.time_us < prev_time && !reported_clock) {
        emit.Emit(Severity::kError, e.pc, -1,
                  StrFormat("event %lld timestamp runs backwards (%lld us "
                            "after %lld us) — emission order is broken",
                            static_cast<long long>(e.event),
                            static_cast<long long>(e.time_us),
                            static_cast<long long>(prev_time)),
                  "sort the trace by event sequence number before analysis");
        reported_clock = true;  // one report; later events usually cascade
      }
      prev_time = std::max(prev_time, e.time_us);

      if (e.pc < 0) {
        emit.Emit(Severity::kError, e.pc, -1,
                  StrFormat("event %lld carries negative pc",
                            static_cast<long long>(e.event)));
        continue;
      }
      if (ctx.program != nullptr &&
          static_cast<size_t>(e.pc) >= ctx.program->size()) {
        emit.Emit(Severity::kError, e.pc, -1,
                  StrFormat("event %lld references pc=%d outside the plan "
                            "(size %zu)",
                            static_cast<long long>(e.event), e.pc,
                            ctx.program->size()));
        continue;
      }
      if (ctx.graph != nullptr &&
          ctx.graph->FindNode(StrFormat("n%d", e.pc)) < 0) {
        emit.Emit(Severity::kError, e.pc, -1,
                  StrFormat("event %lld references pc=%d but the dot file "
                            "has no node \"n%d\"",
                            static_cast<long long>(e.event), e.pc, e.pc));
      }

      if (e.state == EventState::kDone && e.usec < 0) {
        emit.Emit(Severity::kError, e.pc, -1,
                  StrFormat("done event %lld reports negative duration "
                            "%lld us",
                            static_cast<long long>(e.event),
                            static_cast<long long>(e.usec)));
      }
      if (ctx.program != nullptr && !stmt_mismatch[static_cast<size_t>(e.pc)]) {
        std::string stmt = ctx.program->InstructionToString(
            ctx.program->instruction(e.pc));
        if (e.stmt != stmt) {
          stmt_mismatch[static_cast<size_t>(e.pc)] = true;
          emit.Emit(Severity::kError, e.pc, -1,
                    StrFormat("statement text diverges from the plan: trace "
                              "says \"%s\", plan says \"%s\"",
                              Ellipsize(e.stmt).c_str(),
                              Ellipsize(stmt).c_str()),
                    "trace and plan come from different compilations");
        }
      }
    }

    for (const auto& [pc, info] : index.pcs()) {
      // Out-of-plan pcs were reported per event above.
      if (ctx.program != nullptr &&
          static_cast<size_t>(pc) >= ctx.program->size()) {
        break;
      }
      const bool done_before_start =
          info.completed() &&
          (!info.started() || info.first_done < info.first_start);
      if (info.starts == info.dones && info.starts == 1 &&
          !done_before_start) {
        continue;
      }
      if (done_before_start) {
        emit.Emit(Severity::kError, pc, -1,
                  "done event precedes its start event");
      }
      if (info.starts != info.dones) {
        emit.Emit(Severity::kError, pc, -1,
                  StrFormat("unpaired events: %d start vs %d done — every "
                            "executed instruction emits exactly one of each",
                            info.starts, info.dones),
                  info.dones < info.starts
                      ? "the query may have aborted mid-instruction"
                      : "duplicate done events suggest a double release");
      } else if (info.starts > 1) {
        emit.Emit(Severity::kError, pc, -1,
                  StrFormat("pc executed %d times — the contract is one "
                            "start/done pair per instruction",
                            info.starts));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// trace-span-conformance
// ---------------------------------------------------------------------------

/// Cross-validates the profiler's event stream against the platform's own
/// span tracer: an instruction that emitted a start/done pair must appear as
/// exactly one "kernel" span (same pc, same logical thread id) in the
/// exported platform trace. A mismatch means one of the two observability
/// channels lost or duplicated work — precisely the silent divergence a
/// debugging session must not build on.
class TraceSpanConformanceCheck final : public Check {
 public:
  const char* id() const override { return "trace-span-conformance"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "every profiler start/done pc pair is covered by exactly one "
           "kernel span with a matching thread id";
  }
  unsigned needs() const override { return kNeedsTrace | kNeedsSpans; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    const TraceIndex& index = ctx.facts->trace_index();

    struct PcSpans {
      int count = 0;
      int tid = 0;
    };
    std::map<int, PcSpans> kernel_spans;
    for (const obs::SpanRecord& span : *ctx.spans) {
      if (span.cat != "kernel") continue;  // phases/passes have no pc pairing
      if (span.pc < 0) {
        emit.Emit(Severity::kError, -1, -1,
                  StrFormat("kernel span \"%s\" carries no pc — it cannot be "
                            "matched to a profiler event pair",
                            Ellipsize(span.name).c_str()));
        continue;
      }
      PcSpans& s = kernel_spans[span.pc];
      ++s.count;
      s.tid = span.tid;
    }

    // Executed instructions according to the profiler: pcs with a done
    // event. (Unpaired events are trace-conformance's findings, not
    // duplicated here.)
    for (const auto& [pc, traced] : index.pcs()) {
      if (!traced.completed()) continue;
      const int thread = index.event(traced.first_done).thread;
      // The thread contract stamps start and done with the same
      // query-local admission slot, even when work stealing moves the
      // instruction between pool workers.
      const int start_thread =
          traced.started() ? index.event(traced.first_start).thread : thread;
      if (start_thread != thread) {
        emit.Emit(Severity::kError, pc, -1,
                  StrFormat("start and done events disagree on the thread id "
                            "(%d vs %d) — both must carry the query-local "
                            "admission slot",
                            start_thread, thread),
                  "the emitter must stamp the pair with one slot even when "
                  "a stolen task runs on another pool worker");
      }
      auto it = kernel_spans.find(pc);
      int spans = it == kernel_spans.end() ? 0 : it->second.count;
      if (spans != traced.dones) {
        emit.Emit(Severity::kError, pc, -1,
                  StrFormat("profiler saw %d execution(s) but the platform "
                            "trace has %d kernel span(s)",
                            traced.dones, spans),
                  spans < traced.dones
                      ? "the span ring may have overflowed (Tracer::dropped())"
                      : "trace and spans come from different runs");
        continue;
      }
      if (it != kernel_spans.end() && it->second.tid != thread) {
        emit.Emit(Severity::kError, pc, -1,
                  StrFormat("thread id diverges: profiler event says %d, "
                            "kernel span says %d — the span tracer must "
                            "preserve the trace thread contract",
                            thread, it->second.tid));
      }
    }
    // Spans with no profiler pair: the profiler filter may legitimately have
    // suppressed those events, so this direction is only a warning.
    for (const auto& [pc, spans] : kernel_spans) {
      const PcEvents* traced = index.Find(pc);
      if (traced == nullptr || !traced->completed()) {
        emit.Emit(Severity::kWarning, pc, -1,
                  StrFormat("%d kernel span(s) have no profiler start/done "
                            "pair",
                            spans.count),
                  "a profiler filter may have dropped the events");
      }
    }
  }
};

}  // namespace

std::unique_ptr<Check> MakeDefBeforeUseCheck() {
  return std::make_unique<DefBeforeUseCheck>();
}
std::unique_ptr<Check> MakeSingleAssignmentCheck() {
  return std::make_unique<SingleAssignmentCheck>();
}
std::unique_ptr<Check> MakeDeadInstructionCheck() {
  return std::make_unique<DeadInstructionCheck>();
}
std::unique_ptr<Check> MakeKernelSignatureCheck() {
  return std::make_unique<KernelSignatureCheck>();
}
std::unique_ptr<Check> MakeBatLifetimeCheck() {
  return std::make_unique<BatLifetimeCheck>();
}
std::unique_ptr<Check> MakeSinkOrderKeyCheck() {
  return std::make_unique<SinkOrderKeyCheck>();
}
std::unique_ptr<Check> MakeDotContractCheck() {
  return std::make_unique<DotContractCheck>();
}
std::unique_ptr<Check> MakeTraceConformanceCheck() {
  return std::make_unique<TraceConformanceCheck>();
}
std::unique_ptr<Check> MakeTraceSpanConformanceCheck() {
  return std::make_unique<TraceSpanConformanceCheck>();
}

std::vector<std::unique_ptr<Check>> AllChecks() {
  std::vector<std::unique_ptr<Check>> checks;
  checks.push_back(MakeDefBeforeUseCheck());
  checks.push_back(MakeSingleAssignmentCheck());
  checks.push_back(MakeDeadInstructionCheck());
  checks.push_back(MakeKernelSignatureCheck());
  checks.push_back(MakeBatLifetimeCheck());
  checks.push_back(MakeSinkOrderKeyCheck());
  checks.push_back(MakeDotContractCheck());
  checks.push_back(MakeTraceConformanceCheck());
  checks.push_back(MakeTraceSpanConformanceCheck());
  // Pipeline-delivery check (checks_pipe.cc).
  checks.push_back(MakeTraceSequenceGapCheck());
  // Happens-before schedule checks (checks_hb.cc).
  checks.push_back(MakeTraceDependencyViolationCheck());
  checks.push_back(MakeTraceWriteRaceCheck());
  checks.push_back(MakeSpanInterleavingCheck());
  checks.push_back(MakeTraceClockMonotonicityCheck());
  checks.push_back(MakeScheduleSerializationCheck());
  // Abstract-interpretation checks (checks_absint.cc).
  checks.push_back(MakeTypeFlowCheck());
  checks.push_back(MakeCardinalityContradictionCheck());
  checks.push_back(MakeGuaranteedEmptyCheck());
  checks.push_back(MakeMissedConstantFoldCheck());
  checks.push_back(MakeOrderKeyPropagationCheck());
  // Memory-lifetime checks (checks_memory.cc).
  checks.push_back(MakeMemoryBlowupCheck());
  checks.push_back(MakeLiveRangeBloatCheck());
  checks.push_back(MakeFootprintConformanceCheck());
  // Cross-run performance checks (checks_perf.cc).
  checks.push_back(MakeTracePerfRegressionCheck());
  return checks;
}

}  // namespace stetho::analysis
