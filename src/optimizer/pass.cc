#include "optimizer/pass.h"

#include <bit>
#include <functional>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "analysis/absint.h"
#include "analysis/runner.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "engine/kernel.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace stetho::optimizer {
namespace {

obs::Counter* PassesFiredCounter() {
  static obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_opt_passes_fired_total",
      "Optimizer passes that changed a plan (any pass, any pipeline)");
  return counter;
}

obs::Histogram* PassUsecHistogram() {
  static obs::Histogram* histogram =
      obs::Registry::Default()->GetOrCreateHistogram(
          "stetho_opt_pass_usec",
          "Optimizer pass duration in microseconds (recorded while "
          "observability is enabled)",
          obs::Histogram::DefaultLatencyBounds());
  return histogram;
}

obs::Histogram* VerifyUsecHistogram() {
  static obs::Histogram* histogram =
      obs::Registry::Default()->GetOrCreateHistogram(
          "stetho_opt_verify_usec",
          "Optimizer verification after a pass (effect check, fact update, "
          "lint and differ) in microseconds (recorded while observability "
          "is enabled)",
          obs::Histogram::DefaultLatencyBounds());
  return histogram;
}

/// What the pipeline records under one pass name, built once per process.
struct PassInstruments {
  std::string pass_span;    ///< "pass:<name>"
  std::string verify_span;  ///< "verify:<name>"
  obs::Counter* fired;      ///< stetho_opt_pass_<name>_fired_total
};

struct NameHash {
  using is_transparent = void;
  size_t operator()(std::string_view name) const {
    return std::hash<std::string_view>{}(name);
  }
};

const PassInstruments& InstrumentsFor(const char* name) {
  static std::mutex mu;
  static auto* by_name =
      new std::unordered_map<std::string, PassInstruments, NameHash,
                             std::equal_to<>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = by_name->find(std::string_view(name));
  if (it == by_name->end()) {
    PassInstruments instruments{
        std::string("pass:") + name, std::string("verify:") + name,
        obs::Registry::Default()->GetOrCreateCounter(
            "stetho_opt_pass_" + obs::MetricToken(name) + "_fired_total",
            "Times optimizer pass '" + std::string(name) +
                "' changed a plan")};
    it = by_name->emplace(name, std::move(instruments)).first;
  }
  return it->second;
}

/// Ships the failure with its context: the flight recorder's dump carries
/// the recent spans (which pass ran when) and the full metrics snapshot.
Status DumpAndReturn(Status st) {
  obs::FlightRecorder* recorder = obs::FlightRecorder::Default();
  if (recorder->enabled()) {
    std::string reason = "optimizer pipeline failed: " + st.ToString();
    recorder->Note(reason);
    recorder->Dump(reason);
  }
  return st;
}

/// One instruction's fields mixed into 64 bits: the operation, the result
/// ids and each argument (a variable by id, a constant by type and bits).
/// Equal hashes are taken as equal instructions.
uint64_t HashInstruction(const mal::Instruction& ins) {
  uint64_t h = MixText(MixText(0, ins.module), ins.function);
  h = MixWord(h, ins.results.size());
  for (int r : ins.results) h = MixWord(h, static_cast<uint64_t>(r));
  h = MixWord(h, ins.args.size());
  for (const mal::Argument& arg : ins.args) {
    if (arg.kind == mal::Argument::Kind::kVar) {
      h = MixWord(MixWord(h, ~uint64_t{0}), static_cast<uint64_t>(arg.var));
      continue;
    }
    const storage::Value& c = arg.constant;
    h = MixWord(h, static_cast<uint64_t>(c.type()));
    switch (c.type()) {
      case storage::DataType::kBool:
        h = MixWord(h, c.AsBool() ? 1 : 0);
        break;
      case storage::DataType::kInt64:
      case storage::DataType::kOid:
        h = MixWord(h, static_cast<uint64_t>(c.AsInt()));
        break;
      case storage::DataType::kDouble:
        h = MixWord(h, std::bit_cast<uint64_t>(c.AsDouble()));
        break;
      case storage::DataType::kString:
        h = MixText(h, c.AsString());
        break;
      case storage::DataType::kNull:
      case storage::DataType::kBat:
        break;
    }
  }
  return h;
}

/// The plan's per-instruction hashes, kept for one instructions_version()
/// and recomputed only after the instructions changed.
struct PlanHashes {
  std::vector<uint64_t> hashes;
  uint64_t version = 0;
  bool valid = false;

  void Refresh(const mal::Program& program) {
    if (valid && version == program.instructions_version()) return;
    hashes.clear();
    hashes.reserve(program.size());
    for (const mal::Instruction& ins : program.instructions()) {
      hashes.push_back(HashInstruction(ins));
    }
    version = program.instructions_version();
    valid = true;
  }
};

/// Checks a pass's reported effect against the plan. `hashes` and
/// `variables_version` describe the plan before the pass; `hashes` moves on
/// to the plan after it when the check needed them. "" when the report
/// holds, otherwise what contradicts it. A rewrite claims nothing to check.
std::string ContradictEffect(const Effect& effect, uint64_t variables_version,
                             const mal::Program& program, PlanHashes* hashes) {
  if (effect.kind == Effect::Kind::kRewrite) return "";
  if (program.variables_version() != variables_version) {
    return "it changed the variable table";
  }
  if (effect.kind == Effect::Kind::kNone &&
      program.instructions_version() == hashes->version) {
    return "";
  }
  const std::vector<uint64_t> before = std::move(hashes->hashes);
  hashes->valid = false;
  hashes->Refresh(program);
  const std::vector<uint64_t>& after = hashes->hashes;
  // The pc before the pass that each pc after it claims to hold; -1 for an
  // inserted instruction.
  std::vector<int> from;
  if (effect.kind == Effect::Kind::kPermutation) {
    from = effect.pcs;
  } else {
    const std::vector<int>& inserted = effect.pcs;  // empty for kNone
    size_t next = 0;
    for (size_t pc = 0; pc < after.size(); ++pc) {
      if (next < inserted.size() && static_cast<size_t>(inserted[next]) == pc) {
        ++next;
        from.push_back(-1);
      } else {
        from.push_back(static_cast<int>(pc - next));
      }
    }
    if (next != inserted.size()) {
      return "its inserted pcs are not ascending and in range";
    }
  }
  if (from.size() != after.size()) {
    return StrFormat("it accounts for %zu instructions but the plan has %zu",
                     from.size(), after.size());
  }
  std::vector<char> taken(before.size(), 0);
  size_t kept = 0;
  for (size_t pc = 0; pc < after.size(); ++pc) {
    const int old_pc = from[pc];
    if (old_pc < 0) {
      const mal::Instruction& ins = program.instruction(static_cast<int>(pc));
      bool reads_register = false;
      for (const mal::Argument& arg : ins.args) {
        reads_register |= arg.kind == mal::Argument::Kind::kVar;
      }
      if (!ins.results.empty() || reads_register) {
        return StrFormat("the instruction inserted at pc=%zu has results or "
                         "variable arguments",
                         pc);
      }
      continue;
    }
    if (static_cast<size_t>(old_pc) >= before.size() ||
        taken[static_cast<size_t>(old_pc)] != 0) {
      return StrFormat("pc=%zu comes from pc=%d, which is out of range or "
                       "taken twice",
                       pc, old_pc);
    }
    taken[static_cast<size_t>(old_pc)] = 1;
    ++kept;
    if (after[pc] != before[static_cast<size_t>(old_pc)]) {
      return StrFormat("pc=%zu differs from the instruction at pc=%d", pc,
                       old_pc);
    }
  }
  if (kept != before.size()) {
    return StrFormat("%zu of the plan's %zu instructions are gone",
                     before.size() - kept, before.size());
  }
  return "";
}

/// Everything the pipeline does after `pass` reported `effect`: checks the
/// report against the plan, carries `facts` over the change, and after the
/// first pass and every pass that changed the plan runs the checks that
/// can report an error and the pass-equivalence differ against `summary`.
Status Verify(const Pass& pass, const Effect& effect, bool first,
              uint64_t variables_version, const analysis::CheckContext& ctx,
              PlanHashes* hashes, analysis::Facts* facts,
              analysis::PlanSummary* summary) {
  const mal::Program& program = *ctx.program;
  std::string contradiction =
      ContradictEffect(effect, variables_version, program, hashes);
  if (!contradiction.empty()) {
    return Status::Internal(StrFormat("optimizer pass '%s' reported %s, but %s",
                                      pass.name(), effect.name(),
                                      contradiction.c_str()));
  }
  switch (effect.kind) {
    case Effect::Kind::kNone:
      break;
    case Effect::Kind::kPermutation:
      facts->Permute(effect.pcs);
      break;
    case Effect::Kind::kInsert:
      facts->Insert(effect.pcs);
      break;
    case Effect::Kind::kRewrite:
      facts->Reset();
      break;
  }
  // A pass that reports no change leaves the plan exactly as the last lint
  // saw it, so only passes that changed it are linted, plus the first,
  // which covers the compiled input. The lint is a superset of Validate():
  // a failure names the pass, the check, and the offending pc/variable.
  if (!effect.changed() && !first) return Status::OK();
  const std::vector<analysis::Diagnostic> errors =
      analysis::Runner::Default().Run(ctx, *facts, analysis::Severity::kError);
  if (analysis::HasErrors(errors)) {
    return analysis::DiagnosticsToStatus(
        errors, StrFormat("optimizer pass '%s' produced an invalid plan",
                          pass.name()));
  }
  if (!effect.changed()) return Status::OK();
  // A pass may refine the summary (folding, mitosis re-packing) but never
  // contradict it — that would be a provable change of query results.
  analysis::PlanSummary rewritten =
      analysis::SummarizeObservable(program, facts->instructions());
  STETHO_RETURN_IF_ERROR(analysis::CheckSummaryEquivalence(
      *summary, rewritten, StrFormat("optimizer pass '%s'", pass.name())));
  *summary = std::move(rewritten);  // later passes diff against the refinement
  hashes->Refresh(program);  // what the next pass's report is checked against
  return Status::OK();
}

}  // namespace

const char* Effect::name() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kPermutation:
      return "permutation";
    case Kind::kInsert:
      return "insert";
    case Kind::kRewrite:
      return "rewrite";
  }
  return "?";
}

Result<bool> Pass::Run(mal::Program* program) {
  const analysis::Facts facts(program, nullptr);
  STETHO_ASSIGN_OR_RETURN(Effect effect, Apply(program, facts));
  return effect.changed();
}

Result<std::vector<std::string>> Pipeline::Run(mal::Program* program) const {
  std::vector<std::string> fired;
  analysis::CheckContext ctx;
  ctx.program = program;
  ctx.registry = engine::ModuleRegistry::Default();
  ctx.in_pipeline = true;
  // One fact set for the whole run: the passes read it, each Verify
  // carries it over the pass's checked effect, and the lint and the differ
  // read it. The differ's first summary is the abstract value of every
  // result-sink operand in the compiled plan (analysis/absint.h).
  analysis::Facts facts(program, nullptr);
  analysis::PlanSummary summary =
      analysis::SummarizeObservable(*program, facts.instructions());
  // The per-instruction hashes a pass's report is checked against; each
  // Verify leaves them describing the plan the next pass receives.
  PlanHashes hashes;
  hashes.Refresh(*program);
  obs::Tracer* tracer = obs::Tracer::Default();
  obs::FlightRecorder* recorder = obs::FlightRecorder::Default();
  // Counters are always on (one relaxed increment when a pass fires); the
  // duration histograms, spans and the recorder's per-pass note read the
  // clock, so they gate on the kill switch / tracer / recorder enablement.
  const bool timed =
      obs::Enabled() || tracer->enabled() || recorder->enabled();
  for (const auto& pass : passes_) {
    const size_t size_before = program->size();
    const uint64_t variables_version = program->variables_version();
    const int64_t t0 = timed ? tracer->clock()->NowMicros() : 0;
    STETHO_ASSIGN_OR_RETURN(Effect effect, pass->Apply(program, facts));
    const int64_t t1 = timed ? tracer->clock()->NowMicros() : 0;
    Status verified = Verify(*pass, effect, pass == passes_.front(),
                             variables_version, ctx, &hashes, &facts,
                             &summary);
    if (timed) {
      const int64_t t2 = tracer->clock()->NowMicros();
      const PassInstruments& instruments = InstrumentsFor(pass->name());
      if (obs::Enabled()) {
        PassUsecHistogram()->Observe(t1 - t0);
        VerifyUsecHistogram()->Observe(t2 - t1);
      }
      if (tracer->enabled()) {
        tracer->RecordComplete(instruments.pass_span, "pass", 0, -1, t0,
                               t1 - t0);
        tracer->RecordComplete(instruments.verify_span, "verify", 0, -1, t1,
                               t2 - t1);
      }
      if (recorder->enabled()) {
        recorder->Note(StrFormat(
            "optimizer pass %s: %zu -> %zu instructions, %s, pass %lld us, "
            "verify %lld us",
            pass->name(), size_before, program->size(), effect.name(),
            static_cast<long long>(t1 - t0),
            static_cast<long long>(t2 - t1)));
      }
    }
    if (!verified.ok()) return DumpAndReturn(std::move(verified));
    if (effect.changed()) {
      fired.push_back(pass->name());
      PassesFiredCounter()->Increment();
      InstrumentsFor(pass->name()).fired->Increment();
    }
  }
  return fired;
}

Pipeline Pipeline::Default(int mitosis_pieces) {
  Pipeline pipeline;
  pipeline.Add(MakeConstantFoldingPass());
  pipeline.Add(MakeCommonSubexpressionPass());
  pipeline.Add(MakeDeadCodePass());
  if (mitosis_pieces > 1) {
    pipeline.Add(MakeMitosisPass(mitosis_pieces));
  }
  pipeline.Add(MakeMemoryReorderPass());
  pipeline.Add(MakeDataflowMarkerPass());
  return pipeline;
}

}  // namespace stetho::optimizer
