// Unit tests for the abstract domain (analysis/domain.h), the abstract
// interpreter (analysis/absint.h), the absint-based lint checks, the
// optimizer's pass-equivalence differ, and the SARIF rendering.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "analysis/checks.h"
#include "analysis/domain.h"
#include "analysis/runner.h"
#include "common/string_util.h"
#include "engine/debugger.h"
#include "engine/kernel.h"
#include "mal/program.h"
#include "optimizer/pass.h"
#include "sql/compiler.h"
#include "storage/value.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho {
namespace {

using analysis::AbstractState;
using analysis::AbstractValue;
using analysis::CheckContext;
using analysis::Diagnostic;
using analysis::Interval;
using analysis::PlanSummary;
using analysis::Runner;
using analysis::Severity;
using analysis::Tri;
using mal::Argument;
using mal::MalType;
using storage::DataType;
using storage::Value;

MalType Lng() { return MalType::Scalar(DataType::kInt64); }
MalType Dbl() { return MalType::Scalar(DataType::kDouble); }
MalType BatLng() { return MalType::Bat(DataType::kInt64); }
MalType BatOid() { return MalType::Bat(DataType::kOid); }

std::vector<Diagnostic> RunOne(std::unique_ptr<analysis::Check> check,
                               const mal::Program& p) {
  Runner runner;
  runner.Add(std::move(check));
  CheckContext ctx;
  ctx.program = &p;
  return runner.Run(ctx);
}

/// densebat(16) -> mirror -> batcalc.add -> count -> print.
mal::Program CleanPlan() {
  mal::Program p;
  int a = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(16))});
  int b = p.AddVariable(BatOid());
  p.Add("bat", "mirror", {b}, {Argument::Var(a)});
  int c = p.AddVariable(BatLng());
  p.Add("batcalc", "add", {c}, {Argument::Var(a), Argument::Var(b)});
  int n = p.AddVariable(Lng());
  p.Add("aggr", "count", {n}, {Argument::Var(c)});
  p.Add("io", "print", {}, {Argument::Var(n)});
  return p;
}

// ---------------------------------------------------------------------------
// Interval
// ---------------------------------------------------------------------------

TEST(IntervalTest, ConstructorsAndPredicates) {
  EXPECT_TRUE(Interval::Exact(5).is_exact());
  EXPECT_TRUE(Interval::Unknown().is_unknown());
  EXPECT_TRUE(Interval::Range(2, 8).Contains(8));
  EXPECT_FALSE(Interval::Range(2, 8).Contains(9));
  EXPECT_TRUE(Interval::Range(0, 4).Overlaps(Interval::Range(4, 9)));
  EXPECT_FALSE(Interval::Range(0, 4).Overlaps(Interval::Range(5, 9)));
}

TEST(IntervalTest, JoinIsHullMeetIsIntersection) {
  Interval a = Interval::Range(2, 5);
  Interval b = Interval::Range(4, 9);
  EXPECT_EQ(a.Join(b), Interval::Range(2, 9));
  EXPECT_EQ(a.Meet(b), Interval::Range(4, 5));
}

TEST(IntervalTest, SaturatingArithmetic) {
  Interval big{0, Interval::kUnbounded};
  EXPECT_EQ(Interval::SaturatingAdd(big, Interval::Exact(3)).hi,
            Interval::kUnbounded);
  EXPECT_EQ(Interval::SaturatingAdd(Interval::Exact(4), Interval::Exact(3)),
            Interval::Exact(7));
  EXPECT_EQ(
      Interval::SaturatingMulUpper(Interval::Range(0, 4), Interval::Range(0, 5)),
      Interval::Range(0, 20));
  EXPECT_EQ(Interval::SaturatingMulUpper(big, Interval::Range(0, 5)).hi,
            Interval::kUnbounded);
  EXPECT_EQ(Interval::SaturatingMulUpper(big, Interval::Exact(0)).hi, 0);
}

TEST(IntervalTest, ToStringRendersStarForUnbounded) {
  EXPECT_EQ(Interval::Range(0, 16).ToString(), "[0, 16]");
  EXPECT_EQ(Interval::Unknown().ToString(), "[0, *]");
}

TEST(TriTest, TriOrTruthTable) {
  EXPECT_EQ(TriOr(Tri::kFalse, Tri::kFalse), Tri::kFalse);
  EXPECT_EQ(TriOr(Tri::kFalse, Tri::kUnknown), Tri::kUnknown);
  EXPECT_EQ(TriOr(Tri::kUnknown, Tri::kTrue), Tri::kTrue);
  EXPECT_EQ(TriOr(Tri::kTrue, Tri::kFalse), Tri::kTrue);
}

// ---------------------------------------------------------------------------
// AbstractValue
// ---------------------------------------------------------------------------

TEST(AbstractValueTest, FromConstantCapturesTypeAndValue) {
  AbstractValue v = AbstractValue::FromConstant(Value::Int(42));
  EXPECT_TRUE(v.defined);
  EXPECT_EQ(v.is_bat, Tri::kFalse);
  EXPECT_EQ(v.elem, DataType::kInt64);
  EXPECT_EQ(v.card, Interval::Exact(1));
  EXPECT_EQ(v.nullable, Tri::kFalse);
  ASSERT_TRUE(v.constant.has_value());
  EXPECT_EQ(*v.constant, Value::Int(42));

  AbstractValue null_v = AbstractValue::FromConstant(Value::Null());
  EXPECT_EQ(null_v.nullable, Tri::kTrue);
  EXPECT_FALSE(null_v.elem_known());
}

TEST(AbstractValueTest, FromDeclaredUsesAnnotation) {
  mal::Program p;
  int v = p.AddVariable(BatLng());
  p.AnnotateCardinality(v, 10, 20);
  AbstractValue a = AbstractValue::FromDeclared(p.variable(v));
  EXPECT_EQ(a.is_bat, Tri::kTrue);
  EXPECT_EQ(a.elem, DataType::kInt64);
  EXPECT_EQ(a.card, Interval::Range(10, 20));

  int s = p.AddVariable(Lng());
  AbstractValue b = AbstractValue::FromDeclared(p.variable(s));
  EXPECT_EQ(b.is_bat, Tri::kFalse);
  EXPECT_EQ(b.card, Interval::Exact(1));
}

TEST(AbstractValueTest, JoinKeepsOnlyAgreedFacts) {
  AbstractValue a = AbstractValue::FromConstant(Value::Int(1));
  AbstractValue b = AbstractValue::FromConstant(Value::Int(2));
  AbstractValue j = a.Join(b);
  EXPECT_FALSE(j.constant.has_value());  // disagreeing constants dropped
  EXPECT_EQ(j.elem, DataType::kInt64);   // agreed element type kept
  EXPECT_EQ(j.card, Interval::Exact(1));
  EXPECT_EQ(a.Join(a), a);  // idempotent
}

TEST(AbstractValueTest, JoinDropsIntegerConstantsThatDifferAboveTwoTo53) {
  const int64_t big = int64_t{1} << 53;
  AbstractValue a = AbstractValue::FromConstant(Value::Int(big));
  AbstractValue b = AbstractValue::FromConstant(Value::Int(big + 1));
  // Equal as doubles; a join keeping the constant would be wrong for b.
  EXPECT_FALSE(a.Join(b).constant.has_value());
  EXPECT_FALSE(b.Join(a).constant.has_value());
  EXPECT_FALSE(a.CompatibleWith(b));
  ASSERT_TRUE(a.Join(a).constant.has_value());
  EXPECT_EQ(a.Join(a).constant->AsInt(), big);
}

TEST(AbstractValueTest, CompatibleWithDetectsEveryConflictKind) {
  AbstractValue top = AbstractValue::Top();
  EXPECT_TRUE(top.CompatibleWith(top));

  AbstractValue bat = top;
  bat.is_bat = Tri::kTrue;
  AbstractValue scalar = top;
  scalar.is_bat = Tri::kFalse;
  EXPECT_FALSE(bat.CompatibleWith(scalar));

  AbstractValue lng = top;
  lng.elem = DataType::kInt64;
  AbstractValue dbl = top;
  dbl.elem = DataType::kDouble;
  EXPECT_FALSE(lng.CompatibleWith(dbl));
  EXPECT_TRUE(lng.CompatibleWith(top));  // unknown elem is compatible

  AbstractValue small = top;
  small.card = Interval::Range(0, 4);
  AbstractValue large = top;
  large.card = Interval::Range(5, 9);
  EXPECT_FALSE(small.CompatibleWith(large));

  AbstractValue no_null = top;
  no_null.nullable = Tri::kFalse;
  AbstractValue has_null = top;
  has_null.nullable = Tri::kTrue;
  EXPECT_FALSE(no_null.CompatibleWith(has_null));

  AbstractValue c1 = AbstractValue::FromConstant(Value::Int(1));
  AbstractValue c2 = AbstractValue::FromConstant(Value::Int(2));
  EXPECT_FALSE(c1.CompatibleWith(c2));
  EXPECT_TRUE(c1.CompatibleWith(c1));

  AbstractValue undefined;  // bottom is compatible with everything
  EXPECT_TRUE(undefined.CompatibleWith(c1));
}

TEST(AbstractValueTest, ToStringFormats) {
  AbstractValue c = AbstractValue::FromConstant(Value::Int(5));
  EXPECT_EQ(c.ToString(), "const 5:lng");
  AbstractValue b = AbstractValue::Top();
  b.is_bat = Tri::kTrue;
  b.elem = DataType::kInt64;
  b.card = Interval::Range(0, 16);
  b.nullable = Tri::kFalse;
  b.sorted = Tri::kTrue;
  EXPECT_EQ(b.ToString(), "bat[:lng] card=[0, 16] null=no sorted=yes");
  EXPECT_EQ(AbstractValue{}.ToString(), "<undefined>");
}

// ---------------------------------------------------------------------------
// AnalyzeProgram
// ---------------------------------------------------------------------------

TEST(AnalyzeProgramTest, PropagatesFactsThroughCleanPlan) {
  mal::Program p = CleanPlan();
  AbstractState state = analysis::AnalyzeProgram(p);
  ASSERT_EQ(state.vars.size(), 4u);

  const AbstractValue& densebat = state.vars[0];
  EXPECT_EQ(densebat.card, Interval::Exact(16));
  EXPECT_EQ(densebat.elem, DataType::kOid);
  EXPECT_EQ(densebat.sorted, Tri::kTrue);
  EXPECT_EQ(densebat.nullable, Tri::kFalse);

  const AbstractValue& mirror = state.vars[1];
  EXPECT_EQ(mirror.card, Interval::Exact(16));
  EXPECT_EQ(mirror.elem, DataType::kOid);

  const AbstractValue& sum = state.vars[2];
  EXPECT_EQ(sum.card, Interval::Exact(16));
  EXPECT_EQ(sum.elem, DataType::kInt64);
  EXPECT_EQ(sum.nullable, Tri::kFalse);

  // count of an exactly-16-row NULL-free BAT is the constant 16.
  const AbstractValue& count = state.vars[3];
  EXPECT_EQ(count.is_bat, Tri::kFalse);
  ASSERT_TRUE(count.constant.has_value());
  EXPECT_EQ(*count.constant, Value::Int(16));
}

TEST(AnalyzeProgramTest, CountOfNullableInputIsNotConstant) {
  // Without a provably NULL-free input, aggr.count must not claim an exact
  // value: count skips NULLs.
  mal::Program p;
  int a = p.AddVariable(BatLng());
  p.AnnotateCardinality(a, 8, 8);
  p.Add("sql", "bind", {a},
        {Argument::Const(Value::Int(0)), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("t")),
         Argument::Const(Value::String("c")),
         Argument::Const(Value::Int(0))});
  int n = p.AddVariable(Lng());
  p.Add("aggr", "count", {n}, {Argument::Var(a)});
  AbstractState state = analysis::AnalyzeProgram(p);
  EXPECT_EQ(state.vars[static_cast<size_t>(a)].card, Interval::Exact(8));
  EXPECT_FALSE(state.vars[static_cast<size_t>(n)].constant.has_value());
}

TEST(AnalyzeProgramTest, DeclaredTypeFillsUnknownFacts) {
  mal::Program p;
  int a = p.AddVariable(BatLng());
  // Unknown kernel: the transfer table has nothing, so the declaration is
  // all we know.
  p.Add("user", "mystery", {a}, {});
  AbstractState state = analysis::AnalyzeProgram(p);
  EXPECT_EQ(state.vars[0].is_bat, Tri::kTrue);
  EXPECT_EQ(state.vars[0].elem, DataType::kInt64);
  EXPECT_TRUE(state.vars[0].card.is_unknown());
}

TEST(AnalyzeProgramTest, MalformedReferencesStayBottomWithoutCrashing) {
  mal::Program p;
  int out = p.AddVariable(BatOid());
  p.Add("bat", "mirror", {out}, {Argument::Var(7)});  // out of range
  AbstractState state = analysis::AnalyzeProgram(p);
  EXPECT_TRUE(state.vars[0].defined);  // result still evaluated
}

TEST(EvalInstructionTest, RawResultIgnoresDeclaration) {
  mal::Program p;
  int a = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(4))});
  int wrong = p.AddVariable(BatLng());  // mirror actually produces bat[:oid]
  p.Add("bat", "mirror", {wrong}, {Argument::Var(a)});
  AbstractState state = analysis::AnalyzeProgram(p);
  std::vector<AbstractValue> raw =
      analysis::EvalInstruction(p, p.instruction(1), state);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0].elem, DataType::kOid);  // not the declared :lng
}

// ---------------------------------------------------------------------------
// Plan summaries + the pass-equivalence differ
// ---------------------------------------------------------------------------

TEST(SummaryTest, CollectsSinkOperandsInPlanOrder) {
  mal::Program p = CleanPlan();
  PlanSummary s = analysis::SummarizeObservable(p);
  ASSERT_EQ(s.columns.size(), 1u);
  EXPECT_EQ(s.columns[0].op, "io.print");
  EXPECT_EQ(s.columns[0].pc, 4);
  EXPECT_EQ(s.columns[0].arg_index, 0u);
  ASSERT_TRUE(s.columns[0].value.constant.has_value());
  EXPECT_EQ(*s.columns[0].value.constant, Value::Int(16));
}

TEST(SummaryTest, EquivalenceAcceptsSelfAndRefinement) {
  mal::Program p = CleanPlan();
  PlanSummary s = analysis::SummarizeObservable(p);
  EXPECT_TRUE(analysis::CheckSummaryEquivalence(s, s, "noop").ok());

  // A refined summary (narrower cardinality) is still equivalent.
  PlanSummary widened = s;
  widened.columns[0].value.constant.reset();
  widened.columns[0].value.card = Interval::Unknown();
  EXPECT_TRUE(analysis::CheckSummaryEquivalence(widened, s, "refine").ok());
}

TEST(SummaryTest, EquivalenceRejectsContradiction) {
  mal::Program p = CleanPlan();
  PlanSummary before = analysis::SummarizeObservable(p);
  PlanSummary after = before;
  after.columns[0].value.constant = Value::Int(17);
  Status st = analysis::CheckSummaryEquivalence(before, after, "pass 'evil'");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("pass 'evil'"), std::string::npos);
  EXPECT_NE(st.message().find("io.print"), std::string::npos);
  EXPECT_NE(st.message().find("const 16:lng"), std::string::npos);
  EXPECT_NE(st.message().find("const 17:lng"), std::string::npos);
}

TEST(SummaryTest, EquivalenceRejectsColumnCountAndRewiring) {
  mal::Program p = CleanPlan();
  PlanSummary s = analysis::SummarizeObservable(p);
  PlanSummary empty;
  EXPECT_FALSE(analysis::CheckSummaryEquivalence(s, empty, "drop").ok());

  PlanSummary rewired = s;
  rewired.columns[0].op = "sql.resultSet";
  EXPECT_FALSE(analysis::CheckSummaryEquivalence(s, rewired, "rewire").ok());
}

/// A deliberately broken pass: increments the first integer constant it
/// finds. The rewrite is structurally valid (every lint check passes) but
/// changes what the query prints — only the differ can catch it.
class ConstantCorruptingPass final : public optimizer::Pass {
 public:
  const char* name() const override { return "constant_corrupting"; }
  Result<optimizer::Effect> Apply(mal::Program* program,
                                  const analysis::Facts&) override {
    for (size_t pc = 0; pc < program->size(); ++pc) {
      mal::Instruction& ins =
          program->mutable_instruction(static_cast<int>(pc));
      for (Argument& arg : ins.args) {
        if (arg.kind == Argument::Kind::kConst &&
            arg.constant.type() == DataType::kInt64) {
          arg.constant = Value::Int(arg.constant.AsInt() + 1);
          return optimizer::Effect::Rewrite();
        }
      }
    }
    return optimizer::Effect::None();
  }
};

TEST(PipelineDifferTest, RejectsSemanticsChangingPass) {
  mal::Program p;
  p.Add("io", "print", {}, {Argument::Const(Value::Int(42))});

  optimizer::Pipeline pipeline;
  pipeline.Add(std::make_unique<ConstantCorruptingPass>());
  auto fired = pipeline.Run(&p);
  ASSERT_FALSE(fired.ok());
  EXPECT_NE(fired.status().message().find("constant_corrupting"),
            std::string::npos);
  EXPECT_NE(fired.status().message().find("const 42:lng"), std::string::npos);
  EXPECT_NE(fired.status().message().find("const 43:lng"), std::string::npos);
}

TEST(PipelineDifferTest, AcceptsConstantFolding) {
  mal::Program p;
  int x = p.AddVariable(Lng());
  p.Add("calc", "add", {x},
        {Argument::Const(Value::Int(2)), Argument::Const(Value::Int(3))});
  p.Add("io", "print", {}, {Argument::Var(x)});

  optimizer::Pipeline pipeline = optimizer::Pipeline::Default(0);
  auto fired = pipeline.Run(&p);
  ASSERT_TRUE(fired.ok()) << fired.status().ToString();
  bool folded = false;
  for (const std::string& name : fired.value()) {
    if (name == "constant_folding") folded = true;
  }
  EXPECT_TRUE(folded);
}

// ---------------------------------------------------------------------------
// The absint-based checks
// ---------------------------------------------------------------------------

TEST(TypeFlowTest, CleanPlanHasNoFindings) {
  mal::Program p = CleanPlan();
  EXPECT_TRUE(RunOne(analysis::MakeTypeFlowCheck(), p).empty());
}

TEST(TypeFlowTest, FlagsResultDeclarationMismatch) {
  mal::Program p;
  int a = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(4))});
  int n = p.AddVariable(Dbl());  // aggr.count actually produces :lng
  p.Add("aggr", "count", {n}, {Argument::Var(a)});
  p.Add("io", "print", {}, {Argument::Var(n)});
  auto diags = RunOne(analysis::MakeTypeFlowCheck(), p);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].pc, 1);
  EXPECT_EQ(diags[0].var, n);
}

TEST(TypeFlowTest, FlagsBooleanSlotViolation) {
  mal::Program p;
  int b = p.AddVariable(MalType::Scalar(DataType::kBool));
  p.Add("calc", "not", {b}, {Argument::Const(Value::Int(5))});
  p.Add("io", "print", {}, {Argument::Var(b)});
  auto diags = RunOne(analysis::MakeTypeFlowCheck(), p);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find(":bit"), std::string::npos);
}

TEST(CardinalityContradictionTest, FlagsDisjointZipArguments) {
  mal::Program p;
  int a = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(4))});
  int b = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {b}, {Argument::Const(Value::Int(8))});
  int c = p.AddVariable(BatLng());
  p.Add("batcalc", "add", {c}, {Argument::Var(a), Argument::Var(b)});
  p.Add("io", "print", {}, {Argument::Var(c)});
  auto diags = RunOne(analysis::MakeCardinalityContradictionCheck(), p);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 2);
  EXPECT_NE(diags[0].message.find("[4, 4]"), std::string::npos);
  EXPECT_NE(diags[0].message.find("[8, 8]"), std::string::npos);
}

TEST(CardinalityContradictionTest, BroadcastScalarIsFine) {
  mal::Program p;
  int a = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(4))});
  int c = p.AddVariable(BatLng());
  p.Add("batcalc", "add", {c},
        {Argument::Var(a), Argument::Const(Value::Int(1))});
  p.Add("io", "print", {}, {Argument::Var(c)});
  EXPECT_TRUE(
      RunOne(analysis::MakeCardinalityContradictionCheck(), p).empty());
}

TEST(GuaranteedEmptyTest, FlagsProvablyEmptyBat) {
  mal::Program p;
  int a = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(0))});
  int n = p.AddVariable(Lng());
  p.Add("aggr", "count", {n}, {Argument::Var(a)});
  p.Add("io", "print", {}, {Argument::Var(n)});
  auto diags = RunOne(analysis::MakeGuaranteedEmptyCheck(), p);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].pc, 0);
}

TEST(MissedConstantFoldTest, NotesFoldableCalcAndStopsAfterFolding) {
  mal::Program p;
  int x = p.AddVariable(Lng());
  p.Add("calc", "add", {x},
        {Argument::Const(Value::Int(2)), Argument::Const(Value::Int(3))});
  p.Add("io", "print", {}, {Argument::Var(x)});
  auto diags = RunOne(analysis::MakeMissedConstantFoldCheck(), p);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kNote);

  optimizer::Pipeline pipeline = optimizer::Pipeline::Default(0);
  ASSERT_TRUE(pipeline.Run(&p).ok());
  EXPECT_TRUE(RunOne(analysis::MakeMissedConstantFoldCheck(), p).empty());
}

TEST(OrderKeyPropagationTest, FlagsDataBatUsedAsCandidateList) {
  mal::Program p;
  int col = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {col}, {Argument::Const(Value::Int(8))});
  int data = p.AddVariable(BatLng());
  p.Add("batcalc", "add", {data},
        {Argument::Var(col), Argument::Const(Value::Int(1))});
  int out = p.AddVariable(BatOid());
  // The :lng data BAT lands in projection's candidate slot.
  p.Add("algebra", "projection", {out},
        {Argument::Var(data), Argument::Var(col)});
  p.Add("io", "print", {}, {Argument::Var(out)});
  auto diags = RunOne(analysis::MakeOrderKeyPropagationCheck(), p);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].pc, 2);
  EXPECT_EQ(diags[0].var, data);
}

TEST(OrderKeyPropagationTest, TidStyleCandidateIsClean) {
  mal::Program p;
  int col = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {col}, {Argument::Const(Value::Int(8))});
  int out = p.AddVariable(BatOid());
  p.Add("algebra", "projection", {out},
        {Argument::Var(col), Argument::Var(col)});
  p.Add("io", "print", {}, {Argument::Var(out)});
  EXPECT_TRUE(RunOne(analysis::MakeOrderKeyPropagationCheck(), p).empty());
}

// ---------------------------------------------------------------------------
// dead-instruction severity depends on the linting context
// ---------------------------------------------------------------------------

TEST(DeadInstructionSeverityTest, WarningFromCliNoteMidPipeline) {
  mal::Program p;
  int a = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(4))});  // dead
  p.Add("io", "print", {}, {Argument::Const(Value::Int(1))});

  Runner runner;
  runner.Add(analysis::MakeDeadInstructionCheck());
  CheckContext ctx;
  ctx.program = &p;
  auto diags = runner.Run(ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);

  ctx.in_pipeline = true;
  diags = runner.Run(ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kNote);
}

// ---------------------------------------------------------------------------
// SARIF rendering
// ---------------------------------------------------------------------------

TEST(SarifTest, EmptyDiagnosticsIsAValidEmptyLog) {
  std::string sarif = analysis::DiagnosticsToSarif({}, "");
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"mal_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
  EXPECT_NE(sarif.find("\"rules\": []"), std::string::npos);
}

TEST(SarifTest, MatchesGoldenFile) {
  std::vector<Diagnostic> diags(2);
  diags[0].severity = Severity::kError;
  diags[0].check_id = "type-flow";
  diags[0].pc = 2;
  diags[0].var = 3;
  diags[0].message =
      "bat.mirror computes :oid for result 0 but X_3 is declared :bat[:lng]";
  diags[0].fix_hint = "fix the declared type or the producing operation";
  diags[1].severity = Severity::kNote;
  diags[1].check_id = "missed-constant-fold";
  diags[1].pc = 0;
  diags[1].var = 1;
  diags[1].message = "calc.add has only constant operands";
  std::string sarif = analysis::DiagnosticsToSarif(diags, "plans/q01.mal");

  std::string golden_path =
      std::string(STETHO_TESTS_DIR) + "/golden/mal_lint.sarif";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(sarif, buffer.str())
      << "SARIF output diverged from " << golden_path
      << "; actual output:\n"
      << sarif;
}

TEST(SarifTest, LevelsRegionsAndRuleIndexAreStable) {
  std::vector<Diagnostic> diags(1);
  diags[0].severity = Severity::kWarning;
  diags[0].check_id = "guaranteed-empty";
  diags[0].pc = 7;
  diags[0].message = "empty";
  std::string sarif = analysis::DiagnosticsToSarif(diags, "x.mal");
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 8"), std::string::npos);  // pc + 1
  EXPECT_NE(sarif.find("\"uri\": \"x.mal\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": 0"), std::string::npos);
  // The built-in check's description is attached to the rule.
  EXPECT_NE(sarif.find("\"shortDescription\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Soundness: the abstract values hold for the registers execution computes
// ---------------------------------------------------------------------------

/// What of `value` the executed register `reg` contradicts; "" when the
/// register lies inside it.
std::string Escape(const AbstractValue& value,
                   const engine::RegisterValue& reg) {
  if (value.is_bat != Tri::kUnknown &&
      (value.is_bat == Tri::kTrue) != reg.is_bat()) {
    return StrFormat("abstract %s but the register holds a %s",
                     value.ToString().c_str(), reg.is_bat() ? "BAT" : "scalar");
  }
  if (!reg.is_bat()) {
    const Value& scalar = reg.scalar;
    if (value.elem_known() && !scalar.is_null() &&
        scalar.type() != value.elem) {
      return StrFormat("abstract %s but the scalar is %s",
                       value.ToString().c_str(), scalar.ToString().c_str());
    }
    if ((value.nullable == Tri::kFalse && scalar.is_null()) ||
        (value.nullable == Tri::kTrue && !scalar.is_null())) {
      return StrFormat("abstract %s but the scalar is %s",
                       value.ToString().c_str(), scalar.ToString().c_str());
    }
    if (value.constant.has_value() && !(*value.constant == scalar)) {
      return StrFormat("abstract %s but the scalar is %s",
                       value.ToString().c_str(), scalar.ToString().c_str());
    }
    return "";
  }
  const storage::Column& bat = *reg.bat;
  const std::string facts = value.ToString();
  if (value.elem_known() && bat.type() != value.elem) {
    return StrFormat("abstract %s but the BAT holds %s", facts.c_str(),
                     DataTypeName(bat.type()));
  }
  if (!value.card.Contains(static_cast<int64_t>(bat.size()))) {
    return StrFormat("abstract %s but the BAT has %zu rows", facts.c_str(),
                     bat.size());
  }
  size_t nulls = 0;
  for (size_t i = 0; i < bat.size(); ++i) nulls += bat.IsNull(i) ? 1 : 0;
  if ((value.nullable == Tri::kFalse && nulls > 0) ||
      (value.nullable == Tri::kTrue && nulls == 0)) {
    return StrFormat("abstract %s but the BAT holds %zu NULLs", facts.c_str(),
                     nulls);
  }
  if (value.sorted == Tri::kTrue) {
    for (size_t i = 1; i < bat.size(); ++i) {
      if (bat.GetValue(i - 1).Compare(bat.GetValue(i)) > 0) {
        return StrFormat("abstract %s but rows %zu and %zu descend",
                         facts.c_str(), i - 1, i);
      }
    }
  }
  return "";
}

// Every result register of every suite plan, at four mitosis widths and
// stepped one instruction at a time, lies inside the abstract value the
// analysis records for it: shape, element type, row count, NULLs, order and
// known constants. The lint, memory_reorder, admission, the progress model
// and the optimizer's carried facts all trust these values, so an escape
// names a transfer function that is too tight.
TEST(AbsintSoundnessTest, EveryRegisterLiesInsideItsAbstractValue) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::GenerateTpch(config);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  size_t registers = 0;
  for (const tpch::TpchQuery& query : tpch::TpchQueries()) {
    for (int m : {0, 4, 16, 128}) {
      auto compiled = sql::Compiler::CompileSql(&catalog.value(), query.sql);
      ASSERT_TRUE(compiled.ok()) << query.id << ": "
                                 << compiled.status().ToString();
      mal::Program plan = std::move(compiled.value());
      auto fired = optimizer::Pipeline::Default(m).Run(&plan);
      ASSERT_TRUE(fired.ok()) << fired.status().ToString();
      std::vector<analysis::InstructionFacts> facts;
      analysis::AnalyzeProgram(plan, &facts);
      auto debugger = engine::MalDebugger::Create(&plan, &catalog.value());
      ASSERT_TRUE(debugger.ok()) << debugger.status().ToString();
      engine::MalDebugger& dbg = *debugger.value();
      while (!dbg.Finished()) {
        const int pc = dbg.next_pc();
        Status stepped = dbg.Step();
        ASSERT_TRUE(stepped.ok()) << query.id << " m=" << m << " pc=" << pc
                                  << ": " << stepped.ToString();
        const mal::Instruction& ins = plan.instruction(pc);
        for (size_t i = 0; i < ins.results.size(); ++i) {
          const engine::RegisterValue* reg = dbg.Register(ins.results[i]);
          ASSERT_NE(reg, nullptr) << query.id << " m=" << m << " pc=" << pc;
          ++registers;
          const std::string escape = Escape(
              facts[static_cast<size_t>(pc)].merged_results[i], *reg);
          EXPECT_TRUE(escape.empty())
              << query.id << " at mitosis " << m << ", pc=" << pc << " ("
              << ins.FullName() << ") result " << i << ": " << escape;
        }
      }
    }
  }
  EXPECT_GT(registers, 10000u);
}

}  // namespace
}  // namespace stetho
