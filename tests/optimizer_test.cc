#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "analysis/liveness.h"
#include "common/string_util.h"
#include "engine/interpreter.h"
#include "mal/program.h"
#include "optimizer/pass.h"
#include "sql/compiler.h"
#include "storage/table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho::optimizer {
namespace {

using engine::ExecOptions;
using engine::Interpreter;
using mal::Argument;
using mal::MalType;
using mal::Program;
using storage::Catalog;
using storage::DataType;
using storage::Value;

size_t CountOps(const Program& p, const std::string& full_name) {
  size_t n = 0;
  for (const auto& ins : p.instructions()) {
    if (ins.FullName() == full_name) ++n;
  }
  return n;
}

Catalog TinyTpch() {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  EXPECT_TRUE(cat.ok());
  return std::move(cat.value());
}

// --- constant folding ---

TEST(ConstantFoldingTest, FoldsScalarCalc) {
  Program p;
  int a = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "add", {a},
        {Argument::Const(Value::Int(2)), Argument::Const(Value::Int(3))});
  int b = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "mul", {b},
        {Argument::Var(a), Argument::Const(Value::Int(10))});
  p.Add("io", "print", {}, {Argument::Var(b)});

  auto pass = MakeConstantFoldingPass();
  auto changed = pass->Run(&p);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(changed.value());
  // Both calc instructions fold away; print receives the constant 50.
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.instruction(0).FullName(), "io.print");
  ASSERT_EQ(p.instruction(0).args.size(), 1u);
  EXPECT_EQ(p.instruction(0).args[0].constant, Value::Int(50));
}

TEST(ConstantFoldingTest, LeavesNonConstAlone) {
  Program p;
  int a = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {a}, {});
  int b = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "add", {b}, {Argument::Var(a), Argument::Const(Value::Int(1))});
  p.Add("io", "print", {}, {Argument::Var(b)});
  auto changed = MakeConstantFoldingPass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
  EXPECT_EQ(p.size(), 3u);
}

// --- CSE ---

TEST(CsePassTest, MergesIdenticalPureInstructions) {
  Program p;
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  auto bind = [&p, mvc] {
    int v = p.AddVariable(MalType::Bat(DataType::kInt64));
    p.Add("sql", "bind", {v},
          {Argument::Var(mvc), Argument::Const(Value::String("sys")),
           Argument::Const(Value::String("t")),
           Argument::Const(Value::String("c")), Argument::Const(Value::Int(0))});
    return v;
  };
  int b1 = bind();
  int b2 = bind();
  p.Add("io", "print", {}, {Argument::Var(b1)});
  p.Add("io", "print", {}, {Argument::Var(b2)});

  auto changed = MakeCommonSubexpressionPass()->Run(&p);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(CountOps(p, "sql.bind"), 1u);
  // Both prints now reference the same variable.
  EXPECT_EQ(p.instruction(2).args[0].var, p.instruction(3).args[0].var);
}

TEST(CsePassTest, DoesNotMergeImpure) {
  Program p;
  p.Add("debug", "sleep", {}, {Argument::Const(Value::Int(1))});
  p.Add("debug", "sleep", {}, {Argument::Const(Value::Int(1))});
  auto changed = MakeCommonSubexpressionPass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
  EXPECT_EQ(p.size(), 2u);
}

// An operation without a registered signature may have effects, even in
// a module whose built-in kernels are all side-effect free.
TEST(CsePassTest, DoesNotMergeUnregisteredOps) {
  Program p;
  for (int i = 0; i < 2; ++i) {
    int v = p.AddVariable(MalType::Bat(DataType::kOid));
    p.Add("algebra", "nosuch", {v}, {Argument::Const(Value::Int(1))});
    p.Add("io", "print", {}, {Argument::Var(v)});
  }
  auto changed = MakeCommonSubexpressionPass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
  EXPECT_EQ(CountOps(p, "algebra.nosuch"), 2u);
}

TEST(CsePassTest, DistinguishesDifferentConstantTypes) {
  Program p;
  int a = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(3))});
  int b = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("bat", "densebat", {b}, {Argument::Const(Value::Oid(3))});
  p.Add("io", "print", {}, {Argument::Var(a)});
  p.Add("io", "print", {}, {Argument::Var(b)});
  auto changed = MakeCommonSubexpressionPass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
}

// Double constants key by their exact value: 1.0000001 and 1.0000002 print
// alike under %g ("1"), so a key built from the rendered text merged them.
TEST(CsePassTest, KeepsNearlyEqualDoublesApart) {
  Program p;
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  int x = p.AddVariable(MalType::Bat(DataType::kDouble));
  p.Add("sql", "bind", {x},
        {Argument::Var(mvc), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("t")),
         Argument::Const(Value::String("c")), Argument::Const(Value::Int(0))});
  std::vector<int> products;
  for (double factor : {1.0000001, 1.0000002, 1.0000001}) {
    int v = p.AddVariable(MalType::Bat(DataType::kDouble));
    p.Add("batcalc", "mul", {v},
          {Argument::Var(x), Argument::Const(Value::Double(factor))});
    products.push_back(v);
  }
  for (int v : products) p.Add("io", "print", {}, {Argument::Var(v)});

  auto changed = MakeCommonSubexpressionPass()->Run(&p);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(changed.value());  // the equal constants still merge
  EXPECT_EQ(CountOps(p, "batcalc.mul"), 2u);
  const int print = static_cast<int>(p.size()) - 3;
  const int first = p.instruction(print).args[0].var;
  EXPECT_NE(p.instruction(print + 1).args[0].var, first);
  EXPECT_EQ(p.instruction(print + 2).args[0].var, first);
}

// --- dead code ---

TEST(DeadCodeTest, RemovesUnusedPureChains) {
  Program p;
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  int unused = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "add", {unused},
        {Argument::Var(mvc), Argument::Const(Value::Int(1))});
  int used = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "add", {used},
        {Argument::Var(mvc), Argument::Const(Value::Int(2))});
  p.Add("io", "print", {}, {Argument::Var(used)});

  auto changed = MakeDeadCodePass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(CountOps(p, "calc.add"), 1u);
}

TEST(DeadCodeTest, KeepsImpureInstructions) {
  Program p;
  p.Add("debug", "sleep", {}, {Argument::Const(Value::Int(1))});
  auto changed = MakeDeadCodePass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
  EXPECT_EQ(p.size(), 1u);
}

TEST(DeadCodeTest, KeepsUnregisteredOps) {
  Program p;
  int unused = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("algebra", "nosuch", {unused}, {Argument::Const(Value::Int(1))});
  auto changed = MakeDeadCodePass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
  EXPECT_EQ(p.size(), 1u);
}

// --- mitosis ---

TEST(MitosisTest, SplitsScanSelects) {
  Catalog cat = TinyTpch();
  auto program = sql::Compiler::CompileSql(
      &cat, "select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(program.ok());
  Program p = std::move(program.value());
  size_t before = p.size();
  ASSERT_EQ(CountOps(p, "algebra.thetaselect"), 1u);

  auto changed = MakeMitosisPass(4)->Run(&p);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(CountOps(p, "algebra.thetaselect"), 4u);
  EXPECT_EQ(CountOps(p, "bat.partition"), 4u);
  EXPECT_EQ(CountOps(p, "mat.pack"), 1u);
  EXPECT_GT(p.size(), before);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(MitosisTest, ResultsUnchangedByPartitioning) {
  Catalog cat = TinyTpch();
  for (const char* id : {"paper", "q1", "q6"}) {
    auto q = tpch::GetQuery(id);
    ASSERT_TRUE(q.ok());
    auto base = sql::Compiler::CompileSql(&cat, q.value().sql);
    ASSERT_TRUE(base.ok()) << id;
    Program plain = base.value();
    Program split = base.value();
    auto changed = MakeMitosisPass(8)->Run(&split);
    ASSERT_TRUE(changed.ok()) << id;

    Interpreter interp(&cat);
    ExecOptions opts;
    opts.num_threads = 4;
    auto a = interp.Execute(plain, opts);
    auto b = interp.Execute(split, opts);
    ASSERT_TRUE(a.ok()) << id << a.status().ToString();
    ASSERT_TRUE(b.ok()) << id << b.status().ToString();
    ASSERT_EQ(a.value().columns.size(), b.value().columns.size()) << id;
    for (size_t c = 0; c < a.value().columns.size(); ++c) {
      const auto& ca = a.value().columns[c];
      const auto& cb = b.value().columns[c];
      if (ca.is_scalar) {
        EXPECT_EQ(ca.scalar.Compare(cb.scalar), 0) << id;
        continue;
      }
      ASSERT_EQ(ca.column->size(), cb.column->size()) << id;
      for (size_t i = 0; i < ca.column->size(); ++i) {
        EXPECT_EQ(ca.column->GetValue(i), cb.column->GetValue(i)) << id;
      }
    }
  }
}

TEST(MitosisTest, NoEffectWithoutScanSelects) {
  Program p;
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  p.Add("io", "print", {}, {Argument::Var(mvc)});
  auto changed = MakeMitosisPass(4)->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
}

// --- markers / pruning ---

TEST(DataflowMarkerTest, PrependsOnce) {
  Program p;
  p.Add("io", "print", {}, {Argument::Const(Value::Int(1))});
  auto changed = MakeDataflowMarkerPass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(p.instruction(0).FullName(), "language.dataflow");
  auto again = MakeDataflowMarkerPass()->Run(&p);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());
}

TEST(AdminPruneTest, RemovesLanguageNodes) {
  Program p;
  p.Add("language", "dataflow", {}, {});
  p.Add("io", "print", {}, {Argument::Const(Value::Int(1))});
  auto changed = MakeAdminPrunePass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.instruction(0).FullName(), "io.print");
}

// --- pipeline ---

TEST(PipelineTest, DefaultPipelineRunsAndValidates) {
  Catalog cat = TinyTpch();
  auto q = tpch::GetQuery("q3");
  ASSERT_TRUE(q.ok());
  auto program = sql::Compiler::CompileSql(&cat, q.value().sql);
  ASSERT_TRUE(program.ok());
  Program p = std::move(program.value());

  Pipeline pipeline = Pipeline::Default(/*mitosis_pieces=*/4);
  auto fired = pipeline.Run(&p);
  ASSERT_TRUE(fired.ok()) << fired.status().ToString();
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.instruction(0).FullName(), "language.dataflow");

  // Optimized plan still executes.
  Interpreter interp(&cat);
  ExecOptions opts;
  opts.num_threads = 4;
  auto r = interp.Execute(p, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(PipelineTest, OptimizedPlanMatchesUnoptimized) {
  Catalog cat = TinyTpch();
  for (const char* id : {"q1", "q3", "q6", "q14", "scan_heavy"}) {
    auto q = tpch::GetQuery(id);
    ASSERT_TRUE(q.ok());
    auto base = sql::Compiler::CompileSql(&cat, q.value().sql);
    ASSERT_TRUE(base.ok()) << id;
    Program plain = base.value();
    Program optimized = base.value();
    Pipeline pipeline = Pipeline::Default(/*mitosis_pieces=*/4);
    auto fired = pipeline.Run(&optimized);
    ASSERT_TRUE(fired.ok()) << id << fired.status().ToString();

    Interpreter interp(&cat);
    ExecOptions opts;
    auto a = interp.Execute(plain, opts);
    auto b = interp.Execute(optimized, opts);
    ASSERT_TRUE(a.ok()) << id;
    ASSERT_TRUE(b.ok()) << id << ": " << b.status().ToString();
    ASSERT_EQ(a.value().columns.size(), b.value().columns.size()) << id;
    for (size_t c = 0; c < a.value().columns.size(); ++c) {
      const auto& ca = a.value().columns[c];
      const auto& cb = b.value().columns[c];
      if (ca.is_scalar) {
        EXPECT_EQ(ca.scalar.Compare(cb.scalar), 0) << id;
        continue;
      }
      ASSERT_EQ(ca.column->size(), cb.column->size()) << id;
      for (size_t i = 0; i < ca.column->size(); ++i) {
        EXPECT_EQ(ca.column->GetValue(i), cb.column->GetValue(i)) << id;
      }
    }
  }
}

// A deliberately broken pass: rewrites the plan so an argument is used
// before its definition. The pipeline's post-pass lint must fail with a
// Status naming the pass and the violated check.
class ClobberPass : public Pass {
 public:
  const char* name() const override { return "clobber"; }
  Result<Effect> Apply(Program* program, const analysis::Facts&) override {
    std::vector<mal::Instruction> reversed(program->instructions().rbegin(),
                                           program->instructions().rend());
    program->ReplaceInstructions(std::move(reversed));
    return Effect::Rewrite();
  }
};

TEST(PipelineTest, BrokenPassFailsWithPassNameAndCheckId) {
  Catalog cat = TinyTpch();
  auto base = sql::Compiler::CompileSql(&cat, tpch::GetQuery("q6").value().sql);
  ASSERT_TRUE(base.ok());
  Program p = std::move(base.value());

  Pipeline pipeline;
  pipeline.Add(std::make_unique<ClobberPass>());
  auto fired = pipeline.Run(&p);
  ASSERT_FALSE(fired.ok());
  const Status st = fired.status();
  const std::string& msg = st.message();
  EXPECT_NE(msg.find("optimizer pass 'clobber'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ssa-def-before-use"), std::string::npos) << msg;
  EXPECT_NE(msg.find("pc="), std::string::npos) << msg;
}

// --- carried facts and checked effects ---

/// Runs a pass owned by another pipeline, so a test pipeline can put probes
/// between the default passes.
class Borrowed : public Pass {
 public:
  explicit Borrowed(Pass* pass) : pass_(pass) {}
  const char* name() const override { return pass_->name(); }
  Result<Effect> Apply(Program* program,
                       const analysis::Facts& facts) override {
    return pass_->Apply(program, facts);
  }

 private:
  Pass* pass_;
};

/// Compares the facts the pipeline carries into it with facts built fresh
/// from the plan, field by field, recording each difference; changes
/// nothing.
class FactsProbe : public Pass {
 public:
  FactsProbe(std::string after, std::vector<std::string>* differences)
      : after_(std::move(after)), differences_(differences) {}
  const char* name() const override { return "facts_probe"; }
  Result<Effect> Apply(Program* program,
                       const analysis::Facts& carried) override {
    std::vector<analysis::InstructionFacts> fresh;
    analysis::AnalyzeProgram(*program, &fresh);
    const std::vector<analysis::InstructionFacts>& facts =
        carried.instructions();
    if (facts.size() != fresh.size()) {
      Differ(StrFormat("%zu facts for %zu instructions", facts.size(),
                       fresh.size()));
      return Effect::None();
    }
    for (size_t pc = 0; pc < fresh.size(); ++pc) {
      const analysis::InstructionFacts& a = facts[pc];
      const analysis::InstructionFacts& b = fresh[pc];
      if (a.sig != b.sig) Differ(StrFormat("pc=%zu signature", pc));
      if (a.resolved != b.resolved) Differ(StrFormat("pc=%zu resolved", pc));
      if (a.args != b.args) Differ(StrFormat("pc=%zu args", pc));
      if (a.raw_results != b.raw_results) {
        Differ(StrFormat("pc=%zu raw results", pc));
      }
      if (a.merged_results != b.merged_results) {
        Differ(StrFormat("pc=%zu merged results", pc));
      }
    }
    if (carried.deps() != program->BuildDependencies()) Differ("deps");
    const analysis::MemoryReport fresh_memory =
        analysis::AnalyzeMemory(*program, fresh, program->BuildDependencies());
    if (carried.memory().live_after != fresh_memory.live_after ||
        carried.memory().seq_peak_bytes != fresh_memory.seq_peak_bytes) {
      Differ("memory report");
    }
    return Effect::None();
  }

 private:
  void Differ(const std::string& what) {
    differences_->push_back("after " + after_ + ": " + what);
  }

  std::string after_;
  std::vector<std::string>* differences_;
};

// After every pass of the default pipeline, the one fact set the pipeline
// carries (permuted after memory_reorder, shifted after the marker, rebuilt
// after a rewrite) equals facts built fresh from the plan.
TEST(CarriedFactsTest, EqualFreshFactsAfterEveryDefaultPass) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  for (const tpch::TpchQuery& query : tpch::TpchQueries()) {
    for (int m : {0, 16, 128}) {
      SCOPED_TRACE(query.id + " m=" + std::to_string(m));
      auto base = sql::Compiler::CompileSql(&cat.value(), query.sql);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      Pipeline defaults = Pipeline::Default(m);
      Pipeline probed;
      std::vector<std::string> differences;
      for (const std::unique_ptr<Pass>& pass : defaults.passes()) {
        probed.Add(std::make_unique<Borrowed>(pass.get()));
        probed.Add(std::make_unique<FactsProbe>(pass->name(), &differences));
      }
      Program plan = base.value();
      auto fired = probed.Run(&plan);
      ASSERT_TRUE(fired.ok()) << fired.status().ToString();
      EXPECT_TRUE(differences.empty()) << differences.front();

      Program reference = base.value();
      ASSERT_TRUE(Pipeline::Default(m).Run(&reference).ok());
      EXPECT_EQ(plan.ToString(), reference.ToString());
    }
  }
}

/// Bumps the first integer constant and claims to have only permuted.
class ConstantChangingPermutation : public Pass {
 public:
  const char* name() const override { return "constant_changing_permutation"; }
  Result<Effect> Apply(Program* program, const analysis::Facts&) override {
    std::vector<int> identity;
    for (size_t pc = 0; pc < program->size(); ++pc) {
      identity.push_back(static_cast<int>(pc));
    }
    for (size_t pc = 0; pc < program->size(); ++pc) {
      for (Argument& arg :
           program->mutable_instruction(static_cast<int>(pc)).args) {
        if (arg.kind == Argument::Kind::kConst &&
            arg.constant.type() == DataType::kInt64) {
          arg.constant = Value::Int(arg.constant.AsInt() + 1);
          return Effect::Permutation(std::move(identity));
        }
      }
    }
    return Effect::Permutation(std::move(identity));
  }
};

/// Inserts `ins` at pc 0 and claims an admin insert.
class ClaimedInsert : public Pass {
 public:
  ClaimedInsert(const char* name, mal::Instruction ins)
      : name_(name), ins_(std::move(ins)) {}
  const char* name() const override { return name_; }
  Result<Effect> Apply(Program* program, const analysis::Facts&) override {
    program->InsertInstruction(0, ins_);
    return Effect::Insert({0});
  }

 private:
  const char* name_;
  mal::Instruction ins_;
};

Status RunAfterDefaults(std::unique_ptr<Pass> pass) {
  Catalog cat = TinyTpch();
  auto base = sql::Compiler::CompileSql(&cat, tpch::GetQuery("q6").value().sql);
  EXPECT_TRUE(base.ok());
  Program p = std::move(base.value());
  Pipeline pipeline = Pipeline::Default(4);
  pipeline.Add(std::move(pass));
  return pipeline.Run(&p).status();
}

TEST(CarriedFactsTest, PermutationThatChangesAConstantFails) {
  const Status st =
      RunAfterDefaults(std::make_unique<ConstantChangingPermutation>());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(
                "optimizer pass 'constant_changing_permutation' reported "
                "permutation"),
            std::string::npos)
      << st.ToString();
}

TEST(CarriedFactsTest, AdminInsertWithAResultFails) {
  // Reuses an existing register as the result, so only the inserted
  // instruction's shape contradicts the report.
  mal::Instruction ins;
  ins.module = "language";
  ins.function = "dataflow";
  ins.results = {0};
  const Status st = RunAfterDefaults(
      std::make_unique<ClaimedInsert>("insert_with_result", std::move(ins)));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("optimizer pass 'insert_with_result' reported "
                              "insert"),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("has results"), std::string::npos)
      << st.ToString();
}

TEST(CarriedFactsTest, AdminInsertOfAnUnknownOperationFails) {
  mal::Instruction ins;
  ins.module = "language";
  ins.function = "nosuch";
  const Status st = RunAfterDefaults(
      std::make_unique<ClaimedInsert>("insert_unknown", std::move(ins)));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("optimizer pass 'insert_unknown'"),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("kernel-signature"), std::string::npos)
      << st.ToString();
}

// --- golden optimized plans ---

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Every suite query through Pipeline::Default at three mitosis widths must
// print exactly as recorded in tests/golden/optimized_plans.txt: a rewrite
// of a pass (or of the pipeline's verification around it) may change how
// fast a plan is optimized, never which plan comes out. The same sweep
// checks the contract the pipeline's lint skip relies on: a pass whose Run
// returns false leaves the plan text untouched.
TEST(OptimizedPlanGoldenTest, DefaultPipelineOutputIsPinned) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  std::string actual =
      "# FNV-1a 64 of Program::ToString() after Pipeline::Default(m), "
      "sf 0.002: query m hash\n";
  for (const tpch::TpchQuery& query : tpch::TpchQueries()) {
    for (int m : {0, 16, 128}) {
      SCOPED_TRACE(query.id + " m=" + std::to_string(m));
      auto base = sql::Compiler::CompileSql(&cat.value(), query.sql);
      ASSERT_TRUE(base.ok()) << base.status().ToString();

      Program optimized = base.value();
      auto fired = Pipeline::Default(m).Run(&optimized);
      ASSERT_TRUE(fired.ok()) << fired.status().ToString();
      actual += StrFormat("%s %d %016llx\n", query.id.c_str(), m,
                          static_cast<unsigned long long>(
                              Fnv1a64(optimized.ToString())));

      Program stepped = base.value();
      Pipeline passes = Pipeline::Default(m);
      for (const std::unique_ptr<Pass>& pass : passes.passes()) {
        const std::string before = stepped.ToString();
        auto changed = pass->Run(&stepped);
        ASSERT_TRUE(changed.ok()) << pass->name();
        if (!changed.value()) {
          EXPECT_EQ(stepped.ToString(), before)
              << pass->name() << " reported no change but rewrote the plan";
        }
      }
      EXPECT_EQ(stepped.ToString(), optimized.ToString());
    }
  }
  const std::string golden_path =
      std::string(STETHO_TESTS_DIR) + "/golden/optimized_plans.txt";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << "; actual output:\n"
                         << actual;
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(actual, golden) << "optimized plans diverged from " << golden_path
                            << "; actual output:\n"
                            << actual;
}

}  // namespace
}  // namespace stetho::optimizer
