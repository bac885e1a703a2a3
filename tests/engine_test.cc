#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "engine/interpreter.h"
#include "engine/kernel.h"
#include "engine/prepared_plan.h"
#include "mal/program.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "profiler/profiler.h"
#include "profiler/sink.h"
#include "storage/table.h"

namespace stetho::engine {
namespace {

using mal::Argument;
using mal::MalType;
using mal::Program;
using storage::Catalog;
using storage::ColumnPtr;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::Value;

/// Six-row lineitem-like fixture.
Catalog MakeCatalog() {
  Catalog cat;
  TablePtr t = Table::Make(
      "lineitem", Schema({{"l_partkey", DataType::kInt64},
                          {"l_tax", DataType::kDouble},
                          {"l_returnflag", DataType::kString},
                          {"l_quantity", DataType::kInt64}}));
  struct Row {
    int64_t partkey;
    double tax;
    const char* flag;
    int64_t qty;
  };
  const Row rows[] = {
      {1, 0.02, "N", 10}, {2, 0.04, "R", 20}, {1, 0.06, "A", 30},
      {3, 0.01, "N", 40}, {2, 0.03, "R", 50}, {1, 0.05, "N", 60},
  };
  for (const Row& r : rows) {
    EXPECT_TRUE(t->AppendRow({Value::Int(r.partkey), Value::Double(r.tax),
                              Value::String(r.flag), Value::Int(r.qty)})
                    .ok());
  }
  EXPECT_TRUE(cat.AddTable(t).ok());
  return cat;
}

/// Builder helpers shortening program construction.
struct Plan {
  Program p{"user.main"};

  int Bind(const char* column, DataType type, int mvc) {
    int v = p.AddVariable(MalType::Bat(type));
    p.Add("sql", "bind", {v},
          {Argument::Var(mvc), Argument::Const(Value::String("sys")),
           Argument::Const(Value::String("lineitem")),
           Argument::Const(Value::String(column)), Argument::Const(Value::Int(0))});
    return v;
  }
  int Mvc() {
    int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
    p.Add("sql", "mvc", {v}, {});
    return v;
  }
  int Tid(int mvc) {
    int v = p.AddVariable(MalType::Bat(DataType::kOid));
    p.Add("sql", "tid", {v},
          {Argument::Var(mvc), Argument::Const(Value::String("sys")),
           Argument::Const(Value::String("lineitem"))});
    return v;
  }
  void Print(int var) { p.Add("io", "print", {}, {Argument::Var(var)}); }
};

Result<QueryResult> RunPlan(const Program& p, Catalog* cat,
                        ExecOptions opts = {}) {
  Interpreter interp(cat);
  return interp.Execute(p, opts);
}

/// The paper's Fig. 1 query: select l_tax from lineitem where l_partkey=1.
Program PaperQuery() {
  Plan b;
  int mvc = b.Mvc();
  int tid = b.Tid(mvc);
  int partkey = b.Bind("l_partkey", DataType::kInt64, mvc);
  int cand = b.p.AddVariable(MalType::Bat(DataType::kOid));
  b.p.Add("algebra", "thetaselect", {cand},
          {Argument::Var(partkey), Argument::Var(tid),
           Argument::Const(Value::Int(1)), Argument::Const(Value::String("=="))});
  int tax = b.Bind("l_tax", DataType::kDouble, mvc);
  int proj = b.p.AddVariable(MalType::Bat(DataType::kDouble));
  b.p.Add("algebra", "projection", {proj},
          {Argument::Var(cand), Argument::Var(tax)});
  b.Print(proj);
  return std::move(b.p);
}

TEST(InterpreterTest, PaperQuerySequential) {
  Catalog cat = MakeCatalog();
  ExecOptions opts;
  opts.use_dataflow = false;
  auto r = RunPlan(PaperQuery(), &cat, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().columns.size(), 1u);
  ColumnPtr col = r.value().columns[0].column;
  ASSERT_EQ(col->size(), 3u);  // partkey==1 rows: 0, 2, 5
  EXPECT_DOUBLE_EQ(col->DoubleAt(0), 0.02);
  EXPECT_DOUBLE_EQ(col->DoubleAt(1), 0.06);
  EXPECT_DOUBLE_EQ(col->DoubleAt(2), 0.05);
}

TEST(InterpreterTest, PaperQueryDataflowMatchesSequential) {
  Catalog cat = MakeCatalog();
  ExecOptions seq;
  seq.use_dataflow = false;
  ExecOptions par;
  par.use_dataflow = true;
  par.num_threads = 4;
  auto a = RunPlan(PaperQuery(), &cat, seq);
  auto b = RunPlan(PaperQuery(), &cat, par);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().columns.size(), b.value().columns.size());
  ColumnPtr ca = a.value().columns[0].column;
  ColumnPtr cb = b.value().columns[0].column;
  ASSERT_EQ(ca->size(), cb->size());
  for (size_t i = 0; i < ca->size(); ++i) {
    EXPECT_EQ(ca->GetValue(i), cb->GetValue(i));
  }
}

TEST(InterpreterTest, RangeSelect) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int tid = b.Tid(mvc);
  int qty = b.Bind("l_quantity", DataType::kInt64, mvc);
  int cand = b.p.AddVariable(MalType::Bat(DataType::kOid));
  b.p.Add("algebra", "select", {cand},
          {Argument::Var(qty), Argument::Var(tid), Argument::Const(Value::Int(20)),
           Argument::Const(Value::Int(40))});
  b.Print(cand);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ColumnPtr col = r.value().columns[0].column;
  ASSERT_EQ(col->size(), 3u);  // qty 20, 30, 40
  EXPECT_EQ(col->OidAt(0), 1u);
  EXPECT_EQ(col->OidAt(1), 2u);
  EXPECT_EQ(col->OidAt(2), 3u);
}

TEST(InterpreterTest, SelectWithNullBoundsIsUnbounded) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int tid = b.Tid(mvc);
  int qty = b.Bind("l_quantity", DataType::kInt64, mvc);
  int cand = b.p.AddVariable(MalType::Bat(DataType::kOid));
  b.p.Add("algebra", "select", {cand},
          {Argument::Var(qty), Argument::Var(tid), Argument::Const(Value::Null()),
           Argument::Const(Value::Int(20))});
  b.Print(cand);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().columns[0].column->size(), 2u);  // 10, 20
}

TEST(InterpreterTest, LikeSelect) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int tid = b.Tid(mvc);
  int flag = b.Bind("l_returnflag", DataType::kString, mvc);
  int cand = b.p.AddVariable(MalType::Bat(DataType::kOid));
  b.p.Add("algebra", "likeselect", {cand},
          {Argument::Var(flag), Argument::Var(tid),
           Argument::Const(Value::String("R"))});
  b.Print(cand);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().columns[0].column->size(), 2u);
}

TEST(InterpreterTest, JoinProducesMatchingPairs) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int pk = b.Bind("l_partkey", DataType::kInt64, mvc);
  int pk2 = b.Bind("l_partkey", DataType::kInt64, mvc);
  int lo = b.p.AddVariable(MalType::Bat(DataType::kOid));
  int ro = b.p.AddVariable(MalType::Bat(DataType::kOid));
  b.p.Add("algebra", "join", {lo, ro}, {Argument::Var(pk), Argument::Var(pk2)});
  b.Print(lo);
  b.Print(ro);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // partkey values {1,2,1,3,2,1}: self-join matches 3*3 + 2*2 + 1 = 14 pairs.
  EXPECT_EQ(r.value().columns[0].column->size(), 14u);
  EXPECT_EQ(r.value().columns[1].column->size(), 14u);
}

TEST(InterpreterTest, IntegerJoinKeysStayExactAboveTwoTo53) {
  // 2^53 + 1 rounds to the double 2^53, so keyed as doubles the two
  // collide. Integer-typed sides key on the integer itself; a :dbl side
  // still joins integral values.
  constexpr int64_t k = int64_t{1} << 53;
  Catalog cat;
  TablePtr t = Table::Make("lineitem", Schema({{"a", DataType::kInt64},
                                               {"b", DataType::kInt64},
                                               {"x", DataType::kDouble}}));
  ASSERT_TRUE(
      t->AppendRow({Value::Int(k), Value::Int(k + 1), Value::Double(5.0)}).ok());
  ASSERT_TRUE(
      t->AppendRow({Value::Int(k + 1), Value::Int(5), Value::Double(3.5)}).ok());
  ASSERT_TRUE(cat.AddTable(t).ok());

  Plan b;
  int mvc = b.Mvc();
  int a = b.Bind("a", DataType::kInt64, mvc);
  int bcol = b.Bind("b", DataType::kInt64, mvc);
  int x = b.Bind("x", DataType::kDouble, mvc);
  int lo = b.p.AddVariable(MalType::Bat(DataType::kOid));
  int ro = b.p.AddVariable(MalType::Bat(DataType::kOid));
  b.p.Add("algebra", "join", {lo, ro}, {Argument::Var(a), Argument::Var(bcol)});
  int mixed_lo = b.p.AddVariable(MalType::Bat(DataType::kOid));
  int mixed_ro = b.p.AddVariable(MalType::Bat(DataType::kOid));
  b.p.Add("algebra", "join", {mixed_lo, mixed_ro},
          {Argument::Var(bcol), Argument::Var(x)});
  b.Print(lo);
  b.Print(ro);
  b.Print(mixed_lo);
  b.Print(mixed_ro);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& cols = r.value().columns;
  // a = {2^53, 2^53 + 1} against b = {2^53 + 1, 5}: only a[1] = b[0].
  ASSERT_EQ(cols[0].column->size(), 1u);
  EXPECT_EQ(cols[0].column->OidAt(0), 1u);
  EXPECT_EQ(cols[1].column->OidAt(0), 0u);
  // b = {2^53 + 1, 5} against x = {5.0, 3.5}: b[1] = x[0].
  ASSERT_EQ(cols[2].column->size(), 1u);
  EXPECT_EQ(cols[2].column->OidAt(0), 1u);
  EXPECT_EQ(cols[3].column->OidAt(0), 0u);
}

TEST(InterpreterTest, SortAndFirstn) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int tax = b.Bind("l_tax", DataType::kDouble, mvc);
  int sorted = b.p.AddVariable(MalType::Bat(DataType::kDouble));
  int order = b.p.AddVariable(MalType::Bat(DataType::kOid));
  b.p.Add("algebra", "sort", {sorted, order},
          {Argument::Var(tax), Argument::Const(Value::Bool(false))});
  int tax2 = b.Bind("l_tax", DataType::kDouble, mvc);
  int top = b.p.AddVariable(MalType::Bat(DataType::kOid));
  b.p.Add("algebra", "firstn", {top},
          {Argument::Var(tax2), Argument::Const(Value::Int(2)),
           Argument::Const(Value::Bool(false))});
  b.Print(sorted);
  b.Print(top);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ColumnPtr s = r.value().columns[0].column;
  for (size_t i = 1; i < s->size(); ++i) {
    EXPECT_LE(s->DoubleAt(i - 1), s->DoubleAt(i));
  }
  ColumnPtr t = r.value().columns[1].column;
  ASSERT_EQ(t->size(), 2u);
  EXPECT_EQ(t->OidAt(0), 2u);  // tax 0.06 at row 2
  EXPECT_EQ(t->OidAt(1), 5u);  // tax 0.05 at row 5
}

TEST(InterpreterTest, GroupAndGroupedAggregates) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int flag = b.Bind("l_returnflag", DataType::kString, mvc);
  int groups = b.p.AddVariable(MalType::Bat(DataType::kOid));
  int extents = b.p.AddVariable(MalType::Bat(DataType::kOid));
  int histo = b.p.AddVariable(MalType::Bat(DataType::kInt64));
  b.p.Add("group", "group", {groups, extents, histo}, {Argument::Var(flag)});
  int qty = b.Bind("l_quantity", DataType::kInt64, mvc);
  int sums = b.p.AddVariable(MalType::Bat(DataType::kInt64));
  b.p.Add("aggr", "subsum", {sums},
          {Argument::Var(qty), Argument::Var(groups), Argument::Var(extents)});
  int keys = b.Bind("l_returnflag", DataType::kString, mvc);
  int names = b.p.AddVariable(MalType::Bat(DataType::kString));
  b.p.Add("algebra", "projection", {names},
          {Argument::Var(extents), Argument::Var(keys)});
  b.Print(names);
  b.Print(sums);
  b.Print(histo);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ColumnPtr names_c = r.value().columns[0].column;
  ColumnPtr sums_c = r.value().columns[1].column;
  ColumnPtr histo_c = r.value().columns[2].column;
  ASSERT_EQ(names_c->size(), 3u);  // N, R, A in first-seen order
  EXPECT_EQ(names_c->StringAt(0), "N");
  EXPECT_EQ(sums_c->IntAt(0), 10 + 40 + 60);
  EXPECT_EQ(names_c->StringAt(1), "R");
  EXPECT_EQ(sums_c->IntAt(1), 20 + 50);
  EXPECT_EQ(names_c->StringAt(2), "A");
  EXPECT_EQ(sums_c->IntAt(2), 30);
  EXPECT_EQ(histo_c->IntAt(0), 3);
}

TEST(InterpreterTest, SubgroupRefines) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int flag = b.Bind("l_returnflag", DataType::kString, mvc);
  int g1 = b.p.AddVariable(MalType::Bat(DataType::kOid));
  int e1 = b.p.AddVariable(MalType::Bat(DataType::kOid));
  int h1 = b.p.AddVariable(MalType::Bat(DataType::kInt64));
  b.p.Add("group", "group", {g1, e1, h1}, {Argument::Var(flag)});
  int pk = b.Bind("l_partkey", DataType::kInt64, mvc);
  int g2 = b.p.AddVariable(MalType::Bat(DataType::kOid));
  int e2 = b.p.AddVariable(MalType::Bat(DataType::kOid));
  int h2 = b.p.AddVariable(MalType::Bat(DataType::kInt64));
  b.p.Add("group", "subgroup", {g2, e2, h2},
          {Argument::Var(pk), Argument::Var(g1)});
  b.Print(e2);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // (flag, partkey) pairs: (N,1)x2? rows: (N,1),(R,2),(A,1),(N,3),(R,2),(N,1)
  // distinct: (N,1),(R,2),(A,1),(N,3) -> 4 groups.
  EXPECT_EQ(r.value().columns[0].column->size(), 4u);
}

TEST(InterpreterTest, ScalarAggregates) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int qty = b.Bind("l_quantity", DataType::kInt64, mvc);
  const char* aggs[] = {"sum", "min", "max", "avg", "count"};
  std::vector<int> outs;
  for (const char* name : aggs) {
    int v = b.p.AddVariable(MalType::Scalar(DataType::kDouble));
    b.p.Add("aggr", name, {v}, {Argument::Var(qty)});
    outs.push_back(v);
  }
  for (int v : outs) b.Print(v);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().columns.size(), 5u);
  EXPECT_EQ(r.value().columns[0].scalar.AsInt(), 210);
  EXPECT_EQ(r.value().columns[1].scalar.AsInt(), 10);
  EXPECT_EQ(r.value().columns[2].scalar.AsInt(), 60);
  EXPECT_DOUBLE_EQ(r.value().columns[3].scalar.AsDouble(), 35.0);
  EXPECT_EQ(r.value().columns[4].scalar.AsInt(), 6);
}

TEST(InterpreterTest, BatcalcBroadcastAndMask) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int qty = b.Bind("l_quantity", DataType::kInt64, mvc);
  // mask = qty > 25
  int mask = b.p.AddVariable(MalType::Bat(DataType::kBool));
  b.p.Add("batcalc", "gt", {mask},
          {Argument::Var(qty), Argument::Const(Value::Int(25))});
  int tid = b.Tid(mvc);
  int cand = b.p.AddVariable(MalType::Bat(DataType::kOid));
  b.p.Add("algebra", "selectmask", {cand},
          {Argument::Var(tid), Argument::Var(mask)});
  // doubled = qty * 2 projected over cand
  int qty2 = b.Bind("l_quantity", DataType::kInt64, mvc);
  int doubled = b.p.AddVariable(MalType::Bat(DataType::kInt64));
  b.p.Add("batcalc", "mul", {doubled},
          {Argument::Var(qty2), Argument::Const(Value::Int(2))});
  int proj = b.p.AddVariable(MalType::Bat(DataType::kInt64));
  b.p.Add("algebra", "projection", {proj},
          {Argument::Var(cand), Argument::Var(doubled)});
  b.Print(proj);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ColumnPtr col = r.value().columns[0].column;
  ASSERT_EQ(col->size(), 4u);  // qty 30, 40, 50, 60
  EXPECT_EQ(col->IntAt(0), 60);
  EXPECT_EQ(col->IntAt(3), 120);
}

TEST(InterpreterTest, DivisionByZeroFails) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int qty = b.Bind("l_quantity", DataType::kInt64, mvc);
  int div = b.p.AddVariable(MalType::Bat(DataType::kDouble));
  b.p.Add("batcalc", "div", {div},
          {Argument::Var(qty), Argument::Const(Value::Int(0))});
  b.Print(div);
  auto r = RunPlan(b.p, &cat);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("division by zero"), std::string::npos);
}

TEST(InterpreterTest, PartitionPackRoundTrip) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int qty = b.Bind("l_quantity", DataType::kInt64, mvc);
  std::vector<Argument> pieces;
  for (int i = 0; i < 3; ++i) {
    int piece = b.p.AddVariable(MalType::Bat(DataType::kInt64));
    b.p.Add("bat", "partition", {piece},
            {Argument::Var(qty), Argument::Const(Value::Int(3)),
             Argument::Const(Value::Int(i))});
    pieces.push_back(Argument::Var(piece));
  }
  int packed = b.p.AddVariable(MalType::Bat(DataType::kInt64));
  b.p.Add("mat", "pack", {packed}, pieces);
  b.Print(packed);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ColumnPtr col = r.value().columns[0].column;
  ASSERT_EQ(col->size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(col->IntAt(i), static_cast<int64_t>((i + 1) * 10));
  }
}

// --- PreparedPlan ---

std::vector<int> Ints(std::span<const int> row) {
  return std::vector<int>(row.begin(), row.end());
}

TEST(PreparedPlanTest, ResolvesEachInstructionOnce) {
  Program p = PaperQuery();
  p.Add("bogus", "nothing", {}, {});
  const PreparedPlan plan(p);
  ASSERT_EQ(plan.size(), p.size());
  EXPECT_TRUE(plan.validation().ok());
  EXPECT_EQ(&plan.program(), &p);

  const ModuleRegistry* registry = ModuleRegistry::Default();
  EXPECT_EQ(plan.deps(), p.BuildDependencies());
  std::vector<size_t> readers(p.num_variables(), 0);
  for (size_t pc = 0; pc < p.size(); ++pc) {
    const int ipc = static_cast<int>(pc);
    const mal::Instruction& ins = p.instruction(ipc);
    SCOPED_TRACE(ins.FullName());
    EXPECT_EQ(plan.text(ipc), p.InstructionToString(ins));
    EXPECT_EQ(plan.kernel(ipc), registry->Resolve(ins.module, ins.function));
    const std::vector<int> args = Ints(plan.args(ipc));
    ASSERT_EQ(args.size(), ins.args.size());
    for (size_t i = 0; i < args.size(); ++i) {
      if (ins.args[i].kind == Argument::Kind::kVar) {
        EXPECT_EQ(args[i], ins.args[i].var);
        ++readers[static_cast<size_t>(ins.args[i].var)];
      } else {
        ASSERT_LT(args[i], 0);
        EXPECT_FALSE(plan.constant(args[i]).is_bat());
        EXPECT_EQ(plan.constant(args[i]).scalar, ins.args[i].constant);
      }
    }
  }
  EXPECT_EQ(registry->Resolve("bogus", "nothing"), nullptr);
  EXPECT_EQ(plan.kernel(static_cast<int>(p.size()) - 1), nullptr);
  for (size_t var = 0; var < p.num_variables(); ++var) {
    EXPECT_EQ(plan.deps().readers(static_cast<int>(var)).size(), readers[var]);
  }
}

TEST(PreparedPlanTest, ExecuteRefusesAnInvalidPlan) {
  Catalog cat = MakeCatalog();
  Program p;
  int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("io", "print", {}, {Argument::Var(v)});  // used, never defined
  const PreparedPlan plan(p);
  EXPECT_FALSE(plan.validation().ok());
  auto r = Interpreter(&cat).Execute(plan, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), plan.validation().ToString());
}

// One prepared plan, read by several queries' threads at once (the server's
// query thread, its workers and a monitor share one this way).
TEST(PreparedPlanTest, OneSharedPlanServesConcurrentQueries) {
  Catalog cat = MakeCatalog();
  std::shared_ptr<const PreparedPlan> plan = PreparedPlan::Prepare(PaperQuery());
  EXPECT_EQ(plan->program().ToString(), PaperQuery().ToString());
  auto reference = RunPlan(PaperQuery(), &cat);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference.value().columns.size(), 1u);
  const size_t rows = reference.value().columns[0].column->size();

  std::vector<std::thread> queries;
  std::vector<int> mismatches(3, 0);
  for (size_t t = 0; t < mismatches.size(); ++t) {
    queries.emplace_back([&, t] {
      Interpreter interp(&cat);
      ExecOptions opts;
      opts.num_threads = 2;
      for (int run = 0; run < 10; ++run) {
        auto r = interp.Execute(*plan, opts);
        if (!r.ok() || r.value().columns.size() != 1 ||
            r.value().columns[0].column->size() != rows) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& query : queries) query.join();
  EXPECT_EQ(mismatches, std::vector<int>(mismatches.size(), 0));
}

TEST(InterpreterTest, UnknownKernelFails) {
  Catalog cat = MakeCatalog();
  Program p;
  p.Add("bogus", "nothing", {}, {});
  auto r = RunPlan(p, &cat);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(InterpreterTest, KernelErrorsCarryPcContext) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  b.p.Add("sql", "bind", {b.p.AddVariable(MalType::Bat(DataType::kInt64))},
          {Argument::Var(mvc), Argument::Const(Value::String("sys")),
           Argument::Const(Value::String("lineitem")),
           Argument::Const(Value::String("no_such_column")),
           Argument::Const(Value::Int(0))});
  auto r = RunPlan(b.p, &cat);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("pc=1"), std::string::npos);
}

TEST(InterpreterTest, StatsRecordedPerInstruction) {
  Catalog cat = MakeCatalog();
  VirtualClock clock;
  ExecOptions opts;
  opts.use_dataflow = false;
  opts.clock = &clock;
  opts.pad_instruction_usec = 10;
  Program p = PaperQuery();
  auto r = RunPlan(p, &cat, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().stats.size(), p.size());
  for (const InstructionStat& s : r.value().stats) {
    EXPECT_EQ(s.usec, 10);  // virtual clock: exactly the padding
    EXPECT_EQ(s.thread, 0);
  }
  EXPECT_EQ(r.value().total_usec, static_cast<int64_t>(p.size()) * 10);
}

TEST(InterpreterTest, ProfilerReceivesStartDonePairs) {
  Catalog cat = MakeCatalog();
  VirtualClock clock;
  profiler::Profiler prof(&clock);
  auto ring = std::make_shared<profiler::RingBufferSink>(1000);
  prof.AddSink(ring);
  ExecOptions opts;
  opts.use_dataflow = false;
  opts.clock = &clock;
  opts.profiler = &prof;
  Program p = PaperQuery();
  auto r = RunPlan(p, &cat, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto events = ring->Snapshot();
  ASSERT_EQ(events.size(), 2 * p.size());
  // Sequential execution: strict start/done pairing per pc.
  for (size_t i = 0; i < events.size(); i += 2) {
    EXPECT_EQ(events[i].state, profiler::EventState::kStart);
    EXPECT_EQ(events[i + 1].state, profiler::EventState::kDone);
    EXPECT_EQ(events[i].pc, events[i + 1].pc);
    EXPECT_EQ(events[i].stmt, events[i + 1].stmt);
  }
}

TEST(InterpreterTest, DataflowUsesMultipleThreads) {
  // A plan with 8 independent debug.spin instructions must spread across
  // workers (probabilistically certain with enough work per instruction).
  Catalog cat = MakeCatalog();
  Program p;
  std::vector<int> outs;
  for (int i = 0; i < 8; ++i) {
    int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
    p.Add("debug", "spin", {v}, {Argument::Const(Value::Int(2000000))});
    outs.push_back(v);
  }
  for (int v : outs) p.Add("io", "print", {}, {Argument::Var(v)});
  ExecOptions opts;
  opts.num_threads = 4;
  auto r = RunPlan(p, &cat, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<int> threads;
  for (size_t pc = 0; pc < 8; ++pc) threads.insert(r.value().stats[pc].thread);
  EXPECT_GT(threads.size(), 1u);
}

TEST(InterpreterTest, SequentialModeUsesOneThread) {
  Catalog cat = MakeCatalog();
  Program p = PaperQuery();
  ExecOptions opts;
  opts.use_dataflow = false;
  opts.num_threads = 4;
  auto r = RunPlan(p, &cat, opts);
  ASSERT_TRUE(r.ok());
  for (const InstructionStat& s : r.value().stats) EXPECT_EQ(s.thread, 0);
}

TEST(InterpreterTest, MemoryAccountingTracksPeak) {
  Catalog cat = MakeCatalog();
  Program p = PaperQuery();
  auto r = RunPlan(p, &cat);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().peak_rss_bytes, 0);
}

TEST(InterpreterTest, ExportsLiveAndPeakBytesMetrics) {
  obs::Gauge* live = obs::Registry::Default()->GetOrCreateGauge(
      "stetho_engine_live_bytes",
      "Live column bytes currently held by executing queries "
      "(Column::MemoryBytes accounting)");
  obs::Gauge* peak = obs::Registry::Default()->GetOrCreateGauge(
      "stetho_engine_peak_rss_bytes",
      "Live-byte peak recorded by the last completed query execution");
  // Metrics are process-global: delta-assert around the run instead of
  // expecting absolute values.
  int64_t live_before = live->value();
  Catalog cat = MakeCatalog();
  Program p = PaperQuery();
  auto r = RunPlan(p, &cat);
  ASSERT_TRUE(r.ok());
  // Every byte the query charged was drained again on completion.
  EXPECT_EQ(live->value(), live_before);
  // The peak gauge mirrors the last query's accountant peak.
  EXPECT_EQ(peak->value(), r.value().peak_rss_bytes);
  EXPECT_GT(peak->value(), 0);
}

TEST(InterpreterTest, DebugSleepVirtualClock) {
  Catalog cat = MakeCatalog();
  VirtualClock clock;
  Program p;
  p.Add("debug", "sleep", {}, {Argument::Const(Value::Int(5000))});
  ExecOptions opts;
  opts.clock = &clock;
  opts.use_dataflow = false;
  auto r = RunPlan(p, &cat, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats[0].usec, 5000);
}

TEST(InterpreterTest, BooleanKernels) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int qty = b.Bind("l_quantity", DataType::kInt64, mvc);
  int m1 = b.p.AddVariable(MalType::Bat(DataType::kBool));
  b.p.Add("batcalc", "gt", {m1},
          {Argument::Var(qty), Argument::Const(Value::Int(15))});
  int m2 = b.p.AddVariable(MalType::Bat(DataType::kBool));
  b.p.Add("batcalc", "lt", {m2},
          {Argument::Var(qty), Argument::Const(Value::Int(45))});
  int both = b.p.AddVariable(MalType::Bat(DataType::kBool));
  b.p.Add("batcalc", "and", {both}, {Argument::Var(m1), Argument::Var(m2)});
  int either = b.p.AddVariable(MalType::Bat(DataType::kBool));
  b.p.Add("batcalc", "or", {either}, {Argument::Var(m1), Argument::Var(m2)});
  int neither = b.p.AddVariable(MalType::Bat(DataType::kBool));
  b.p.Add("batcalc", "not", {neither}, {Argument::Var(either)});
  b.Print(both);
  b.Print(either);
  b.Print(neither);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // qty = {10,20,30,40,50,60}; >15 & <45 -> rows 1,2,3.
  ColumnPtr both_c = r.value().columns[0].column;
  int count_both = 0;
  for (size_t i = 0; i < both_c->size(); ++i) {
    if (both_c->BoolAt(i)) ++count_both;
  }
  EXPECT_EQ(count_both, 3);
  // >15 | <45 covers everything.
  ColumnPtr either_c = r.value().columns[1].column;
  for (size_t i = 0; i < either_c->size(); ++i) {
    EXPECT_TRUE(either_c->BoolAt(i));
    EXPECT_FALSE(r.value().columns[2].column->BoolAt(i));
  }
}

TEST(InterpreterTest, BooleanNullSemantics) {
  // SQL three-valued logic: NULL AND false = false, NULL OR true = true,
  // NULL AND true = NULL.
  Catalog cat;
  TablePtr t = Table::Make("flags", Schema({{"b", DataType::kBool}}));
  ASSERT_TRUE(t->AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Bool(true)}).ok());
  ASSERT_TRUE(cat.AddTable(t).ok());
  Program p;
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  int col = p.AddVariable(MalType::Bat(DataType::kBool));
  p.Add("sql", "bind", {col},
        {Argument::Var(mvc), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("flags")),
         Argument::Const(Value::String("b")), Argument::Const(Value::Int(0))});
  int and_false = p.AddVariable(MalType::Bat(DataType::kBool));
  p.Add("batcalc", "and", {and_false},
        {Argument::Var(col), Argument::Const(Value::Bool(false))});
  int or_true = p.AddVariable(MalType::Bat(DataType::kBool));
  p.Add("batcalc", "or", {or_true},
        {Argument::Var(col), Argument::Const(Value::Bool(true))});
  int and_true = p.AddVariable(MalType::Bat(DataType::kBool));
  p.Add("batcalc", "and", {and_true},
        {Argument::Var(col), Argument::Const(Value::Bool(true))});
  p.Add("io", "print", {}, {Argument::Var(and_false)});
  p.Add("io", "print", {}, {Argument::Var(or_true)});
  p.Add("io", "print", {}, {Argument::Var(and_true)});
  auto r = RunPlan(p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().columns[0].column->IsNull(0));
  EXPECT_FALSE(r.value().columns[0].column->BoolAt(0));  // NULL AND false
  EXPECT_FALSE(r.value().columns[1].column->IsNull(0));
  EXPECT_TRUE(r.value().columns[1].column->BoolAt(0));   // NULL OR true
  EXPECT_TRUE(r.value().columns[2].column->IsNull(0));   // NULL AND true
}

TEST(InterpreterTest, IfThenElse) {
  Catalog cat = MakeCatalog();
  Plan b;
  int mvc = b.Mvc();
  int qty = b.Bind("l_quantity", DataType::kInt64, mvc);
  int mask = b.p.AddVariable(MalType::Bat(DataType::kBool));
  b.p.Add("batcalc", "ge", {mask},
          {Argument::Var(qty), Argument::Const(Value::Int(40))});
  int picked = b.p.AddVariable(MalType::Bat(DataType::kDouble));
  b.p.Add("batcalc", "ifthenelse", {picked},
          {Argument::Var(mask), Argument::Var(qty),
           Argument::Const(Value::Double(0.0))});
  b.Print(picked);
  auto r = RunPlan(b.p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ColumnPtr col = r.value().columns[0].column;
  ASSERT_EQ(col->size(), 6u);
  EXPECT_DOUBLE_EQ(col->DoubleAt(0), 0.0);   // qty 10
  EXPECT_DOUBLE_EQ(col->DoubleAt(3), 40.0);  // qty 40
  EXPECT_DOUBLE_EQ(col->DoubleAt(5), 60.0);  // qty 60
}

TEST(InterpreterTest, CalcCasts) {
  Catalog cat = MakeCatalog();
  Program p;
  int as_dbl = p.AddVariable(MalType::Scalar(DataType::kDouble));
  p.Add("calc", "dbl", {as_dbl}, {Argument::Const(Value::Int(7))});
  int as_lng = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "lng", {as_lng}, {Argument::Const(Value::Double(3.9))});
  int as_str = p.AddVariable(MalType::Scalar(DataType::kString));
  p.Add("calc", "str", {as_str}, {Argument::Const(Value::Int(42))});
  p.Add("io", "print", {}, {Argument::Var(as_dbl)});
  p.Add("io", "print", {}, {Argument::Var(as_lng)});
  p.Add("io", "print", {}, {Argument::Var(as_str)});
  auto r = RunPlan(p, &cat);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r.value().columns[0].scalar.AsDouble(), 7.0);
  EXPECT_EQ(r.value().columns[1].scalar.AsInt(), 3);  // truncation
  EXPECT_EQ(r.value().columns[2].scalar.AsString(), "42");
}

TEST(InterpreterTest, LikeSelectPatterns) {
  Catalog cat;
  TablePtr t = Table::Make("words", Schema({{"w", DataType::kString}}));
  for (const char* w : {"PROMO ANODIZED TIN", "STANDARD PLATED BRASS",
                        "PROMO BRUSHED STEEL", "ECONOMY ANODIZED TIN", ""}) {
    ASSERT_TRUE(t->AppendRow({Value::String(w)}).ok());
  }
  ASSERT_TRUE(cat.AddTable(t).ok());
  struct Case {
    const char* pattern;
    size_t expected;
  };
  const Case cases[] = {
      {"PROMO%", 2},  {"%TIN", 2},    {"%ANODIZED%", 2}, {"%", 5},
      {"_ROMO%", 2},  {"PROMO", 0},   {"", 1},           {"%Z%", 2},
      {"%QQ%", 0},    {"_", 0},
  };
  for (const Case& c : cases) {
    Program p;
    int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
    p.Add("sql", "mvc", {mvc}, {});
    int tid = p.AddVariable(MalType::Bat(DataType::kOid));
    p.Add("sql", "tid", {tid},
          {Argument::Var(mvc), Argument::Const(Value::String("sys")),
           Argument::Const(Value::String("words"))});
    int col = p.AddVariable(MalType::Bat(DataType::kString));
    p.Add("sql", "bind", {col},
          {Argument::Var(mvc), Argument::Const(Value::String("sys")),
           Argument::Const(Value::String("words")),
           Argument::Const(Value::String("w")), Argument::Const(Value::Int(0))});
    int cand = p.AddVariable(MalType::Bat(DataType::kOid));
    p.Add("algebra", "likeselect", {cand},
          {Argument::Var(col), Argument::Var(tid),
           Argument::Const(Value::String(c.pattern))});
    p.Add("io", "print", {}, {Argument::Var(cand)});
    auto r = RunPlan(p, &cat);
    ASSERT_TRUE(r.ok()) << c.pattern;
    EXPECT_EQ(r.value().columns[0].column->size(), c.expected) << c.pattern;
  }
}

TEST(ModuleRegistryTest, DefaultHasAllFamilies) {
  const ModuleRegistry* reg = ModuleRegistry::Default();
  for (const char* name :
       {"sql.bind", "sql.tid", "algebra.select", "algebra.join",
        "algebra.projection", "group.group", "aggr.subsum", "mat.pack",
        "bat.partition", "batcalc.add", "calc.add", "io.print",
        "language.dataflow", "debug.sleep"}) {
    auto dot = std::string(name).find('.');
    EXPECT_NE(reg->Resolve(std::string(name).substr(0, dot),
                           std::string(name).substr(dot + 1)),
              nullptr)
        << name;
  }
}

TEST(ModuleRegistryTest, DuplicateRegistrationRejected) {
  ModuleRegistry reg;
  ASSERT_TRUE(reg.Register("m", "f", [](KernelArgs&) { return Status::OK(); }).ok());
  EXPECT_FALSE(reg.Register("m", "f", [](KernelArgs&) { return Status::OK(); }).ok());
}

// A module's family metrics come with its first kernel's record, and its
// other kernels share them.
TEST(ModuleRegistryTest, KernelsOfOneModuleShareFamilyMetrics) {
  ModuleRegistry reg;
  const auto ok = [](KernelArgs&) { return Status::OK(); };
  ASSERT_TRUE(reg.Register("famtest", "a", ok).ok());
  ASSERT_TRUE(reg.Register("famtest", "b", ok).ok());
  ASSERT_TRUE(reg.Register("famother", "a", ok).ok());
  const Kernel* a = reg.Resolve("famtest", "a");
  const Kernel* b = reg.Resolve("famtest", "b");
  const Kernel* other = reg.Resolve("famother", "a");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(a->name, "famtest.a");
  EXPECT_EQ(b->name, "famtest.b");
  EXPECT_FALSE(a->signature.has_value());
  ASSERT_NE(a->calls, nullptr);
  ASSERT_NE(a->usec, nullptr);
  EXPECT_EQ(a->calls->name(), "stetho_kernel_famtest_calls_total");
  EXPECT_EQ(a->usec->name(), "stetho_kernel_famtest_usec");
  EXPECT_EQ(b->calls, a->calls);
  EXPECT_EQ(b->usec, a->usec);
  EXPECT_NE(other->calls, a->calls);
  EXPECT_NE(other->usec, a->usec);
  EXPECT_EQ(reg.Resolve("famtest", "c"), nullptr);
}

/// Sets obs::Enabled() for one test and restores the previous value.
class ObsEnabledScope {
 public:
  explicit ObsEnabledScope(bool enabled) : was_(obs::Enabled()) {
    obs::SetEnabled(enabled);
  }
  ~ObsEnabledScope() { obs::SetEnabled(was_); }

 private:
  const bool was_;
};

/// The names of every kernel-family metric in the default registry.
std::vector<std::string> KernelFamilyMetrics() {
  std::vector<std::string> names;
  for (const obs::MetricSample& m : obs::Registry::Default()->Snapshot()) {
    if (m.name.rfind("stetho_kernel_", 0) == 0) names.push_back(m.name);
  }
  return names;
}

// Family metrics belong to registered modules only: an observed query
// naming nothing but an unregistered module fails without creating any.
TEST(ModuleRegistryTest, UnregisteredModuleGetsNoFamilyMetrics) {
  const ObsEnabledScope observe(true);
  Catalog cat = MakeCatalog();
  const Interpreter interp(&cat);  // builds the default registry first
  const std::vector<std::string> before = KernelFamilyMetrics();
  Program p;
  p.Add("unregistered", "nothing", {}, {});
  auto r = interp.Execute(p, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(KernelFamilyMetrics(), before);
}

// An observed run reads each kernel's span name and family metrics from
// its registry record, so running one prepared plan again builds no name
// and registers no metric.
TEST(InterpreterTest, ObservedRunsReadTheKernelRecords) {
  const ObsEnabledScope observe(true);
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  ExecOptions opts;
  opts.tracer = &tracer;
  Catalog cat = MakeCatalog();
  const Program p = PaperQuery();
  const PreparedPlan plan(p);
  const Interpreter interp(&cat);
  std::map<std::string, int64_t> per_module;
  for (const mal::Instruction& ins : p.instructions()) ++per_module[ins.module];

  const obs::Registry* metrics = obs::Registry::Default();
  ASSERT_TRUE(interp.Execute(plan, opts).ok());
  const size_t registered = metrics->size();
  std::map<std::string, int64_t> calls_before;
  std::map<std::string, int64_t> observed_before;
  for (const auto& [module, count] : per_module) {
    calls_before[module] =
        metrics->CounterValue("stetho_kernel_" + module + "_calls_total")
            .value();
    observed_before[module] =
        metrics->FindHistogram("stetho_kernel_" + module + "_usec")
            .value()
            ->count();
  }
  tracer.Clear();

  ASSERT_TRUE(interp.Execute(plan, opts).ok());
  EXPECT_EQ(metrics->size(), registered);
  size_t kernel_spans = 0;
  for (const obs::SpanRecord& span : tracer.Snapshot()) {
    if (span.cat != "kernel") continue;
    ++kernel_spans;
    ASSERT_GE(span.pc, 0);
    ASSERT_LT(static_cast<size_t>(span.pc), p.size());
    const mal::Instruction& ins = p.instruction(span.pc);
    EXPECT_EQ(span.name, ins.module + "." + ins.function);
  }
  EXPECT_EQ(kernel_spans, p.size());
  for (const auto& [module, count] : per_module) {
    SCOPED_TRACE(module);
    EXPECT_EQ(
        metrics->CounterValue("stetho_kernel_" + module + "_calls_total")
                .value() -
            calls_before[module],
        count);
    EXPECT_EQ(metrics->FindHistogram("stetho_kernel_" + module + "_usec")
                      .value()
                      ->count() -
                  observed_before[module],
              count);
  }
}

}  // namespace
}  // namespace stetho::engine
