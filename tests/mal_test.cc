#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "mal/parser.h"
#include "mal/program.h"
#include "mal/types.h"
#include "optimizer/pass.h"
#include "sql/compiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho::mal {
namespace {

using storage::DataType;
using storage::Value;

// --- MalType ---

TEST(MalTypeTest, ToStringScalars) {
  EXPECT_EQ(MalType::Scalar(DataType::kInt64).ToString(), ":lng");
  EXPECT_EQ(MalType::Scalar(DataType::kDouble).ToString(), ":dbl");
  EXPECT_EQ(MalType::Scalar(DataType::kString).ToString(), ":str");
  EXPECT_EQ(MalType::Scalar(DataType::kBool).ToString(), ":bit");
  EXPECT_EQ(MalType::Scalar(DataType::kOid).ToString(), ":oid");
  EXPECT_EQ(MalType::Void().ToString(), ":void");
}

TEST(MalTypeTest, ToStringBat) {
  EXPECT_EQ(MalType::Bat(DataType::kOid).ToString(), ":bat[:oid]");
  EXPECT_EQ(MalType::Bat(DataType::kDouble).ToString(), ":bat[:dbl]");
}

TEST(MalTypeTest, ParseRoundTrip) {
  for (const MalType& t :
       {MalType::Scalar(DataType::kInt64), MalType::Bat(DataType::kString),
        MalType::Void(), MalType::Bat(DataType::kOid)}) {
    auto parsed = ParseMalType(t.ToString());
    ASSERT_TRUE(parsed.ok()) << t.ToString();
    EXPECT_EQ(parsed.value(), t);
  }
}

TEST(MalTypeTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseMalType(":frobnicate").ok());
  EXPECT_FALSE(ParseMalType("lng").ok());
}

// --- Program construction ---

Program PaperLikePlan() {
  // Mirrors the shape of the paper's Fig. 1 query:
  //   select l_tax from lineitem where l_partkey=1
  Program p("user.main");
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  int tid = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("sql", "tid", {tid},
        {Argument::Var(mvc), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("lineitem"))});
  int partkey = p.AddVariable(MalType::Bat(DataType::kInt64));
  p.Add("sql", "bind", {partkey},
        {Argument::Var(mvc), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("lineitem")),
         Argument::Const(Value::String("l_partkey")),
         Argument::Const(Value::Int(0))});
  int cand = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("algebra", "thetaselect", {cand},
        {Argument::Var(partkey), Argument::Var(tid),
         Argument::Const(Value::Int(1)),
         Argument::Const(Value::String("=="))});
  int tax = p.AddVariable(MalType::Bat(DataType::kDouble));
  p.Add("sql", "bind", {tax},
        {Argument::Var(mvc), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("lineitem")),
         Argument::Const(Value::String("l_tax")),
         Argument::Const(Value::Int(0))});
  int proj = p.AddVariable(MalType::Bat(DataType::kDouble));
  p.Add("algebra", "projection", {proj},
        {Argument::Var(cand), Argument::Var(tax)});
  p.Add("io", "print", {}, {Argument::Var(proj)});
  return p;
}

TEST(ProgramTest, PcAssignment) {
  Program p = PaperLikePlan();
  ASSERT_EQ(p.size(), 7u);
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.instruction(static_cast<int>(i)).pc, static_cast<int>(i));
  }
}

TEST(ProgramTest, ValidatePasses) {
  Program p = PaperLikePlan();
  EXPECT_TRUE(p.Validate().ok()) << p.Validate().ToString();
}

TEST(ProgramTest, ValidateCatchesUseBeforeDef) {
  Program p;
  int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("io", "print", {}, {Argument::Var(v)});  // v never assigned
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ProgramTest, ValidateCatchesDoubleAssignment) {
  Program p;
  int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {v}, {});
  p.Add("sql", "mvc", {v}, {});
  EXPECT_FALSE(p.Validate().ok());
}

std::vector<int> Ints(std::span<const int> row) {
  return std::vector<int>(row.begin(), row.end());
}

TEST(ProgramTest, DependenciesFollowDefUse) {
  Program p = PaperLikePlan();
  const Dependencies deps = p.BuildDependencies();
  ASSERT_EQ(deps.size(), 7u);
  EXPECT_TRUE(deps.producers(0).empty());                  // sql.mvc
  EXPECT_EQ(Ints(deps.producers(1)), (std::vector<int>{0}));     // tid
  EXPECT_EQ(Ints(deps.producers(3)), (std::vector<int>{2, 1}));  // select
  EXPECT_EQ(Ints(deps.producers(5)), (std::vector<int>{3, 4}));  // projection
  EXPECT_EQ(Ints(deps.producers(6)), (std::vector<int>{5}));     // print
  EXPECT_EQ(Ints(deps.consumers(0)), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(Ints(deps.readers(0)), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(deps.num_edges(), 8u);
}

TEST(ProgramTest, DependenciesDeduplicated) {
  Program p;
  int a = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {a}, {});
  int b = p.AddVariable(MalType::Scalar(DataType::kInt64));
  // Same producer referenced twice -> one dependency edge, two reads.
  p.Add("calc", "add", {b}, {Argument::Var(a), Argument::Var(a)});
  const Dependencies deps = p.BuildDependencies();
  EXPECT_EQ(Ints(deps.producers(1)), (std::vector<int>{0}));
  EXPECT_EQ(Ints(deps.consumers(0)), (std::vector<int>{1}));
  EXPECT_EQ(Ints(deps.readers(a)), (std::vector<int>{1, 1}));
}

// --- Dependencies against a brute-force oracle ---

/// The def-use relation by a naive backward scan: an argument's producer is
/// the nearest earlier instruction listing its variable among its results.
struct NaiveDependencies {
  std::vector<std::vector<int>> producers;
  std::vector<std::vector<int>> consumers;
  std::vector<std::vector<int>> readers;
  size_t num_edges = 0;
};

NaiveDependencies NaiveScan(const Program& p) {
  NaiveDependencies want;
  want.producers.resize(p.size());
  want.consumers.resize(p.size());
  want.readers.resize(p.num_variables());
  for (int pc = 0; pc < static_cast<int>(p.size()); ++pc) {
    for (const Argument& arg : p.instruction(pc).args) {
      if (arg.kind != Argument::Kind::kVar || arg.var < 0 ||
          arg.var >= static_cast<int>(p.num_variables())) {
        continue;
      }
      want.readers[static_cast<size_t>(arg.var)].push_back(pc);
      for (int q = pc - 1; q >= 0; --q) {
        const std::vector<int>& results = p.instruction(q).results;
        if (std::find(results.begin(), results.end(), arg.var) ==
            results.end()) {
          continue;
        }
        std::vector<int>& row = want.producers[static_cast<size_t>(pc)];
        if (std::find(row.begin(), row.end(), q) == row.end()) {
          row.push_back(q);
        }
        break;
      }
    }
  }
  for (size_t pc = 0; pc < p.size(); ++pc) {
    for (int q : want.producers[pc]) {
      want.consumers[static_cast<size_t>(q)].push_back(static_cast<int>(pc));
      ++want.num_edges;
    }
  }
  return want;
}

void ExpectMatchesNaiveScan(const Program& p) {
  const Dependencies deps = p.BuildDependencies();
  const NaiveDependencies want = NaiveScan(p);
  ASSERT_EQ(deps.size(), p.size());
  EXPECT_EQ(deps.num_edges(), want.num_edges);
  for (size_t pc = 0; pc < p.size(); ++pc) {
    const int ipc = static_cast<int>(pc);
    EXPECT_EQ(Ints(deps.producers(ipc)), want.producers[pc]) << "pc " << pc;
    EXPECT_EQ(Ints(deps.consumers(ipc)), want.consumers[pc]) << "pc " << pc;
  }
  for (size_t var = 0; var < p.num_variables(); ++var) {
    EXPECT_EQ(Ints(deps.readers(static_cast<int>(var))), want.readers[var])
        << "var " << var;
  }
}

TEST(DependenciesTest, SuitePlansMatchNaiveScan) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  for (const tpch::TpchQuery& query : tpch::TpchQueries()) {
    for (int m : {0, 16, 128}) {
      SCOPED_TRACE(query.id + " m=" + std::to_string(m));
      auto program = sql::Compiler::CompileSql(&cat.value(), query.sql);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      ASSERT_TRUE(optimizer::Pipeline::Default(m).Run(&program.value()).ok());
      ExpectMatchesNaiveScan(program.value());
    }
  }
}

TEST(DependenciesTest, MalformedProgramsMatchNaiveScan) {
  const MalType lng = MalType::Scalar(DataType::kInt64);
  {
    SCOPED_TRACE("out-of-range argument");
    Program p;
    int a = p.AddVariable(lng);
    p.Add("sql", "mvc", {a}, {});
    p.Add("io", "print", {}, {Argument::Var(7), Argument::Var(-1),
                              Argument::Var(a)});
    ExpectMatchesNaiveScan(p);
    EXPECT_EQ(Ints(p.BuildDependencies().producers(1)),
              (std::vector<int>{0}));
  }
  {
    SCOPED_TRACE("out-of-range result");
    Program p;
    int a = p.AddVariable(lng);
    p.Add("sql", "mvc", {a, 9}, {});
    p.Add("io", "print", {}, {Argument::Var(a)});
    ExpectMatchesNaiveScan(p);
  }
  {
    SCOPED_TRACE("use before definition");
    Program p;
    int a = p.AddVariable(lng);
    p.Add("io", "print", {}, {Argument::Var(a)});
    p.Add("sql", "mvc", {a}, {});
    ExpectMatchesNaiveScan(p);
    const Dependencies deps = p.BuildDependencies();
    EXPECT_TRUE(deps.producers(0).empty());
    EXPECT_EQ(Ints(deps.readers(a)), (std::vector<int>{0}));
  }
  {
    SCOPED_TRACE("double assignment");
    Program p;
    int a = p.AddVariable(lng);
    p.Add("sql", "mvc", {a}, {});
    p.Add("io", "print", {}, {Argument::Var(a)});
    p.Add("sql", "mvc", {a}, {});
    p.Add("io", "print", {}, {Argument::Var(a)});
    ExpectMatchesNaiveScan(p);
    const Dependencies deps = p.BuildDependencies();
    EXPECT_EQ(Ints(deps.producers(3)), (std::vector<int>{2}));
    EXPECT_EQ(Ints(deps.consumers(0)), (std::vector<int>{1}));
  }
  {
    SCOPED_TRACE("one variable read twice by one pc");
    Program p;
    int a = p.AddVariable(lng);
    int b = p.AddVariable(lng);
    int c = p.AddVariable(lng);
    p.Add("sql", "mvc", {a}, {});
    p.Add("sql", "mvc", {b}, {});
    p.Add("calc", "add", {c},
          {Argument::Var(b), Argument::Var(a), Argument::Var(b)});
    ExpectMatchesNaiveScan(p);
    const Dependencies deps = p.BuildDependencies();
    EXPECT_EQ(Ints(deps.producers(2)), (std::vector<int>{1, 0}));
    EXPECT_EQ(Ints(deps.readers(b)), (std::vector<int>{2, 2}));
    EXPECT_EQ(deps.num_edges(), 2u);
  }
}

TEST(ProgramTest, ListingFormat) {
  Program p = PaperLikePlan();
  std::string text = p.ToString();
  EXPECT_NE(text.find("function user.main():void;"), std::string::npos);
  EXPECT_NE(text.find("end user.main;"), std::string::npos);
  EXPECT_NE(text.find("algebra.projection(X_3,X_4);"), std::string::npos);
  EXPECT_NE(text.find(":bat[:dbl]"), std::string::npos);
  EXPECT_NE(text.find("\"lineitem\""), std::string::npos);
}

TEST(ProgramTest, MultiResultPrinting) {
  Program p;
  int a = p.AddVariable(MalType::Bat(DataType::kOid));
  int b = p.AddVariable(MalType::Bat(DataType::kInt64));
  p.Add("group", "groupdone", {a, b}, {});
  std::string line = p.InstructionToString(p.instruction(0));
  EXPECT_EQ(line, "(X_0:bat[:oid],X_1:bat[:lng]) := group.groupdone();");
}

TEST(ProgramTest, ReplaceInstructionsRenumbers) {
  Program p = PaperLikePlan();
  std::vector<Instruction> kept;
  kept.push_back(p.instruction(0));
  kept.push_back(p.instruction(2));
  p.ReplaceInstructions(std::move(kept));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.instruction(0).pc, 0);
  EXPECT_EQ(p.instruction(1).pc, 1);
  EXPECT_EQ(p.instruction(1).FullName(), "sql.bind");
}

// --- Parser round-trip ---

TEST(ParserTest, RoundTripPaperPlan) {
  Program p = PaperLikePlan();
  std::string text = p.ToString();
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToString(), text);
}

TEST(ParserTest, RoundTripMultiResult) {
  Program p;
  int x = p.AddVariable(MalType::Bat(DataType::kInt64));
  p.Add("bat", "new", {x}, {Argument::Const(Value::Int(3))});
  int g = p.AddVariable(MalType::Bat(DataType::kOid));
  int e = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("group", "groupdone", {g, e}, {Argument::Var(x)});
  p.Add("io", "print", {}, {Argument::Var(g)});
  std::string text = p.ToString();
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToString(), text);
}

TEST(ParserTest, ParsesLiterals) {
  std::string text =
      "function user.main():void;\n"
      "    X_0:lng := calc.lng(42);\n"
      "    X_1:dbl := calc.dbl(-1.5);\n"
      "    X_2:str := calc.str(\"he\\\"llo\");\n"
      "    X_3:bit := calc.bit(true);\n"
      "    X_4:oid := calc.oid(7@0);\n"
      "    io.print(X_0,X_1,X_2,X_3,X_4,nil);\n"
      "end user.main;\n";
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Program& p = parsed.value();
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p.instruction(0).args[0].constant, Value::Int(42));
  EXPECT_EQ(p.instruction(1).args[0].constant, Value::Double(-1.5));
  EXPECT_EQ(p.instruction(2).args[0].constant, Value::String("he\"llo"));
  EXPECT_EQ(p.instruction(3).args[0].constant, Value::Bool(true));
  EXPECT_EQ(p.instruction(4).args[0].constant, Value::Oid(7));
  EXPECT_TRUE(p.instruction(5).args[5].constant.is_null());
}

TEST(ParserTest, SkipsComments) {
  std::string text =
      "# leading comment\n"
      "function user.main():void;\n"
      "    # a comment line\n"
      "    X_0:lng := sql.mvc(); # trailing comment\n"
      "end user.main;\n";
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().size(), 1u);
}

TEST(ParserTest, CardinalityPragmasRoundTrip) {
  Program p;
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  int tid = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("sql", "mvc", {mvc}, {});
  p.Add("sql", "tid", {tid},
        {Argument::Var(mvc), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("lineitem"))});
  p.AnnotateCardinality(tid, 0, 60175);

  std::string text = p.ToString();
  EXPECT_NE(text.find("# card X_1 0..60175"), std::string::npos) << text;
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  int rt = parsed.value().FindVariable("X_1");
  ASSERT_GE(rt, 0);
  const Variable& v = parsed.value().variable(rt);
  EXPECT_TRUE(v.has_cardinality());
  EXPECT_EQ(v.card_lo, 0);
  EXPECT_EQ(v.card_hi, 60175);
  // Printing the re-parsed plan reproduces the original byte-for-byte.
  EXPECT_EQ(parsed.value().ToString(), text);
}

TEST(ParserTest, MalformedCardPragmaIsJustAComment) {
  std::string text =
      "function user.main():void;\n"
      "# card nope\n"
      "# card X_0 banana..7\n"
      "    X_0:lng := sql.mvc();\n"
      "end user.main;\n";
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed.value().variable(0).has_cardinality());
}

TEST(ParserTest, RejectsMissingHeader) {
  EXPECT_FALSE(ParseProgram("X_0 := sql.mvc();").ok());
}

TEST(ParserTest, RejectsMissingEnd) {
  EXPECT_FALSE(
      ParseProgram("function user.main():void;\n X_0:lng := sql.mvc();\n").ok());
}

TEST(ParserTest, RejectsMalformedStatement) {
  EXPECT_FALSE(ParseProgram("function user.main():void;\n"
                            "    X_0 := ;\n"
                            "end user.main;\n")
                   .ok());
}

TEST(ParserTest, FunctionNamePreserved) {
  Program p("user.s1_1");
  p.Add("sql", "mvc", {p.AddVariable(MalType::Scalar(DataType::kInt64))}, {});
  // Rebuild the single result instruction correctly: result var id 0.
  auto parsed = ParseProgram(p.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().function_name(), "user.s1_1");
}

}  // namespace
}  // namespace stetho::mal
