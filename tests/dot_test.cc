#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "dot/graph.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "mal/program.h"
#include "optimizer/pass.h"
#include "sql/compiler.h"
#include "storage/table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho::dot {
namespace {

using mal::Argument;
using mal::MalType;
using mal::Program;
using storage::DataType;
using storage::Value;

Program TinyPlan() {
  Program p;
  int a = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {a}, {});
  int b = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("sql", "tid", {b},
        {Argument::Var(a), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("t"))});
  p.Add("io", "print", {}, {Argument::Var(b)});
  return p;
}

// --- Graph ---

TEST(GraphTest, AddNodeIdempotent) {
  Graph g;
  g.AddNode("a").given_label = "first";
  g.AddNode("a");
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.node(0).label(), "first");
}

TEST(GraphTest, EdgesCreateNodes) {
  Graph g;
  g.AddEdge("a", "b");
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_GE(g.FindNode("a"), 0);
  EXPECT_EQ(g.FindNode("zzz"), -1);
}

TEST(GraphTest, RootsAndAdjacency) {
  Graph g;
  g.AddEdge("a", "c");
  g.AddEdge("b", "c");
  g.AddEdge("c", "d");
  auto roots = g.Roots();
  ASSERT_EQ(roots.size(), 2u);  // a, b
  auto out = g.OutAdjacency();
  EXPECT_EQ(out[static_cast<size_t>(g.FindNode("c"))].size(), 1u);
  auto in = g.InAdjacency();
  EXPECT_EQ(in[static_cast<size_t>(g.FindNode("c"))].size(), 2u);
}

TEST(GraphTest, TopologicalOrder) {
  Graph g;
  g.AddEdge("a", "b");
  g.AddEdge("b", "c");
  auto order = g.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<int>{0, 1, 2}));
}

TEST(GraphTest, CycleDetected) {
  Graph g;
  g.AddEdge("a", "b");
  g.AddEdge("b", "a");
  EXPECT_FALSE(g.TopologicalOrder().ok());
}

// --- writer ---

TEST(DotWriterTest, EmitsNodePerInstructionAndPcNames) {
  Program p = TinyPlan();
  std::string text = ProgramToDot(p);
  EXPECT_NE(text.find("digraph"), std::string::npos);
  EXPECT_NE(text.find("n0 [label="), std::string::npos);
  EXPECT_NE(text.find("n1 [label="), std::string::npos);
  EXPECT_NE(text.find("n2 [label="), std::string::npos);
  EXPECT_NE(text.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(text.find("n1 -> n2"), std::string::npos);
  EXPECT_NE(text.find("sql.tid"), std::string::npos);
}

TEST(DotWriterTest, LabelTruncation) {
  Program p = TinyPlan();
  DotWriterOptions options;
  options.max_label_chars = 10;
  std::string text = ProgramToDot(p, options);
  EXPECT_NE(text.find("..."), std::string::npos);
}

TEST(DotWriterTest, ProgramToGraphMatchesDependencies) {
  Program p = TinyPlan();
  Graph g = ProgramToGraph(p);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.node(0).label(), p.InstructionToString(p.instruction(0)));
}

// --- parser ---

TEST(DotParserTest, ParsesWriterOutput) {
  Program p = TinyPlan();
  auto parsed = ParseDot(ProgramToDot(p));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Graph& g = parsed.value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.directed());
  int n1 = g.FindNode("n1");
  ASSERT_GE(n1, 0);
  EXPECT_NE(g.node(static_cast<size_t>(n1)).label().find("sql.tid"),
            std::string::npos);
}

TEST(DotParserTest, GraphRoundTrip) {
  Graph g("roundtrip");
  g.AddNode("a").given_label = "alpha \"quoted\"";
  g.AddNode("b").attrs["fillcolor"] = "red";
  g.AddEdge("a", "b").attrs["style"] = "dashed";
  auto parsed = ParseDot(GraphToDot(g));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Graph& back = parsed.value();
  EXPECT_EQ(back.name(), "roundtrip");
  ASSERT_EQ(back.num_nodes(), 2u);
  EXPECT_EQ(back.node(0).label(), "alpha \"quoted\"");
  EXPECT_EQ(back.node(1).attrs.at("fillcolor"), "red");
  ASSERT_EQ(back.num_edges(), 1u);
  EXPECT_EQ(back.edges()[0].attrs.at("style"), "dashed");
}

TEST(DotWriterTest, GraphToDotPlacesLabelAmongSortedAttributes) {
  Graph g("g");
  GraphNode& both = g.AddNode("a");
  both.attrs["color"] = "red";
  both.given_label = "x \"y\"";
  both.attrs["shape"] = "box";
  g.AddNode("b").given_label = "only";
  g.AddNode("c").attrs["fillcolor"] = "blue";
  GraphNode& after = g.AddNode("d");
  after.attrs["style"] = "bold";
  after.given_label = "first";
  g.AddNode("e");
  GraphNode& close = g.AddNode("f");
  close.attrs["Label"] = "upper";
  close.attrs["lab"] = "prefix";
  close.attrs["label2"] = "longer";
  close.attrs["label_angle"] = "45";
  close.given_label = "exact";
  g.AddEdge("a", "b").attrs["style"] = "dashed";
  const std::string want =
      "digraph \"g\" {\n"
      "  a [color=\"red\", label=\"x \\\"y\\\"\", shape=\"box\"];\n"
      "  b [label=\"only\"];\n"
      "  c [fillcolor=\"blue\"];\n"
      "  d [label=\"first\", style=\"bold\"];\n"
      "  e;\n"
      "  f [Label=\"upper\", lab=\"prefix\", label=\"exact\", "
      "label2=\"longer\", label_angle=\"45\"];\n"
      "  a -> b [style=\"dashed\"];\n"
      "}\n";
  EXPECT_EQ(GraphToDot(g), want);
  auto parsed = ParseDot(want);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(GraphToDot(parsed.value()), want);
  EXPECT_EQ(parsed.value().node(2).label(), "c");  // no label: the id
}

TEST(DotParserTest, UndirectedGraph) {
  auto parsed = ParseDot("graph g { a -- b; }");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().directed());
  EXPECT_EQ(parsed.value().num_edges(), 1u);
}

TEST(DotParserTest, SkipsCommentsAndDefaults) {
  auto parsed = ParseDot(
      "// header comment\n"
      "digraph g {\n"
      "  /* block */ node [shape=box];\n"
      "  rankdir = TB;\n"
      "  # trailing comment\n"
      "  a [label=\"x\"];\n"
      "  a -> b;\n"
      "}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().num_nodes(), 2u);
  EXPECT_EQ(parsed.value().num_edges(), 1u);
}

TEST(DotParserTest, Rejections) {
  EXPECT_FALSE(ParseDot("").ok());
  EXPECT_FALSE(ParseDot("notagraph g { }").ok());
  EXPECT_FALSE(ParseDot("digraph g { a -> ; }").ok());
  EXPECT_FALSE(ParseDot("digraph g { a [label=\"unterminated ]; }").ok());
  EXPECT_FALSE(ParseDot("digraph g { a -> b; ").ok());
}

// --- end-to-end with the compiler ---

TEST(DotPipelineTest, CompiledQueryRoundTripsThroughDot) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  auto program = sql::Compiler::CompileSql(
      &cat.value(), "select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(program.ok());

  std::string dot_text = ProgramToDot(program.value());
  auto graph = ParseDot(dot_text);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().num_nodes(), program.value().size());
  // pc <-> node-name mapping: every instruction has its n<pc> node.
  for (size_t pc = 0; pc < program.value().size(); ++pc) {
    EXPECT_GE(graph.value().FindNode("n" + std::to_string(pc)), 0);
  }
  // The DAG is acyclic and roots exist.
  EXPECT_TRUE(graph.value().TopologicalOrder().ok());
  EXPECT_FALSE(graph.value().Roots().empty());
}

// --- the dot leg, pinned over the suite plans ---

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct SuitePlan {
  std::string query;
  int mitosis = 0;
  Program program;
};

/// Every suite query after Pipeline::Default at mitosis 0, 16 and 128 on sf
/// 0.002 (the plans OptimizedPlanGoldenTest pins), in suite order.
std::vector<SuitePlan> SuitePlans() {
  std::vector<SuitePlan> plans;
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  EXPECT_TRUE(cat.ok());
  if (!cat.ok()) return plans;
  for (const tpch::TpchQuery& query : tpch::TpchQueries()) {
    for (int m : {0, 16, 128}) {
      auto program = sql::Compiler::CompileSql(&cat.value(), query.sql);
      EXPECT_TRUE(program.ok()) << query.id;
      if (!program.ok()) return {};
      auto fired = optimizer::Pipeline::Default(m).Run(&program.value());
      EXPECT_TRUE(fired.ok()) << query.id << " m=" << m;
      if (!fired.ok()) return {};
      plans.push_back({query.id, m, std::move(program).value()});
    }
  }
  return plans;
}

struct PinnedDot {
  const char* query;
  int mitosis;
  size_t bytes;
  uint64_t fnv;
};

// ProgramToDot's output for every suite plan: a rewrite of the writer may
// change how fast it writes, never a byte of what it writes. On a mismatch
// the failure prints the whole actual table.
constexpr PinnedDot kPinnedDots[] = {
    {"paper", 0, 629, 0x4e8dd147c94a2528ull},
    {"paper", 16, 5084, 0xec13b6d8d267df66ull},
    {"paper", 128, 39697, 0x84c9cdd7ba0132f7ull},
    {"q1", 0, 5795, 0xc15e79749b20acf7ull},
    {"q1", 16, 20169, 0xf0d820e819204babull},
    {"q1", 128, 127890, 0xef97749f0f741658ull},
    {"q3", 0, 5381, 0x1df0c6aeca81d595ull},
    {"q3", 16, 20668, 0x51cff91a1d8acd69ull},
    {"q3", 128, 135111, 0x26a614138b642e39ull},
    {"q5", 0, 7120, 0x326b2241ab065388ull},
    {"q5", 16, 18926, 0x9931456e02a018c3ull},
    {"q5", 128, 106078, 0xd8f28b534e46d7bfull},
    {"q6", 0, 1382, 0x68677e0d99db7c32ull},
    {"q6", 16, 12566, 0x126aa7e22e760f2aull},
    {"q6", 128, 99149, 0xf7d4f4caee2fbcf7ull},
    {"q12", 0, 5369, 0xa9e19fdf5fee2e24ull},
    {"q12", 16, 12096, 0x38a0cc216220fa4bull},
    {"q12", 128, 63275, 0xbedf84babd642616ull},
    {"q14", 0, 2473, 0xd80d24b544e74cdaull},
    {"q14", 16, 9006, 0x7a906c0ef66f60acull},
    {"q14", 128, 59667, 0xbf415bd9ba48cb23ull},
    {"q11", 0, 3599, 0x411b23493c1a2addull},
    {"q11", 16, 8233, 0x386eb45e961c4ac4ull},
    {"q11", 128, 44280, 0x884e63ac8fba6ebfull},
    {"q16", 0, 3426, 0xdb5b8a15b7c66383ull},
    {"q16", 16, 8247, 0x2ccbd19b90c90298ull},
    {"q16", 128, 45446, 0x8dd316987175c181ull},
    {"q18", 0, 2086, 0x6b73d289d28369bcull},
    {"q18", 16, 2086, 0x6b73d289d28369bcull},
    {"q18", 128, 2086, 0x6b73d289d28369bcull},
    {"distinct_flags", 0, 1654, 0xb363a2b24cb36b3eull},
    {"distinct_flags", 16, 1654, 0xb363a2b24cb36b3eull},
    {"distinct_flags", 128, 1654, 0xb363a2b24cb36b3eull},
    {"big_group", 0, 3132, 0x2775e157537b49e8ull},
    {"big_group", 16, 3132, 0x2775e157537b49e8ull},
    {"big_group", 128, 3132, 0x2775e157537b49e8ull},
    {"scan_heavy", 0, 1816, 0x7e34a91b23657991ull},
    {"scan_heavy", 16, 16261, 0xc198704d617cb61bull},
    {"scan_heavy", 128, 128027, 0x5e9a0f8a9a20dda9ull},
};

TEST(DotWriterTest, SuitePlansByteIdentical) {
  const std::vector<SuitePlan> plans = SuitePlans();
  ASSERT_EQ(plans.size(), std::size(kPinnedDots));
  std::string actual;
  bool same = true;
  for (size_t i = 0; i < plans.size(); ++i) {
    const SuitePlan& plan = plans[i];
    DotWriterOptions options;
    options.graph_name = plan.program.function_name();
    const std::string text = ProgramToDot(plan.program, options);
    const uint64_t fnv = Fnv1a64(text);
    actual += StrFormat("    {\"%s\", %d, %zu, 0x%016llxull},\n",
                        plan.query.c_str(), plan.mitosis, text.size(),
                        static_cast<unsigned long long>(fnv));
    const PinnedDot& pin = kPinnedDots[i];
    same = same && plan.query == pin.query && plan.mitosis == pin.mitosis &&
           text.size() == pin.bytes && fnv == pin.fnv;
  }
  EXPECT_TRUE(same) << "actual table:\n" << actual;
}

TEST(DotParserTest, ParseEqualsProgramToGraph) {
  const std::vector<SuitePlan> plans = SuitePlans();
  ASSERT_EQ(plans.size(), 39u);
  for (const SuitePlan& plan : plans) {
    SCOPED_TRACE(plan.query + " m=" + std::to_string(plan.mitosis));
    DotWriterOptions options;
    options.graph_name = plan.program.function_name();
    auto parsed = ParseDot(ProgramToDot(plan.program, options));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const Graph& got = parsed.value();
    const Graph want = ProgramToGraph(plan.program);
    EXPECT_EQ(got.name(), want.name());
    EXPECT_EQ(got.directed(), want.directed());
    ASSERT_EQ(got.num_nodes(), want.num_nodes());
    for (size_t i = 0; i < want.num_nodes(); ++i) {
      EXPECT_EQ(got.node(i).id, want.node(i).id);
      EXPECT_EQ(got.node(i).label(), want.node(i).label());
      EXPECT_EQ(got.node(i).given_label, want.node(i).given_label);
      EXPECT_EQ(got.node(i).attrs, want.node(i).attrs);
    }
    ASSERT_EQ(got.num_edges(), want.num_edges());
    for (size_t i = 0; i < want.num_edges(); ++i) {
      EXPECT_EQ(got.edges()[i].from, want.edges()[i].from);
      EXPECT_EQ(got.edges()[i].to, want.edges()[i].to);
      EXPECT_EQ(got.edges()[i].attrs, want.edges()[i].attrs);
    }
  }
}

/// One line per parse: the status, or the graph with every node, edge and
/// attribute in order, with control characters and quotes made visible.
std::string ParseVerdict(const std::string& text) {
  auto parsed = ParseDot(text);
  if (!parsed.ok()) return parsed.status().ToString();
  const Graph& g = parsed.value();
  auto show = [](const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '\n') {
        out += "\\n";
      } else if (c == '\r') {
        out += "\\r";
      } else if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else {
        out += c;
      }
    }
    return out + "\"";
  };
  auto attr = [&](const std::string& k, const std::string& v) {
    return " " + show(k) + "=" + show(v);
  };
  std::string out = (g.directed() ? "digraph " : "graph ") + show(g.name());
  for (const GraphNode& node : g.nodes()) {
    out += " N(" + show(node.id);
    node.ForEachAttr([&](const std::string& k, const std::string& v) {
      out += attr(k, v);
    });
    out += ")";
  }
  for (const GraphEdge& edge : g.edges()) {
    out += " E(" + show(edge.from) + "," + show(edge.to);
    for (const auto& [k, v] : edge.attrs) out += attr(k, v);
    out += ")";
  }
  return out;
}

struct PinnedParse {
  const char* text;
  const char* verdict;
};

// ParseDot's verdict on odd inputs: an error's code and message, or the
// canonical graph dump above.
const PinnedParse kPinnedParses[] = {
    {"digraph g { a -> b; }",
     "digraph \"g\" N(\"a\") N(\"b\") E(\"a\",\"b\")"},
    // A bare id ends where an edge operator begins.
    {"digraph g { a->b; }",
     "digraph \"g\" N(\"a\") N(\"b\") E(\"a\",\"b\")"},
    {"graph g { a--b; }",
     "graph \"g\" N(\"a\") N(\"b\") E(\"a\",\"b\")"},
    {"graph g { a -- b; }",
     "graph \"g\" N(\"a\") N(\"b\") E(\"a\",\"b\")"},
    {"strict digraph g { a -> b; }",
     "digraph \"g\" N(\"a\") N(\"b\") E(\"a\",\"b\")"},
    {"STRICT DiGraph g { a; }",
     "digraph \"g\" N(\"a\")"},
    {"digraph { a; }",
     "digraph \"G\" N(\"a\")"},
    {"digraph \"quoted name\" { }",
     "digraph \"quoted name\""},
    {"digraph g { a [label=\"say \\\"hi\\\"\"]; }",
     "digraph \"g\" N(\"a\" \"label\"=\"say \\\"hi\\\"\")"},
    {"digraph g { a [label=\"back\\\\slash\"]; }",
     "digraph \"g\" N(\"a\" \"label\"=\"back\\\\slash\")"},
    {"digraph g { a [label=\"x\\ny\\tz\"]; }",
     "digraph \"g\" N(\"a\" \"label\"=\"xnytz\")"},
    {"digraph g { a [label=\"abc\\",
     "parse_error: unterminated quoted id in dot input"},
    {"digraph g { a [label=\"abc\\\"]; }",
     "parse_error: unterminated quoted id in dot input"},
    {"// line comment\ndigraph g { a; }",
     "digraph \"g\" N(\"a\")"},
    {"/* block */ digraph g { /* inner */ a; }",
     "digraph \"g\" N(\"a\")"},
    {"# hash comment\ndigraph g { a; # trailing\n b; }",
     "digraph \"g\" N(\"a\") N(\"b\")"},
    {"digraph g { a; /* unterminated comment",
     "parse_error: missing '}' in dot input"},
    {"digraph g { a // comment -> b\n; }",
     "digraph \"g\" N(\"a\")"},
    {"digraph g { a, b; }",
     "parse_error: unexpected character ',' at offset 13 in dot input"},
    {"digraph g { a; b; c }",
     "digraph \"g\" N(\"a\") N(\"b\") N(\"c\")"},
    {"digraph g { a b c }",
     "digraph \"g\" N(\"a\") N(\"b\") N(\"c\")"},
    {"digraph g { rankdir = LR; a; }",
     "digraph \"g\" N(\"a\")"},
    {"digraph g { rankdir=LR a }",
     "digraph \"g\" N(\"a\")"},
    {"digraph g { node [shape=box]; edge [color=red]; graph [rankdir=LR]; a; }",
     "digraph \"g\" N(\"a\")"},
    {"digraph g { node; }",
     "digraph \"g\" N(\"node\")"},
    {"digraph g { a [x=1]; a [y=2]; }",
     "digraph \"g\" N(\"a\" \"x\"=\"1\" \"y\"=\"2\")"},
    {"digraph g { a [x=1]; a [x=2]; }",
     "digraph \"g\" N(\"a\" \"x\"=\"2\")"},
    {"digraph g { a [x=1, x=3]; }",
     "digraph \"g\" N(\"a\" \"x\"=\"3\")"},
    {"digraph g { a []; }",
     "digraph \"g\" N(\"a\")"},
    {"digraph g { a [x]; }",
     "parse_error: expected '=' in attribute list"},
    {"digraph g { a [x=1 y=2]; }",
     "parse_error: expected ',' or ']' in attribute list"},
    {"digraph g { a [x=1; y=2]; }",
     "digraph \"g\" N(\"a\" \"x\"=\"1\" \"y\"=\"2\")"},
    {"digraph g { a [x=1,]; }",
     "parse_error: unexpected character ']' at offset 19 in dot input"},
    {"digraph g { a -> b [color=red, style=dashed]; }",
     "digraph \"g\" N(\"a\") N(\"b\") E(\"a\",\"b\" \"color\"=\"red\" \"style\"=\"dashed\")"},
    {"digraph g { a -> b -> c; }",
     "parse_error: unexpected character '>' at offset 20 in dot input"},
    {"digraph g { \"quoted id\" -> \"other id\"; }",
     "digraph \"g\" N(\"quoted id\") N(\"other id\") E(\"quoted id\",\"other id\")"},
    {"digraph g { \"a->b\"; \"c--d\"; }",
     "digraph \"g\" N(\"a->b\") N(\"c--d\")"},
    {"digraph g { 12 -> 3.5; -1 -> x; }",
     "digraph \"g\" N(\"12\") N(\"3.5\") N(\"-1\") N(\"x\") E(\"12\",\"3.5\") E(\"-1\",\"x\")"},
    {"digraph g { a -> ; }",
     "parse_error: unexpected character ';' at offset 17 in dot input"},
    {"digraph g { a -> b; ",
     "parse_error: missing '}' in dot input"},
    {"",
     "parse_error: unexpected end of dot input"},
    {"   \n  ",
     "parse_error: unexpected end of dot input"},
    {"notagraph g { }",
     "parse_error: dot input must start with (di)graph"},
    {"digraph g a { }",
     "parse_error: expected '{'"},
    {"digraph g { a [label=\"multi\nline\"]; }",
     "digraph \"g\" N(\"a\" \"label\"=\"multi\\nline\")"},
    {"digraph g { a [label=\"\"]; b [label=x]; }",
     "digraph \"g\" N(\"a\" \"label\"=\"\") N(\"b\" \"label\"=\"x\")"},
    {"digraph g { a [label=\"unterminated]; }",
     "parse_error: unterminated quoted id in dot input"},
    {"digraph g { a; } trailing } junk",
     "digraph \"g\" N(\"a\")"},
    {"digraph g { a -> b [weight=2]; a -> b; }",
     "digraph \"g\" N(\"a\") N(\"b\") E(\"a\",\"b\" \"weight\"=\"2\") E(\"a\",\"b\")"},
    {"digraph g { a = ; }",
     "parse_error: unexpected character ';' at offset 16 in dot input"},
    {"graph g { a -> b; }",
     "graph \"g\" N(\"a\") N(\"b\") E(\"a\",\"b\")"},
    {"digraph g { a [ label = \"spaced\" , color = red ] ; }",
     "digraph \"g\" N(\"a\" \"color\"=\"red\" \"label\"=\"spaced\")"},
    {"digraph g {\r\n  a;\r\n}\r\n",
     "digraph \"g\" N(\"a\")"},
    {"digraph g { \"\"; }",
     "digraph \"g\" N(\"\")"},
    {"digraph g { n0 -> n1; n1 [label=\"x\"]; n0 [label=\"y\"]; }",
     "digraph \"g\" N(\"n0\" \"label\"=\"y\") N(\"n1\" \"label\"=\"x\") E(\"n0\",\"n1\")"},
    {"digraph g { a [label=<html>]; }",
     "parse_error: unexpected character '<' at offset 21 in dot input"},
};

TEST(DotParserTest, PinnedParseVerdicts) {
  for (const PinnedParse& pin : kPinnedParses) {
    EXPECT_EQ(ParseVerdict(pin.text), pin.verdict) << "input: " << pin.text;
  }
}

}  // namespace
}  // namespace stetho::dot
