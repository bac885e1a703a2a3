// End-to-end SQL oracle: random tables and randomly generated single-table
// queries, executed both by the full pipeline (SQL -> MAL -> optimizer ->
// dataflow interpreter) and by a naive row-at-a-time reference evaluator.
// Results must agree exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/absint.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/interpreter.h"
#include "optimizer/pass.h"
#include "sql/compiler.h"
#include "storage/table.h"

namespace stetho {
namespace {

using storage::Catalog;
using storage::ColumnPtr;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::Value;

struct Row {
  int64_t a;
  int64_t b;
  double x;
};

struct Dataset {
  Catalog catalog;
  std::vector<Row> rows;
};

Dataset RandomDataset(SplitMix64* rng, size_t n) {
  Dataset out;
  TablePtr t = Table::Make("t", Schema({{"a", DataType::kInt64},
                                        {"b", DataType::kInt64},
                                        {"x", DataType::kDouble}}));
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.a = static_cast<int64_t>(rng->NextBounded(20));
    row.b = static_cast<int64_t>(rng->NextBounded(8));
    row.x = static_cast<double>(rng->NextBounded(1000)) / 10.0;
    out.rows.push_back(row);
    EXPECT_TRUE(
        t->AppendRow({Value::Int(row.a), Value::Int(row.b), Value::Double(row.x)})
            .ok());
  }
  EXPECT_TRUE(out.catalog.AddTable(t).ok());
  return out;
}

/// A random conjunction/disjunction of comparisons plus its reference
/// evaluation.
struct Predicate {
  std::string sql;
  std::function<bool(const Row&)> eval;
};

Predicate RandomPredicate(SplitMix64* rng) {
  auto atom = [&]() -> Predicate {
    int which = static_cast<int>(rng->NextBounded(4));
    int64_t k = static_cast<int64_t>(rng->NextBounded(20));
    switch (which) {
      case 0:
        return {StrFormat("a >= %lld", static_cast<long long>(k)),
                [k](const Row& r) { return r.a >= k; }};
      case 1:
        return {StrFormat("a < %lld", static_cast<long long>(k)),
                [k](const Row& r) { return r.a < k; }};
      case 2: {
        int64_t lo = k % 8;
        int64_t hi = lo + 3;
        return {StrFormat("b between %lld and %lld",
                          static_cast<long long>(lo),
                          static_cast<long long>(hi)),
                [lo, hi](const Row& r) { return r.b >= lo && r.b <= hi; }};
      }
      default: {
        double bound = static_cast<double>(k) * 5.0;
        return {StrFormat("x <= %.1f", bound),
                [bound](const Row& r) { return r.x <= bound; }};
      }
    }
  };
  Predicate p1 = atom();
  Predicate p2 = atom();
  if (rng->NextBool(0.5)) {
    return {"(" + p1.sql + " and " + p2.sql + ")",
            [p1, p2](const Row& r) { return p1.eval(r) && p2.eval(r); }};
  }
  return {"(" + p1.sql + " or " + p2.sql + ")",
          [p1, p2](const Row& r) { return p1.eval(r) || p2.eval(r); }};
}

Result<engine::QueryResult> RunSql(Catalog* cat, const std::string& sql,
                                   int mitosis) {
  auto program = sql::Compiler::CompileSql(cat, sql);
  if (!program.ok()) return program.status();
  optimizer::Pipeline pipeline = optimizer::Pipeline::Default(mitosis);
  mal::Program plan = std::move(program).value();
  auto fired = pipeline.Run(&plan);
  if (!fired.ok()) return fired.status();
  engine::Interpreter interp(cat);
  engine::ExecOptions opts;
  opts.num_threads = 3;
  return interp.Execute(plan, opts);
}

class SqlOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlOracleTest, FilterProjection) {
  SplitMix64 rng(GetParam());
  Dataset data = RandomDataset(&rng, 400);
  for (int trial = 0; trial < 5; ++trial) {
    Predicate pred = RandomPredicate(&rng);
    std::string sql = "select a, x from t where " + pred.sql;
    auto r = RunSql(&data.catalog, sql, trial % 2 == 0 ? 0 : 4);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    // Reference: preserved row order.
    std::vector<Row> expected;
    for (const Row& row : data.rows) {
      if (pred.eval(row)) expected.push_back(row);
    }
    ColumnPtr a = r.value().columns[0].column;
    ColumnPtr x = r.value().columns[1].column;
    ASSERT_EQ(a->size(), expected.size()) << sql;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(a->IntAt(i), expected[i].a) << sql << " row " << i;
      EXPECT_DOUBLE_EQ(x->DoubleAt(i), expected[i].x) << sql << " row " << i;
    }
  }
}

TEST_P(SqlOracleTest, GroupedAggregates) {
  SplitMix64 rng(GetParam());
  Dataset data = RandomDataset(&rng, 300);
  Predicate pred = RandomPredicate(&rng);
  std::string sql =
      "select b, count(*) as n, sum(a) as sa, min(x) as mn, max(x) as mx, "
      "avg(x) as av from t where " + pred.sql +
      " group by b order by b";
  auto r = RunSql(&data.catalog, sql, 4);
  ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();

  struct Agg {
    int64_t n = 0;
    int64_t sa = 0;
    double mn = 1e300;
    double mx = -1e300;
    double sum_x = 0;
  };
  std::map<int64_t, Agg> expected;
  for (const Row& row : data.rows) {
    if (!pred.eval(row)) continue;
    Agg& agg = expected[row.b];
    ++agg.n;
    agg.sa += row.a;
    agg.mn = std::min(agg.mn, row.x);
    agg.mx = std::max(agg.mx, row.x);
    agg.sum_x += row.x;
  }
  const auto& cols = r.value().columns;
  ASSERT_EQ(cols[0].column->size(), expected.size()) << sql;
  size_t i = 0;
  for (const auto& [key, agg] : expected) {  // std::map: ascending keys
    EXPECT_EQ(cols[0].column->IntAt(i), key) << sql;
    EXPECT_EQ(cols[1].column->IntAt(i), agg.n) << sql;
    EXPECT_EQ(cols[2].column->IntAt(i), agg.sa) << sql;
    EXPECT_DOUBLE_EQ(cols[3].column->DoubleAt(i), agg.mn) << sql;
    EXPECT_DOUBLE_EQ(cols[4].column->DoubleAt(i), agg.mx) << sql;
    EXPECT_NEAR(cols[5].column->DoubleAt(i),
                agg.sum_x / static_cast<double>(agg.n), 1e-9)
        << sql;
    ++i;
  }
}

TEST_P(SqlOracleTest, OrderByLimitOffset) {
  SplitMix64 rng(GetParam());
  Dataset data = RandomDataset(&rng, 200);
  int64_t limit = static_cast<int64_t>(1 + rng.NextBounded(50));
  int64_t offset = static_cast<int64_t>(rng.NextBounded(30));
  bool desc = rng.NextBool(0.5);
  std::string sql = StrFormat(
      "select x, a from t order by x %s, a limit %lld offset %lld",
      desc ? "desc" : "asc", static_cast<long long>(limit),
      static_cast<long long>(offset));
  auto r = RunSql(&data.catalog, sql, 0);
  ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();

  std::vector<Row> sorted = data.rows;
  std::stable_sort(sorted.begin(), sorted.end(), [&](const Row& p, const Row& q) {
    if (p.x != q.x) return desc ? p.x > q.x : p.x < q.x;
    return p.a < q.a;
  });
  size_t begin = std::min<size_t>(static_cast<size_t>(offset), sorted.size());
  size_t end = std::min<size_t>(begin + static_cast<size_t>(limit), sorted.size());
  ColumnPtr x = r.value().columns[0].column;
  ColumnPtr a = r.value().columns[1].column;
  ASSERT_EQ(x->size(), end - begin) << sql;
  for (size_t i = 0; i < x->size(); ++i) {
    EXPECT_DOUBLE_EQ(x->DoubleAt(i), sorted[begin + i].x) << sql << " row " << i;
    EXPECT_EQ(a->IntAt(i), sorted[begin + i].a) << sql << " row " << i;
  }
}

// Property: ANY subset of the optimizer passes, applied in ANY order, must
// preserve both the abstract summary of the plan's sink columns (the
// pipeline differ's contract) and the concrete execution results. This is
// the external version of the equivalence guarantee Pipeline::Run enforces
// internally after every pass.
TEST_P(SqlOracleTest, RandomPipelinesPreserveSemantics) {
  SplitMix64 rng(GetParam() + 1000);
  Dataset data = RandomDataset(&rng, 250);
  for (int trial = 0; trial < 3; ++trial) {
    Predicate pred = RandomPredicate(&rng);
    std::string sql = "select a, x from t where " + pred.sql;
    auto compiled = sql::Compiler::CompileSql(&data.catalog, sql);
    ASSERT_TRUE(compiled.ok()) << sql << ": " << compiled.status().ToString();
    mal::Program baseline = compiled.value();  // kept unoptimized
    mal::Program optimized = compiled.value();

    optimizer::Pipeline pipeline;
    std::vector<std::unique_ptr<optimizer::Pass>> pool;
    pool.push_back(optimizer::MakeConstantFoldingPass());
    pool.push_back(optimizer::MakeCommonSubexpressionPass());
    pool.push_back(optimizer::MakeDeadCodePass());
    pool.push_back(
        optimizer::MakeMitosisPass(2 + static_cast<int>(rng.NextBounded(4))));
    pool.push_back(optimizer::MakeDataflowMarkerPass());
    pool.push_back(optimizer::MakeAdminPrunePass());
    // Random order: Fisher-Yates over the pool, then a random subset.
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.NextBounded(i)]);
    }
    std::string pass_names;
    for (auto& pass : pool) {
      if (!rng.NextBool(0.7)) continue;
      pass_names += std::string(pass->name()) + " ";
      pipeline.Add(std::move(pass));
    }

    analysis::PlanSummary before = analysis::SummarizeObservable(optimized);
    auto fired = pipeline.Run(&optimized);
    ASSERT_TRUE(fired.ok())
        << sql << " [" << pass_names << "]: " << fired.status().ToString();
    analysis::PlanSummary after = analysis::SummarizeObservable(optimized);
    Status equivalent =
        analysis::CheckSummaryEquivalence(before, after, "random pipeline");
    EXPECT_TRUE(equivalent.ok())
        << sql << " [" << pass_names << "]: " << equivalent.ToString();

    engine::Interpreter interp(&data.catalog);
    engine::ExecOptions opts;
    opts.num_threads = 3;
    auto r0 = interp.Execute(baseline, opts);
    auto r1 = interp.Execute(optimized, opts);
    ASSERT_TRUE(r0.ok()) << sql << ": " << r0.status().ToString();
    ASSERT_TRUE(r1.ok())
        << sql << " [" << pass_names << "]: " << r1.status().ToString();
    const auto& c0 = r0.value().columns;
    const auto& c1 = r1.value().columns;
    ASSERT_EQ(c0.size(), c1.size()) << sql << " [" << pass_names << "]";
    ASSERT_EQ(c0.size(), 2u);
    ASSERT_EQ(c0[0].column->size(), c1[0].column->size())
        << sql << " [" << pass_names << "]";
    for (size_t i = 0; i < c0[0].column->size(); ++i) {
      EXPECT_EQ(c0[0].column->IntAt(i), c1[0].column->IntAt(i))
          << sql << " [" << pass_names << "] row " << i;
      EXPECT_DOUBLE_EQ(c0[1].column->DoubleAt(i), c1[1].column->DoubleAt(i))
          << sql << " [" << pass_names << "] row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// :lng edges. The columns hold values just above ±2^53, where a double can
// no longer tell neighbouring integers apart, and near ±2^62 and ±2^63,
// where int64_t arithmetic runs out. The reference computes exact
// integers; a query that overflows anywhere must fail with an error.
// ---------------------------------------------------------------------------

constexpr int64_t kLngMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kLngMin = std::numeric_limits<int64_t>::min();

/// Rows fall in three regions, stored as `g`: ±(2^53 + 0..7),
/// ±(2^62 - 4 + 0..7), and kLngMax - 0..7 or its negation or kLngMin + 0..7.
int64_t NearEdge(SplitMix64* rng, int64_t region) {
  const int64_t offset = static_cast<int64_t>(rng->NextBounded(8));
  int64_t v;
  switch (region) {
    case 0:
      v = (int64_t{1} << 53) + offset;
      break;
    case 1:
      v = (int64_t{1} << 62) - 4 + offset;
      break;
    default:
      if (rng->NextBool(0.2)) return kLngMin + offset;
      v = kLngMax - offset;
      break;
  }
  return rng->NextBool(0.5) ? -v : v;
}

struct LngRow {
  int64_t g;
  int64_t a;
  int64_t b;
};

struct LngDataset {
  Catalog catalog;
  std::vector<LngRow> rows;
};

LngDataset RandomLngDataset(SplitMix64* rng, size_t n) {
  LngDataset out;
  TablePtr t = Table::Make("t", Schema({{"g", DataType::kInt64},
                                        {"a", DataType::kInt64},
                                        {"b", DataType::kInt64}}));
  for (size_t i = 0; i < n; ++i) {
    LngRow row;
    row.g = static_cast<int64_t>(rng->NextBounded(3));
    row.a = NearEdge(rng, row.g);
    row.b = NearEdge(rng, row.g);
    out.rows.push_back(row);
    EXPECT_TRUE(t->AppendRow({Value::Int(row.g), Value::Int(row.a),
                              Value::Int(row.b)})
                    .ok());
  }
  EXPECT_TRUE(out.catalog.AddTable(t).ok());
  return out;
}

/// Exact x op y; nullopt when the result leaves int64_t.
std::optional<int64_t> ExactArith(char op, int64_t x, int64_t y) {
  int64_t v = 0;
  bool overflow = op == '+'   ? __builtin_add_overflow(x, y, &v)
                  : op == '-' ? __builtin_sub_overflow(x, y, &v)
                              : __builtin_mul_overflow(x, y, &v);
  if (overflow) return std::nullopt;
  return v;
}

bool ExactCompare(const std::string& op, int64_t x, int64_t y) {
  if (op == "=") return x == y;
  if (op == "<>") return x != y;
  if (op == "<") return x < y;
  if (op == "<=") return x <= y;
  if (op == ">") return x > y;
  return x >= y;
}

/// A literal the SQL parser reads back as `v` (v != kLngMin).
std::string LngLiteral(int64_t v) {
  return StrFormat("(%lld)", static_cast<long long>(v));
}

/// Value of a result cell: a scalar result or row `row` of a column.
Value Cell(const engine::ResultColumn& column, size_t row) {
  return column.is_scalar ? column.scalar : column.column->GetValue(row);
}

/// Expected result: an overflow error, or these rows of :lng values
/// (nullopt = NULL).
struct LngExpectation {
  bool overflow = false;
  std::vector<std::vector<std::optional<int64_t>>> rows;
};

/// Runs `sql` and holds it to `expected`; returns false on a mismatch.
bool CheckLngQuery(Catalog* catalog, const std::string& sql, int mitosis,
                   const LngExpectation& expected) {
  auto r = RunSql(catalog, sql, mitosis);
  if (expected.overflow) {
    EXPECT_FALSE(r.ok()) << sql << ": expected an overflow error";
    if (r.ok()) return false;
    EXPECT_NE(r.status().message().find("overflow"), std::string::npos)
        << sql << ": " << r.status().ToString();
    return r.status().message().find("overflow") != std::string::npos;
  }
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok()) return false;
  const auto& cols = r.value().columns;
  bool same = true;
  for (size_t row = 0; row < expected.rows.size() && same; ++row) {
    const auto& want = expected.rows[row];
    if (cols.size() != want.size()) same = false;
    for (size_t c = 0; c < want.size() && same; ++c) {
      if (!cols[c].is_scalar && cols[c].column->size() != expected.rows.size()) {
        same = false;
        break;
      }
      const Value got = Cell(cols[c], row);
      same = want[c].has_value()
                 ? got.type() == DataType::kInt64 && got.AsInt() == *want[c]
                 : got.is_null();
    }
  }
  if (expected.rows.empty() && !cols.empty() && !cols[0].is_scalar) {
    same = cols[0].column->size() == 0;
  }
  EXPECT_TRUE(same) << sql;
  return same;
}

/// Exact sum/min/max over `values`. The sum is taken in __int128, so it
/// overflows only when its total leaves int64_t, whatever the row order.
std::vector<std::optional<int64_t>> ExactAggregates(
    const std::vector<int64_t>& values, bool* overflow) {
  if (values.empty()) return {std::nullopt, std::nullopt, std::nullopt};
  __int128 sum = 0;
  int64_t mn = values[0];
  int64_t mx = values[0];
  for (int64_t v : values) {
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  if (sum < kLngMin || sum > kLngMax) *overflow = true;
  return {static_cast<int64_t>(sum), mn, mx};
}

/// avg over `values` as the engine must compute it: the exact sum divided
/// by the row count, which never fails.
double ExactAvg(const std::vector<int64_t>& values) {
  __int128 sum = 0;
  for (int64_t v : values) sum += v;
  return static_cast<double>(sum) / static_cast<double>(values.size());
}

/// Runs `sql`, whose last column is an avg, and holds that column to
/// `expected` row by row; returns false on a mismatch.
bool CheckAvgQuery(Catalog* catalog, const std::string& sql, int mitosis,
                   const std::vector<double>& expected) {
  auto r = RunSql(catalog, sql, mitosis);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok()) return false;
  const engine::ResultColumn& avg = r.value().columns.back();
  bool same = avg.is_scalar ? expected.size() == 1
                            : avg.column->size() == expected.size();
  for (size_t row = 0; row < expected.size() && same; ++row) {
    const Value got = Cell(avg, row);
    same = got.type() == DataType::kDouble && got.AsDouble() == expected[row];
  }
  EXPECT_TRUE(same) << sql;
  return same;
}

TEST_P(SqlOracleTest, LngEdgesAreExact) {
  SplitMix64 rng(GetParam() + 2000);
  LngDataset data = RandomLngDataset(&rng, 36);
  const char kArith[] = {'+', '-', '*'};
  const char* kCompare[] = {"=", "<>", "<", "<=", ">", ">="};
  int cases = 0;
  int failed = 0;
  auto check = [&](const std::string& sql, const LngExpectation& expected) {
    for (int mitosis : {0, 4}) {
      ++cases;
      if (!CheckLngQuery(&data.catalog, sql, mitosis, expected)) ++failed;
    }
  };
  for (int trial = 0; trial < 6; ++trial) {
    const int64_t region = static_cast<int64_t>(rng.NextBounded(3));
    const char op = kArith[rng.NextBounded(3)];
    const std::string cmp = kCompare[rng.NextBounded(6)];
    int64_t k = NearEdge(&rng, static_cast<int64_t>(rng.NextBounded(3)));
    if (k == kLngMin) k = kLngMax;

    // Arithmetic, column with column and column with a literal.
    LngExpectation by_column;
    LngExpectation by_literal;
    for (const LngRow& row : data.rows) {
      if (row.g != region) continue;
      auto v = ExactArith(op, row.a, row.b);
      by_column.overflow |= !v.has_value();
      by_column.rows.push_back({v});
      auto w = ExactArith(op, row.a, k);
      by_literal.overflow |= !w.has_value();
      by_literal.rows.push_back({w});
    }
    const std::string where = StrFormat(" from t where g = %lld",
                                        static_cast<long long>(region));
    check(StrFormat("select a %c b", op) + where, by_column);
    check(StrFormat("select a %c ", op) + LngLiteral(k) + where, by_literal);

    // Comparisons: a residual column-with-column predicate and a pushed-
    // down comparison with a literal.
    LngExpectation pairs;
    LngExpectation against_literal;
    for (const LngRow& row : data.rows) {
      if (ExactCompare(cmp, row.a, row.b)) pairs.rows.push_back({row.a, row.b});
      if (ExactCompare(cmp, row.a, k)) against_literal.rows.push_back({row.a});
    }
    check("select a, b from t where a " + cmp + " b", pairs);
    check("select a from t where a " + cmp + " " + LngLiteral(k),
          against_literal);

    // sum/min/max over rows of one sign, then over both signs, scalar and
    // grouped. A mixed-sign sum can leave int64_t part way and come back;
    // only its total decides.
    const std::string one_sign = rng.NextBool(0.5) ? "a > 0" : "a < 0";
    for (const std::string& sign : {one_sign, std::string("a <> 0")}) {
      LngExpectation scalar;
      LngExpectation grouped;
      std::map<int64_t, std::vector<int64_t>> by_group;
      for (const LngRow& row : data.rows) {
        if ((sign == "a > 0" && row.a < 0) || (sign == "a < 0" && row.a > 0)) {
          continue;
        }
        by_group[row.g].push_back(row.a);
      }
      scalar.rows.push_back(ExactAggregates(by_group[region], &scalar.overflow));
      std::vector<double> avgs;
      for (const auto& [g, values] : by_group) {
        if (values.empty()) continue;
        auto aggs = ExactAggregates(values, &grouped.overflow);
        aggs.insert(aggs.begin(), g);
        grouped.rows.push_back(aggs);
        avgs.push_back(ExactAvg(values));
      }
      check("select sum(a), min(a), max(a)" + where + " and " + sign, scalar);
      check("select g, sum(a), min(a), max(a) from t where " + sign +
                " group by g order by g",
            grouped);
      if (sign != "a <> 0") continue;
      for (int mitosis : {0, 4}) {
        if (!by_group[region].empty()) {
          ++cases;
          if (!CheckAvgQuery(&data.catalog,
                             "select avg(a)" + where + " and " + sign, mitosis,
                             {ExactAvg(by_group[region])})) {
            ++failed;
          }
        }
        ++cases;
        if (!CheckAvgQuery(&data.catalog,
                           "select g, avg(a) from t where " + sign +
                               " group by g order by g",
                           mitosis, avgs)) {
          ++failed;
        }
      }
    }
  }
  RecordProperty("lng_cases", cases);
  RecordProperty("lng_failed", failed);
}

TEST(LngAggregateTest, SumAndAvgDependOnlyOnTheTotal) {
  // Some orders of these rows pass through a partial sum outside int64_t,
  // others do not; the total is 1 either way.
  std::vector<int64_t> rows = {-kLngMax, 1, kLngMax};
  do {
    Catalog catalog;
    TablePtr t = Table::Make("t", Schema({{"g", DataType::kInt64},
                                          {"a", DataType::kInt64},
                                          {"b", DataType::kInt64}}));
    for (int64_t a : rows) {
      ASSERT_TRUE(
          t->AppendRow({Value::Int(0), Value::Int(a), Value::Int(0)}).ok());
    }
    ASSERT_TRUE(catalog.AddTable(t).ok());
    for (int mitosis : {0, 2}) {
      LngExpectation sum;
      sum.rows.push_back({1});
      EXPECT_TRUE(CheckLngQuery(&catalog, "select sum(a) from t",
                                mitosis, sum));
      LngExpectation grouped;
      grouped.rows.push_back({0, 1});
      EXPECT_TRUE(CheckLngQuery(&catalog,
                                "select g, sum(a) from t group by g", mitosis,
                                grouped));
      EXPECT_TRUE(CheckAvgQuery(&catalog, "select avg(a) from t", mitosis,
                                {1.0 / 3.0}));
    }
  } while (std::next_permutation(rows.begin(), rows.end()));
}

TEST(LngAggregateTest, AvgOfAnOverflowingSumStillAnswers) {
  Catalog catalog;
  TablePtr t = Table::Make("t", Schema({{"g", DataType::kInt64},
                                        {"a", DataType::kInt64}}));
  for (int g : {0, 0, 1}) {
    ASSERT_TRUE(t->AppendRow({Value::Int(g), Value::Int(kLngMax)}).ok());
  }
  ASSERT_TRUE(catalog.AddTable(t).ok());
  const double max = static_cast<double>(kLngMax);
  for (int mitosis : {0, 2}) {
    LngExpectation overflow;
    overflow.overflow = true;
    EXPECT_TRUE(
        CheckLngQuery(&catalog, "select sum(a) from t", mitosis, overflow));
    EXPECT_TRUE(CheckAvgQuery(&catalog, "select avg(a) from t", mitosis, {max}));
    EXPECT_TRUE(CheckAvgQuery(&catalog,
                              "select g, avg(a) from t group by g order by g",
                              mitosis, {max, max}));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlOracleTest,
                         ::testing::Values(7, 17, 27, 37, 47, 57));

}  // namespace
}  // namespace stetho
