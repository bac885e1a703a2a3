// Experiment F1 (paper Fig. 1): the MAL plan for
//   select l_tax from lineitem where l_partkey = 1
// Regenerates the figure (printed below) and measures every stage of plan
// production: SQL parse, MAL code generation, optimization, execution.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/interpreter.h"
#include "mal/parser.h"
#include "optimizer/pass.h"
#include "sql/compiler.h"
#include "sql/parser.h"

namespace {

using namespace stetho;

const char* kPaperSql = "select l_tax from lineitem where l_partkey = 1";

void BM_ParseSql(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = sql::ParseSelect(kPaperSql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseSql);

void BM_CompileToMal(benchmark::State& state) {
  storage::Catalog& catalog = bench::SharedCatalog();
  for (auto _ : state) {
    auto program = sql::Compiler::CompileSql(&catalog, kPaperSql);
    benchmark::DoNotOptimize(program);
  }
  auto program = sql::Compiler::CompileSql(&catalog, kPaperSql);
  state.counters["plan_instructions"] =
      static_cast<double>(program.value().size());
}
BENCHMARK(BM_CompileToMal);

void BM_OptimizePlan(benchmark::State& state) {
  storage::Catalog& catalog = bench::SharedCatalog();
  auto base = sql::Compiler::CompileSql(&catalog, kPaperSql);
  optimizer::Pipeline pipeline =
      optimizer::Pipeline::Default(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    mal::Program copy = base.value();
    auto fired = pipeline.Run(&copy);
    benchmark::DoNotOptimize(fired);
  }
  mal::Program copy = base.value();
  (void)pipeline.Run(&copy);
  state.counters["optimized_instructions"] = static_cast<double>(copy.size());
}
BENCHMARK(BM_OptimizePlan)->Arg(0)->Arg(4)->Arg(16)->Arg(128);

void BM_ExecutePaperQuery(benchmark::State& state) {
  server::MserverOptions options;
  options.dop = static_cast<int>(state.range(0));
  options.mitosis_pieces = options.dop;
  auto server = bench::MakeServer(options);
  for (auto _ : state) {
    auto outcome = server->ExecuteSql(kPaperSql);
    if (!outcome.ok()) state.SkipWithError(outcome.status().ToString().c_str());
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ExecutePaperQuery)->Arg(1)->Arg(4);

void BM_PlanListingRoundTrip(benchmark::State& state) {
  storage::Catalog& catalog = bench::SharedCatalog();
  auto program = sql::Compiler::CompileSql(&catalog, kPaperSql);
  for (auto _ : state) {
    std::string text = program.value().ToString();
    auto parsed = mal::ParseProgram(text);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_PlanListingRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  // Regenerate the figure itself.
  using namespace stetho;
  auto server = bench::MakeServer();
  auto outcome = server->ExecuteSql(kPaperSql);
  if (outcome.ok()) {
    std::printf("=== Fig. 1: MAL plan for \"%s\" ===\n%s\n", kPaperSql,
                outcome.value().plan->program().ToString().c_str());
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
