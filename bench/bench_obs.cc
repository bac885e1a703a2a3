// Experiment OBS (self-observability overhead): the platform that inspects
// query execution must withstand its own stethoscope. Measures the C4
// workload (TPC-H q1, mitosis-partitioned, dataflow execution) with
// observability fully off (the shipped default), with metrics enabled, and
// with metrics + span tracing + flight recorder enabled — the acceptance
// bar is <=3% slowdown fully enabled and no measurable change disabled.
// Micro-benchmarks pin down the per-operation costs behind those ratios.

#include <benchmark/benchmark.h>

#include "analysis/perfdiff.h"
#include "analysis/progress.h"
#include "bench_util.h"
#include "net/pipe_health.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile_store.h"
#include "obs/span.h"
#include "profiler/event.h"

namespace {

using namespace stetho;

/// Everything off (kill switch at its default): the baseline the other
/// configurations are compared against.
void BM_QueryObsOff(benchmark::State& state) {
  obs::SetEnabled(false);
  server::MserverOptions options;
  options.dop = static_cast<int>(state.range(0));
  options.mitosis_pieces = 16;
  auto server = bench::MakeServer(options, /*scale_factor=*/0.02);
  const std::string sql = tpch::GetQuery("q1").value().sql;
  for (auto _ : state) {
    auto outcome = server->ExecuteSql(sql);
    if (!outcome.ok()) {
      state.SkipWithError(outcome.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["dop"] = static_cast<double>(options.dop);
}
BENCHMARK(BM_QueryObsOff)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Metrics only: kernel-family counters/histograms, pool task latency,
/// per-pass timing — the clock-reading paths the kill switch gates.
void BM_QueryObsMetrics(benchmark::State& state) {
  obs::SetEnabled(true);
  server::MserverOptions options;
  options.dop = static_cast<int>(state.range(0));
  options.mitosis_pieces = 16;
  auto server = bench::MakeServer(options, /*scale_factor=*/0.02);
  const std::string sql = tpch::GetQuery("q1").value().sql;
  for (auto _ : state) {
    auto outcome = server->ExecuteSql(sql);
    if (!outcome.ok()) {
      state.SkipWithError(outcome.status().ToString().c_str());
      obs::SetEnabled(false);
      return;
    }
    benchmark::DoNotOptimize(outcome);
  }
  obs::SetEnabled(false);
  state.counters["dop"] = static_cast<double>(options.dop);
}
BENCHMARK(BM_QueryObsMetrics)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The full stethoscope turned on itself: metrics + phase/pass/kernel spans
/// + flight recorder armed. The tracer ring is cleared per iteration so
/// span accumulation does not distort later iterations.
void BM_QueryObsFullTrace(benchmark::State& state) {
  obs::SetEnabled(true);
  obs::Tracer::Default()->SetEnabled(true);
  obs::FlightRecorder::Default()->SetEnabled(true);
  server::MserverOptions options;
  options.dop = static_cast<int>(state.range(0));
  options.mitosis_pieces = 16;
  auto server = bench::MakeServer(options, /*scale_factor=*/0.02);
  const std::string sql = tpch::GetQuery("q1").value().sql;
  int64_t spans = 0;
  for (auto _ : state) {
    obs::Tracer::Default()->Clear();
    auto outcome = server->ExecuteSql(sql);
    if (!outcome.ok()) {
      state.SkipWithError(outcome.status().ToString().c_str());
      break;
    }
    spans = static_cast<int64_t>(obs::Tracer::Default()->size());
    benchmark::DoNotOptimize(outcome);
  }
  obs::FlightRecorder::Default()->SetEnabled(false);
  obs::Tracer::Default()->SetEnabled(false);
  obs::Tracer::Default()->Clear();
  obs::SetEnabled(false);
  state.counters["dop"] = static_cast<double>(options.dop);
  state.counters["spans_per_query"] = static_cast<double>(spans);
}
BENCHMARK(BM_QueryObsFullTrace)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Micro costs behind the ratios above ----------------------------------

void BM_CounterIncrement(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter* counter = registry.GetOrCreateCounter("bench_total", "b");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_CounterIncrement);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram* hist = registry.GetOrCreateHistogram(
      "bench_usec", "b", obs::Histogram::DefaultLatencyBounds());
  int64_t v = 0;
  for (auto _ : state) {
    hist->Observe(v++ & 1023);
  }
  benchmark::DoNotOptimize(hist->count());
}
BENCHMARK(BM_HistogramObserve);

/// The cost every instrumented site pays when the platform ships with
/// observability off: one null/enabled check, nothing else.
void BM_SpanDisabled(benchmark::State& state) {
  obs::Tracer tracer;  // disabled
  for (auto _ : state) {
    obs::Span span(&tracer, "parse", "phase");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  for (auto _ : state) {
    obs::Span span(&tracer, "parse", "phase");
    benchmark::DoNotOptimize(&span);
  }
  benchmark::DoNotOptimize(tracer.total_recorded());
}
BENCHMARK(BM_SpanEnabled);

/// Steady-state metric resolution (the map hit instrumented code takes once
/// per query, not per instruction).
void BM_RegistryGetOrCreateHit(benchmark::State& state) {
  obs::Registry registry;
  registry.GetOrCreateCounter("bench_hit_total", "b");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.GetOrCreateCounter("bench_hit_total", "b"));
  }
}
BENCHMARK(BM_RegistryGetOrCreateHit);

// --- Pipeline-health accounting (the telemetry receive path) --------------

/// The common case the listener thread pays per trace line: in-order
/// delivery, no clock read (obs off), one mutex + integer bookkeeping.
void BM_StreamHealthObserveInOrder(benchmark::State& state) {
  net::StreamHealth health;
  profiler::TraceEvent e;
  e.state = profiler::EventState::kDone;
  int64_t seq = 0;
  for (auto _ : state) {
    e.event = seq;
    e.time_us = seq++;
    health.Observe(e, /*ingest_us=*/-1);
  }
  benchmark::DoNotOptimize(health.Snapshot().observed);
}
BENCHMARK(BM_StreamHealthObserveInOrder);

/// A steadily lossy wire: every 16th sequence number never arrives, so the
/// pending-gap set churns (insert, age past the reorder window, settle
/// into lost) — the accountant's worst sustained case.
void BM_StreamHealthObserveLossy(benchmark::State& state) {
  net::StreamHealth health;
  profiler::TraceEvent e;
  e.state = profiler::EventState::kDone;
  int64_t seq = 0;
  for (auto _ : state) {
    if ((seq & 15) == 0) ++seq;  // the hole
    e.event = seq;
    e.time_us = seq++;
    health.Observe(e, /*ingest_us=*/-1);
  }
  benchmark::DoNotOptimize(health.Snapshot().lost);
}
BENCHMARK(BM_StreamHealthObserveLossy);

// --- Progress estimation --------------------------------------------------

/// One absint + liveness sweep plus the critical-path DP — the cost
/// ProgressModelCache amortizes to once per plan shape.
void BM_ProgressModelBuild(benchmark::State& state) {
  server::MserverOptions options;
  options.mitosis_pieces = 16;
  auto server = bench::MakeServer(options, /*scale_factor=*/0.02);
  auto plan = server->Explain(tpch::GetQuery("q1").value().sql);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  const engine::PreparedPlan prepared(plan.value());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::ProgressModel::Build(prepared));
  }
  state.counters["plan_size"] = static_cast<double>(plan.value().size());
}
BENCHMARK(BM_ProgressModelBuild);

/// Full per-query accounting: a fresh estimator fed one done-event per
/// instruction (the interpreter hook's steady cost, including the gauge
/// publish). Items = instructions.
void BM_ProgressEstimatorQuery(benchmark::State& state) {
  server::MserverOptions options;
  options.mitosis_pieces = 16;
  auto server = bench::MakeServer(options, /*scale_factor=*/0.02);
  auto plan = server->Explain(tpch::GetQuery("q1").value().sql);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  auto model =
      analysis::ProgressModel::Build(engine::PreparedPlan(plan.value()));
  for (auto _ : state) {
    analysis::ProgressEstimator estimator(model);
    int64_t now = 0;
    for (size_t pc = 0; pc < model->plan_size(); ++pc) {
      estimator.OnInstructionDone(static_cast<int>(pc), 5, now += 10);
    }
    benchmark::DoNotOptimize(estimator.ratio());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(model->plan_size()));
}
BENCHMARK(BM_ProgressEstimatorQuery);

/// The ETA query at mid-flight: remaining-critical-path DP over the plan,
/// what every scoreboard line and --watch round pays.
void BM_ProgressEtaHalfway(benchmark::State& state) {
  server::MserverOptions options;
  options.mitosis_pieces = 16;
  auto server = bench::MakeServer(options, /*scale_factor=*/0.02);
  auto plan = server->Explain(tpch::GetQuery("q1").value().sql);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  auto model =
      analysis::ProgressModel::Build(engine::PreparedPlan(plan.value()));
  analysis::ProgressEstimator estimator(model);
  int64_t now = 0;
  for (size_t pc = 0; pc < model->plan_size() / 2; ++pc) {
    estimator.OnInstructionDone(static_cast<int>(pc), 5, now += 10);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.EtaUsec());
  }
}
BENCHMARK(BM_ProgressEtaHalfway);

/// A C4-sized observation for the profile-store micro benches (194-pc
/// plan shape, deterministic synthetic durations).
obs::QueryObservation MakeObservation(uint64_t shape_hash) {
  obs::QueryObservation observation;
  observation.shape_hash = shape_hash;
  observation.plan_size = 194;
  observation.total_usec = 20000;
  for (int pc = 0; pc < 194; ++pc) {
    obs::PcSample sample;
    sample.pc = pc;
    sample.usec = 5 + (pc % 7) * 100;
    sample.bytes = int64_t{1} << (pc % 20);
    sample.concurrency = 1 + pc % 4;
    observation.pcs.push_back(sample);
  }
  return observation;
}

/// Folding one completed query into the store — the per-query cost the
/// server pays after MarkFinished (in-memory store; the journal append is
/// I/O-bound and measured by the end-to-end configurations above).
void BM_ProfileFold(benchmark::State& state) {
  obs::ProfileStore store;
  obs::QueryObservation observation = MakeObservation(0x9e3779b97f4a7c15ULL);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Fold(observation));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(observation.pcs.size()));
}
BENCHMARK(BM_ProfileFold);

/// Baseline lookup — the per-round cost of the online monitor's straggler
/// sweep and the slow-query gate (deep-copy snapshot of a 194-pc profile).
void BM_ProfileLookup(benchmark::State& state) {
  obs::ProfileStore store;
  obs::QueryObservation observation = MakeObservation(0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < 8; ++i) (void)store.Fold(observation);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Lookup(observation.shape_hash));
  }
}
BENCHMARK(BM_ProfileLookup);

}  // namespace

BENCHMARK_MAIN();
