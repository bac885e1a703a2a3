#ifndef STETHO_ENGINE_INTERPRETER_H_
#define STETHO_ENGINE_INTERPRETER_H_

#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "engine/kernel.h"
#include "engine/prepared_plan.h"
#include "mal/program.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "profiler/profiler.h"
#include "storage/table.h"

namespace stetho::engine {

class WorkerPool;

/// Observer of per-instruction completion, fed by the interpreter from both
/// the dataflow and the sequential execution paths. Implementations must be
/// thread-safe (dataflow workers call concurrently) and cheap — the call
/// reuses the clock reads RunInstruction already pays for its stats, so a
/// listener adds no timing overhead of its own. The live consumer is
/// analysis::ProgressEstimator (the server's per-query progress scoreboard).
class ProgressListener {
 public:
  virtual ~ProgressListener() = default;
  /// `pc` finished after `usec` microseconds, at clock time `now_us`.
  virtual void OnInstructionDone(int pc, int64_t usec, int64_t now_us) = 0;
};

/// Execution configuration for one query.
struct ExecOptions {
  /// Degree of parallelism: at most this many instructions of the query are
  /// in flight on the worker pool at once; 0 = DefaultDop().
  int num_threads = 0;
  /// Worker pool executing dataflow tasks; nullptr = the lazily-started
  /// process-wide WorkerPool::Default(), shared by all concurrent queries.
  WorkerPool* pool = nullptr;
  /// When false, instructions run sequentially in plan order on one thread —
  /// the "sequential execution where multithreading was expected" anomaly the
  /// paper's demo uncovers is produced exactly this way.
  bool use_dataflow = true;
  /// Optional MAL profiler receiving start/done events.
  profiler::Profiler* profiler = nullptr;
  /// Time source; nullptr = the process steady clock.
  Clock* clock = nullptr;
  /// Synthetic per-instruction padding (µs), for deterministic trace tests.
  int64_t pad_instruction_usec = 0;
  /// Span tracer receiving one "kernel" span per executed instruction
  /// (thread-tagged with the query-local slot, so exported traces keep the
  /// profiler's thread contract); nullptr = obs::Tracer::Default(). Spans
  /// are recorded only while the tracer is enabled.
  obs::Tracer* tracer = nullptr;
  /// Flight recorder dumped when the query aborts with an error;
  /// nullptr = obs::FlightRecorder::Default(). No-op while disabled.
  obs::FlightRecorder* recorder = nullptr;
  /// Optional per-instruction completion observer (live progress/ETA);
  /// nullptr = none. Must outlive Execute().
  ProgressListener* progress = nullptr;
};

/// Post-mortem per-instruction record kept by the interpreter (independent
/// of the profiler, which may be filtered or absent).
struct InstructionStat {
  int pc = 0;
  /// Logical thread id in [0, num_threads): the query-local admission slot
  /// under dataflow execution (pool workers are shared across queries), or
  /// 0 on the sequential path. Also stamped on trace events.
  int thread = 0;
  int64_t start_us = 0;       ///< clock time at instruction start
  int64_t usec = 0;           ///< elapsed microseconds
  int64_t rss_after_bytes = 0;  ///< engine live bytes after completion
};

/// The outcome of executing a MAL program.
struct QueryResult {
  std::vector<ResultColumn> columns;       ///< sql.resultSet / io.print output
  std::vector<InstructionStat> stats;      ///< indexed by pc
  int64_t total_usec = 0;
  /// Peak engine live-column memory observed during execution.
  int64_t peak_rss_bytes = 0;
};

/// The MAL interpreter: executes a Program against a Catalog, scheduling
/// independent instructions across a worker pool (MonetDB's dataflow
/// execution). Stateless and const — one Interpreter may serve concurrent
/// queries.
class Interpreter {
 public:
  explicit Interpreter(storage::Catalog* catalog,
                       const ModuleRegistry* registry = ModuleRegistry::Default())
      : catalog_(catalog), registry_(registry) {}

  /// Runs a prepared plan to completion (or first error); a plan failing
  /// Program::Validate() is refused. The kernels are the ones resolved when
  /// the plan was prepared.
  Result<QueryResult> Execute(const PreparedPlan& plan,
                              const ExecOptions& options) const;
  /// Prepares `program` against this interpreter's registry, then runs it.
  Result<QueryResult> Execute(const mal::Program& program,
                              const ExecOptions& options) const;

  storage::Catalog* catalog() const { return catalog_; }

 private:
  Result<QueryResult> ExecuteInternal(const PreparedPlan& plan,
                                      const ExecOptions& options) const;

  storage::Catalog* catalog_;
  const ModuleRegistry* registry_;
};

}  // namespace stetho::engine

#endif  // STETHO_ENGINE_INTERPRETER_H_
