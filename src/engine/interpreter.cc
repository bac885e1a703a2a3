#include "engine/interpreter.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/prepared_plan.h"
#include "engine/worker_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace stetho::engine {
namespace {

/// All mutable state shared by the dataflow tasks of one query execution —
/// the per-query "epoch" the shared WorkerPool knows nothing about. Execute
/// owns it on the stack and blocks until the job signals done, so tasks may
/// hold raw pointers; a task is only ever submitted after being counted in
/// `in_flight`, which the done predicate drains to zero first.
struct RunState {
  const PreparedPlan* plan = nullptr;
  ExecContext* ctx = nullptr;
  const ExecOptions* options = nullptr;
  Clock* clock = nullptr;
  WorkerPool* pool = nullptr;

  std::vector<RegisterValue> registers;

  // Observability, decided once per Execute: tracer is non-null only when
  // span recording is on, and the kernel records' family metrics are fed
  // only while obs::Enabled().
  obs::Tracer* tracer = nullptr;
  bool family_metrics = false;
  std::vector<std::atomic<int>> var_consumers;  // pending readers per variable
  std::atomic<int64_t> live_bytes{0};
  std::atomic<int64_t> peak_bytes{0};
  std::vector<InstructionStat> stats;

  // Pending producers per pc (the plan's def-use index gives the edges).
  // indegree is decremented lock-free by finishing predecessors; the
  // acq_rel counter is also the fence that publishes a predecessor's
  // register writes to the dependent's executing worker.
  std::vector<std::atomic<int>> indegree;
  std::atomic<bool> abort{false};

  // Scheduler self-check: each dispatched pc's producers must have flipped
  // `completed`.
  std::vector<std::atomic<bool>> completed;

  // Admission state (guarded by job_mu): at most `dop` instructions of this
  // query are in flight on the shared pool, each carrying a "slot" — the
  // virtual thread id in [0, dop) recorded in stats and trace events, so
  // thread-utilization analysis keeps its per-query meaning on a pool whose
  // workers serve many queries.
  std::mutex job_mu;
  std::condition_variable done_cv;
  std::deque<int> ready;
  std::vector<int> free_slots;
  int dop = 1;
  int in_flight = 0;
  int unfinished = 0;
  bool done = false;
  Status error;

  RunState(size_t num_vars, size_t num_ins)
      : var_consumers(num_vars), indegree(num_ins), completed(num_ins) {}

  void AddLiveBytes(int64_t delta) {
    LiveBytesGauge()->Add(delta);
    int64_t now = live_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
    int64_t peak = peak_bytes.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_bytes.compare_exchange_weak(peak, now,
                                             std::memory_order_relaxed)) {
    }
  }
};

/// Executes one instruction as logical thread `thread_id`. Returns the
/// kernel's status; scheduling bookkeeping stays in the caller.
Status RunInstruction(RunState* state, int pc, int thread_id) {
  const PreparedPlan& plan = *state->plan;
  const mal::Instruction& ins = plan.program().instruction(pc);
  const std::string_view stmt = plan.text(pc);
  const std::span<const int> arg_regs = plan.args(pc);
  profiler::Profiler* prof = state->options->profiler;

  if (prof != nullptr) {
    prof->EmitStart(pc, thread_id, state->live_bytes.load(std::memory_order_relaxed),
                    stmt);
  }
  int64_t t0 = state->clock->NowMicros();

  const Kernel* kernel = plan.kernel(pc);
  if (kernel == nullptr) {
    return Status::NotFound("no kernel for '" + ins.FullName() + "'");
  }

  // Argument registers: the query's own, or the plan's read-only constants.
  KernelArgs args;
  args.ins = &ins;
  args.ctx = state->ctx;
  args.args.reserve(arg_regs.size());
  args.results.reserve(ins.results.size());
  for (int reg : arg_regs) {
    args.args.push_back(reg >= 0 ? &state->registers[static_cast<size_t>(reg)]
                                 : &plan.constant(reg));
  }
  for (int r : ins.results) {
    args.results.push_back(&state->registers[static_cast<size_t>(r)]);
  }

  Status st = kernel->fn(args);
  if (!st.ok()) {
    return Status(st.code(),
                  StrFormat("pc=%d %.*s: %s", pc, static_cast<int>(stmt.size()),
                            stmt.data(), st.message().c_str()));
  }

  if (state->options->pad_instruction_usec > 0) {
    state->clock->SleepMicros(state->options->pad_instruction_usec);
  }

  // Memory accounting: results enter the live set...
  int64_t result_bytes = 0;
  for (int r : ins.results) {
    result_bytes +=
        static_cast<int64_t>(state->registers[static_cast<size_t>(r)].MemoryBytes());
  }
  if (result_bytes > 0) state->AddLiveBytes(result_bytes);

  // ...and fully-consumed argument BATs leave it. The consumer counters were
  // initialized to the number of instructions reading each variable; the
  // last reader frees the register.
  for (int var : arg_regs) {
    if (var < 0) continue;  // a plan constant
    std::atomic<int>& counter = state->var_consumers[static_cast<size_t>(var)];
    if (counter.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      RegisterValue& reg = state->registers[static_cast<size_t>(var)];
      int64_t bytes = static_cast<int64_t>(reg.MemoryBytes());
      reg.bat.reset();
      if (bytes > 0) state->AddLiveBytes(-bytes);
    }
  }
  // Dead results (no consumers at all) are released immediately.
  for (int r : ins.results) {
    std::atomic<int>& counter = state->var_consumers[static_cast<size_t>(r)];
    if (counter.load(std::memory_order_acquire) == 0) {
      RegisterValue& reg = state->registers[static_cast<size_t>(r)];
      int64_t bytes = static_cast<int64_t>(reg.MemoryBytes());
      reg.bat.reset();
      if (bytes > 0) state->AddLiveBytes(-bytes);
    }
  }

  int64_t t1 = state->clock->NowMicros();
  InstructionStat& stat = state->stats[static_cast<size_t>(pc)];
  stat.pc = pc;
  stat.thread = thread_id;
  stat.start_us = t0;
  stat.usec = t1 - t0;
  stat.rss_after_bytes = state->live_bytes.load(std::memory_order_relaxed);

  if (prof != nullptr) {
    prof->EmitDone(pc, thread_id, t1 - t0, stat.rss_after_bytes, stmt);
  }
  if (state->options->progress != nullptr) {
    state->options->progress->OnInstructionDone(pc, t1 - t0, t1);
  }

  // Kernel-family metrics and the kernel span both reuse t0/t1 — tracing an
  // instruction adds no clock read beyond what the stats above already paid.
  if (state->family_metrics) {
    kernel->calls->Increment();
    kernel->usec->Observe(t1 - t0);
  }
  if (state->tracer != nullptr) {
    state->tracer->RecordComplete(kernel->name, "kernel", thread_id, pc, t0,
                                  t1 - t0);
  }
  return Status::OK();
}

void RunDataflowTask(RunState* state, int pc, int slot);

/// Admits ready instructions to the pool while slots are free. job_mu held.
void PumpLocked(RunState* state) {
  while (!state->abort.load(std::memory_order_relaxed) &&
         state->in_flight < state->dop && !state->ready.empty()) {
    int pc = state->ready.front();
    state->ready.pop_front();
    int slot = state->free_slots.back();
    state->free_slots.pop_back();
    ++state->in_flight;
    state->pool->Submit([state, pc, slot] { RunDataflowTask(state, pc, slot); });
  }
}

/// One pool task: run the instruction, unlock dependents, admit more work,
/// and signal completion. On abort the instruction is skipped but its
/// in-flight/unfinished accounting is still drained, so a kernel failing
/// mid-flight with queued dependents can never leave Execute hanging.
void RunDataflowTask(RunState* state, int pc, int slot) {
  Status st;
  // Scheduler self-check, on in every dataflow run: a dispatched task's
  // producers must all have completed. It is the live twin of the post-hoc
  // `trace-dependency-violation` lint and costs one acquire load per
  // dependency edge and one release store per task. A violation is a
  // scheduler bug (dispatch past an unfinished dependency), so record it,
  // dump the flight recorder for context, and abort the query instead of
  // reading a half-built register.
  for (int q : state->plan->deps().producers(pc)) {
    if (state->completed[static_cast<size_t>(q)].load(
            std::memory_order_acquire)) {
      continue;
    }
    SelfcheckViolations()->Increment();
    std::string what = StrFormat(
        "sched-selfcheck: pc=%d dispatched before producer pc=%d "
        "completed", pc, q);
    obs::FlightRecorder* recorder = obs::FlightRecorder::Default();
    recorder->Note(what);
    recorder->Dump("sched-selfcheck violation");
    st = Status::Internal(what);
    break;
  }
  if (st.ok() && !state->abort.load(std::memory_order_acquire)) {
    st = RunInstruction(state, pc, slot);
    if (st.ok()) {
      state->completed[static_cast<size_t>(pc)].store(
          true, std::memory_order_release);
    }
  }

  // Unlock dependents outside the job lock. The acq_rel decrement chains
  // every predecessor's writes into the dependent's task.
  std::vector<int> newly_ready;
  if (st.ok() && !state->abort.load(std::memory_order_acquire)) {
    for (int dep : state->plan->deps().consumers(pc)) {
      if (state->indegree[static_cast<size_t>(dep)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        newly_ready.push_back(dep);
      }
    }
  }

  std::lock_guard<std::mutex> lock(state->job_mu);
  --state->in_flight;
  --state->unfinished;
  state->free_slots.push_back(slot);
  if (!st.ok()) {
    if (state->error.ok()) state->error = st;
    state->abort.store(true, std::memory_order_release);
  }
  for (int dep : newly_ready) state->ready.push_back(dep);
  PumpLocked(state);
  bool finished = state->abort.load(std::memory_order_relaxed)
                      ? state->in_flight == 0
                      : state->unfinished == 0 ||
                            (state->in_flight == 0 && state->ready.empty());
  if (finished) {
    state->done = true;
    // Notify while holding job_mu: the waiting Execute cannot destroy the
    // RunState before this task releases the lock.
    state->done_cv.notify_all();
  }
}

/// Passes `result` through, dumping the flight recorder when the query
/// aborted with an error.
Result<QueryResult> RecordAbort(Result<QueryResult> result,
                                const ExecOptions& options) {
  if (!result.ok()) {
    obs::FlightRecorder* recorder = options.recorder != nullptr
                                        ? options.recorder
                                        : obs::FlightRecorder::Default();
    if (recorder->enabled()) {
      std::string reason = "query aborted: " + result.status().ToString();
      recorder->Note(reason);
      recorder->Dump(reason);
    }
  }
  return result;
}

}  // namespace

Result<QueryResult> Interpreter::Execute(const mal::Program& program,
                                         const ExecOptions& options) const {
  // Preparing renders every statement, which needs in-range variable ids.
  Status valid = program.Validate();
  if (!valid.ok()) return RecordAbort(valid, options);
  return Execute(PreparedPlan(program, registry_), options);
}

Result<QueryResult> Interpreter::Execute(const PreparedPlan& plan,
                                         const ExecOptions& options) const {
  return RecordAbort(ExecuteInternal(plan, options), options);
}

Result<QueryResult> Interpreter::ExecuteInternal(
    const PreparedPlan& plan, const ExecOptions& options) const {
  STETHO_RETURN_IF_ERROR(plan.validation());
  const mal::Program& program = plan.program();

  Clock* clock = options.clock != nullptr
                     ? options.clock
                     : static_cast<Clock*>(SteadyClock::Default());
  ExecContext ctx(catalog_, clock);

  RunState state(program.num_variables(), program.size());
  state.plan = &plan;
  state.ctx = &ctx;
  state.options = &options;
  state.clock = clock;
  state.registers.resize(program.num_variables());
  state.stats.resize(program.size());
  for (size_t var = 0; var < program.num_variables(); ++var) {
    state.var_consumers[var].store(
        static_cast<int>(plan.deps().readers(static_cast<int>(var)).size()),
        std::memory_order_relaxed);
  }

  obs::Tracer* tracer =
      options.tracer != nullptr ? options.tracer : obs::Tracer::Default();
  if (tracer->enabled()) state.tracer = tracer;
  state.family_metrics = obs::Enabled();

  int64_t run_start = clock->NowMicros();

  int num_threads =
      options.num_threads > 0 ? options.num_threads : DefaultDop();

  if (!options.use_dataflow || num_threads == 1 || program.size() <= 1) {
    // Sequential interpretation in plan order (valid: SSA implies defs
    // precede uses) on the calling thread — the "sequential execution where
    // multithreading was expected" anomaly path must not touch the pool.
    for (size_t pc = 0; pc < program.size(); ++pc) {
      Status st = RunInstruction(&state, static_cast<int>(pc), 0);
      if (!st.ok()) return st;
    }
  } else {
    // Dataflow scheduling on the shared worker pool: atomic dependency
    // counters, per-query admission up to `num_threads` slots.
    state.pool = options.pool != nullptr ? options.pool : WorkerPool::Default();
    state.pool->EnsureWorkers(num_threads);
    state.dop = num_threads;
    state.free_slots.reserve(static_cast<size_t>(num_threads));
    for (int slot = num_threads - 1; slot >= 0; --slot) {
      state.free_slots.push_back(slot);
    }

    for (size_t pc = 0; pc < program.size(); ++pc) {
      state.indegree[pc].store(
          static_cast<int>(
              plan.deps().producers(static_cast<int>(pc)).size()),
          std::memory_order_relaxed);
    }
    state.unfinished = static_cast<int>(program.size());

    std::unique_lock<std::mutex> lock(state.job_mu);
    for (size_t pc = 0; pc < program.size(); ++pc) {
      if (state.indegree[pc].load(std::memory_order_relaxed) == 0) {
        state.ready.push_back(static_cast<int>(pc));
      }
    }
    PumpLocked(&state);
    if (state.in_flight == 0) state.done = true;  // nothing runnable: stall
    state.done_cv.wait(lock, [&state] { return state.done; });
    if (!state.error.ok()) return state.error;
    if (state.unfinished != 0) {
      return Status::Internal(
          StrFormat("dataflow scheduler stalled with %d unfinished "
                    "instructions (cyclic plan?)",
                    state.unfinished));
    }
  }

  QueryResult result;
  result.columns = ctx.TakeResults();
  result.stats = std::move(state.stats);
  result.total_usec = clock->NowMicros() - run_start;
  result.peak_rss_bytes = state.peak_bytes.load(std::memory_order_relaxed);
  PeakRssGauge()->Set(result.peak_rss_bytes);
  // Whatever the query still holds (result columns about to be handed to the
  // caller) leaves the engine with it — drain the process-wide mirror so it
  // converges to zero when no query is executing.
  LiveBytesGauge()->Add(
      -state.live_bytes.load(std::memory_order_relaxed));
  return result;
}

}  // namespace stetho::engine
