#ifndef STETHO_ANALYSIS_LIVENESS_H_
#define STETHO_ANALYSIS_LIVENESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "mal/program.h"

namespace stetho::analysis {

/// Static memory-lifetime analysis: the third pillar of the static stack
/// after value flow (absint.h) and schedule flow (hb.h). A backward SSA
/// liveness pass over the straight-line plan computes each BAT register's
/// live range [def_pc, last_use_pc] and an upper bound on its footprint in
/// bytes, derived from the abstract domain's saturating cardinality
/// intervals times the element width — modeling exactly what
/// engine::Register::MemoryBytes() (i.e. storage::Column::MemoryBytes())
/// will report: capacity-based backing arrays (kernels that append without
/// Reserve round up to the next power of two), one null-mask byte per
/// reserved row, and sizeof(std::string) + SSO capacity per string row.
///
/// From the per-range bytes the analysis derives two peak bounds:
///  - the sequential peak: an exact simulation of the interpreter's
///    live-byte accountant along program order (result bytes land before
///    fully-consumed arguments are released, matching RunInstruction), and
///  - a dop-aware worst-case bound over every legal dataflow schedule
///    (ParallelPeakBound): the registers live at any instant form an
///    antichain of the lifetime poset, so the exact maximum-weight
///    antichain (computed by the weighted-Dilworth min-flow dual) bounds
///    the retained bytes, plus the dop heaviest per-instruction
///    allocations cover in-flight transients.
///
/// Consumers: `mal_lint --memory`, the memory-blowup / live-range-bloat /
/// footprint-conformance checks (checks_memory.cc), the optimizer's
/// memory_reorder pass, and server-side budgeted admission.

/// Sentinel footprint for values whose cardinality interval is unbounded
/// (int64 max); saturating arithmetic keeps it absorbing.
inline constexpr int64_t kUnboundedBytes = 0x7fffffffffffffff;

/// a + b with saturation at kUnboundedBytes.
int64_t SaturatingAddBytes(int64_t a, int64_t b);

/// Upper bound on the bytes Column::MemoryBytes() can report for a BAT
/// described by `value`, produced by a kernel with signature `sig`
/// (nullptr for kernels without one). Scalars cost 0; an unbounded
/// cardinality costs kUnboundedBytes. The signature's exact_capacity
/// decides the capacity model (exact Reserve vs power-of-two append
/// growth; the latter without a signature).
int64_t EstimateResultBytes(const KernelSignature* sig,
                            const AbstractValue& value);

/// One BAT register's live range and modeled footprint.
struct LiveRange {
  int var = -1;           ///< variable id
  int def_pc = -1;        ///< producing instruction
  int last_use_pc = -1;   ///< last consuming pc; -1 = never consumed
  int num_consumers = 0;  ///< argument references across the plan
  int64_t bytes = 0;      ///< modeled footprint (kUnboundedBytes = unknown)
  int64_t card_hi = 0;    ///< cardinality upper bound the bytes came from
  /// True when the cardinality interval is a point: `bytes` is then what
  /// the register WILL cost, not a worst case. Blowup findings key off
  /// this — worst-case join bounds are honestly astronomical, exact ones
  /// are provable.
  bool exact = false;
};

/// Result of AnalyzeMemory over one plan.
struct MemoryReport {
  /// Live range per BAT variable with a nonzero modeled footprint,
  /// ordered by def_pc.
  std::vector<LiveRange> ranges;
  /// Per-pc bytes the instruction's results add when it retires.
  std::vector<int64_t> result_bytes;
  /// Per-pc modeled live bytes after the instruction retires and its
  /// fully-consumed arguments are released (sequential program order).
  std::vector<int64_t> live_after;
  /// Peak of the sequential accountant simulation and where it happens.
  int64_t seq_peak_bytes = 0;
  int seq_peak_pc = -1;
  /// Bytes bound from base tables (sql.bind / sql.tid reads) — the "input
  /// size" a blowup is measured against.
  int64_t input_bytes = 0;
  /// False when any live range's cardinality is unbounded; the peaks are
  /// then kUnboundedBytes and only relative statements hold.
  bool bounded = true;
};

/// Runs the forward absint sweep, builds the def-use index and returns the
/// per-range footprints and the sequential peak profile.
MemoryReport AnalyzeMemory(const mal::Program& program);
/// The same report built on an AnalyzeProgram sweep's per-pc facts and the
/// program's def-use index (Program::BuildDependencies), whose readers give
/// each register's consumer count and last use.
MemoryReport AnalyzeMemory(const mal::Program& program,
                           const std::vector<InstructionFacts>& per_pc,
                           const mal::Dependencies& deps);

/// The sequential peak (MemoryReport::seq_peak_bytes) of `program` run in
/// `order` (order[i] is the pc that runs i-th) instead of pc order, from
/// `report`, AnalyzeMemory's report over `program` and `deps`. Footprints
/// and reader counts do not depend on the order, so a schedule is priced
/// without moving an instruction (the memory_reorder pass).
int64_t SequentialPeakInOrder(const mal::Program& program,
                              const mal::Dependencies& deps,
                              const MemoryReport& report,
                              const std::vector<int>& order);

/// Upper bound on the live-byte peak under ANY schedule the dataflow
/// scheduler may choose with `dop` worker slots. Sound (never below the
/// engine-recorded peak when the cardinality domain holds): the exact
/// maximum-weight antichain of the lifetime poset bounds the retained
/// registers, and the dop heaviest single-instruction allocations cover
/// the consumer-less transients. dop < 1 is clamped to 1; returns
/// kUnboundedBytes when the report is unbounded.
int64_t ParallelPeakBound(const mal::Program& program,
                          const mal::Dependencies& deps,
                          const MemoryReport& report, int dop);

/// Human-readable profile: totals, sequential peak, parallel bound at
/// `dop`, per-pc live-byte sparkline and the top_k heaviest live ranges.
std::string FormatMemoryReport(const mal::Program& program,
                               const mal::Dependencies& deps,
                               const MemoryReport& report, int dop,
                               int top_k = 5);

/// "1.5 KiB" / "3.2 MiB" / "unbounded" — shared by the report printer and
/// the memory checks' diagnostics.
std::string FormatBytes(int64_t bytes);

/// The STETHO_MEM_BUDGET environment variable parsed as a byte count
/// (plain integer, optional k/m/g suffix = KiB/MiB/GiB); 0 when unset or
/// unparseable (= no budget).
int64_t EnvMemBudgetBytes();

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_LIVENESS_H_
