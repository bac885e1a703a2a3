#ifndef STETHO_OPTIMIZER_PASS_H_
#define STETHO_OPTIMIZER_PASS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/facts.h"
#include "common/status.h"
#include "mal/program.h"

namespace stetho::optimizer {

/// What a pass did to the plan, as the pass reports it. optimizer::Pipeline
/// checks the claim (the program's change counters for kNone and the
/// variable table, per-instruction field hashes taken before and after the
/// pass for kPermutation and kInsert), then carries its analysis::Facts
/// accordingly: nothing for kNone, a permutation of the absint facts for
/// kPermutation, an evaluation of only the new instructions for kInsert,
/// and a fresh sweep for kRewrite.
struct Effect {
  enum class Kind { kNone, kPermutation, kInsert, kRewrite };

  Kind kind = Kind::kNone;
  /// kPermutation: the instruction now at pc i was at pc pcs[i].
  /// kInsert: the ascending pcs (after the pass) of the inserted
  /// instructions, each with no results and no variable arguments.
  std::vector<int> pcs;

  static Effect None() { return Effect{}; }
  static Effect Permutation(std::vector<int> order) {
    return Effect{Kind::kPermutation, std::move(order)};
  }
  static Effect Insert(std::vector<int> inserted) {
    return Effect{Kind::kInsert, std::move(inserted)};
  }
  static Effect Rewrite() { return Effect{Kind::kRewrite, {}}; }

  bool changed() const { return kind != Kind::kNone; }
  /// "none", "permutation", "insert" or "rewrite".
  const char* name() const;
};

/// One MAL-to-MAL rewrite, mirroring MonetDB's optimizer pipeline stages.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;

  /// Rewrites `program` in place and reports what it did. `facts` describe
  /// `program` as the pass receives it; read them before changing the
  /// plan. The report must be exact: a pass that changes nothing returns
  /// Effect::None(), and the pipeline fails a pass whose plan does not
  /// match its report.
  virtual Result<Effect> Apply(mal::Program* program,
                               const analysis::Facts& facts) = 0;

  /// The standalone entry point (tests, benches): Apply over fresh facts.
  /// Returns true when anything changed.
  Result<bool> Run(mal::Program* program);
};

/// An ordered list of passes applied until fixpoint-per-pass (each pass runs
/// once, in order; the pipeline records which passes fired).
class Pipeline {
 public:
  Pipeline() = default;

  void Add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }
  size_t size() const { return passes_.size(); }
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }

  /// Runs all passes in order over one analysis::Facts carried from pass to
  /// pass, and returns the names of passes that changed the program. After
  /// every pass the pipeline checks the pass's Effect against the plan,
  /// brings the facts up to date, and, after the first pass and every pass
  /// that changed the plan, runs the checks that can report an error
  /// (analysis::Runner::Default() at Severity::kError) and the
  /// pass-equivalence differ. A failure is a Status naming the pass and,
  /// for a lint error, the check id and the offending pc/variable.
  Result<std::vector<std::string>> Run(mal::Program* program) const;

  /// MonetDB-like default pipeline: constant folding, common subexpression
  /// elimination, dead code elimination, mitosis (with `mitosis_pieces`
  /// partitions when > 1), memory-aware reordering, and the dataflow
  /// marker.
  static Pipeline Default(int mitosis_pieces = 0);

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// --- concrete passes ---

/// Evaluates calc.* instructions whose operands are all constants and
/// propagates the folded value into consumers.
std::unique_ptr<Pass> MakeConstantFoldingPass();

/// Deduplicates instructions with identical operations and arguments whose
/// kernel is side-effect free (KernelSignature::side_effect_free).
std::unique_ptr<Pass> MakeCommonSubexpressionPass();

/// Removes side-effect-free instructions whose results are never consumed.
std::unique_ptr<Pass> MakeDeadCodePass();

/// Splits candidate-list selects over sql.tid ranges into `pieces` parallel
/// partitions re-joined with mat.pack — MonetDB's mitosis/mergetable pair.
/// Enables multi-core dataflow execution and inflates plan graphs to the
/// >1000-node scale of the paper's Fig. 2.
std::unique_ptr<Pass> MakeMitosisPass(int pieces);

/// Topologically reorders instructions to shrink the sequential live-byte
/// peak predicted by analysis/liveness.h (greedy list scheduling that
/// consumes heavy intermediates as early as legal), reading the absint
/// facts, memory report and def-use index from the facts it is given.
/// Keeps the relative order of effectful instructions and reports the
/// permutation; leaves the plan untouched ("did not fire") unless the
/// predicted peak strictly shrinks.
std::unique_ptr<Pass> MakeMemoryReorderPass();

/// Inserts the language.dataflow() marker instruction at pc 0 (an
/// administrative node; the paper's §6 mentions pruning such nodes as
/// future work).
std::unique_ptr<Pass> MakeDataflowMarkerPass();

/// Removes administrative instructions (language.*) from a plan — the
/// paper's planned "selective pruning of MAL plans" feature.
std::unique_ptr<Pass> MakeAdminPrunePass();

}  // namespace stetho::optimizer

#endif  // STETHO_OPTIMIZER_PASS_H_
