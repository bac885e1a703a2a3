#ifndef STETHO_MAL_PROGRAM_H_
#define STETHO_MAL_PROGRAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mal/types.h"
#include "storage/value.h"

namespace stetho::mal {

/// A MAL variable ("X_12"). Our code generator emits SSA form: each variable
/// has exactly one defining instruction.
struct Variable {
  int id = -1;
  std::string name;  // "X_<id>" unless explicitly named
  MalType type;
  /// Optional cardinality interval: the row count of a BAT variable is known
  /// to lie in [card_lo, card_hi]. The SQL compiler annotates catalog reads
  /// (sql.tid / sql.bind results) with the exact table size; the abstract
  /// interpreter (analysis/absint.h) propagates the interval through the
  /// plan. card_lo < 0 means "no annotation".
  int64_t card_lo = -1;
  int64_t card_hi = -1;

  bool has_cardinality() const { return card_lo >= 0; }
};

/// One operand of a MAL instruction: either a variable reference or an
/// inline constant.
struct Argument {
  enum class Kind { kVar, kConst };

  Kind kind = Kind::kConst;
  int var = -1;               // valid when kind == kVar
  storage::Value constant;    // valid when kind == kConst

  static Argument Var(int id) {
    Argument a;
    a.kind = Kind::kVar;
    a.var = id;
    return a;
  }
  static Argument Const(storage::Value v) {
    Argument a;
    a.kind = Kind::kConst;
    a.constant = std::move(v);
    return a;
  }
};

/// One MAL statement: `(results) := module.function(args);`. `pc` is the
/// statement's index inside its program — the key the profiler trace and the
/// DOT node names ("n<pc>") are both derived from.
struct Instruction {
  int pc = -1;
  std::string module;
  std::string function;
  std::vector<int> results;    // variable ids; empty for :void statements
  std::vector<Argument> args;

  /// "module.function" — the profiler's operator identity.
  std::string FullName() const { return module + "." + function; }
};

/// The plan-shape hash: FNV-1a 64 over the rendered statements in pc order,
/// each followed by a newline. The function-name header is not mixed, so
/// "user.s0" and "user.s17" with identical bodies are one shape. The one
/// definition engine::PreparedPlan, analysis::PlanShapeHash and
/// analysis::TraceShapeHash mix through, which keeps profile-store keys and
/// stored journals stable.
class ShapeHasher {
 public:
  void Mix(std::string_view statement) {
    for (char c : statement) Step(static_cast<unsigned char>(c));
    Step('\n');
  }
  uint64_t value() const { return hash_; }

 private:
  void Step(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ULL;  // FNV-1a 64 prime
  }

  uint64_t hash_ = 1469598103934665603ULL;  // FNV-1a 64 offset basis
};

/// Rows of ints in one array (compressed sparse rows): row r is
/// items[offsets[r], offsets[r + 1]).
struct IntRows {
  std::vector<int> offsets{0};
  std::vector<int> items;

  void EndRow() { offsets.push_back(static_cast<int>(items.size())); }
  size_t size() const { return offsets.size() - 1; }
  std::span<const int> row(int r) const {
    const size_t i = static_cast<size_t>(r);
    return std::span<const int>(items).subspan(
        static_cast<size_t>(offsets[i]),
        static_cast<size_t>(offsets[i + 1] - offsets[i]));
  }
  bool operator==(const IntRows&) const = default;
};

/// A program's def-use relation, the one source every consumer reads (the
/// interpreter's dispatch, the dot edges, memory_reorder, the lint,
/// liveness, the happens-before replay and the progress model). Built by
/// Program::BuildDependencies() as three compressed-row tables:
///  - producers(pc): the distinct pcs whose results `pc` reads, in the
///    order its arguments first name them (the dot writer's edge order);
///  - consumers(pc): the pcs that read a result of `pc`, ascending;
///  - readers(var): one entry per argument slot reading `var`, in
///    ascending pc order, so size() is the interpreter's reader count and
///    back() the last use.
/// Malformed programs (the lint walks them) keep a defined relation:
/// out-of-range argument and result ids are skipped, a use before any
/// definition has no producer, and a variable assigned twice links to its
/// latest writer before the use.
class Dependencies {
 public:
  /// Number of instructions.
  size_t size() const { return producers_.size(); }
  std::span<const int> producers(int pc) const { return producers_.row(pc); }
  std::span<const int> consumers(int pc) const { return consumers_.row(pc); }
  std::span<const int> readers(int var) const { return readers_.row(var); }
  /// Producer -> consumer edges in the plan.
  size_t num_edges() const { return producers_.items.size(); }

  bool operator==(const Dependencies&) const = default;

 private:
  friend class Program;

  IntRows producers_;
  IntRows consumers_;
  IntRows readers_;
};

/// A MAL program (one `function user.main():void; ... end user.main;` body).
/// Owns the variable table and the instruction sequence.
class Program {
 public:
  Program() = default;
  explicit Program(std::string function_name)
      : function_name_(std::move(function_name)) {}

  const std::string& function_name() const { return function_name_; }
  void set_function_name(std::string n) { function_name_ = std::move(n); }

  /// --- Variables ---
  /// Creates a fresh variable "X_<id>" of `type` and returns its id.
  int AddVariable(MalType type);
  /// Creates a variable with an explicit name (parser use).
  int AddNamedVariable(std::string name, MalType type);
  const Variable& variable(int id) const { return variables_[static_cast<size_t>(id)]; }
  size_t num_variables() const { return variables_.size(); }
  /// Id of the variable named `name`, or -1.
  int FindVariable(const std::string& name) const;
  /// Attaches a [lo, hi] cardinality interval to `var` (see
  /// Variable::card_lo). Out-of-range ids and inverted intervals are ignored.
  void AnnotateCardinality(int var, int64_t lo, int64_t hi);

  /// --- Instructions ---
  /// Appends an instruction; assigns and returns its pc.
  int Add(std::string module, std::string function, std::vector<int> results,
          std::vector<Argument> args);
  const Instruction& instruction(int pc) const {
    return instructions_[static_cast<size_t>(pc)];
  }
  Instruction& mutable_instruction(int pc) {
    ++instructions_version_;
    return instructions_[static_cast<size_t>(pc)];
  }
  size_t size() const { return instructions_.size(); }
  const std::vector<Instruction>& instructions() const { return instructions_; }

  /// Replaces the instruction sequence (optimizer passes); re-numbers pcs.
  void ReplaceInstructions(std::vector<Instruction> instructions);
  /// Inserts `ins` before the instruction at `pc` (size() appends) without
  /// copying the others; re-numbers the pcs from `pc` on.
  void InsertInstruction(int pc, Instruction ins);

  /// Change counters. Every call that can change the instruction sequence
  /// (Add, mutable_instruction, ReplaceInstructions, InsertInstruction)
  /// bumps instructions_version(); every call that can change the variable
  /// table (AddVariable, AddNamedVariable, AnnotateCardinality) bumps
  /// variables_version(). An unchanged value proves that part untouched
  /// (the optimizer pipeline checks a pass's report with them).
  uint64_t instructions_version() const { return instructions_version_; }
  uint64_t variables_version() const { return variables_version_; }

  /// --- Analysis ---
  /// The def-use relation (Dependencies). Because codegen emits SSA, each
  /// argument's producer is the only writer of its variable. Nothing is
  /// cached: Facts and PreparedPlan hold the one index each plan reads.
  Dependencies BuildDependencies() const;

  /// Renders one statement, e.g.
  /// `X_7:bat[:dbl] := algebra.projection(X_5,X_3);`.
  std::string InstructionToString(const Instruction& ins) const;
  /// Appends InstructionToString(ins) to `out`.
  void AppendInstruction(const Instruction& ins, std::string* out) const;

  /// Renders the whole program in the paper's Fig. 1 listing format.
  std::string ToString() const;

  /// Structural validation: argument/result variable ids in range, SSA
  /// single-assignment holds, arguments defined before use.
  Status Validate() const;

 private:
  std::string function_name_ = "user.main";
  std::vector<Variable> variables_;
  std::vector<Instruction> instructions_;
  uint64_t instructions_version_ = 0;
  uint64_t variables_version_ = 0;
};

}  // namespace stetho::mal

#endif  // STETHO_MAL_PROGRAM_H_
