// memory_reorder — topologically reorders instructions to shrink the
// sequential live-byte peak predicted by the static footprint model
// (analysis/liveness.h). Greedy list scheduling over the dependency DAG:
// at every step the ready instruction with the smallest net live-byte
// delta (result bytes minus the bytes its completion releases) runs next,
// so heavy intermediates are consumed as soon as their consumers are
// legal instead of idling across unrelated work. Effectful instructions
// (sinks, unknown extensions) form a serialized backbone that keeps their
// relative order — observable output order is untouched, which is exactly
// what the pass-equivalence differ checks. The absint facts, memory report
// and def-use index come from the facts the pass is given. The rewrite
// is self-rejecting: unless the new order's predicted sequential peak is
// strictly smaller, the plan is left as it was and the pass reports "did
// not fire".

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "analysis/liveness.h"
#include "optimizer/pass.h"

namespace stetho::optimizer {
namespace {

class MemoryReorderPass final : public Pass {
 public:
  const char* name() const override { return "memory_reorder"; }

  Result<Effect> Apply(mal::Program* program,
                       const analysis::Facts& carried) override {
    const size_t n = program->size();
    if (n < 3) return Effect::None();
    // With every argument defined before its use, an instruction's absint
    // facts are the same in any order that respects the dependencies, so
    // the new order is priced from these facts.
    if (!program->Validate().ok()) return Effect::None();
    const std::vector<analysis::InstructionFacts>& facts =
        carried.instructions();
    const analysis::MemoryReport& before = carried.memory();
    if (!before.bounded) return Effect::None();  // no finite objective
    const mal::Dependencies& deps = carried.deps();

    // Per-variable footprints, from the report: only registers that hold
    // bytes change a delta.
    const size_t nvars = program->num_variables();
    std::vector<int64_t> var_bytes(nvars, 0);
    for (const analysis::LiveRange& r : before.ranges) {
      if (r.var >= 0 && static_cast<size_t>(r.var) < nvars) {
        var_bytes[static_cast<size_t>(r.var)] = r.bytes;
      }
    }

    // Dependency edges plus a serialized backbone through every effectful
    // instruction, so side effects keep their order: next_effectful[pc] is
    // the effectful pc after effectful `pc` (-1 for none).
    std::vector<int> indegree(n, 0);
    std::vector<int> next_effectful(n, -1);
    int prev_effectful = -1;
    for (size_t pc = 0; pc < n; ++pc) {
      indegree[pc] = static_cast<int>(
          deps.producers(static_cast<int>(pc)).size());
      if (facts[pc].side_effect_free()) continue;
      if (prev_effectful >= 0) {
        next_effectful[static_cast<size_t>(prev_effectful)] =
            static_cast<int>(pc);
        indegree[pc]++;
      }
      prev_effectful = static_cast<int>(pc);
    }

    // Greedy schedule: smallest net live-byte delta first, original pc as
    // the deterministic tie break. An instruction's delta is its consumed
    // results' bytes minus the bytes of every argument it is the last
    // remaining reader of. Remaining counts only fall, so a delta only
    // falls, and only when an argument's count drops to at most its
    // occurrences in the instruction: just then are that argument's ready
    // readers re-scored. Superseded heap entries are skipped on pop.
    struct ArgUse {
      int var = -1;
      int occurrences = 0;
    };
    // Distinct arguments holding bytes (the only ones a delta can release):
    // instruction pc's are uses[first_use[pc] .. first_use[pc + 1]).
    std::vector<ArgUse> uses;
    std::vector<size_t> first_use(n + 1, 0);
    std::vector<int64_t> result_bytes(n, 0);
    for (size_t pc = 0; pc < n; ++pc) {
      const mal::Instruction& ins = program->instruction(static_cast<int>(pc));
      for (int r : ins.results) {
        if (r < 0 || static_cast<size_t>(r) >= nvars) continue;
        // Consumer-less results are released before the next instruction
        // runs, so they don't change the standing live set.
        if (!deps.readers(r).empty()) {
          result_bytes[pc] += var_bytes[static_cast<size_t>(r)];
        }
      }
      first_use[pc] = uses.size();
      for (const mal::Argument& a : ins.args) {
        if (a.kind != mal::Argument::Kind::kVar || a.var < 0 ||
            static_cast<size_t>(a.var) >= nvars ||
            var_bytes[static_cast<size_t>(a.var)] == 0) {
          continue;
        }
        auto own = uses.begin() + static_cast<long>(first_use[pc]);
        auto it = std::find_if(own, uses.end(), [&a](const ArgUse& u) {
          return u.var == a.var;
        });
        if (it == uses.end()) {
          uses.push_back(ArgUse{a.var, 1});
        } else {
          it->occurrences++;
        }
      }
    }
    first_use[n] = uses.size();
    std::vector<int> max_occurrences(nvars, 0);
    std::vector<int> remaining(nvars, 0);
    for (const ArgUse& u : uses) {
      const size_t v = static_cast<size_t>(u.var);
      max_occurrences[v] = std::max(max_occurrences[v], u.occurrences);
      remaining[v] = static_cast<int>(deps.readers(u.var).size());
    }

    auto net_delta = [&](int pc) {
      int64_t delta = result_bytes[static_cast<size_t>(pc)];
      for (size_t i = first_use[static_cast<size_t>(pc)];
           i < first_use[static_cast<size_t>(pc) + 1]; ++i) {
        if (remaining[static_cast<size_t>(uses[i].var)] <=
            uses[i].occurrences) {
          delta -= var_bytes[static_cast<size_t>(uses[i].var)];
        }
      }
      return delta;
    };
    using Entry = std::pair<int64_t, int>;  // (delta, pc)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready;
    std::vector<int64_t> score(n, 0);
    std::vector<char> is_ready(n, 0);
    auto push = [&](int pc) {
      score[static_cast<size_t>(pc)] = net_delta(pc);
      ready.emplace(score[static_cast<size_t>(pc)], pc);
    };
    auto release = [&](int pc) {  // one of pc's incoming edges is done
      if (--indegree[static_cast<size_t>(pc)] != 0) return;
      is_ready[static_cast<size_t>(pc)] = 1;
      push(pc);
    };
    for (size_t pc = 0; pc < n; ++pc) {
      if (indegree[pc] != 0) continue;
      is_ready[pc] = 1;
      push(static_cast<int>(pc));
    }
    std::vector<int> order;
    order.reserve(n);
    while (!ready.empty()) {
      auto [delta, pc] = ready.top();
      ready.pop();
      if (!is_ready[static_cast<size_t>(pc)] ||
          delta != score[static_cast<size_t>(pc)]) {
        continue;  // superseded by a re-score
      }
      is_ready[static_cast<size_t>(pc)] = 0;
      order.push_back(pc);
      for (size_t i = first_use[static_cast<size_t>(pc)];
           i < first_use[static_cast<size_t>(pc) + 1]; ++i) {
        const size_t v = static_cast<size_t>(uses[i].var);
        remaining[v] = std::max(0, remaining[v] - uses[i].occurrences);
        if (remaining[v] > max_occurrences[v]) continue;
        // A reader listed once per argument slot is re-scored once: its
        // second visit finds the score current.
        for (int reader : deps.readers(uses[i].var)) {
          if (is_ready[static_cast<size_t>(reader)] &&
              net_delta(reader) != score[static_cast<size_t>(reader)]) {
            push(reader);
          }
        }
      }
      for (int s : deps.consumers(pc)) release(s);
      if (next_effectful[static_cast<size_t>(pc)] >= 0) {
        release(next_effectful[static_cast<size_t>(pc)]);
      }
    }
    if (order.size() != n) return Effect::None();  // cyclic deps
    bool identity = true;
    for (size_t i = 0; i < n; ++i) {
      if (order[i] != static_cast<int>(i)) {
        identity = false;
        break;
      }
    }
    if (identity) return Effect::None();

    // Self-rejecting: the pass never ships a plan whose predicted peak is
    // not strictly smaller than what it started from. A topological order
    // of a valid plan is valid, so the plan needs no second Validate().
    if (analysis::SequentialPeakInOrder(*program, deps, before, order) >=
        before.seq_peak_bytes) {
      return Effect::None();
    }
    std::vector<mal::Instruction> moved;
    moved.reserve(n);
    for (int pc : order) {
      moved.push_back(std::move(program->mutable_instruction(pc)));
    }
    program->ReplaceInstructions(std::move(moved));
    return Effect::Permutation(std::move(order));
  }
};

}  // namespace

std::unique_ptr<Pass> MakeMemoryReorderPass() {
  return std::make_unique<MemoryReorderPass>();
}

}  // namespace stetho::optimizer
