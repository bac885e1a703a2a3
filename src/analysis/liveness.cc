#include "analysis/liveness.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/saturating.h"
#include "common/string_util.h"
#include "storage/value.h"

namespace stetho::analysis {

namespace {

using storage::DataType;

/// Per-row cost of a string element as Column::MemoryBytes() counts it:
/// sizeof(std::string) + capacity. Short strings sit in the SSO buffer
/// (capacity 15 on libstdc++, 47 B/row total); longer values carry their
/// heap capacity, so 64 covers strings up to 32 chars — the longest the
/// TPC-H text columns produce (p_type tops out around 25). A plan that
/// materializes longer strings can exceed this width; the
/// footprint-conformance check is the empirical guard for that.
constexpr int64_t kStringBytesPerRow = 64;

/// Smallest power of two >= n — the capacity a vector reaches when a
/// kernel appends n rows without calling Reserve first.
int64_t NextPow2(int64_t n) {
  if (n <= 1) return n;
  int64_t c = 1;
  while (c < n) {
    if (c > (kUnboundedBytes >> 1)) return kUnboundedBytes;
    c <<= 1;
  }
  return c;
}

/// Dinic max-flow over a small static graph. Capacities are byte counts;
/// kFlowInf plays infinity (far above any feasible flow, far below int64
/// overflow even after residual updates).
class MaxFlow {
 public:
  static constexpr int64_t kFlowInf = int64_t{1} << 60;

  explicit MaxFlow(int num_nodes) : head_(static_cast<size_t>(num_nodes), -1) {}

  /// Adds edge u->v with capacity `cap`; returns the edge id (its residual
  /// twin is id^1).
  int AddEdge(int u, int v, int64_t cap) {
    int id = static_cast<int>(to_.size());
    to_.push_back(v);
    cap_.push_back(cap);
    next_.push_back(head_[static_cast<size_t>(u)]);
    head_[static_cast<size_t>(u)] = id;
    to_.push_back(u);
    cap_.push_back(0);
    next_.push_back(head_[static_cast<size_t>(v)]);
    head_[static_cast<size_t>(v)] = id + 1;
    return id;
  }

  int64_t cap(int edge) const { return cap_[static_cast<size_t>(edge)]; }
  void set_cap(int edge, int64_t c) { cap_[static_cast<size_t>(edge)] = c; }

  int64_t Run(int s, int t) {
    int64_t flow = 0;
    while (Bfs(s, t)) {
      iter_ = head_;
      int64_t pushed;
      while ((pushed = Dfs(s, t, kFlowInf)) > 0) flow += pushed;
    }
    return flow;
  }

 private:
  bool Bfs(int s, int t) {
    level_.assign(head_.size(), -1);
    std::vector<int> queue{s};
    level_[static_cast<size_t>(s)] = 0;
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      int u = queue[qi];
      for (int e = head_[static_cast<size_t>(u)]; e >= 0;
           e = next_[static_cast<size_t>(e)]) {
        int v = to_[static_cast<size_t>(e)];
        if (cap_[static_cast<size_t>(e)] > 0 && level_[static_cast<size_t>(v)] < 0) {
          level_[static_cast<size_t>(v)] = level_[static_cast<size_t>(u)] + 1;
          queue.push_back(v);
        }
      }
    }
    return level_[static_cast<size_t>(t)] >= 0;
  }

  int64_t Dfs(int u, int t, int64_t limit) {
    if (u == t) return limit;
    for (int& e = iter_[static_cast<size_t>(u)]; e >= 0;
         e = next_[static_cast<size_t>(e)]) {
      int v = to_[static_cast<size_t>(e)];
      if (cap_[static_cast<size_t>(e)] <= 0 ||
          level_[static_cast<size_t>(v)] != level_[static_cast<size_t>(u)] + 1) {
        continue;
      }
      int64_t pushed =
          Dfs(v, t, std::min(limit, cap_[static_cast<size_t>(e)]));
      if (pushed > 0) {
        cap_[static_cast<size_t>(e)] -= pushed;
        cap_[static_cast<size_t>(e ^ 1)] += pushed;
        return pushed;
      }
    }
    return 0;
  }

  std::vector<int> head_, to_, next_, iter_, level_;
  std::vector<int64_t> cap_;
};

/// The interpreter's sequential live-byte accountant (RunInstruction):
/// an instruction's result bytes land (the peak candidate), then the
/// arguments it consumed last are released, then its consumer-less results
/// are dropped. Unbounded registers are tracked by count so releases stay
/// exact for the bounded part.
class Accountant {
 public:
  Accountant(const std::vector<int64_t>& var_bytes,
             const mal::Dependencies& deps)
      : var_bytes_(var_bytes), deps_(deps), remaining_(var_bytes.size()) {
    for (size_t v = 0; v < remaining_.size(); ++v) {
      remaining_[v] =
          static_cast<int>(deps.readers(static_cast<int>(v)).size());
    }
  }

  /// Lands `ins`'s results; returns the live bytes with them.
  int64_t Land(const mal::Instruction& ins) {
    for (int v : ins.results) {
      if (!InRange(v)) continue;
      if (var_bytes_[static_cast<size_t>(v)] == kUnboundedBytes) {
        unbounded_live_++;
        saw_unbounded_ = true;
      } else {
        live_ = SaturatingAdd(live_, var_bytes_[static_cast<size_t>(v)]);
      }
    }
    return Live();
  }

  /// Releases what `ins` consumed last and its consumer-less results;
  /// returns the live bytes after it retires.
  int64_t Retire(const mal::Instruction& ins) {
    for (const mal::Argument& a : ins.args) {
      if (a.kind != mal::Argument::Kind::kVar || !InRange(a.var)) continue;
      size_t v = static_cast<size_t>(a.var);
      if (remaining_[v] > 0 && --remaining_[v] == 0) Release(v);
    }
    for (int v : ins.results) {
      if (InRange(v) && deps_.readers(v).empty()) {
        Release(static_cast<size_t>(v));
      }
    }
    return Live();
  }

  /// True once an unbounded register has landed.
  bool saw_unbounded() const { return saw_unbounded_; }

 private:
  bool InRange(int v) const {
    return v >= 0 && static_cast<size_t>(v) < var_bytes_.size();
  }
  void Release(size_t v) {
    if (var_bytes_[v] == kUnboundedBytes) {
      unbounded_live_--;
    } else {
      live_ -= var_bytes_[v];
    }
  }
  int64_t Live() const { return unbounded_live_ > 0 ? kUnboundedBytes : live_; }

  const std::vector<int64_t>& var_bytes_;
  const mal::Dependencies& deps_;
  std::vector<int> remaining_;
  int64_t live_ = 0;
  int unbounded_live_ = 0;
  bool saw_unbounded_ = false;
};

}  // namespace

int64_t EstimateResultBytes(const KernelSignature* sig,
                            const AbstractValue& value) {
  if (value.is_bat != Tri::kTrue) return 0;  // scalars are negligible
  int64_t hi = value.card.hi;
  if (hi == Interval::kUnbounded) return kUnboundedBytes;
  if (hi < 0) hi = 0;
  int64_t capacity =
      sig != nullptr && sig->exact_capacity ? hi : NextPow2(hi);
  int64_t bytes = 0;
  if (value.elem == DataType::kString) {
    // Element costs are per stored row (size), the null mask per capacity.
    bytes = SaturatingAdd(hi * kStringBytesPerRow, capacity);
  } else {
    // kInt64/kOid/kBool share the int64 backing array; kDouble is 8 B too.
    // Unknown element types get the numeric width — every storable
    // non-string element is 8 B/row. Null mask: 1 B per reserved row.
    bytes = SaturatingAdd(capacity * 8, capacity);
  }
  return bytes;
}

MemoryReport AnalyzeMemory(const mal::Program& program) {
  std::vector<InstructionFacts> per_pc;
  AnalyzeProgram(program, &per_pc);
  return AnalyzeMemory(program, per_pc, program.BuildDependencies());
}

MemoryReport AnalyzeMemory(const mal::Program& program,
                           const std::vector<InstructionFacts>& per_pc,
                           const mal::Dependencies& deps) {
  const size_t n = program.size();
  const size_t nvars = program.num_variables();
  MemoryReport report;
  report.result_bytes.assign(n, 0);
  report.live_after.assign(n, 0);

  std::vector<int64_t> var_bytes(nvars, 0);
  std::vector<int64_t> var_card(nvars, 0);
  std::vector<char> var_exact(nvars, 0);
  std::vector<int> def_pc(nvars, -1);

  // Footprint of every result register, from the forward absint facts.
  for (size_t pc = 0; pc < n && pc < per_pc.size(); ++pc) {
    const mal::Instruction& ins = program.instruction(static_cast<int>(pc));
    const InstructionFacts& facts = per_pc[pc];
    int64_t total = 0;
    for (size_t k = 0; k < ins.results.size(); ++k) {
      int v = ins.results[k];
      if (v < 0 || static_cast<size_t>(v) >= nvars) continue;
      const AbstractValue& val = k < facts.merged_results.size()
                                     ? facts.merged_results[k]
                                     : AbstractValue::Top();
      int64_t bytes = EstimateResultBytes(facts.sig, val);
      var_bytes[static_cast<size_t>(v)] = bytes;
      var_card[static_cast<size_t>(v)] =
          val.card.hi == Interval::kUnbounded ? Interval::kUnbounded
                                              : val.card.hi;
      var_exact[static_cast<size_t>(v)] =
          val.is_bat == Tri::kTrue && val.card.is_exact() ? 1 : 0;
      def_pc[static_cast<size_t>(v)] = ins.pc;
      total = SaturatingAdd(total, bytes);
    }
    report.result_bytes[pc] = total;
    if (facts.role() == KernelRole::kTableScan ||
        facts.role() == KernelRole::kColumnBind) {
      report.input_bytes = SaturatingAdd(report.input_bytes, total);
    }
  }

  // Live ranges end at the last reader (straight-line SSA).
  for (size_t v = 0; v < nvars; ++v) {
    if (def_pc[v] < 0 || var_bytes[v] == 0) continue;
    const std::span<const int> readers = deps.readers(static_cast<int>(v));
    LiveRange r;
    r.var = static_cast<int>(v);
    r.def_pc = def_pc[v];
    r.last_use_pc = readers.empty() ? -1 : readers.back();
    r.num_consumers = static_cast<int>(readers.size());
    r.bytes = var_bytes[v];
    r.card_hi = var_card[v];
    r.exact = var_exact[v] != 0;
    report.ranges.push_back(r);
  }
  std::sort(report.ranges.begin(), report.ranges.end(),
            [](const LiveRange& a, const LiveRange& b) {
              return a.def_pc < b.def_pc;
            });

  // Sequential accountant simulation in program order.
  Accountant accountant(var_bytes, deps);
  for (size_t pc = 0; pc < n; ++pc) {
    const mal::Instruction& ins = program.instruction(static_cast<int>(pc));
    const int64_t landed = accountant.Land(ins);
    if (landed > report.seq_peak_bytes) {
      report.seq_peak_bytes = landed;
      report.seq_peak_pc = static_cast<int>(pc);
    }
    report.live_after[pc] = accountant.Retire(ins);
  }
  report.bounded = !accountant.saw_unbounded();
  return report;
}

int64_t SequentialPeakInOrder(const mal::Program& program,
                              const mal::Dependencies& deps,
                              const MemoryReport& report,
                              const std::vector<int>& order) {
  std::vector<int64_t> var_bytes(program.num_variables(), 0);
  for (const LiveRange& r : report.ranges) {
    if (r.var >= 0 && static_cast<size_t>(r.var) < var_bytes.size()) {
      var_bytes[static_cast<size_t>(r.var)] = r.bytes;
    }
  }
  Accountant accountant(var_bytes, deps);
  int64_t peak = 0;
  for (int pc : order) {
    const mal::Instruction& ins = program.instruction(pc);
    peak = std::max(peak, accountant.Land(ins));
    accountant.Retire(ins);
  }
  return peak;
}

int64_t ParallelPeakBound(const mal::Program& program,
                          const mal::Dependencies& deps,
                          const MemoryReport& report, int dop) {
  if (dop < 1) dop = 1;
  if (!report.bounded) return kUnboundedBytes;
  const size_t n = program.size();
  if (n == 0) return 0;

  // Forward reachability over the dependency DAG as bitsets. Edges run
  // producer -> consumer, and SSA def-before-use makes every edge go from
  // a lower pc to a higher one, so one reverse scan closes the relation.
  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> reach(n * words, 0);
  for (size_t pc = n; pc-- > 0;) {
    uint64_t* row = &reach[pc * words];
    row[pc / 64] |= uint64_t{1} << (pc % 64);
    for (int s : deps.consumers(static_cast<int>(pc))) {
      const uint64_t* srow = &reach[static_cast<size_t>(s) * words];
      for (size_t w = 0; w < words; ++w) row[w] |= srow[w];
    }
  }
  auto reaches = [&](int from, int to) {
    return (reach[static_cast<size_t>(from) * words + static_cast<size_t>(to) / 64] >>
            (static_cast<size_t>(to) % 64)) & 1;
  };

  // Lifetime poset over consumed ranges: v < w iff every consumer of v
  // strictly reaches def(w) — then v is provably released before w is
  // allocated, under ANY schedule. The registers simultaneously live at
  // any instant form an antichain, so a chain cover bounds the retained
  // peak: an antichain takes at most one element (hence at most the
  // maximum) from each chain.
  std::vector<const LiveRange*> rs;
  for (const LiveRange& r : report.ranges) {
    if (r.num_consumers > 0 && r.bytes > 0) rs.push_back(&r);
  }
  auto precedes = [&](const LiveRange* a, const LiveRange* b) {
    for (int c : deps.readers(a->var)) {
      if (c == b->def_pc || !reaches(c, b->def_pc)) return false;
    }
    return true;
  };
  // The exact maximum-weight antichain of this poset bounds the retained
  // bytes: when v < w every consumer of v completed before w was
  // allocated, so the live set at any instant under any schedule is an
  // antichain. The optimum is the LP dual of a fractional chain cover —
  // route bytes(v) units of flow through every element (edge
  // v_in -> v_out with lower bound bytes(v)) along poset relations and
  // minimize total s -> t flow (weighted Dilworth). Min flow with lower
  // bounds: excess transform + saturating super-source/sink max-flow for
  // a feasible circulation, then push back t -> s in the residual.
  int64_t chain_bound = 0;
  int64_t total_weight = 0;
  for (const LiveRange* r : rs) {
    total_weight = SaturatingAdd(total_weight, r->bytes);
  }
  if (total_weight < (int64_t{1} << 56)) {
    const int m = static_cast<int>(rs.size());
    // Node ids: 0 = s, 1 = t, 2+2i / 3+2i = element i in/out, then the
    // super source/sink of the lower-bound transform.
    auto in_node = [](int i) { return 2 + 2 * i; };
    auto out_node = [](int i) { return 3 + 2 * i; };
    const int super_s = 2 + 2 * m;
    const int super_t = 3 + 2 * m;
    MaxFlow net(4 + 2 * m);
    const int ts_edge = net.AddEdge(1, 0, MaxFlow::kFlowInf);
    for (int i = 0; i < m; ++i) {
      net.AddEdge(in_node(i), out_node(i), MaxFlow::kFlowInf);
      net.AddEdge(super_s, out_node(i), rs[static_cast<size_t>(i)]->bytes);
      net.AddEdge(in_node(i), super_t, rs[static_cast<size_t>(i)]->bytes);
      net.AddEdge(0, in_node(i), MaxFlow::kFlowInf);
      net.AddEdge(out_node(i), 1, MaxFlow::kFlowInf);
    }
    for (int i = 0; i < m; ++i) {
      for (int j = i + 1; j < m; ++j) {  // def-pc order: only i < j can hold
        if (precedes(rs[static_cast<size_t>(i)], rs[static_cast<size_t>(j)])) {
          net.AddEdge(out_node(i), in_node(j), MaxFlow::kFlowInf);
        }
      }
    }
    net.Run(super_s, super_t);
    int64_t feasible = net.cap(ts_edge ^ 1);  // flow carried by t -> s
    net.set_cap(ts_edge, 0);
    net.set_cap(ts_edge ^ 1, 0);
    chain_bound = feasible - net.Run(1, 0);
  } else {
    // Weights saturate the flow capacities — fall back to a greedy chain
    // partition in def-pc order (sum of per-chain maxima is a valid, if
    // looser, antichain bound).
    std::vector<std::vector<const LiveRange*>> chains;
    for (const LiveRange* r : rs) {
      bool placed = false;
      for (std::vector<const LiveRange*>& chain : chains) {
        if (precedes(chain.back(), r)) {
          chain.push_back(r);
          placed = true;
          break;
        }
      }
      if (!placed) chains.push_back({r});
    }
    for (const std::vector<const LiveRange*>& chain : chains) {
      int64_t heaviest = 0;
      for (const LiveRange* r : chain) heaviest = std::max(heaviest, r->bytes);
      chain_bound = SaturatingAdd(chain_bound, heaviest);
    }
  }

  // Consumer-less results live only inside their defining instruction's
  // completion; at most `dop` instructions are in flight, so the dop
  // heaviest such allocations cover every transient.
  std::vector<int64_t> transients(n, 0);
  for (const LiveRange& r : report.ranges) {
    if (r.num_consumers == 0 && r.def_pc >= 0 &&
        static_cast<size_t>(r.def_pc) < n) {
      transients[static_cast<size_t>(r.def_pc)] =
          SaturatingAdd(transients[static_cast<size_t>(r.def_pc)], r.bytes);
    }
  }
  std::sort(transients.begin(), transients.end(), std::greater<int64_t>());
  int64_t bound = chain_bound;
  for (size_t k = 0; k < transients.size() && k < static_cast<size_t>(dop); ++k) {
    bound = SaturatingAdd(bound, transients[k]);
  }
  return std::max(bound, report.seq_peak_bytes);
}

std::string FormatBytes(int64_t bytes) {
  if (bytes >= kUnboundedBytes) return "unbounded";
  if (bytes < 0) bytes = 0;
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  size_t u = 0;
  while (v >= 1024.0 && u + 1 < sizeof(units) / sizeof(units[0])) {
    v /= 1024.0;
    u++;
  }
  if (u == 0) return StrFormat("%lld B", static_cast<long long>(bytes));
  return StrFormat("%.1f %s", v, units[u]);
}

std::string FormatMemoryReport(const mal::Program& program,
                               const mal::Dependencies& deps,
                               const MemoryReport& report, int dop,
                               int top_k) {
  std::string out;
  int64_t par = ParallelPeakBound(program, deps, report, dop);
  out += StrFormat("memory profile: %zu instructions, %zu live ranges\n",
                   program.size(), report.ranges.size());
  out += StrFormat("  input (base columns bound): %s\n",
                   FormatBytes(report.input_bytes).c_str());
  out += StrFormat("  sequential peak: %s at pc %d\n",
                   FormatBytes(report.seq_peak_bytes).c_str(),
                   report.seq_peak_pc);
  out += StrFormat("  parallel bound (dop %d): %s\n", dop,
                   FormatBytes(par).c_str());
  if (!report.bounded) {
    out += "  (some cardinalities are unbounded; peaks saturate)\n";
  }

  // Top-k heaviest live ranges.
  std::vector<LiveRange> heavy = report.ranges;
  std::sort(heavy.begin(), heavy.end(),
            [](const LiveRange& a, const LiveRange& b) {
              return a.bytes > b.bytes;
            });
  if (top_k > 0 && heavy.size() > static_cast<size_t>(top_k)) {
    heavy.resize(static_cast<size_t>(top_k));
  }
  if (!heavy.empty()) out += "  heaviest live ranges:\n";
  for (const LiveRange& r : heavy) {
    const mal::Variable& var = program.variable(r.var);
    const mal::Instruction& def = program.instruction(r.def_pc);
    out += StrFormat(
        "    %-10s %10s  pc %d..%d  %s\n", var.name.c_str(),
        FormatBytes(r.bytes).c_str(), r.def_pc,
        r.last_use_pc < 0 ? r.def_pc : r.last_use_pc, def.FullName().c_str());
  }

  // Per-pc live-byte profile as a coarse sparkline (8 buckets).
  int64_t max_live = 1;
  for (int64_t v : report.live_after) {
    if (v < kUnboundedBytes) max_live = std::max(max_live, v);
  }
  static const char* kBlocks[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string spark;
  for (int64_t v : report.live_after) {
    size_t idx =
        v >= kUnboundedBytes
            ? 7
            : static_cast<size_t>((v * 7 + max_live - 1) / max_live);
    spark += kBlocks[std::min<size_t>(idx, 7)];
  }
  out += StrFormat("  live bytes by pc (max %s):\n    [%s]\n",
                   FormatBytes(max_live).c_str(), spark.c_str());
  return out;
}

int64_t EnvMemBudgetBytes() {
  const char* env = std::getenv("STETHO_MEM_BUDGET");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  long long v = std::strtoll(env, &end, 10);
  if (end == env || v < 0) return 0;
  int64_t bytes = static_cast<int64_t>(v);
  if (end != nullptr && *end != '\0') {
    switch (*end) {
      case 'k': case 'K': bytes *= int64_t{1} << 10; break;
      case 'm': case 'M': bytes *= int64_t{1} << 20; break;
      case 'g': case 'G': bytes *= int64_t{1} << 30; break;
      default: return 0;
    }
  }
  return bytes;
}

}  // namespace stetho::analysis
