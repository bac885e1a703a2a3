#include "analysis/progress.h"

#include <algorithm>

#include "analysis/liveness.h"
#include "analysis/trace_index.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace stetho::analysis {
namespace {

/// Per-value clamp on the byte model feeding the weights: a single
/// unbounded (or astronomically-bounded) register must slow the plan's
/// progress bar, not freeze it at 0% until that one instruction lands.
constexpr int64_t kWeightByteCap = int64_t{1} << 30;  // 1 GiB

obs::Gauge* ProgressGauge() {
  static obs::Gauge* g = obs::Registry::Default()->GetOrCreateGauge(
      "stetho_query_progress_ratio",
      "Completion ratio of the most recently updated query, in millionths "
      "(gauges are integral); 1000000 = done");
  return g;
}

obs::Counter* CacheHitCounter() {
  static obs::Counter* c = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_progress_model_cache_hits_total",
      "Progress-model cache lookups served from the LRU");
  return c;
}

obs::Counter* CacheMissCounter() {
  static obs::Counter* c = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_progress_model_cache_misses_total",
      "Progress-model cache lookups that rebuilt the model");
  return c;
}

int64_t CapBytes(int64_t bytes) {
  if (bytes < 0) return 0;
  return std::min(bytes, kWeightByteCap);
}

/// "815us" / "1.2ms" / "3.4s" — scoreboard-sized durations.
std::string FormatUsec(int64_t usec) {
  if (usec < 1000) return StrFormat("%lldus", static_cast<long long>(usec));
  if (usec < 1000000) return StrFormat("%.1fms", usec / 1000.0);
  return StrFormat("%.1fs", usec / 1000000.0);
}

}  // namespace

std::shared_ptr<const ProgressModel> ProgressModel::Build(
    const engine::PreparedPlan& plan) {
  const mal::Program& program = plan.program();
  auto model = std::shared_ptr<ProgressModel>(new ProgressModel());
  const size_t n = program.size();
  model->weight_.assign(n, 1.0);
  model->deps_ = plan.deps();

  std::vector<InstructionFacts> facts;
  AnalyzeProgram(program, &facts);
  MemoryReport report = AnalyzeMemory(program, facts, model->deps_);
  std::vector<int64_t> var_bytes(program.num_variables(), 0);
  for (const LiveRange& range : report.ranges) {
    if (range.var >= 0 &&
        range.var < static_cast<int>(var_bytes.size())) {
      var_bytes[static_cast<size_t>(range.var)] = CapBytes(range.bytes);
    }
  }
  for (size_t pc = 0; pc < n; ++pc) {
    const mal::Instruction& ins = program.instruction(static_cast<int>(pc));
    int64_t bytes = pc < report.result_bytes.size()
                        ? CapBytes(report.result_bytes[pc])
                        : 0;
    for (const mal::Argument& arg : ins.args) {
      if (arg.kind == mal::Argument::Kind::kVar) {
        bytes += var_bytes[static_cast<size_t>(arg.var)];
      }
    }
    // 1 KiB of modeled traffic ~ one unit of per-value work (scaled by the
    // kernel's calibrated cost factor; kernels without a signature count
    // as per-value work); the +1 keeps metadata-only instructions visible
    // in the denominator.
    const KernelSignature* sig = facts[pc].sig;
    model->weight_[pc] = 1.0 + static_cast<double>(bytes) / 1024.0 *
                                   (sig != nullptr ? sig->cost_factor : 1.0);
    model->total_weight_ += model->weight_[pc];
  }

  // Longest path over the SSA dependency DAG (pcs are topologically
  // ordered by construction — producers precede consumers).
  std::vector<double> chain(n, 0.0);
  for (size_t pc = 0; pc < n; ++pc) {
    double longest = 0;
    for (int dep : model->deps_.producers(static_cast<int>(pc))) {
      longest = std::max(longest, chain[static_cast<size_t>(dep)]);
    }
    chain[pc] = longest + model->weight_[pc];
    model->critical_weight_ = std::max(model->critical_weight_, chain[pc]);
  }
  return model;
}

double ProgressModel::RemainingCriticalWeight(
    const std::vector<bool>& done) const {
  const size_t n = weight_.size();
  std::vector<double> chain(n, 0.0);
  double best = 0;
  for (size_t pc = 0; pc < n; ++pc) {
    double longest = 0;
    for (int dep : deps_.producers(static_cast<int>(pc))) {
      longest = std::max(longest, chain[static_cast<size_t>(dep)]);
    }
    const bool is_done = pc < done.size() && done[pc];
    chain[pc] = longest + (is_done ? 0.0 : weight_[pc]);
    best = std::max(best, chain[pc]);
  }
  return best;
}

std::shared_ptr<const ProgressModel> ProgressModelCache::GetOrBuild(
    const engine::PreparedPlan& plan) {
  // The same function-name-blind content hash the profile store keys
  // baselines by, computed once when the plan was prepared.
  const uint64_t key = plan.shape_hash();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(key);
    if (it != models_.end()) {
      ++hits_;
      CacheHitCounter()->Increment();
      lru_.remove(key);
      lru_.push_front(key);
      return it->second;
    }
  }
  // Build outside the lock (absint + liveness are the expensive part);
  // a concurrent duplicate build is wasted work, not a correctness issue.
  std::shared_ptr<const ProgressModel> model = ProgressModel::Build(plan);
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  CacheMissCounter()->Increment();
  if (models_.emplace(key, model).second) {
    lru_.push_front(key);
    while (capacity_ > 0 && lru_.size() > capacity_) {
      models_.erase(lru_.back());
      lru_.pop_back();
    }
  }
  return model;
}

int64_t ProgressModelCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t ProgressModelCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

ProgressModelCache* ProgressModelCache::Default() {
  static ProgressModelCache* cache = new ProgressModelCache(32);
  return cache;
}

ProgressEstimator::ProgressEstimator(
    std::shared_ptr<const ProgressModel> model)
    : model_(std::move(model)),
      done_(model_->plan_size(), false),
      pc_usec_(model_->plan_size(), -1),
      pc_end_us_(model_->plan_size(), 0),
      pc_rss_(model_->plan_size(), 0) {}

double ProgressEstimator::RatioLocked() const {
  if (finished_) return 1.0;
  double r = model_->total_weight() > 0
                 ? done_weight_ / model_->total_weight()
                 : (done_.empty() ? 1.0 : 0.0);
  max_ratio_ = std::min(1.0, std::max(max_ratio_, r));
  return max_ratio_;
}

void ProgressEstimator::OnInstructionDone(int pc, int64_t usec,
                                          int64_t now_us, int64_t rss_bytes) {
  double published;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pc < 0 || pc >= static_cast<int>(done_.size()) ||
        done_[static_cast<size_t>(pc)]) {
      return;  // duplicate delivery or foreign pc: already accounted
    }
    done_[static_cast<size_t>(pc)] = true;
    pc_usec_[static_cast<size_t>(pc)] = std::max<int64_t>(0, usec);
    pc_end_us_[static_cast<size_t>(pc)] = now_us;
    pc_rss_[static_cast<size_t>(pc)] = std::max<int64_t>(0, rss_bytes);
    ++done_count_;
    done_weight_ += model_->weight(pc);
    busy_usec_ += static_cast<double>(std::max<int64_t>(0, usec));
    if (first_us_ < 0) first_us_ = now_us - std::max<int64_t>(0, usec);
    newest_us_ = std::max(newest_us_, now_us);
    published = RatioLocked();
  }
  ProgressGauge()->Set(static_cast<int64_t>(published * 1e6));
}

void ProgressEstimator::ObserveEvent(const profiler::TraceEvent& event) {
  if (event.state != profiler::EventState::kDone) return;
  OnInstructionDone(event.pc, event.usec, event.time_us, event.rss_bytes);
}

void ProgressEstimator::MarkFinished() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
    max_ratio_ = 1.0;
  }
  ProgressGauge()->Set(1000000);
}

double ProgressEstimator::ratio() const {
  std::lock_guard<std::mutex> lock(mu_);
  return RatioLocked();
}

bool ProgressEstimator::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

int ProgressEstimator::done_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_count_;
}

int64_t ProgressEstimator::elapsed_usec() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_us_ >= 0 ? newest_us_ - first_us_ : 0;
}

int64_t ProgressEstimator::EtaUsec() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return 0;
  if (done_count_ == 0 || done_weight_ <= 0) return -1;
  const double remaining_weight = model_->total_weight() - done_weight_;
  if (remaining_weight <= 0) return 0;
  // Throughput extrapolation: the observed event-time span bought
  // done_weight_ units, remaining units cost proportionally.
  const double elapsed =
      static_cast<double>(std::max<int64_t>(1, newest_us_ - first_us_));
  const double by_rate = elapsed * remaining_weight / done_weight_;
  // Critical-path floor: the heaviest incomplete chain cannot run in
  // parallel with itself; price it at the observed serial cost per unit.
  const double usec_per_weight = busy_usec_ / done_weight_;
  const double by_path =
      model_->RemainingCriticalWeight(done_) * usec_per_weight;
  return static_cast<int64_t>(std::max(by_rate, by_path));
}

obs::QueryObservation ProgressEstimator::ToObservation(
    uint64_t shape_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::QueryObservation observation;
  observation.shape_hash = shape_hash;
  observation.plan_size = done_.size();
  observation.total_usec =
      first_us_ >= 0 ? std::max<int64_t>(0, newest_us_ - first_us_) : 0;

  // Observed concurrency: each completed pc occupied (end - usec, end].
  std::vector<ExecInterval> intervals;
  for (size_t pc = 0; pc < done_.size(); ++pc) {
    if (pc_usec_[pc] < 0) continue;
    intervals.push_back({pc_end_us_[pc] - pc_usec_[pc], pc_end_us_[pc]});
  }
  const std::vector<int> concurrency = ConcurrencyAtStart(intervals);

  size_t next_interval = 0;
  for (size_t pc = 0; pc < done_.size(); ++pc) {
    if (pc_usec_[pc] < 0) continue;
    obs::PcSample sample;
    sample.pc = static_cast<int>(pc);
    sample.usec = pc_usec_[pc];
    sample.bytes = pc_rss_[pc];
    sample.concurrency = concurrency[next_interval++];
    observation.pcs.push_back(sample);
  }
  return observation;
}

int64_t ProgressEstimator::PcUsec(int pc) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pc < 0 || pc >= static_cast<int>(pc_usec_.size())) return -1;
  return pc_usec_[static_cast<size_t>(pc)];
}

std::string ProgressEstimator::ScoreboardLine(const std::string& name) const {
  double r;
  int done;
  size_t total;
  bool fin;
  {
    std::lock_guard<std::mutex> lock(mu_);
    r = RatioLocked();
    done = done_count_;
    total = done_.size();
    fin = finished_;
  }
  const int64_t eta = EtaUsec();
  std::string line =
      StrFormat("%-6s %5.1f%%  %d/%d done", name.c_str(), 100.0 * r, done,
                static_cast<int>(total));
  if (fin) {
    line += StrFormat("  elapsed %s", FormatUsec(elapsed_usec()).c_str());
  } else if (eta >= 0) {
    line += StrFormat("  eta %s", FormatUsec(eta).c_str());
  }
  return line;
}

}  // namespace stetho::analysis
