#include "obs/profile_store.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace stetho::obs {
namespace {

/// Eight buckets per octave: values within one bucket differ by at most
/// 2^(1/8) ≈ 1.09×, so a bucket-center quantile is within ±4.5% of the
/// true sample — an order of magnitude finer than any alerting ratio.
constexpr double kBucketsPerOctave = 8.0;
constexpr int kMaxBucket = 512;  // 2^64 at 8/octave

int BucketIndex(int64_t value) {
  if (value <= 1) return 0;
  int i = static_cast<int>(
      std::llround(std::log2(static_cast<double>(value)) * kBucketsPerOctave));
  return std::clamp(i, 0, kMaxBucket);
}

double BucketCenter(int i) {
  if (i <= 0) return 1.0;
  return std::exp2(static_cast<double>(i) / kBucketsPerOctave);
}

Counter* QueriesCounter() {
  static Counter* c = Registry::Default()->GetOrCreateCounter(
      "stetho_profile_store_queries_total",
      "Completed-query observations folded into the profile store");
  return c;
}

Counter* LoadsCounter() {
  static Counter* c = Registry::Default()->GetOrCreateCounter(
      "stetho_profile_store_loads_total",
      "Journal records (query and aggregate) merged at load time");
  return c;
}

Counter* EvictionsCounter() {
  static Counter* c = Registry::Default()->GetOrCreateCounter(
      "stetho_profile_store_evictions_total",
      "Plan-shape profiles evicted from the in-memory store by the LRU cap");
  return c;
}

Counter* CorruptLinesCounter() {
  static Counter* c = Registry::Default()->GetOrCreateCounter(
      "stetho_profile_store_corrupt_lines_total",
      "Malformed journal lines skipped while loading a profile store");
  return c;
}

bool ParseI64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseHash(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), &end, 16);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

void RobustStat::Observe(int64_t value) {
  value = std::max<int64_t>(0, value);
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
  sum_ += value;
  ++buckets_[BucketIndex(value)];
}

void RobustStat::Merge(const RobustStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
  for (const auto& [bucket, n] : other.buckets_) buckets_[bucket] += n;
}

double RobustStat::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cumulative = 0;
  for (const auto& [bucket, n] : buckets_) {
    cumulative += static_cast<double>(n);
    if (cumulative >= target) return BucketCenter(bucket);
  }
  return BucketCenter(buckets_.rbegin()->first);
}

double RobustStat::Mad() const {
  if (count_ == 0) return 0;
  const double median = Median();
  std::vector<std::pair<double, int64_t>> deviations;
  deviations.reserve(buckets_.size());
  for (const auto& [bucket, n] : buckets_) {
    deviations.emplace_back(std::abs(BucketCenter(bucket) - median), n);
  }
  std::sort(deviations.begin(), deviations.end());
  const double target = 0.5 * static_cast<double>(count_);
  double cumulative = 0;
  for (const auto& [deviation, n] : deviations) {
    cumulative += static_cast<double>(n);
    if (cumulative >= target) return deviation;
  }
  return deviations.back().first;
}

std::optional<double> RegressionRatio(int64_t observed_usec, double median,
                                      double mad) {
  const double observed = static_cast<double>(observed_usec);
  const double floor = std::max(kRegressionMadK * mad,
                                static_cast<double>(kRegressionMinUsec));
  if (observed - median < floor) return std::nullopt;
  const double ratio = observed / std::max(1.0, median);
  if (ratio < kRegressionRatio) return std::nullopt;
  return ratio;
}

std::string RobustStat::Serialize() const {
  std::string out = StrFormat(
      "%lld,%lld,%lld,%lld", static_cast<long long>(count_),
      static_cast<long long>(sum_), static_cast<long long>(min_),
      static_cast<long long>(max_));
  for (const auto& [bucket, n] : buckets_) {
    out += StrFormat(",%d:%lld", bucket, static_cast<long long>(n));
  }
  return out;
}

bool RobustStat::Parse(const std::string& text, RobustStat* out) {
  RobustStat stat;
  std::vector<std::string> fields = Split(text, ',');
  if (fields.size() < 4) return false;
  if (!ParseI64(fields[0], &stat.count_) || !ParseI64(fields[1], &stat.sum_) ||
      !ParseI64(fields[2], &stat.min_) || !ParseI64(fields[3], &stat.max_)) {
    return false;
  }
  int64_t bucket_total = 0;
  for (size_t i = 4; i < fields.size(); ++i) {
    std::vector<std::string> pair = Split(fields[i], ':');
    int64_t bucket = 0;
    int64_t n = 0;
    if (pair.size() != 2 || !ParseI64(pair[0], &bucket) ||
        !ParseI64(pair[1], &n) || bucket < 0 || bucket > kMaxBucket ||
        n <= 0) {
      return false;
    }
    stat.buckets_[static_cast<int>(bucket)] += n;
    bucket_total += n;
  }
  if (stat.count_ < 0 || bucket_total != stat.count_) return false;
  *out = std::move(stat);
  return true;
}

void PlanProfile::Fold(const QueryObservation& observation) {
  shape_hash = observation.shape_hash;
  plan_size = std::max(plan_size, observation.plan_size);
  ++queries;
  total_usec.Observe(observation.total_usec);
  for (const PcSample& sample : observation.pcs) {
    if (sample.pc < 0) continue;
    if (static_cast<size_t>(sample.pc) >= pcs.size()) {
      pcs.resize(static_cast<size_t>(sample.pc) + 1);
    }
    PcStats& stats = pcs[static_cast<size_t>(sample.pc)];
    stats.usec.Observe(sample.usec);
    stats.bytes.Observe(sample.bytes);
    stats.concurrency.Observe(sample.concurrency);
  }
}

void PlanProfile::Merge(const PlanProfile& other) {
  shape_hash = other.shape_hash;
  plan_size = std::max(plan_size, other.plan_size);
  queries += other.queries;
  total_usec.Merge(other.total_usec);
  if (other.pcs.size() > pcs.size()) pcs.resize(other.pcs.size());
  for (size_t pc = 0; pc < other.pcs.size(); ++pc) {
    pcs[pc].usec.Merge(other.pcs[pc].usec);
    pcs[pc].bytes.Merge(other.pcs[pc].bytes);
    pcs[pc].concurrency.Merge(other.pcs[pc].concurrency);
  }
}

ProfileStore::ProfileStore(ProfileStoreOptions options)
    : capacity_(options.capacity == 0 ? 1 : options.capacity) {
  if (!options.dir.empty()) (void)OpenDir(options.dir);
}

ProfileStore::~ProfileStore() {
  if (journal_ != nullptr) std::fclose(journal_);
}

Status ProfileStore::Fold(const QueryObservation& observation) {
  if (observation.shape_hash == 0) {
    return Status::InvalidArgument("observation carries no plan-shape hash");
  }
  std::lock_guard<std::mutex> lock(mu_);
  QueriesCounter()->Increment();
  return FoldLocked(observation);
}

Status ProfileStore::FoldLocked(const QueryObservation& observation) {
  WritableLocked(observation.shape_hash)->Fold(observation);
  EvictLocked();
  return AppendJournalLocked(observation);
}

PlanProfile* ProfileStore::WritableLocked(uint64_t shape_hash) {
  auto it = profiles_.find(shape_hash);
  if (it == profiles_.end()) {
    lru_.push_front(shape_hash);
    return profiles_.emplace(shape_hash, std::make_shared<PlanProfile>())
        .first->second.get();
  }
  TouchLocked(shape_hash);
  std::shared_ptr<PlanProfile>& profile = it->second;
  if (profile.use_count() > 1) {
    // A Lookup snapshot is alive: write a copy, and leave the snapshot as
    // it was handed out. Only Lookup, under mu_, hands out new references,
    // so a count of one cannot grow while the lock is held.
    profile = std::make_shared<PlanProfile>(*profile);
  } else {
    // Readers drop their snapshots without the lock. Copying the pointer is
    // an acq_rel increment of the count their releases decremented, which
    // orders each reader's last access before the writes that follow.
    const std::shared_ptr<PlanProfile> order_after_readers = profile;
  }
  return profile.get();
}

std::shared_ptr<const PlanProfile> ProfileStore::Lookup(
    uint64_t shape_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = profiles_.find(shape_hash);
  if (it == profiles_.end()) return nullptr;
  TouchLocked(shape_hash);
  return it->second;
}

void ProfileStore::TouchLocked(uint64_t shape_hash) const {
  lru_.remove(shape_hash);
  lru_.push_front(shape_hash);
}

void ProfileStore::EvictLocked() {
  while (lru_.size() > capacity_) {
    profiles_.erase(lru_.back());
    lru_.pop_back();
    EvictionsCounter()->Increment();
  }
}

Status ProfileStore::ParseLine(const std::string& line) {
  std::vector<std::string> tokens = Split(line, ' ');
  // Split keeps empty tokens for repeated separators; drop them so the
  // format survives cosmetic whitespace.
  tokens.erase(std::remove_if(tokens.begin(), tokens.end(),
                              [](const std::string& t) { return t.empty(); }),
               tokens.end());
  if (tokens.empty()) return Status::OK();  // blank line
  if (tokens[0] == "#") return Status::OK();  // comment
  if (tokens[0] == "q") {
    // q <hash> <plan_size> <total_usec> [<pc>:<usec>:<bytes>:<conc>]*
    if (tokens.size() < 4) return Status::InvalidArgument("short q record");
    QueryObservation observation;
    int64_t plan_size = 0;
    if (!ParseHash(tokens[1], &observation.shape_hash) ||
        observation.shape_hash == 0 || !ParseI64(tokens[2], &plan_size) ||
        plan_size < 0 || !ParseI64(tokens[3], &observation.total_usec)) {
      return Status::InvalidArgument("malformed q record");
    }
    observation.plan_size = static_cast<size_t>(plan_size);
    for (size_t i = 4; i < tokens.size(); ++i) {
      std::vector<std::string> f = Split(tokens[i], ':');
      int64_t pc = 0;
      int64_t conc = 0;
      PcSample sample;
      if (f.size() != 4 || !ParseI64(f[0], &pc) || pc < 0 ||
          !ParseI64(f[1], &sample.usec) || !ParseI64(f[2], &sample.bytes) ||
          !ParseI64(f[3], &conc)) {
        return Status::InvalidArgument("malformed pc sample");
      }
      sample.pc = static_cast<int>(pc);
      sample.concurrency = static_cast<int>(conc);
      observation.pcs.push_back(sample);
    }
    LoadsCounter()->Increment();
    // Journal replay must not re-journal: stash and restore the path.
    std::string path;
    std::swap(path, journal_path_);
    Status st = FoldLocked(observation);
    std::swap(path, journal_path_);
    return st;
  }
  if (tokens[0] == "p") {
    // p <hash> <plan_size> <queries> <total-stat> [<pc>=<u>/<b>/<c>]*
    if (tokens.size() < 5) return Status::InvalidArgument("short p record");
    PlanProfile profile;
    int64_t plan_size = 0;
    if (!ParseHash(tokens[1], &profile.shape_hash) ||
        profile.shape_hash == 0 || !ParseI64(tokens[2], &plan_size) ||
        plan_size < 0 || !ParseI64(tokens[3], &profile.queries) ||
        profile.queries <= 0 ||
        !RobustStat::Parse(tokens[4], &profile.total_usec)) {
      return Status::InvalidArgument("malformed p record");
    }
    profile.plan_size = static_cast<size_t>(plan_size);
    for (size_t i = 5; i < tokens.size(); ++i) {
      size_t eq = tokens[i].find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("malformed pc stats");
      }
      int64_t pc = 0;
      if (!ParseI64(tokens[i].substr(0, eq), &pc) || pc < 0) {
        return Status::InvalidArgument("malformed pc index");
      }
      std::vector<std::string> stats = Split(tokens[i].substr(eq + 1), '/');
      PcStats parsed;
      if (stats.size() != 3 || !RobustStat::Parse(stats[0], &parsed.usec) ||
          !RobustStat::Parse(stats[1], &parsed.bytes) ||
          !RobustStat::Parse(stats[2], &parsed.concurrency)) {
        return Status::InvalidArgument("malformed pc stats");
      }
      if (static_cast<size_t>(pc) >= profile.pcs.size()) {
        profile.pcs.resize(static_cast<size_t>(pc) + 1);
      }
      profile.pcs[static_cast<size_t>(pc)] = std::move(parsed);
    }
    LoadsCounter()->Increment();
    WritableLocked(profile.shape_hash)->Merge(profile);
    EvictLocked();
    return Status::OK();
  }
  return Status::InvalidArgument("unknown record kind");
}

Status ProfileStore::LoadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::IoError("cannot open profile store '" + path + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  int c;
  while (true) {
    c = std::fgetc(f);
    if (c == '\n' || c == EOF) {
      if (!line.empty()) {
        if (!ParseLine(line).ok()) {
          ++corrupt_lines_;
          CorruptLinesCounter()->Increment();
        }
        line.clear();
      }
      if (c == EOF) break;
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  std::fclose(f);
  return Status::OK();
}

Status ProfileStore::SaveFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot write profile store '" + path + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [hash, profile] : profiles_) {
    std::string line = StrFormat(
        "p %016llx %zu %lld %s", static_cast<unsigned long long>(hash),
        profile->plan_size, static_cast<long long>(profile->queries),
        profile->total_usec.Serialize().c_str());
    for (size_t pc = 0; pc < profile->pcs.size(); ++pc) {
      const PcStats& stats = profile->pcs[pc];
      if (stats.usec.count() == 0 && stats.bytes.count() == 0) continue;
      line += StrFormat(" %zu=%s/%s/%s", pc,
                        stats.usec.Serialize().c_str(),
                        stats.bytes.Serialize().c_str(),
                        stats.concurrency.Serialize().c_str());
    }
    line += '\n';
    if (std::fputs(line.c_str(), f) == EOF) {
      std::fclose(f);
      return Status::IoError("write failed for '" + path + "'");
    }
  }
  std::fclose(f);
  return Status::OK();
}

Status ProfileStore::OpenDir(const std::string& dir) {
  const std::string path = dir + "/profile.journal";
  // Merge whatever history the journal holds (a missing journal is a fresh
  // store, not an error), then rewrite it compacted and append from there.
  if (std::FILE* probe = std::fopen(path.c_str(), "r")) {
    std::fclose(probe);
    STETHO_RETURN_IF_ERROR(LoadFile(path));
    STETHO_RETURN_IF_ERROR(SaveFile(path));
  }
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return Status::IoError("cannot open profile journal '" + path + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_ != nullptr) std::fclose(journal_);
  journal_ = f;
  journal_path_ = path;
  return Status::OK();
}

Status ProfileStore::AppendJournalLocked(const QueryObservation& observation) {
  if (journal_path_.empty() || journal_ == nullptr) return Status::OK();
  std::string line = StrFormat(
      "q %016llx %zu %lld",
      static_cast<unsigned long long>(observation.shape_hash),
      observation.plan_size, static_cast<long long>(observation.total_usec));
  for (const PcSample& sample : observation.pcs) {
    line += StrFormat(" %d:%lld:%lld:%d", sample.pc,
                      static_cast<long long>(sample.usec),
                      static_cast<long long>(sample.bytes),
                      sample.concurrency);
  }
  line += '\n';
  if (std::fputs(line.c_str(), journal_) == EOF) {
    return Status::IoError("profile journal append failed");
  }
  std::fflush(journal_);
  return Status::OK();
}

size_t ProfileStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profiles_.size();
}

int64_t ProfileStore::corrupt_lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_lines_;
}

ProfileStore* ProfileStore::Default() {
  static ProfileStore* store = [] {
    ProfileStoreOptions options;
    if (const char* dir = std::getenv("STETHO_PROFILE_DIR");
        dir != nullptr && dir[0] != '\0') {
      options.dir = dir;
    }
    return new ProfileStore(options);
  }();
  return store;
}

}  // namespace stetho::obs
