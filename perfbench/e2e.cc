// End-to-end benchmark of the two Stethoscope viewer paths over an Mserver:
//
//   live_exec, live_wide  SQL text -> scope::OnlineMonitor::MonitorQuery ->
//                         final scene()->CurrentView() frame;
//   replay_browse         recorded trace -> dot::ParseDot ->
//                         scope::OfflineReplayer::Create -> scripted
//                         interactions (seek, step, views, focus + tooltip).
//
//   stetho_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--fault-drop-p <p>]
//
// All workloads are closed loops with one client thread at dop 1. The
// benchmark times only calls into public functions and checks every result
// (see README.md). Both loops run in rounds of identical work (each query,
// or each recorded trace with its fixed script, once in seeded order);
// timings come from the quickest quarter of the rounds, which filters out
// the host's contention phases, and the typical operation time is the
// median of those rounds' means. --trace 0 reports the end-to-end metrics;
// --trace 1 spends the first half of the run untraced and the second half
// calling each layer's public entry point around the same query or session,
// then prints a layer table whose rows plus the unattributed remainder add
// up to the measured wall time. The last stdout line is one JSON object
// {correct, attempted, failed, metrics}; the exit status is non-zero when any
// operation failed its check.

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/check.h"
#include "analysis/perfdiff.h"
#include "analysis/runner.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "engine/interpreter.h"
#include "layout/layout_cache.h"
#include "layout/sugiyama.h"
#include "net/channel.h"
#include "net/trace_stream.h"
#include "obs/metrics.h"
#include "obs/profile_store.h"
#include "optimizer/pass.h"
#include "profiler/profiler.h"
#include "profiler/sink.h"
#include "scope/online.h"
#include "scope/replayer.h"
#include "scope/textual.h"
#include "server/mserver.h"
#include "server/result_printer.h"
#include "sql/compiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

#ifndef STETHO_E2E_BUILD_TYPE
#define STETHO_E2E_BUILD_TYPE "unknown"
#endif
#ifndef STETHO_E2E_COMPILER
#define STETHO_E2E_COMPILER "unknown"
#endif

namespace stetho::perfbench {
namespace {

/// Environment variables the program would otherwise read behind the
/// benchmark's back (cache sizes, admission, persisted history, postmortem
/// files, scheduler self-checks).
constexpr const char* kRefusedEnv[] = {
    "STETHO_LAYOUT_CACHE", "STETHO_MEM_BUDGET", "STETHO_PROFILE_DIR",
    "STETHO_FLIGHT_DIR", "STETHO_SCHED_SELFCHECK"};

/// Pinned everywhere: 0 would resolve to hardware_concurrency().
constexpr int kDop = 1;
/// Cold set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Warm-up monitored runs of each live query (primes the profile store so
/// the straggler comparator is on, as for a user with history).
constexpr int kWarmupRuns = 2;
/// A replay session runs each kind of interaction this many times.
constexpr int kRepeatsPerKind = 2;
constexpr int kStepBurst = 16;
/// Replay traces: every suite query except "paper" at each mitosis width.
/// The widths keep every plan under layout::LayoutOptions::parallel_min_nodes
/// (768): the parallel layout's ParallelFor returns while a helper may still
/// be about to lock the caller's stack mutex, and a traced run with
/// mitosis-128 traces aborted in pthread_mutex_lock. Replay misses the
/// layout cache all the time, so it would keep hitting that race.
constexpr double kReplayScaleFactor = 0.002;
constexpr int kReplayMitosis[] = {8, 32, 48, 64};
/// Monitor settings shared by the live workloads: EDT pacing off, and an
/// analysis period short next to a query so it does not quantize the end.
constexpr int64_t kRenderIntervalUs = 0;
constexpr int64_t kAnalysisPeriodUs = 2000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double UsBetween(int64_t t0_ns, int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1000.0;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  if (lo + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

int64_t CounterValue(const char* name) {
  auto value = obs::Registry::Default()->CounterValue(name);
  return value.ok() ? value.value() : 0;
}

/// FNV-1a 64 over the full rendered result table: the digest every live
/// query's columns are held to.
uint64_t ResultDigest(const engine::QueryResult& result) {
  server::PrintOptions options;
  options.max_rows = static_cast<size_t>(-1);
  options.max_col_width = 1 << 20;
  const std::string text = server::FormatResultTable(result, options);
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Runs `setup` in a forked child; returns its wall time in seconds, or a
/// negative value when it failed.
double TimeSetupInChild(const std::function<bool()>& setup) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    const int64_t t0 = NowNs();
    const double seconds = setup() ? UsBetween(t0, NowNs()) / 1e6 : -1;
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) ==
                      static_cast<ssize_t>(sizeof(seconds));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1;
  if (read(fds[0], &seconds, sizeof(seconds)) !=
      static_cast<ssize_t>(sizeof(seconds))) {
    seconds = -1;
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1;
  }
  return seconds;
}

/// Median wall time in seconds of kSetupRepeats cold set-ups, or a negative
/// value when one failed. All but the last run in forked children of this
/// still single-threaded process, so none inherits another's caches or heap;
/// the run keeps the last one.
double MeasureSetup(const std::function<bool()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    const double s = TimeSetupInChild(setup);
    if (s < 0) return -1;
    seconds.push_back(s);
  }
  const int64_t t0 = NowNs();
  if (!setup()) return -1;
  seconds.push_back(UsBetween(t0, NowNs()) / 1e6);
  return Median(seconds);
}

/// --- command line ---

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// OnlineOptions::fault.drop_p for the live workloads (self-test only:
  /// proves the checks catch a lossy wire).
  double fault_drop_p = 0;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
      continue;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--fault-drop-p") {
      args.fault_drop_p = std::strtod(value.c_str(), &end);
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
    if (end == value.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) return Status::InvalidArgument("--workload is required");
  if (!(args.seconds > 0)) return Status::InvalidArgument("--seconds must be > 0");
  return args;
}

/// --- failure accounting (fail_ratio = failed / attempted) ---

class Tally {
 public:
  /// Records one attempted operation; an empty `error` means it passed.
  void Record(const std::string& error) {
    ++attempted_;
    if (error.empty()) return;
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(error);
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// --- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every per-layer metric, in BENCHMARK.json's order. A traced run reports
/// all of them; a layer the workload never calls reads 0.
struct MetricName {
  const char* name;
  const char* unit;
};
constexpr MetricName kPerLayerMetrics[] = {
    {"sql.compile_us", "us"},
    {"optimizer.pass_us", "us"},
    {"optimizer.pipeline_us", "us"},
    {"analysis.verify_us", "us"},
    {"analysis.lint_us", "us"},
    {"optimizer.passes_fired", "count"},
    {"dot.write_us", "us"},
    {"dot.bytes", "bytes"},
    {"engine.execute_us", "us"},
    {"engine.kernel_us", "us"},
    {"engine.dispatch_us", "us"},
    {"engine.instructions", "count"},
    {"profiler.emit_us", "us"},
    {"profiler.events", "count"},
    {"net.dropped", "count"},
    {"scope.ingest_us", "us"},
    {"scope.analysis_rounds", "count"},
    {"scope.color_updates", "count"},
    {"pipe.lost", "count"},
    {"pipe.reordered", "count"},
    {"dot.parse_us", "us"},
    {"layout.layout_us", "us"},
    {"layout.cache_hit_ratio", "1"},
    {"analysis.progress_cache_hit_ratio", "1"},
    {"scope.scene_us", "us"},
    {"scope.seek_us", "us"},
    {"scope.step16_us", "us"},
    {"scope.focus_tooltip_us", "us"},
    {"viz.render_us", "us"},
    {"viz.birdseye_us", "us"},
    {"viz.frame_commands", "count"},
    {"server.overhead_us", "us"},
    {"obs.fold_us", "us"},
    {"monitor.wall_us", "us"},
    {"monitor.exec_us", "us"},
    {"monitor.unattributed_us", "us"},
    {"replay.wall_us", "us"},
    {"replay.unattributed_us", "us"},
    {"trace.overhead_pct", "%"},
};

/// The traced run's result: `measured` in kPerLayerMetrics order, 0 where the
/// workload did not measure a metric.
std::vector<Metric> CompletePerLayer(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const MetricName& m : kPerLayerMetrics) {
    double value = 0;
    for (const Metric& x : measured) {
      if (x.name == m.name) value = x.value;
    }
    out.push_back({m.name, value, m.unit});
  }
  return out;
}

/// CPUs the process was allowed at start, and the one it pinned itself to
/// (-1 = not pinned).
struct Affinity {
  int cpus = -1;
  int pinned = -1;
};

int AffinityCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
}

/// Restricts the process, and every thread and child it starts, to the
/// first CPU it may run on (live workloads only: replay has no listener
/// thread and was measured unpinned). With the monitor's threads spread over several
/// vCPUs of a busy host, a descheduled listener thread went quiet for three
/// 2 ms analysis rounds after the query had returned; OnlineMonitor then
/// stops waiting for %EOF and reports a truncated trace (2 of 673 live_wide
/// queries in one run). On one CPU the listener, which has work queued, runs
/// whenever the monitor thread sleeps.
Affinity PinToOneCpu() {
  Affinity affinity;
  affinity.cpus = AffinityCpuCount();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return affinity;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) affinity.pinned = cpu;
    break;
  }
  return affinity;
}

Affinity g_affinity;

void PrintHostLine() {
  std::string cpu_max = "none";
  std::ifstream cgroup("/sys/fs/cgroup/cpu.max");
  if (cgroup) std::getline(cgroup, cpu_max);
  std::printf("# host: nproc=%u affinity_cpus=%d pinned_cpu=%d "
              "cgroup_cpu.max=\"%s\" compiler=\"%s\" build_type=%s dop=%d\n",
              std::thread::hardware_concurrency(),
              g_affinity.pinned >= 0 ? g_affinity.cpus : AffinityCpuCount(),
              g_affinity.pinned, cpu_max.c_str(), STETHO_E2E_COMPILER,
              STETHO_E2E_BUILD_TYPE, kDop);
}

/// Human-readable block using the metric names of the benchmark's README.
void PrintSummary(const std::string& title, const std::vector<Metric>& rows) {
  std::printf("# %s\n", title.c_str());
  for (const Metric& m : rows) {
    std::printf("#   %-34s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// The result line: must stay the last line on stdout.
void PrintResultJson(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed() == 0 ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {",
                tally.attempted(), tally.failed());
  out += buf;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, ",
                  i > 0 ? ", " : "", metrics[i].name.c_str(), v);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// One row of a traced-run layer table.
struct LayerRow {
  std::string layer;
  std::string measured_as;
  double mean_us;
};

void PrintLayerTable(const std::string& workload, const std::string& unit_of_work,
                     size_t samples, const std::vector<LayerRow>& rows,
                     double wall_mean_us) {
  std::printf("# traced layer table: %s, %zu %s, mean us per %s\n",
              workload.c_str(), samples, unit_of_work.c_str(),
              unit_of_work.c_str());
  std::printf("# | layer | measured as | mean us | share of wall |\n");
  std::printf("# |---|---|---:|---:|\n");
  double sum = 0;
  for (const LayerRow& row : rows) {
    sum += row.mean_us;
    std::printf("# | %s | %s | %.1f | %.1f %% |\n", row.layer.c_str(),
                row.measured_as.c_str(), row.mean_us,
                wall_mean_us > 0 ? 100.0 * row.mean_us / wall_mean_us : 0.0);
  }
  std::printf("# | **sum = wall** | | %.1f | %.1f %% |\n", sum,
              wall_mean_us > 0 ? 100.0 * sum / wall_mean_us : 0.0);
}

/// One seeded permutation of [0, n). A round visits every query (live) or
/// trace (replay) once in this order, so every round has the same mix.
std::vector<size_t> Shuffled(size_t n, SplitMix64* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  return order;
}

/// The reported timings come from the quickest quarter of a run's rounds.
/// The shared host this benchmark was tuned on changes speed by up to a
/// third within seconds as its neighbours' load comes and goes; since every
/// round has the same mix, the quickest rounds are the least disturbed ones.
constexpr double kQuickRoundShare = 0.25;

enum Series { kPlanSeries, kOpSeries, kExecSeries, kNumSeries };

/// Timing samples tagged with the round they ran in, plus each round's wall
/// time and operation count.
class RoundLog {
 public:
  void StartRound() {
    round_start_ns_ = NowNs();
    ops_.push_back(0);
  }
  void EndRound() { seconds_.push_back(UsBetween(round_start_ns_, NowNs()) / 1e6); }
  void CountOp() { ++ops_.back(); }
  void Add(Series series, double value) {
    samples_[series].push_back({value, ops_.size() - 1});
  }
  size_t rounds() const { return seconds_.size(); }

  /// Marks the quickest kQuickRoundShare of the finished rounds (at least
  /// one); `all` marks every round.
  std::vector<bool> Keep(bool all) const {
    std::vector<bool> keep(seconds_.size(), all);
    if (all || seconds_.empty()) return keep;
    std::vector<size_t> order(seconds_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](size_t a, size_t b) { return seconds_[a] < seconds_[b]; });
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(kQuickRoundShare * static_cast<double>(order.size())));
    for (size_t i = 0; i < n; ++i) keep[order[i]] = true;
    return keep;
  }
  std::vector<double> Values(Series series, const std::vector<bool>& keep) const {
    std::vector<double> out;
    for (const auto& [value, round] : samples_[series]) {
      if (round < keep.size() && keep[round]) out.push_back(value);
    }
    return out;
  }
  /// Median over the kept rounds of each round's mean sample. Every round
  /// has the same mix, so a round's mean weighs each kind of operation by
  /// its share of the work. A plain median of the samples sits on whichever
  /// kind holds the middle rank: in replay that was the 16-step burst,
  /// whose time is 16 hand-offs to the EDT thread, so it moved with the
  /// host's thread wake-up latency alone.
  double MedianRoundMean(Series series, const std::vector<bool>& keep) const {
    std::vector<double> sum(keep.size(), 0), count(keep.size(), 0);
    for (const auto& [value, round] : samples_[series]) {
      if (round >= keep.size() || !keep[round]) continue;
      sum[round] += value;
      count[round] += 1;
    }
    std::vector<double> means;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (count[i] > 0) means.push_back(sum[i] / count[i]);
    }
    return Median(means);
  }
  double OpsPerSecond(const std::vector<bool>& keep) const {
    double ops = 0, seconds = 0;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (!keep[i]) continue;
      ops += static_cast<double>(ops_[i]);
      seconds += seconds_[i];
    }
    return seconds > 0 ? ops / seconds : 0;
  }

 private:
  int64_t round_start_ns_ = 0;
  std::vector<double> seconds_;
  std::vector<int64_t> ops_;
  std::vector<std::pair<double, size_t>> samples_[kNumSeries];
};

/// Current resident set size in MiB (0 when /proc is unavailable).
double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Independent seeded streams for each input the seed drives.
struct Seeds {
  explicit Seeds(uint64_t seed) {
    SplitMix64 base(seed);
    cycle = base.Next();
    script = base.Next();
    check = base.Next();
    fault = base.Next();
  }
  uint64_t cycle, script, check, fault;
};

/// The database is dbgen's default-seeded one at every --seed: with a
/// per-seed database, live_exec's resident size ranged from 166 to 245 MiB
/// over seeds 1-6 (group and intermediate sizes cross allocation steps), so
/// runs on different seeds would measure different databases.
Result<storage::Catalog> MakeCatalog(double scale_factor) {
  tpch::TpchConfig config;
  config.scale_factor = scale_factor;
  return tpch::GenerateTpch(config);
}

// ===========================================================================
// Live workloads: live_exec, live_wide
// ===========================================================================

struct LiveSpec {
  const char* name;
  double scale_factor;
  int mitosis;
  std::vector<std::string> queries;
};

const std::vector<LiveSpec>& LiveSpecs() {
  static const std::vector<LiveSpec> specs = {
      {"live_exec", 0.05, 16, {"q1", "q3", "q6", "q18", "big_group"}},
      {"live_wide", 0.002, 128, {"q1", "q3", "q6", "q14", "scan_heavy"}},
  };
  return specs;
}

struct LiveQuery {
  std::string id;
  std::string sql;
  uint64_t digest = 0;  ///< force_sequential reference result
};

/// Everything one live set-up builds; the last of the repeats is measured.
struct LiveSetup {
  std::unique_ptr<obs::ProfileStore> store;  ///< the workload's history
  std::unique_ptr<server::Mserver> server;
  std::vector<LiveQuery> queries;
};

scope::OnlineOptions MakeOnlineOptions(obs::ProfileStore* store) {
  scope::OnlineOptions options;
  options.render_interval_us = kRenderIntervalUs;
  options.analysis_period_us = kAnalysisPeriodUs;
  options.profile = store;
  return options;
}

Result<std::unique_ptr<LiveSetup>> SetUpLive(const LiveSpec& spec) {
  layout::LayoutCache::Default()->Clear();
  auto setup = std::make_unique<LiveSetup>();
  STETHO_ASSIGN_OR_RETURN(storage::Catalog catalog,
                          MakeCatalog(spec.scale_factor));

  // Reference digests from the interpreter's sequential path, on a server
  // with its own profile store so the workload's history stays clean.
  obs::ProfileStore reference_store;
  server::MserverOptions reference_options;
  reference_options.dop = kDop;
  reference_options.mitosis_pieces = spec.mitosis;
  reference_options.force_sequential = true;
  reference_options.profile_store = &reference_store;
  server::Mserver reference(catalog, reference_options);
  for (const std::string& id : spec.queries) {
    STETHO_ASSIGN_OR_RETURN(tpch::TpchQuery query, tpch::GetQuery(id));
    STETHO_ASSIGN_OR_RETURN(server::QueryOutcome outcome,
                            reference.ExecuteSql(query.sql));
    setup->queries.push_back({id, query.sql, ResultDigest(outcome.result)});
  }

  setup->store = std::make_unique<obs::ProfileStore>();
  server::MserverOptions options;
  options.dop = kDop;
  options.mitosis_pieces = spec.mitosis;
  options.profile_store = setup->store.get();
  setup->server = std::make_unique<server::Mserver>(std::move(catalog), options);

  scope::OnlineMonitor warmup(setup->server.get(),
                              MakeOnlineOptions(setup->store.get()));
  for (int round = 0; round < kWarmupRuns; ++round) {
    for (const LiveQuery& query : setup->queries) {
      STETHO_ASSIGN_OR_RETURN(scope::OnlineReport report,
                              warmup.MonitorQuery(query.sql));
      (void)report;
    }
  }
  return setup;
}

/// Every check a monitored query must pass; "" when all hold.
std::string CheckLiveReport(const LiveQuery& query,
                            const Result<scope::OnlineReport>& result,
                            const viz::Frame* frame) {
  if (!result.ok()) {
    return query.id + ": " + result.status().ToString();
  }
  const scope::OnlineReport& report = result.value();
  const engine::QueryResult& qr = report.outcome.result;
  if (ResultDigest(qr) != query.digest) {
    return query.id + ": result differs from the force_sequential reference";
  }
  if (report.final_progress != 1.0) {
    return query.id + ": final_progress " + std::to_string(report.final_progress);
  }
  if (report.pipe_health.lost != 0 || report.pipe_health.duplicated != 0) {
    return query.id + ": pipe lost " + std::to_string(report.pipe_health.lost) +
           " duplicated " + std::to_string(report.pipe_health.duplicated);
  }
  const int64_t expected = 2 * static_cast<int64_t>(qr.stats.size());
  if (report.events_received != expected) {
    return query.id + ": events_received " +
           std::to_string(report.events_received) + " != 2 x " +
           std::to_string(qr.stats.size()) + " instructions";
  }
  if (frame == nullptr || frame->commands.empty()) {
    return query.id + ": empty final frame";
  }
  return "";
}

/// One untraced (or traced-phase) monitored query: SQL in -> final frame.
struct MonitoredRun {
  double wall_us = 0;        ///< MonitorQuery + CurrentView
  double plan_ready_us = -1; ///< SQL in -> first status_line callback
  double render_us = 0;      ///< the final CurrentView alone
  std::optional<scope::OnlineReport> report;
  size_t frame_commands = 0;
};

MonitoredRun MonitorOnce(scope::OnlineMonitor* monitor, int64_t* first_status_ns,
                         const LiveQuery& query, Tally* tally) {
  MonitoredRun run;
  *first_status_ns = 0;
  const int64_t t0 = NowNs();
  Result<scope::OnlineReport> result = monitor->MonitorQuery(query.sql);
  const int64_t t_returned = NowNs();
  std::optional<viz::Frame> frame;
  if (result.ok()) frame = monitor->scene()->CurrentView();
  const int64_t t1 = NowNs();
  run.wall_us = UsBetween(t0, t1);
  run.render_us = UsBetween(t_returned, t1);
  if (*first_status_ns > 0) run.plan_ready_us = UsBetween(t0, *first_status_ns);
  const std::string error =
      CheckLiveReport(query, result, frame ? &*frame : nullptr);
  tally->Record(error);
  if (frame) run.frame_commands = frame->commands.size();
  if (error.empty()) run.report = std::move(result).value();
  return run;
}

/// Per-query layer times of the traced run (microseconds unless a count).
struct LiveLayers {
  double compile = 0, pass = 0, pipeline = 0, verify = 0, lint = 0;
  double passes_fired = 0;
  double dot_write = 0, dot_bytes = 0;
  double execute = 0, kernel = 0, dispatch = 0, instructions = 0;
  double emit = 0, events = 0, dropped = 0;
  double ingest = 0;
  double parse = 0, layout = 0, scene = 0;
  double fold = 0, server_overhead = 0;
  double wall = 0, render = 0, monitored_exec = 0, frame_commands = 0;
  double analysis_rounds = 0, color_updates = 0, lost = 0, reordered = 0;
  bool layout_missed = false;
  int64_t layout_hits = 0, layout_misses = 0;
  int64_t progress_hits = 0, progress_misses = 0;
  double unattributed = 0;
};

/// A cold layout on the sequential path (the parallel one only ever runs
/// for plans of 768+ nodes; see kReplayMitosis for why it is avoided).
Result<layout::GraphLayout> ColdLayout(const dot::Graph& graph) {
  layout::LayoutOptions options;
  options.parallel_min_nodes = std::numeric_limits<int>::max();
  return layout::LayoutGraph(graph, options);
}

/// Default optimizer passes, in Pipeline::Default's order.
std::vector<std::unique_ptr<optimizer::Pass>> DefaultPasses(int mitosis) {
  std::vector<std::unique_ptr<optimizer::Pass>> passes;
  passes.push_back(optimizer::MakeConstantFoldingPass());
  passes.push_back(optimizer::MakeCommonSubexpressionPass());
  passes.push_back(optimizer::MakeDeadCodePass());
  if (mitosis > 1) passes.push_back(optimizer::MakeMitosisPass(mitosis));
  passes.push_back(optimizer::MakeMemoryReorderPass());
  passes.push_back(optimizer::MakeDataflowMarkerPass());
  return passes;
}

/// Calls each layer's public entry point on `query` in Mserver::ExecuteSql's
/// order, then monitors the same SQL. Errors are tallied; nullopt when a
/// layer call failed.
std::optional<LiveLayers> TraceLiveQuery(const LiveSpec& spec, LiveSetup* setup,
                                         scope::OnlineMonitor* monitor,
                                         int64_t* first_status_ns,
                                         obs::ProfileStore* scratch_store,
                                         const LiveQuery& query, Tally* tally) {
  LiveLayers l;
  server::Mserver* server = setup->server.get();
  auto fail = [&](const std::string& what, const Status& status) {
    tally->Record(query.id + " traced " + what + ": " + status.ToString());
    return std::nullopt;
  };

  // sql
  int64_t t0 = NowNs();
  auto compiled = sql::Compiler::CompileSql(server->catalog(), query.sql);
  l.compile = UsBetween(t0, NowNs());
  if (!compiled.ok()) return fail("compile", compiled.status());
  const mal::Program& unoptimized = compiled.value();

  // optimizer: the pass work alone, one pass at a time on a copy ...
  mal::Program by_pass = unoptimized;
  for (auto& pass : DefaultPasses(spec.mitosis)) {
    t0 = NowNs();
    auto changed = pass->Run(&by_pass);
    l.pass += UsBetween(t0, NowNs());
    if (!changed.ok()) return fail(pass->name(), changed.status());
  }
  // ... and the pipeline with its re-lint and equivalence differ.
  mal::Program plan = unoptimized;
  const int64_t fired0 = CounterValue("stetho_opt_passes_fired_total");
  t0 = NowNs();
  auto fired = optimizer::Pipeline::Default(spec.mitosis).Run(&plan);
  l.pipeline = UsBetween(t0, NowNs());
  if (!fired.ok()) return fail("pipeline", fired.status());
  l.passes_fired =
      static_cast<double>(CounterValue("stetho_opt_passes_fired_total") - fired0);
  l.verify = l.pipeline - l.pass;
  plan.set_function_name("user.traced");

  // analysis: one standalone lint of the optimized plan
  analysis::CheckContext context;
  context.program = &plan;
  context.registry = engine::ModuleRegistry::Default();
  t0 = NowNs();
  std::vector<analysis::Diagnostic> diagnostics =
      analysis::Runner::Default().Run(context);
  l.lint = UsBetween(t0, NowNs());
  (void)diagnostics;

  // dot
  dot::DotWriterOptions dot_options;
  dot_options.graph_name = plan.function_name();
  t0 = NowNs();
  const std::string dot_text = dot::ProgramToDot(plan, dot_options);
  l.dot_write = UsBetween(t0, NowNs());
  l.dot_bytes = static_cast<double>(dot_text.size());

  // engine: the interpreter with no profiler. One untimed run first, so
  // this and the profiled run below both start from warm caches and their
  // difference is the profiler's alone.
  engine::Interpreter interpreter(server->catalog());
  engine::ExecOptions exec;
  exec.num_threads = kDop;
  exec.use_dataflow = true;
  auto warm = interpreter.Execute(plan, exec);
  if (!warm.ok()) return fail("execute", warm.status());
  if (ResultDigest(warm.value()) != query.digest) {
    tally->Record(query.id + " traced execute: result differs from reference");
    return std::nullopt;
  }
  t0 = NowNs();
  auto executed = interpreter.Execute(plan, exec);
  l.execute = UsBetween(t0, NowNs());
  if (!executed.ok()) return fail("execute", executed.status());
  for (const engine::InstructionStat& stat : executed.value().stats) {
    l.kernel += static_cast<double>(stat.usec);
  }
  l.dispatch = l.execute - l.kernel;
  l.instructions = static_cast<double>(executed.value().stats.size());

  // profiler (+ net send): the same execution streaming its events through
  // a DatagramTraceSink into an in-process channel
  auto [sender, receiver] = net::Channel::CreatePair();
  std::shared_ptr<net::DatagramSender> wire(std::move(sender));
  profiler::Profiler profiler(SteadyClock::Default());
  profiler.AddSink(std::make_shared<net::DatagramTraceSink>(wire));
  (void)net::SendDotFile(wire.get(), "traced", dot_text);
  exec.profiler = &profiler;
  const int64_t emitted0 = CounterValue("stetho_profiler_events_emitted_total");
  const int64_t dropped0 = CounterValue("stetho_net_trace_dropped_total") +
                           CounterValue("stetho_net_datagrams_failed_total");
  t0 = NowNs();
  auto profiled = interpreter.Execute(plan, exec);
  l.emit = UsBetween(t0, NowNs()) - l.execute;
  if (!profiled.ok()) return fail("profiled execute", profiled.status());
  (void)net::SendEof(wire.get(), "traced");
  l.events = static_cast<double>(
      CounterValue("stetho_profiler_events_emitted_total") - emitted0);
  l.dropped = static_cast<double>(
      CounterValue("stetho_net_trace_dropped_total") +
      CounterValue("stetho_net_datagrams_failed_total") - dropped0);

  // scope ingest (+ net receive): dot, events and EOF into a fresh textual
  // stethoscope until it reports the query finished
  std::vector<profiler::TraceEvent> received;
  {
    scope::TextualStethoscope textual(scope::TextualOptions{});
    t0 = NowNs();
    Status added = textual.AddServer("server0", std::move(receiver));
    if (!added.ok()) return fail("ingest", added);
    // Dot and EOF keys are namespaced "<server>/<query>".
    const int64_t give_up = t0 + 10'000'000'000LL;
    while (!textual.QueryFinished("server0/traced") && NowNs() < give_up) {
      std::this_thread::yield();
    }
    l.ingest = UsBetween(t0, NowNs());
    if (!textual.QueryFinished("server0/traced")) {
      return fail("ingest", Status::Internal("no %EOF within 10 s"));
    }
    received = textual.BufferSnapshot();
    textual.Stop();
  }

  // dot parse, cold layout, scene over the cached layout
  t0 = NowNs();
  auto graph = dot::ParseDot(dot_text);
  l.parse = UsBetween(t0, NowNs());
  if (!graph.ok()) return fail("parse", graph.status());
  t0 = NowNs();
  auto cold = ColdLayout(graph.value());
  l.layout = UsBetween(t0, NowNs());
  if (!cold.ok()) return fail("layout", cold.status());
  (void)layout::LayoutCache::Default()->GetOrCompute(graph.value());
  scope::ReplayOptions scene_options;
  scene_options.render_interval_us = kRenderIntervalUs;
  t0 = NowNs();
  auto scene = scope::OfflineReplayer::Create(graph.value(), {}, scene_options);
  l.scene = UsBetween(t0, NowNs());
  if (!scene.ok()) return fail("scene", scene.status());
  scene.value().reset();

  // obs: the profile-store fold the server does after every query
  obs::QueryObservation observation = analysis::ObservationFromTrace(received);
  t0 = NowNs();
  observation.shape_hash = analysis::PlanShapeHash(plan);
  (void)scratch_store->Lookup(observation.shape_hash);
  Status folded = scratch_store->Fold(observation);
  l.fold = UsBetween(t0, NowNs());
  if (!folded.ok()) return fail("fold", folded);

  // server: ExecuteSql with no stream attached, less the layers above
  t0 = NowNs();
  auto outcome = server->ExecuteSql(query.sql);
  const double execute_sql = UsBetween(t0, NowNs());
  if (!outcome.ok()) return fail("ExecuteSql", outcome.status());
  if (ResultDigest(outcome.value().result) != query.digest) {
    tally->Record(query.id + " traced ExecuteSql: result differs from reference");
    return std::nullopt;
  }
  l.server_overhead =
      execute_sql - l.compile - l.pipeline - l.dot_write - l.execute - l.fold;

  // the monitored run itself, timed exactly as in the untraced loop
  const int64_t lh0 = CounterValue("stetho_layout_cache_hits_total");
  const int64_t lm0 = CounterValue("stetho_layout_cache_misses_total");
  const int64_t ph0 = CounterValue("stetho_progress_model_cache_hits_total");
  const int64_t pm0 = CounterValue("stetho_progress_model_cache_misses_total");
  MonitoredRun run = MonitorOnce(monitor, first_status_ns, query, tally);
  if (!run.report) return std::nullopt;
  l.layout_hits = CounterValue("stetho_layout_cache_hits_total") - lh0;
  l.layout_misses = CounterValue("stetho_layout_cache_misses_total") - lm0;
  l.progress_hits = CounterValue("stetho_progress_model_cache_hits_total") - ph0;
  l.progress_misses =
      CounterValue("stetho_progress_model_cache_misses_total") - pm0;
  l.layout_missed = l.layout_misses > 0;
  l.wall = run.wall_us;
  l.render = run.render_us;
  l.frame_commands = static_cast<double>(run.frame_commands);
  const scope::OnlineReport& report = *run.report;
  l.monitored_exec = static_cast<double>(report.outcome.result.total_usec);
  l.analysis_rounds = static_cast<double>(report.analysis_rounds);
  l.color_updates = static_cast<double>(report.color_updates);
  l.lost = static_cast<double>(report.pipe_health.lost);
  l.reordered = static_cast<double>(report.pipe_health.reordered);

  // The monitored path compiles and optimizes twice: once for the monitor's
  // EXPLAIN (progress model, straggler baseline) and once inside ExecuteSql.
  l.unattributed = l.wall - (2 * l.compile + 2 * l.pipeline + l.server_overhead +
                             l.dot_write + l.execute + l.emit + l.ingest +
                             l.parse + (l.layout_missed ? l.layout : 0) +
                             l.scene + l.render + l.fold);
  return l;
}

template <typename T, typename F>
std::vector<double> Column(const std::vector<T>& rows, F field) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const T& row : rows) out.push_back(field(row));
  return out;
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

int RunLive(const LiveSpec& spec, const Args& args) {
  const Seeds seeds(args.seed);
  std::unique_ptr<LiveSetup> setup;
  const double setup_s = MeasureSetup([&] {
    auto built = SetUpLive(spec);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", built.status().ToString().c_str());
      return false;
    }
    setup = std::move(built).value();
    return true;
  });
  if (setup_s < 0) return 1;

  Tally tally;
  int64_t first_status_ns = 0;
  scope::OnlineOptions options = MakeOnlineOptions(setup->store.get());
  options.fault.drop_p = args.fault_drop_p;
  options.fault.seed = seeds.fault;
  // Resident size is sampled between queries, outside the timed calls.
  double peak_mb = ResidentMb();
  options.status_line = [&first_status_ns](const std::string&) {
    if (first_status_ns == 0) first_status_ns = NowNs();
  };
  scope::OnlineMonitor monitor(setup->server.get(), options);
  SplitMix64 cycle(seeds.cycle);

  const int64_t start = NowNs();
  const int64_t seconds_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t deadline = start + seconds_ns;
  // The traced run spends its first half untraced (the overhead baseline).
  const int64_t traced_from = args.trace ? start + seconds_ns / 2 : deadline;
  RoundLog log;
  std::map<std::string, std::vector<double>> wall_by_query;
  std::vector<LiveLayers> layers;
  obs::ProfileStore scratch_store;
  while (log.rounds() == 0 || NowNs() < deadline) {
    const bool traced = NowNs() >= traced_from;
    log.StartRound();
    for (size_t i : Shuffled(setup->queries.size(), &cycle)) {
      const LiveQuery& query = setup->queries[i];
      log.CountOp();
      if (!traced) {
        MonitoredRun run = MonitorOnce(&monitor, &first_status_ns, query, &tally);
        peak_mb = std::max(peak_mb, ResidentMb());
        if (!run.report) continue;
        log.Add(kOpSeries, run.wall_us);
        wall_by_query[query.id].push_back(run.wall_us);
        if (run.plan_ready_us >= 0) log.Add(kPlanSeries, run.plan_ready_us);
        log.Add(kExecSeries,
                static_cast<double>(run.report->outcome.result.total_usec));
      } else {
        auto traced_query = TraceLiveQuery(spec, setup.get(), &monitor,
                                           &first_status_ns, &scratch_store,
                                           query, &tally);
        if (traced_query) layers.push_back(*traced_query);
      }
    }
    log.EndRound();
  }
  const std::vector<bool> quick = log.Keep(false);
  const std::vector<bool> all = log.Keep(true);
  const std::vector<double> wall = log.Values(kOpSeries, quick);
  const std::vector<double> plan_ready = log.Values(kPlanSeries, quick);
  const std::vector<double> exec = log.Values(kExecSeries, quick);

  PrintHostLine();
  for (const std::string& error : tally.errors()) {
    std::printf("# failure: %s\n", error.c_str());
  }
  const double fail_ratio = Ratio(tally.failed(), tally.attempted());
  std::vector<Metric> metrics;
  if (!args.trace) {
    for (const auto& [id, samples] : wall_by_query) {
      std::printf("#   %-10s %4zu queries, monitor p50 %.2f ms, p90 %.2f ms\n",
                  id.c_str(), samples.size(), Median(samples) / 1000,
                  Quantile(samples, 0.9) / 1000);
    }
    const std::vector<double> all_wall = log.Values(kOpSeries, all);
    PrintSummary(spec.name + std::string(": ") + std::to_string(all_wall.size()) +
                     " monitored queries in " + std::to_string(log.rounds()) +
                     " rounds; timings from the quickest quarter of rounds",
                 {{"monitor_ms_mean", log.MedianRoundMean(kOpSeries, quick) / 1000, "ms"},
                  {"monitor_ms_p50", Median(wall) / 1000, "ms"},
                  {"monitor_ms_p90", Quantile(wall, 0.9) / 1000, "ms"},
                  {"plan_ready_ms_mean", log.MedianRoundMean(kPlanSeries, quick) / 1000,
                   "ms"},
                  {"plan_ready_ms_p50", Median(plan_ready) / 1000, "ms"},
                  {"plan_ready_ms_p90", Quantile(plan_ready, 0.9) / 1000, "ms"},
                  {"exec_ms_p50", Median(exec) / 1000, "ms"},
                  {"queries_per_s", log.OpsPerSecond(quick), "1/s"},
                  {"monitor_ms_p50, all rounds", Median(all_wall) / 1000, "ms"},
                  {"queries_per_s, all rounds", log.OpsPerSecond(all), "1/s"},
                  {"fail_ratio", fail_ratio, "1"},
                  {"peak_rss_mb", peak_mb, "MiB"},
                  {"setup_s", setup_s, "s"}});
    metrics = {
        {"setup_s", setup_s, "s"},
        {"plan_ms_mean", log.MedianRoundMean(kPlanSeries, quick) / 1000, "ms"},
        {"plan_ms_p90", Quantile(plan_ready, 0.9) / 1000, "ms"},
        {"op_ms_mean", log.MedianRoundMean(kOpSeries, quick) / 1000, "ms"},
        {"op_ms_p90", Quantile(wall, 0.9) / 1000, "ms"},
        {"ops_per_s", log.OpsPerSecond(quick), "1/s"},
        {"peak_rss_mb", peak_mb, "MiB"},
    };
  } else {
    auto col = [&](auto field) { return Column(layers, field); };
    auto mean = [&](auto field) { return Mean(col(field)); };
    auto p50 = [&](auto field) { return Median(col(field)); };
    int64_t lh = 0, lm = 0, ph = 0, pm = 0;
    for (const LiveLayers& l : layers) {
      lh += l.layout_hits;
      lm += l.layout_misses;
      ph += l.progress_hits;
      pm += l.progress_misses;
    }
    const double traced_wall_p50 = p50([](const LiveLayers& l) { return l.wall; });
    const double untraced_wall_p50 = Median(log.Values(kOpSeries, all));
    const double overhead_pct =
        untraced_wall_p50 > 0 ? 100.0 * (traced_wall_p50 / untraced_wall_p50 - 1)
                              : 0;
    const std::vector<LayerRow> rows = {
        {"sql", "Compiler::CompileSql x2 (EXPLAIN + ExecuteSql)",
         2 * mean([](const LiveLayers& l) { return l.compile; })},
        {"optimizer", "sum of Pass::Run x2",
         2 * mean([](const LiveLayers& l) { return l.pass; })},
        {"analysis", "Pipeline::Run - sum of passes, x2 (re-lint + differ)",
         2 * mean([](const LiveLayers& l) { return l.verify; })},
        {"server", "ExecuteSql - its sql/optimizer/dot/engine/obs parts",
         mean([](const LiveLayers& l) { return l.server_overhead; })},
        {"dot", "ProgramToDot + ParseDot",
         mean([](const LiveLayers& l) { return l.dot_write + l.parse; })},
        {"engine", "Interpreter::Execute, no profiler",
         mean([](const LiveLayers& l) { return l.execute; })},
        {"profiler", "Execute with Profiler -> DatagramTraceSink -> Channel, "
                     "minus Execute (includes net send)",
         mean([](const LiveLayers& l) { return l.emit; })},
        {"scope (ingest)", "Channel -> TextualStethoscope until %EOF "
                           "(includes net receive)",
         mean([](const LiveLayers& l) { return l.ingest; })},
        {"layout", "LayoutGraph, counted only when the monitor missed the cache",
         mean([](const LiveLayers& l) { return l.layout_missed ? l.layout : 0.0; })},
        {"scope (scene)", "OfflineReplayer::Create over the cached layout",
         mean([](const LiveLayers& l) { return l.scene; })},
        {"viz", "final scene()->CurrentView()",
         mean([](const LiveLayers& l) { return l.render; })},
        {"obs", "PlanShapeHash + ProfileStore Lookup + Fold",
         mean([](const LiveLayers& l) { return l.fold; })},
        {"unattributed", "thread hand-offs, dot-wait and analysis-period sleeps, "
                         "overlap (negative when layers ran concurrently)",
         mean([](const LiveLayers& l) { return l.unattributed; })},
    };
    PrintLayerTable(spec.name, "query", layers.size(), rows,
                    mean([](const LiveLayers& l) { return l.wall; }));
    std::printf("# layout cache base: %" PRId64 " hits + %" PRId64
                " misses; progress-model cache base: %" PRId64 " hits + %" PRId64
                " misses; trace.overhead_pct %.2f (traced monitor p50 %.1f us "
                "vs untraced %.1f us over %zu queries)\n",
                lh, lm, ph, pm, overhead_pct, traced_wall_p50, untraced_wall_p50,
                log.Values(kOpSeries, all).size());
    metrics = {
        {"sql.compile_us", p50([](const LiveLayers& l) { return l.compile; }), "us"},
        {"optimizer.pass_us", p50([](const LiveLayers& l) { return l.pass; }), "us"},
        {"optimizer.pipeline_us", p50([](const LiveLayers& l) { return l.pipeline; }), "us"},
        {"analysis.verify_us", p50([](const LiveLayers& l) { return l.verify; }), "us"},
        {"analysis.lint_us", p50([](const LiveLayers& l) { return l.lint; }), "us"},
        {"optimizer.passes_fired", p50([](const LiveLayers& l) { return l.passes_fired; }), "count"},
        {"dot.write_us", p50([](const LiveLayers& l) { return l.dot_write; }), "us"},
        {"dot.bytes", p50([](const LiveLayers& l) { return l.dot_bytes; }), "bytes"},
        {"engine.execute_us", p50([](const LiveLayers& l) { return l.execute; }), "us"},
        {"engine.kernel_us", p50([](const LiveLayers& l) { return l.kernel; }), "us"},
        {"engine.dispatch_us", p50([](const LiveLayers& l) { return l.dispatch; }), "us"},
        {"engine.instructions", p50([](const LiveLayers& l) { return l.instructions; }), "count"},
        {"profiler.emit_us", p50([](const LiveLayers& l) { return l.emit; }), "us"},
        {"profiler.events", p50([](const LiveLayers& l) { return l.events; }), "count"},
        {"net.dropped", p50([](const LiveLayers& l) { return l.dropped; }), "count"},
        {"scope.ingest_us", p50([](const LiveLayers& l) { return l.ingest; }), "us"},
        {"scope.analysis_rounds", p50([](const LiveLayers& l) { return l.analysis_rounds; }), "count"},
        {"scope.color_updates", p50([](const LiveLayers& l) { return l.color_updates; }), "count"},
        {"pipe.lost", p50([](const LiveLayers& l) { return l.lost; }), "count"},
        {"pipe.reordered", p50([](const LiveLayers& l) { return l.reordered; }), "count"},
        {"dot.parse_us", p50([](const LiveLayers& l) { return l.parse; }), "us"},
        {"layout.layout_us", p50([](const LiveLayers& l) { return l.layout; }), "us"},
        {"layout.cache_hit_ratio", Ratio(lh, lh + lm), "1"},
        {"analysis.progress_cache_hit_ratio", Ratio(ph, ph + pm), "1"},
        {"scope.scene_us", p50([](const LiveLayers& l) { return l.scene; }), "us"},
        {"viz.render_us", p50([](const LiveLayers& l) { return l.render; }), "us"},
        {"viz.frame_commands", p50([](const LiveLayers& l) { return l.frame_commands; }), "count"},
        {"server.overhead_us", p50([](const LiveLayers& l) { return l.server_overhead; }), "us"},
        {"obs.fold_us", p50([](const LiveLayers& l) { return l.fold; }), "us"},
        {"monitor.wall_us", traced_wall_p50, "us"},
        {"monitor.exec_us", p50([](const LiveLayers& l) { return l.monitored_exec; }), "us"},
        {"monitor.unattributed_us", p50([](const LiveLayers& l) { return l.unattributed; }), "us"},
        {"trace.overhead_pct", overhead_pct, "%"},
    };
  }
  PrintResultJson(tally, args.trace ? CompletePerLayer(metrics) : metrics);
  return tally.failed() == 0 ? 0 : 1;
}

// ===========================================================================
// Offline workload: replay_browse
// ===========================================================================

struct RecordedTrace {
  std::string name;  ///< "<query>@<mitosis>"
  std::string dot;
  std::vector<profiler::TraceEvent> events;
  size_t num_nodes = 0;  ///< of the parsed dot graph
};

/// Records every suite query except "paper" at each mitosis width through an
/// Mserver with a RingBufferSink, then opens each trace once so the layout
/// cache holds its steady-state mix.
Result<std::vector<RecordedTrace>> SetUpReplay() {
  layout::LayoutCache::Default()->Clear();
  STETHO_ASSIGN_OR_RETURN(storage::Catalog catalog,
                          MakeCatalog(kReplayScaleFactor));
  std::vector<RecordedTrace> traces;
  obs::ProfileStore store;
  for (int mitosis : kReplayMitosis) {
    server::MserverOptions options;
    options.dop = kDop;
    options.mitosis_pieces = mitosis;
    options.profile_store = &store;
    server::Mserver server(catalog, options);
    auto ring = std::make_shared<profiler::RingBufferSink>(1 << 16);
    server.profiler()->AddSink(ring);
    for (const tpch::TpchQuery& query : tpch::TpchQueries()) {
      if (query.id == "paper") continue;
      STETHO_ASSIGN_OR_RETURN(server::QueryOutcome outcome,
                              server.ExecuteSql(query.sql));
      RecordedTrace trace;
      trace.name = query.id + "@" + std::to_string(mitosis);
      trace.dot = std::move(outcome.dot);
      trace.events = ring->Snapshot();
      ring->Clear();
      if (trace.events.size() != 2 * outcome.result.stats.size()) {
        return Status::Internal(trace.name + ": recorded " +
                                std::to_string(trace.events.size()) +
                                " events for " +
                                std::to_string(outcome.result.stats.size()) +
                                " instructions");
      }
      traces.push_back(std::move(trace));
    }
  }
  VirtualClock clock;
  scope::ReplayOptions options;
  options.clock = &clock;
  options.render_interval_us = kRenderIntervalUs;
  options.mode = scope::ColoringMode::kState;
  for (RecordedTrace& trace : traces) {
    STETHO_ASSIGN_OR_RETURN(dot::Graph graph, dot::ParseDot(trace.dot));
    trace.num_nodes = graph.num_nodes();
    STETHO_ASSIGN_OR_RETURN(auto replayer,
                            scope::OfflineReplayer::Create(graph, trace.events,
                                                           options));
    (void)replayer;
  }
  return traces;
}

enum class Interaction { kSeek, kStep16, kCurrentView, kBirdsEye, kFocus };
constexpr int kNumInteractions = 5;

/// One interaction of a session script and the event or node it targets.
struct ScriptedInteraction {
  Interaction kind;
  size_t seek_to;
  size_t node;
};

/// One session script per trace, drawn once per run: each kind
/// kRepeatsPerKind times in seeded order, with seeded targets. Every round
/// replays the same scripts, so rounds differ only in trace order, and
/// every trace sees every kind equally often, so a round's mix of work is
/// the same at every seed.
std::vector<std::vector<ScriptedInteraction>> MakeScripts(
    const std::vector<RecordedTrace>& traces, SplitMix64* rng) {
  std::vector<std::vector<ScriptedInteraction>> scripts;
  for (const RecordedTrace& trace : traces) {
    std::vector<ScriptedInteraction> script;
    for (size_t i : Shuffled(kNumInteractions * kRepeatsPerKind, rng)) {
      const auto kind = static_cast<Interaction>(i % kNumInteractions);
      const size_t seek_to = rng->NextBounded(trace.events.size() + 1);
      const size_t node = rng->NextBounded(std::max<size_t>(1, trace.num_nodes));
      script.push_back({kind, seek_to, node});
    }
    scripts.push_back(std::move(script));
  }
  return scripts;
}

/// Runs one interaction; "" on success. `*commands` receives the draw
/// command count of the frame a view interaction rendered.
std::string Interact(Interaction kind, scope::OfflineReplayer* replayer,
                     const dot::Graph& graph, size_t seek_to, size_t node,
                     size_t* commands) {
  switch (kind) {
    case Interaction::kSeek: {
      Status s = replayer->SeekTo(seek_to);
      return s.ok() ? "" : "SeekTo: " + s.ToString();
    }
    case Interaction::kStep16: {
      if (replayer->AtEnd()) replayer->Rewind();
      for (int i = 0; i < kStepBurst && !replayer->AtEnd(); ++i) {
        Status s = replayer->Step();
        if (!s.ok()) return "Step: " + s.ToString();
      }
      return "";
    }
    case Interaction::kCurrentView:
      *commands = replayer->CurrentView().commands.size();
      return *commands == 0 ? "CurrentView: empty" : "";
    case Interaction::kBirdsEye:
      *commands = replayer->BirdsEyeView().commands.size();
      return *commands == 0 ? "BirdsEyeView: empty" : "";
    case Interaction::kFocus: {
      const std::string& id = graph.node(node).id;
      Status s = replayer->FocusNode(id);
      if (!s.ok()) return "FocusNode: " + s.ToString();
      if (replayer->TooltipFor(id).empty()) return "TooltipFor: empty";
      *commands = replayer->CurrentView().commands.size();
      return *commands == 0 ? "focus view: empty" : "";
    }
  }
  return "unknown interaction";
}

/// Colors after SeekTo(k) must equal the colors after stepping 0 -> k.
std::string CheckSeekMatchesSteps(const RecordedTrace& trace, size_t k,
                                  const scope::ReplayOptions& options) {
  auto graph = dot::ParseDot(trace.dot);
  if (!graph.ok()) return trace.name + ": " + graph.status().ToString();
  auto seeker = scope::OfflineReplayer::Create(graph.value(), trace.events, options);
  auto stepper = scope::OfflineReplayer::Create(graph.value(), trace.events, options);
  if (!seeker.ok() || !stepper.ok()) return trace.name + ": Create failed";
  Status s = seeker.value()->SeekTo(k);
  if (!s.ok()) return trace.name + ": SeekTo " + s.ToString();
  for (size_t i = 0; i < k; ++i) {
    s = stepper.value()->Step();
    if (!s.ok()) return trace.name + ": Step " + s.ToString();
  }
  for (const dot::GraphNode& node : graph.value().nodes()) {
    auto a = seeker.value()->NodeColor(node.id);
    auto b = stepper.value()->NodeColor(node.id);
    if (a.ok() != b.ok() || (a.ok() && !(a.value() == b.value()))) {
      return trace.name + ": node " + node.id + " differs after SeekTo(" +
             std::to_string(k) + ") vs stepping";
    }
  }
  return "";
}

/// Per-session layer times of the traced run (microseconds).
struct ReplayLayers {
  double parse = 0, layout = 0, create = 0, scene = 0;
  bool layout_missed = false;
  double seek = 0, step16 = 0, focus = 0, render = 0, birdseye = 0;
  double wall = 0, unattributed = 0;
};

int RunReplay(const Args& args) {
  const Seeds seeds(args.seed);
  std::vector<RecordedTrace> traces;
  const double setup_s = MeasureSetup([&] {
    auto built = SetUpReplay();
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", built.status().ToString().c_str());
      return false;
    }
    traces = std::move(built).value();
    return true;
  });
  if (setup_s < 0) return 1;

  Tally tally;
  VirtualClock clock;
  scope::ReplayOptions options;
  options.clock = &clock;
  options.render_interval_us = kRenderIntervalUs;
  options.mode = scope::ColoringMode::kState;
  SplitMix64 script(seeds.script);
  const std::vector<std::vector<ScriptedInteraction>> scripts =
      MakeScripts(traces, &script);

  const int64_t start = NowNs();
  const int64_t seconds_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t deadline = start + seconds_ns;
  const int64_t traced_from = args.trace ? start + seconds_ns / 2 : deadline;
  RoundLog log;
  double peak_mb = ResidentMb();
  std::vector<double> by_kind[kNumInteractions];
  std::vector<double> frame_commands;
  std::vector<ReplayLayers> layers;
  std::vector<double> traced_open_us;
  int64_t layout_hits = 0, layout_misses = 0;
  while (log.rounds() == 0 || NowNs() < deadline) {
    const bool traced = NowNs() >= traced_from;
    log.StartRound();
    for (size_t pick : Shuffled(traces.size(), &script)) {
      const RecordedTrace& trace = traces[pick];
      std::vector<profiler::TraceEvent> events = trace.events;
      ReplayLayers l;
      double extra_us = 0;  // traced-only calls, excluded from the session wall
      const int64_t session0 = NowNs();

      // open: ParseDot + OfflineReplayer::Create
      int64_t t0 = NowNs();
      auto graph = dot::ParseDot(trace.dot);
      l.parse = UsBetween(t0, NowNs());
      log.CountOp();
      if (!graph.ok()) {
        tally.Record(trace.name + ": " + graph.status().ToString());
        continue;
      }
      if (traced) {
        const int64_t x0 = NowNs();
        auto cold = ColdLayout(graph.value());
        l.layout = UsBetween(x0, NowNs());
        extra_us += l.layout;
        if (!cold.ok()) tally.Record(trace.name + " layout: " + cold.status().ToString());
      }
      const int64_t lh0 = CounterValue("stetho_layout_cache_hits_total");
      const int64_t lm0 = CounterValue("stetho_layout_cache_misses_total");
      t0 = NowNs();
      auto created = scope::OfflineReplayer::Create(graph.value(), std::move(events),
                                                    options);
      l.create = UsBetween(t0, NowNs());
      const int64_t missed = CounterValue("stetho_layout_cache_misses_total") - lm0;
      if (!created.ok()) {
        tally.Record(trace.name + ": " + created.status().ToString());
        continue;
      }
      tally.Record("");
      std::unique_ptr<scope::OfflineReplayer> replayer = std::move(created).value();
      if (!traced) {
        log.Add(kPlanSeries, l.parse + l.create);
      } else {
        layout_hits += CounterValue("stetho_layout_cache_hits_total") - lh0;
        layout_misses += missed;
        l.layout_missed = missed > 0;
        traced_open_us.push_back(l.parse + l.create);
        // The scene alone: a second Create, now over the cached layout.
        const int64_t x0 = NowNs();
        std::vector<profiler::TraceEvent> copy = trace.events;
        {
          const int64_t x1 = NowNs();
          auto again = scope::OfflineReplayer::Create(graph.value(),
                                                      std::move(copy), options);
          l.scene = UsBetween(x1, NowNs());
          if (!again.ok()) {
            tally.Record(trace.name + " scene: " + again.status().ToString());
          }
        }
        extra_us += UsBetween(x0, NowNs());
      }

      for (const auto& [kind, seek_to, node] : scripts[pick]) {
        size_t commands = 0;
        t0 = NowNs();
        const std::string error =
            Interact(kind, replayer.get(), graph.value(), seek_to, node, &commands);
        const double us = UsBetween(t0, NowNs());
        log.CountOp();
        tally.Record(error.empty() ? "" : trace.name + ": " + error);
        if (!error.empty()) continue;
        if (!traced) {
          log.Add(kOpSeries, us);
          by_kind[static_cast<int>(kind)].push_back(us);
        } else {
          switch (kind) {
            case Interaction::kSeek: l.seek += us; break;
            case Interaction::kStep16: l.step16 += us; break;
            case Interaction::kCurrentView: l.render += us; break;
            case Interaction::kBirdsEye: l.birdseye += us; break;
            case Interaction::kFocus: l.focus += us; break;
          }
          by_kind[static_cast<int>(kind)].push_back(us);
        }
        if (kind == Interaction::kCurrentView) {
          frame_commands.push_back(static_cast<double>(commands));
        }
      }
      if (traced) {
        l.wall = UsBetween(session0, NowNs()) - extra_us;
        l.unattributed = l.wall - (l.parse + (l.layout_missed ? l.layout : 0) +
                                   l.scene + l.seek + l.step16 + l.focus +
                                   l.render + l.birdseye);
        layers.push_back(l);
      }

    }
    log.EndRound();
    peak_mb = std::max(peak_mb, ResidentMb());
  }
  const std::vector<bool> quick = log.Keep(false);
  const std::vector<bool> all = log.Keep(true);
  const std::vector<double> open_us = log.Values(kPlanSeries, quick);
  const std::vector<double> interact_us = log.Values(kOpSeries, quick);

  // Seek/step agreement, once per trace, outside the timed interactions.
  SplitMix64 check(seeds.check);
  for (const RecordedTrace& trace : traces) {
    const size_t k = check.NextBounded(trace.events.size() + 1);
    tally.Record(CheckSeekMatchesSteps(trace, k, options));
  }

  PrintHostLine();
  for (const std::string& error : tally.errors()) {
    std::printf("# failure: %s\n", error.c_str());
  }
  const double fail_ratio = Ratio(tally.failed(), tally.attempted());
  std::vector<Metric> metrics;
  if (!args.trace) {
    constexpr const char* kKindNames[kNumInteractions] = {
        "seek", "step16", "current_view", "birds_eye", "focus_tooltip"};
    for (int k = 0; k < kNumInteractions; ++k) {
      std::printf("#   %-14s %6zu interactions (all rounds), p50 %.1f us, "
                  "p90 %.1f us\n",
                  kKindNames[k], by_kind[k].size(), Median(by_kind[k]),
                  Quantile(by_kind[k], 0.9));
    }
    PrintSummary(std::string("replay_browse: ") + std::to_string(log.rounds()) +
                     " rounds over " + std::to_string(traces.size()) +
                     " traces; timings from the quickest quarter of rounds (" +
                     std::to_string(open_us.size()) + " sessions, " +
                     std::to_string(interact_us.size()) + " interactions)",
                 {{"open_ms_mean", log.MedianRoundMean(kPlanSeries, quick) / 1000, "ms"},
                  {"open_ms_p50", Median(open_us) / 1000, "ms"},
                  {"open_ms_p90", Quantile(open_us, 0.9) / 1000, "ms"},
                  {"interact_us_mean", log.MedianRoundMean(kOpSeries, quick), "us"},
                  {"interact_us_p50", Median(interact_us), "us"},
                  {"interact_us_p90", Quantile(interact_us, 0.9), "us"},
                  {"ops_per_s", log.OpsPerSecond(quick), "1/s"},
                  {"interact_us_p50, all rounds",
                   Median(log.Values(kOpSeries, all)), "us"},
                  {"ops_per_s, all rounds", log.OpsPerSecond(all), "1/s"},
                  {"fail_ratio", fail_ratio, "1"},
                  {"peak_rss_mb", peak_mb, "MiB"},
                  {"setup_s", setup_s, "s"}});
    metrics = {
        {"setup_s", setup_s, "s"},
        {"plan_ms_mean", log.MedianRoundMean(kPlanSeries, quick) / 1000, "ms"},
        {"plan_ms_p90", Quantile(open_us, 0.9) / 1000, "ms"},
        {"op_ms_mean", log.MedianRoundMean(kOpSeries, quick) / 1000, "ms"},
        {"op_ms_p90", Quantile(interact_us, 0.9) / 1000, "ms"},
        {"ops_per_s", log.OpsPerSecond(quick), "1/s"},
        {"peak_rss_mb", peak_mb, "MiB"},
    };
  } else {
    auto mean = [&](auto field) { return Mean(Column(layers, field)); };
    auto p50 = [&](auto field) { return Median(Column(layers, field)); };
    const double traced_open_p50 = Median(traced_open_us);
    const double untraced_open_p50 = Median(log.Values(kPlanSeries, all));
    const double overhead_pct =
        untraced_open_p50 > 0 ? 100.0 * (traced_open_p50 / untraced_open_p50 - 1)
                              : 0;
    const std::vector<LayerRow> rows = {
        {"dot", "ParseDot", mean([](const ReplayLayers& l) { return l.parse; })},
        {"layout", "LayoutGraph, counted only when Create missed the cache",
         mean([](const ReplayLayers& l) { return l.layout_missed ? l.layout : 0.0; })},
        {"scope (scene)", "OfflineReplayer::Create over the cached layout",
         mean([](const ReplayLayers& l) { return l.scene; })},
        {"scope (seek)", "SeekTo", mean([](const ReplayLayers& l) { return l.seek; })},
        {"scope (step)", "16 x Step", mean([](const ReplayLayers& l) { return l.step16; })},
        {"scope (focus)", "FocusNode + TooltipFor + CurrentView",
         mean([](const ReplayLayers& l) { return l.focus; })},
        {"viz (view)", "CurrentView", mean([](const ReplayLayers& l) { return l.render; })},
        {"viz (birds-eye)", "BirdsEyeView",
         mean([](const ReplayLayers& l) { return l.birdseye; })},
        {"unattributed", "Create beyond layout + scene, script and loop overhead",
         mean([](const ReplayLayers& l) { return l.unattributed; })},
    };
    PrintLayerTable("replay_browse", "session", layers.size(), rows,
                    mean([](const ReplayLayers& l) { return l.wall; }));
    std::printf("# layout cache base: %" PRId64 " hits + %" PRId64
                " misses over %zu traced opens; trace.overhead_pct %.2f (traced "
                "open p50 %.1f us vs untraced %.1f us)\n",
                layout_hits, layout_misses, traced_open_us.size(), overhead_pct,
                traced_open_p50, untraced_open_p50);
    metrics = {
        {"dot.parse_us", p50([](const ReplayLayers& l) { return l.parse; }), "us"},
        {"layout.layout_us", p50([](const ReplayLayers& l) { return l.layout; }), "us"},
        {"layout.cache_hit_ratio", Ratio(layout_hits, layout_hits + layout_misses), "1"},
        {"scope.scene_us", p50([](const ReplayLayers& l) { return l.scene; }), "us"},
        {"scope.seek_us", Median(by_kind[static_cast<int>(Interaction::kSeek)]), "us"},
        {"scope.step16_us", Median(by_kind[static_cast<int>(Interaction::kStep16)]), "us"},
        {"scope.focus_tooltip_us", Median(by_kind[static_cast<int>(Interaction::kFocus)]), "us"},
        {"viz.render_us", Median(by_kind[static_cast<int>(Interaction::kCurrentView)]), "us"},
        {"viz.birdseye_us", Median(by_kind[static_cast<int>(Interaction::kBirdsEye)]), "us"},
        {"viz.frame_commands", Median(frame_commands), "count"},
        {"replay.wall_us", p50([](const ReplayLayers& l) { return l.wall; }), "us"},
        {"replay.unattributed_us", p50([](const ReplayLayers& l) { return l.unattributed; }), "us"},
        {"trace.overhead_pct", overhead_pct, "%"},
    };
  }
  PrintResultJson(tally, args.trace ? CompletePerLayer(metrics) : metrics);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace stetho::perfbench

int main(int argc, char** argv) {
  using namespace stetho::perfbench;
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "refusing to run: %s is set\n", name);
      return 2;
    }
  }
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\nusage: stetho_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--fault-drop-p <p>]\n",
                 args.status().ToString().c_str());
    return 2;
  }
  if (args.value().workload == "replay_browse") return RunReplay(args.value());
  for (const LiveSpec& spec : LiveSpecs()) {
    if (args.value().workload != spec.name) continue;
    // Before any thread starts, so every thread inherits the mask.
    g_affinity = PinToOneCpu();
    return RunLive(spec, args.value());
  }
  std::fprintf(stderr, "unknown workload %s\n", args.value().workload.c_str());
  return 2;
}
