#ifndef PERFBENCH_COMMON_HPP_
#define PERFBENCH_COMMON_HPP_

/**
 * @file
 * Shared pieces of the benchmark runner: arguments, the correctness
 * ledger, timing samples, registry deltas, the paper's
 * relative-to-expert quality measure, and the result report.
 *
 * Every workload measures the program from outside: it times the public
 * calls it makes itself and reads deltas of the process-global metrics
 * registry for the layers hidden behind those calls.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/search_space.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "suite/benchmark.hpp"

namespace baco {
class AskTellTuner;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /** A few benchmarks at short budgets: every check, in seconds. */
  bool small = false;
  /** Set up, report the set-up time, tear down; no timed phase. */
  bool setup_only = false;
  /** CLOCK_MONOTONIC reading taken by the launcher just before spawn. */
  std::int64_t spawn_ns = -1;
  std::string worker_cmd;
  /** Scratch directory for sockets, checkpoints and traces. */
  std::string out_dir;
};

/** Seconds since the launcher spawned this process (or since main()). */
double setup_seconds(const Args& args, Clock::time_point main_start);

/** splitmix64 over (a, b): the per-study seed derivation. */
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/**
 * Correctness ledger. Every checked operation is attempted once; any
 * mismatch fails it. The first few failure descriptions go to stderr.
 */
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mu_;
  int reported_ = 0;
};

/** Canonical text of a configuration, independent of the library hash. */
std::string config_key(const baco::Configuration& c);

/** Timing samples of one run; percentiles are exact. */
class Samples {
 public:
  void add(double seconds);
  void merge(const Samples& o);
  std::uint64_t size() const { return values_.size(); }
  double sum() const { return sum_; }
  /** Linear interpolation between the closest ranks. */
  double percentile(double q) const;

 private:
  std::vector<double> values_;
  double sum_ = 0.0;
};

/**
 * Sums of registry deltas over the timed sections only: begin()/end()
 * bracket each section, so set-up and verification never leak in.
 */
class RegistryDelta {
 public:
  void begin();
  void end();
  /** Summed delta of counter `name`, or of histogram `name`'s sum
   *  (seconds), over the sections. */
  double sum(const std::string& name) const;
  /** Summed delta of histogram `name`'s sample count. */
  std::uint64_t count(const std::string& name) const;

 private:
  baco::obs::MetricsSnapshot before_;
  std::map<std::string, double> sums_;
  std::map<std::string, std::uint64_t> counts_;
};

/**
 * Performance relative to expert at the tiny, small and full budgets
 * (the fig5 definition): reference_cost / best feasible value within
 * the first 1/3, 2/3 and all of the budget, geomean over studies.
 */
class Quality {
 public:
  /** Adds one study's values, in suggestion order. */
  void add(const baco::Benchmark& b, const std::vector<double>& values,
           const std::vector<bool>& feasible);
  void merge(const Quality& o);
  double geomean(int tier) const;
  std::size_t studies() const { return log_sum_[0].size(); }
  /** Checks tiny <= small <= full, which every best-so-far obeys. */
  void check_tiers(Checks& checks) const;

 private:
  std::vector<double> log_sum_[3];
};

/**
 * Per-evaluation checks shared by every workload: the value equals the
 * objective recomputed under eval_rng_for(seed, index), the
 * configuration satisfies the known constraints, and the feasibility
 * flag equals hidden_feasible. Returns the recompute time in seconds.
 */
double check_evaluation(Checks& checks, const baco::Benchmark& b,
                        const baco::SearchSpace& space,
                        std::uint64_t seed, std::uint64_t index,
                        const baco::Configuration& config, double value,
                        bool feasible);

/**
 * Encode and decode one evaluate frame and one result frame built from
 * a landed configuration; checks the round trip and returns the codec
 * time in seconds.
 */
double wire_round_trip(Checks& checks, const std::string& benchmark,
                       std::uint64_t seed, std::uint64_t index,
                       const baco::Configuration& config, double value,
                       bool feasible);

/**
 * Time save_checkpoint of a finished tuner; checks that the file loads
 * back to the same history, then removes it. Adds to *seconds, *bytes.
 */
void checkpoint_probe(Checks& checks, const std::string& path,
                      const baco::AskTellTuner& tuner, double* seconds,
                      double* bytes);

/** The benchmark's search space, built once per benchmark name. */
const baco::SearchSpace& space_of(const baco::Benchmark& b);

/** Run fn(i, worker) for i in [0, n) on `threads` threads; joins all. */
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t, int)>& fn);

/** Peak resident set of this process in MB. */
double peak_rss_mb();

/** Metrics of one run: the full set, printed as one JSON line. */
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  void set(const std::string& name, double value, const std::string& unit)
  {
      metrics[name] = {value, unit};
  }
  std::string to_json(const Checks& checks) const;
};

/**
 * Wall time, evaluations and step times of each round. A run does a
 * fixed number of rounds, so a parent and a change given the same
 * --seconds tune the same studies whatever their speed. ms_per_eval is
 * the median over the rounds of a run, and a step percentile the median
 * over groups of consecutive rounds holding at least kGroupSteps steps,
 * so a transient stall of a shared host moves one round or group rather
 * than the whole run.
 */
class RoundStats {
 public:
  /** `seconds` / `seconds_per_round` rounds, rounded, at least one. */
  RoundStats(double seconds, double seconds_per_round);
  bool another() const { return rounds() < planned_; }
  void add(double timed_s, std::uint64_t evals, const Samples& steps);
  std::size_t rounds() const { return ms_per_eval_.size(); }
  std::uint64_t steps() const;
  double step_percentile(double q) const;
  double timed_s() const { return timed_s_; }
  std::uint64_t evals() const { return evals_; }
  double median_ms_per_eval() const;

 private:
  static constexpr std::uint64_t kGroupSteps = 1000;
  std::size_t planned_;
  std::vector<double> ms_per_eval_;
  std::vector<Samples> groups_;
  double timed_s_ = 0.0;
  std::uint64_t evals_ = 0;
};

/** Fill every end-to-end metric shared by all workloads. */
void report_common(Report& r, double setup_s, const RoundStats& rounds,
                   const Quality& quality);

/**
 * Fill the per-layer metrics read from registry deltas: tuner phases,
 * session handling, spills and reloads, coordinator round trips. Times
 * are per evaluation; counts are per round.
 */
void report_registry_layers(Report& r, const RegistryDelta& reg,
                            const RoundStats& rounds);

/** Workload entry points: each fills `report` and `checks`. */
void run_paper_serial(const Args& args, Clock::time_point main_start,
                      Report& report, Checks& checks);
void run_tenants(const Args& args, Clock::time_point main_start,
                 Report& report, Checks& checks);
void run_fleet(const Args& args, bool checkpointed,
               Clock::time_point main_start, Report& report,
               Checks& checks);

/** Benchmarks of one run: all 25, or a handful in small mode. */
std::vector<const baco::Benchmark*> workload_benchmarks(bool small);

/** Budget of one study: the full budget, or a short one in small mode. */
int study_budget(const baco::Benchmark& b, bool small);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP_
