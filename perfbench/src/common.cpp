#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <variant>

#include "exec/ask_tell.hpp"
#include "exec/checkpoint.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "suite/registry.hpp"

namespace perfbench {

double
setup_seconds(const Args& args, Clock::time_point main_start)
{
    if (args.spawn_ns < 0)
        return seconds_between(main_start, Clock::now());
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    std::int64_t now_ns =
        static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
    return static_cast<double>(now_ns - args.spawn_ns) * 1e-9;
}

std::uint64_t
mix_seed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Checks::expect(bool ok, const std::string& what)
{
    attempted_.fetch_add(1);
    if (ok)
        return;
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (reported_++ < 10)
        std::cerr << "perfbench: check failed: " << what << "\n";
}

std::string
config_key(const baco::Configuration& c)
{
    std::string out;
    char buf[48];
    for (const baco::ParamValue& v : c) {
        if (const double* d = std::get_if<double>(&v)) {
            std::snprintf(buf, sizeof buf, "r%a;", *d);
            out += buf;
        } else if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
            out += 'i' + std::to_string(*i) + ';';
        } else {
            out += 'p';
            for (int x : std::get<baco::Permutation>(v))
                out += std::to_string(x) + ',';
            out += ';';
        }
    }
    return out;
}

void
Samples::add(double seconds)
{
    values_.push_back(seconds);
    sum_ += seconds;
}

void
Samples::merge(const Samples& o)
{
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
    sum_ += o.sum_;
}

double
Samples::percentile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> v = values_;
    const double rank = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                     v.end());
    const double at_lo = v[lo];
    // After nth_element, everything past lo is >= v[lo]; the next rank is
    // the smallest of them.
    const double at_hi =
        hi == lo ? at_lo
                 : *std::min_element(
                       v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
    return at_lo + (rank - static_cast<double>(lo)) * (at_hi - at_lo);
}

void
RegistryDelta::begin()
{
    before_ = baco::obs::MetricsRegistry::global().snapshot();
}

void
RegistryDelta::end()
{
    baco::obs::MetricsSnapshot d =
        baco::obs::MetricsRegistry::global().snapshot().delta_since(before_);
    for (const baco::obs::MetricValue& m : d.metrics) {
        if (m.kind == baco::obs::MetricValue::Kind::kHistogram) {
            sums_[m.name] += m.histogram.sum;
            counts_[m.name] += m.histogram.count;
        } else if (m.kind == baco::obs::MetricValue::Kind::kCounter) {
            sums_[m.name] += m.value;
        }
    }
}

double
RegistryDelta::sum(const std::string& name) const
{
    auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
}

std::uint64_t
RegistryDelta::count(const std::string& name) const
{
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
}

void
Quality::add(const baco::Benchmark& b, const std::vector<double>& values,
             const std::vector<bool>& feasible)
{
    const int n = static_cast<int>(values.size());
    const int at[3] = {std::max(1, n / 3), std::max(1, 2 * n / 3), n};
    double best = std::numeric_limits<double>::infinity();
    int i = 0;
    for (int t = 0; t < 3; ++t) {
        for (; i < at[t] && i < n; ++i) {
            if (feasible[static_cast<std::size_t>(i)])
                best = std::min(best, values[static_cast<std::size_t>(i)]);
        }
        // The fig5 definition scores a tier with no feasible value as 0;
        // the floor keeps the geomean finite (bench/harness_util's
        // safe_geomean uses the same one).
        double rel = std::isfinite(best) ? b.reference_cost / best : 0.0;
        log_sum_[t].push_back(std::log(std::max(rel, 1e-6)));
    }
}

void
Quality::merge(const Quality& o)
{
    for (int t = 0; t < 3; ++t)
        log_sum_[t].insert(log_sum_[t].end(), o.log_sum_[t].begin(),
                           o.log_sum_[t].end());
}

double
Quality::geomean(int tier) const
{
    const std::vector<double>& v = log_sum_[tier];
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return std::exp(s / static_cast<double>(v.size()));
}

void
Quality::check_tiers(Checks& checks) const
{
    checks.expect(geomean(0) <= geomean(1) && geomean(1) <= geomean(2),
                  "relative-to-expert tiers are not ordered");
}

double
check_evaluation(Checks& checks, const baco::Benchmark& b,
                 const baco::SearchSpace& space, std::uint64_t seed,
                 std::uint64_t index, const baco::Configuration& config,
                 double value, bool feasible)
{
    Clock::time_point t0 = Clock::now();
    baco::EvalResult again;
    {
        baco::obs::Span span("perfbench.evaluate", "perfbench");
        baco::RngEngine rng = baco::eval_rng_for(seed, index);
        again = b.evaluate(config, rng);
    }
    double s = seconds_between(t0, Clock::now());
    const std::string where = b.name + " seed " + std::to_string(seed) +
                              " index " + std::to_string(index);
    checks.expect(again.feasible == feasible &&
                      (!feasible || again.value == value),
                  where + ": observed value differs from the recomputed "
                          "objective");
    checks.expect(space.satisfies(config),
                  where + ": configuration violates a known constraint");
    checks.expect(b.hidden_feasible(config) == feasible,
                  where + ": feasibility flag differs from hidden_feasible");
    return s;
}

double
wire_round_trip(Checks& checks, const std::string& benchmark,
                std::uint64_t seed, std::uint64_t index,
                const baco::Configuration& config, double value,
                bool feasible)
{
    namespace serve = baco::serve;
    serve::Message eval;
    eval.type = serve::MsgType::kEvaluate;
    eval.id = index + 1;
    eval.benchmark = benchmark;
    eval.seed = seed;
    eval.index = index;
    eval.config = config;
    serve::Message result;
    result.type = serve::MsgType::kResult;
    result.id = index + 1;
    result.index = index;
    result.value = value;
    result.feasible = feasible;

    baco::obs::Span span("perfbench.wire_codec", "perfbench");
    Clock::time_point t0 = Clock::now();
    std::string eval_line = serve::encode(eval);
    std::string result_line = serve::encode(result);
    serve::Message eval_back;
    serve::Message result_back;
    bool ok = serve::decode(eval_line, eval_back) &&
              serve::decode(result_line, result_back);
    double s = seconds_between(t0, Clock::now());
    checks.expect(ok && eval_back.index == index &&
                      eval_back.config == config &&
                      result_back.feasible == feasible &&
                      (!feasible || result_back.value == value),
                  benchmark + ": wire round trip changed a frame");
    return s;
}

void
checkpoint_probe(Checks& checks, const std::string& path,
                 const baco::AskTellTuner& tuner, double* seconds,
                 double* bytes)
{
    Clock::time_point t0 = Clock::now();
    bool saved = false;
    {
        baco::obs::Span span("perfbench.save_checkpoint", "perfbench");
        saved = baco::save_checkpoint(path, tuner);
    }
    *seconds += seconds_between(t0, Clock::now());
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
        std::fseek(f, 0, SEEK_END);
        *bytes += static_cast<double>(std::ftell(f));
        std::fclose(f);
    }
    std::optional<baco::CheckpointData> back = baco::load_checkpoint(path);
    checks.expect(saved && back.has_value() &&
                      baco::histories_equal(back->history, tuner.history()),
                  "checkpoint of a finished study does not load back equal");
    std::remove(path.c_str());
}

const baco::SearchSpace&
space_of(const baco::Benchmark& b)
{
    static std::mutex mu;
    static std::unordered_map<std::string, std::shared_ptr<baco::SearchSpace>>
        spaces;
    std::lock_guard<std::mutex> lock(mu);
    std::shared_ptr<baco::SearchSpace>& s = spaces[b.name];
    if (!s)
        s = b.make_space(baco::SpaceVariant{});
    return *s;
}

void
parallel_for(std::size_t n, int threads,
             const std::function<void(std::size_t, int)>& fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::exception_ptr first;
    std::vector<std::thread> pool;
    for (int w = 0; w < threads; ++w) {
        pool.emplace_back([&, w] {
            try {
                for (std::size_t i = next++; i < n; i = next++)
                    fn(i, w);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!first)
                    first = std::current_exception();
            }
        });
    }
    for (std::thread& t : pool)
        t.join();
    if (first)
        std::rethrow_exception(first);
}

double
peak_rss_mb()
{
    // VmHWM is this process image's own high-water mark. ru_maxrss would
    // also do, except that Linux carries it across exec, so a runner
    // spawned by a larger launcher would report the launcher's peak.
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f != nullptr) {
        char line[256];
        long kb = -1;
        while (std::fgets(line, sizeof line, f) != nullptr)
            if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
                break;
        std::fclose(f);
        if (kb > 0)
            return static_cast<double>(kb) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
Report::to_json(const Checks& checks) const
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted()
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : metrics) {
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << (std::isfinite(vu.first) ? vu.first : 0.0) << ", \"unit\": \""
           << vu.second << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

namespace {
double
median_of(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}
}  // namespace

RoundStats::RoundStats(double seconds, double seconds_per_round)
    : planned_(static_cast<std::size_t>(
          std::max(1.0, std::round(seconds / seconds_per_round))))
{
}

void
RoundStats::add(double timed_s, std::uint64_t evals, const Samples& steps)
{
    if (groups_.empty() || groups_.back().size() >= kGroupSteps)
        groups_.emplace_back();
    groups_.back().merge(steps);
    const double n = static_cast<double>(std::max<std::uint64_t>(evals, 1));
    ms_per_eval_.push_back(timed_s * 1e3 / n);
    timed_s_ += timed_s;
    evals_ += evals;
}

double
RoundStats::median_ms_per_eval() const
{
    return median_of(ms_per_eval_);
}

std::uint64_t
RoundStats::steps() const
{
    std::uint64_t n = 0;
    for (const Samples& g : groups_)
        n += g.size();
    return n;
}

double
RoundStats::step_percentile(double q) const
{
    std::vector<Samples> groups = groups_;
    // A short last group joins the one before it.
    if (groups.size() > 1 && groups.back().size() < kGroupSteps) {
        groups[groups.size() - 2].merge(groups.back());
        groups.pop_back();
    }
    std::vector<double> per_group;
    for (const Samples& g : groups)
        per_group.push_back(g.percentile(q));
    return median_of(per_group);
}

void
report_common(Report& r, double setup_s, const RoundStats& rounds,
              const Quality& quality)
{
    r.set("setup_s", setup_s, "s");
    r.set("ms_per_eval", rounds.median_ms_per_eval(), "ms");
    r.set("step_ms_p50", rounds.step_percentile(0.50) * 1e3, "ms");
    r.set("step_ms_p99", rounds.step_percentile(0.99) * 1e3, "ms");
    r.set("rel_to_expert_tiny", quality.geomean(0), "ratio");
    r.set("rel_to_expert_small", quality.geomean(1), "ratio");
    r.set("rel_to_expert_full", quality.geomean(2), "ratio");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    // Bookkeeping shown beside the metrics (run.py keeps it out of the
    // result line): how much work the run measured.
    r.set("info.rounds", static_cast<double>(rounds.rounds()), "count");
    r.set("info.evals", static_cast<double>(rounds.evals()), "count");
    r.set("info.steps", static_cast<double>(rounds.steps()), "count");
    r.set("info.studies", static_cast<double>(quality.studies()), "count");
    r.set("info.timed_s", rounds.timed_s(), "s");
}

void
report_registry_layers(Report& r, const RegistryDelta& reg,
                       const RoundStats& rounds)
{
    const double n =
        static_cast<double>(std::max<std::uint64_t>(rounds.evals(), 1));
    const double nr =
        static_cast<double>(std::max<std::size_t>(rounds.rounds(), 1));
    r.set("core.acquisition_ms",
          reg.sum("tuner.acquisition_seconds") * 1e3 / n, "ms");
    r.set("gp.fit_ms", reg.sum("tuner.model_fit_seconds") * 1e3 / n,
          "ms");
    r.set("gp.refits", reg.sum("tuner.model_refits_total") / nr,
          "count");
    r.set("gp.extends", reg.sum("tuner.model_extends_total") / nr,
          "count");
    r.set("rf.feasibility_fit_ms",
          reg.sum("tuner.feasibility_fit_seconds") * 1e3 / n, "ms");
    r.set("serve.session_suggest_ms",
          reg.sum("serve.suggest_seconds") * 1e3 / n, "ms");
    r.set("serve.session_observe_ms",
          reg.sum("serve.observe_seconds") * 1e3 / n, "ms");
    r.set("serve.spills",
          static_cast<double>(reg.count("serve.spill_seconds")) / nr,
          "count");
    const std::uint64_t reloads = reg.count("serve.reload_seconds");
    r.set("serve.reloads", static_cast<double>(reloads) / nr, "count");
    r.set("serve.reload_ms",
          reloads ? reg.sum("serve.reload_seconds") * 1e3 /
                        static_cast<double>(reloads)
                  : 0.0,
          "ms");
    const std::uint64_t trips = reg.count("coord.roundtrip_seconds");
    r.set("serve.coord_roundtrip_us",
          trips ? reg.sum("coord.roundtrip_seconds") * 1e6 /
                      static_cast<double>(trips)
                : 0.0,
          "us");
    r.set("serve.coord_dispatched",
          reg.sum("coord.dispatched_total") / nr, "count");
}

std::vector<const baco::Benchmark*>
workload_benchmarks(bool small)
{
    std::vector<const baco::Benchmark*> out;
    if (!small) {
        for (const baco::Benchmark& b : baco::suite::all_benchmarks())
            out.push_back(&b);
        return out;
    }
    // One of each substrate and constraint class: TACO with known (K)
    // and hidden (K/H) constraints, RISE with a permutation and with
    // hidden constraints, HPVM2FPGA (hidden only).
    for (const char* name : {"SpMM/scircuit", "TTV/facebook", "MM_CPU",
                             "Scal_GPU", "BFS", "PreEuler"})
        out.push_back(&baco::suite::find_benchmark(name));
    return out;
}

int
study_budget(const baco::Benchmark& b, bool small)
{
    return small ? std::min(b.full_budget, 16) : b.full_budget;
}

}  // namespace perfbench
