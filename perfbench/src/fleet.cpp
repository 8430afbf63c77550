// fleet_uniform / fleet_checkpointed: repetitions of the Uniform method
// over the benchmarks at their full budgets, submitted by two client
// threads as concurrent async studies (ExecutionPolicy::Attached) to one
// Coordinator with two worker child processes on pipes. The sampler
// costs microseconds, so the wire codec, the pipe transport, coordinator
// scheduling and per-study set-up do the work. The checkpointed variant
// gives every study a checkpoint file, which the async tell path
// rewrites on every landed result.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "api/study.hpp"
#include "common.hpp"
#include "exec/checkpoint.hpp"
#include "obs/trace.hpp"
#include "serve/coordinator.hpp"
#include "serve/transport.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kWorkloadTag = 0xf1ee7;
constexpr int kClients = 2;
constexpr int kWorkers = 2;
/** Per-study in-flight cap (ExecutionPolicy::Attached batch size). */
constexpr int kSlots = 4;
constexpr int kVerifyThreads = 4;
/** --seconds per round: a round's time on the reference host, on the
 *  one CPU run.py gives a run, without and with checkpoints. */
constexpr double kSecondsPerRound = 0.07;
constexpr double kSecondsPerCheckpointedRound = 0.4;

namespace serve = baco::serve;

/** One landed result as the on_event observer saw it. */
struct Landed {
  std::uint64_t index = 0;
  std::size_t evals = 0;
  double value = 0.0;
  bool feasible = true;
};

/** One async study of a round. */
struct StudyRec {
  const baco::Benchmark* bench = nullptr;
  std::uint64_t seed = 0;
  int budget = 0;
  std::string checkpoint;
  std::vector<Landed> landed;
  baco::TuningHistory history;
};

/**
 * A Coordinator with worker child processes on pipes. Destruction shuts
 * the coordinator down, then waits for every worker, on error paths too.
 */
class Fleet {
 public:
  Fleet(const std::string& worker_cmd, int workers)
  {
      for (int w = 0; w < workers; ++w) {
          serve::ChildProcess child =
              serve::spawn_process({worker_cmd, "--capacity", "2"});
          if (!child.transport)
              throw std::runtime_error("cannot spawn " + worker_cmd);
          pids_.push_back(child.pid);
          if (coord_.add_worker(std::move(child.transport)) < 0)
              throw std::runtime_error("worker handshake failed");
      }
  }
  ~Fleet()
  {
      coord_.shutdown();
      for (int pid : pids_)
          serve::wait_process(pid);
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  serve::Coordinator& coordinator() { return coord_; }

 private:
  serve::Coordinator coord_;
  std::vector<int> pids_;
};

struct ClientTimes {
  Samples studies, build;
  std::string error;
};

/** Verification totals of one thread. */
struct VerifyAcc {
  std::uint64_t evals = 0;
  double codec_s = 0.0, eval_s = 0.0, ckpt_s = 0.0, ckpt_bytes = 0.0;
  Quality quality;
};

/** Every check of one finished async study. */
void
verify_study(StudyRec& s, VerifyAcc& acc, Checks& checks,
             const std::string& probe_path)
{
    const baco::Benchmark& b = *s.bench;
    const baco::TuningHistory& h = s.history;
    acc.evals += h.size();
    checks.expect(h.size() == static_cast<std::size_t>(s.budget) &&
                      s.landed.size() == h.size(),
                  b.name + ": history length differs from budget");
    // Landed results in index order: the suggestion order, which the seed
    // alone determines.
    std::vector<std::size_t> by_index(static_cast<std::size_t>(s.budget),
                                      h.size());
    for (std::size_t k = 0; k < s.landed.size() && k < h.size(); ++k) {
        const Landed& l = s.landed[k];
        const baco::Observation& o = h.observations[k];
        checks.expect(l.evals == k + 1 && l.value == o.value &&
                          l.feasible == o.feasible &&
                          l.index < by_index.size() &&
                          by_index[l.index] == h.size(),
                      b.name + ": landed result differs from the history");
        if (l.index < by_index.size())
            by_index[l.index] = k;
        acc.eval_s += check_evaluation(checks, b, space_of(b), s.seed,
                                       l.index, o.config, o.value,
                                       o.feasible);
        acc.codec_s += wire_round_trip(checks, b.name, s.seed, l.index,
                                       o.config, o.value, o.feasible);
    }
    std::vector<double> values;
    std::vector<bool> feasible;
    for (std::size_t k : by_index) {
        if (k >= h.size())
            continue;
        values.push_back(h.observations[k].value);
        feasible.push_back(h.observations[k].feasible);
    }
    acc.quality.add(b, values, feasible);

    // The sampler ignores results, so the serial study with the same seed
    // proposes the same multiset of configurations — in fact the same one
    // at every evaluation index.
    baco::Study ref = baco::StudyBuilder()
                          .benchmark(b.name)
                          .method("random")
                          .budget(s.budget)
                          .seed(s.seed)
                          .execution(baco::ExecutionPolicy::Serial())
                          .build();
    bool same = true;
    for (std::size_t k : by_index) {
        std::vector<baco::Configuration> asked = ref.ask(1);
        if (asked.empty() || k >= h.size()) {
            same = false;
            break;
        }
        const baco::Observation& o = h.observations[k];
        same = same && asked[0] == o.config;
        ref.tell(asked[0], baco::EvalResult{o.value, o.feasible});
    }
    checks.expect(same && ref.remaining() == 0,
                  b.name + ": async Uniform study differs from the serial "
                           "one");
    checkpoint_probe(checks, probe_path, ref.tuner(), &acc.ckpt_s,
                     &acc.ckpt_bytes);
    if (!s.checkpoint.empty()) {
        std::optional<baco::CheckpointData> data =
            baco::load_checkpoint(s.checkpoint);
        checks.expect(data.has_value() &&
                          baco::histories_equal(data->history, h),
                      b.name + ": final checkpoint differs from the "
                               "returned history");
        std::remove(s.checkpoint.c_str());
    }
}

}  // namespace

void
run_fleet(const Args& args, bool checkpointed, Clock::time_point main_start,
          Report& report, Checks& checks)
{
    const std::vector<const baco::Benchmark*> benches =
        workload_benchmarks(args.small);
    const std::string dir =
        args.out_dir + "/fleet-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);

    std::optional<Fleet> fleet(std::in_place, args.worker_cmd, kWorkers);
    serve::Coordinator& coord = fleet->coordinator();
    const double setup_s = setup_seconds(args, main_start);

    Samples build_s;
    RoundStats round_stats(args.seconds, checkpointed
                                             ? kSecondsPerCheckpointedRound
                                             : kSecondsPerRound);
    Quality quality;
    RegistryDelta reg;
    baco::obs::Counter& results_total =
        baco::obs::MetricsRegistry::global().counter("coord.results_total");
    double ckpt_s = 0.0, ckpt_bytes = 0.0, codec_s = 0.0;
    double verify_eval_s = 0.0;
    std::uint64_t studies = 0;

    while (!args.setup_only && round_stats.another()) {
        const std::uint64_t round = round_stats.rounds();
        std::vector<StudyRec> recs(benches.size());
        for (std::size_t i = 0; i < benches.size(); ++i) {
            StudyRec& s = recs[i];
            s.bench = benches[i];
            s.seed = mix_seed(mix_seed(args.seed, kWorkloadTag),
                              round * 1000 + i);
            s.budget = study_budget(*s.bench, args.small);
            if (checkpointed)
                s.checkpoint = dir + "/s" + std::to_string(i) + ".ckpt.jsonl";
        }

        // ---- Timed: two closed-loop clients pull studies in turn. ----
        std::atomic<std::size_t> next{0};
        Samples steps;
        std::vector<ClientTimes> times(kClients);
        const std::uint64_t results0 = results_total.value();
        reg.begin();
        Clock::time_point t_round = Clock::now();
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                ClientTimes& t = times[static_cast<std::size_t>(c)];
                try {
                    for (std::size_t i = next++; i < recs.size();
                         i = next++) {
                        StudyRec& s = recs[i];
                        s.landed.reserve(static_cast<std::size_t>(s.budget));
                        baco::StudyBuilder builder;
                        builder.benchmark(s.bench->name)
                            .method("random")
                            .budget(s.budget)
                            .seed(s.seed)
                            .execution(baco::ExecutionPolicy::Attached(
                                &coord, kSlots, /*async=*/true))
                            .on_event([&s](const baco::AsyncEvent& ev) {
                                s.landed.push_back(
                                    Landed{ev.index, ev.evals,
                                           ev.result.value,
                                           ev.result.feasible});
                            });
                        if (checkpointed)
                            builder.checkpoint(s.checkpoint);
                        Clock::time_point t0 = Clock::now();
                        std::optional<baco::Study> study;
                        {
                            baco::obs::Span span("perfbench.study_build",
                                                 "perfbench");
                            study.emplace(builder.build());
                        }
                        t.build.add(seconds_between(t0, Clock::now()));
                        {
                            baco::obs::Span span("perfbench.study_run",
                                                 "perfbench");
                            s.history = study->run().history;
                        }
                        // The client's step is one whole study: submit
                        // (build) to result.
                        t.studies.add(seconds_between(t0, Clock::now()));
                    }
                } catch (const std::exception& e) {
                    t.error = e.what();
                }
            });
        }
        for (std::thread& th : threads)
            th.join();
        const double round_s = seconds_between(t_round, Clock::now());
        reg.end();
        for (ClientTimes& t : times) {
            if (!t.error.empty())
                throw std::runtime_error("fleet client: " + t.error);
            steps.merge(t.studies);
            build_s.merge(t.build);
        }

        // ---- Untimed: verification, spread over the idle cores. ----
        std::vector<VerifyAcc> acc(kVerifyThreads);
        parallel_for(recs.size(), kVerifyThreads, [&](std::size_t i, int w) {
            verify_study(recs[i], acc[static_cast<std::size_t>(w)], checks,
                         dir + "/probe" + std::to_string(w) + ".ckpt.jsonl");
        });
        std::uint64_t round_evals = 0;
        for (const VerifyAcc& a : acc) {
            round_evals += a.evals;
            codec_s += a.codec_s;
            verify_eval_s += a.eval_s;
            ckpt_s += a.ckpt_s;
            ckpt_bytes += a.ckpt_bytes;
            quality.merge(a.quality);
        }
        studies += recs.size();
        checks.expect(results_total.value() - results0 == round_evals,
                      "coordinator result count differs from the number "
                      "of evaluations");
        round_stats.add(round_s, round_evals, steps);
    }
    if (!args.setup_only)
        quality.check_tiers(checks);

    fleet.reset();
    std::filesystem::remove_all(dir);

    if (args.setup_only) {
        report.set("setup_s", setup_s, "s");
        return;
    }
    report_common(report, setup_s, round_stats, quality);
    const double n =
        static_cast<double>(std::max<std::uint64_t>(round_stats.evals(), 1));
    const double ns = static_cast<double>(std::max<std::uint64_t>(studies, 1));
    report.set("core.suggest_ms",
               reg.sum("tuner.suggest_seconds") * 1e3 / n, "ms");
    report.set("core.observe_ms",
               reg.sum("tuner.observe_seconds") * 1e3 / n, "ms");
    report.set("suite.evaluate_us", verify_eval_s * 1e6 / n, "us");
    report.set("api.study_build_ms", build_s.sum() * 1e3 / ns, "ms");
    report.set("exec.checkpoint_write_us", ckpt_s * 1e6 / ns, "us");
    report.set("exec.checkpoint_kb", ckpt_bytes / 1024.0 / ns, "KB");
    report.set("serve.wire_codec_us", codec_s * 1e6 / n, "us");
    report_registry_layers(report, reg, round_stats);
}

}  // namespace perfbench
