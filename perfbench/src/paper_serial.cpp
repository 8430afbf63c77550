// paper_serial: the paper's own experiment. BaCO under
// ExecutionPolicy::Serial on every Table-3 benchmark at its full budget,
// one seed per benchmark, driven step by step through Study::ask/tell
// so each ask -> evaluate -> tell step is timed as the caller sees it.

#include <set>

#include "api/study.hpp"
#include "common.hpp"
#include "obs/trace.hpp"
#include "suite/registry.hpp"

namespace perfbench {

namespace {
constexpr std::uint64_t kWorkloadTag = 0x5e71a1;
/** --seconds per round: the whole suite takes about 20 s on the
 *  reference host. */
constexpr double kSecondsPerRound = 20.0;
}

void
run_paper_serial(const Args& args, Clock::time_point main_start,
                 Report& report, Checks& checks)
{
    const std::vector<const baco::Benchmark*> benches =
        workload_benchmarks(args.small);
    const double setup_s = setup_seconds(args, main_start);
    if (args.setup_only) {
        report.set("setup_s", setup_s, "s");
        return;
    }

    Samples ask_s, tell_s, eval_s, build_s;
    RoundStats round_stats(args.seconds, kSecondsPerRound);
    Quality quality;
    RegistryDelta reg;
    double ckpt_s = 0.0, ckpt_bytes = 0.0, codec_s = 0.0;
    std::uint64_t studies = 0;

    while (round_stats.another()) {
        const std::uint64_t round = round_stats.rounds();
        double round_s = 0.0;
        Samples steps;
        std::uint64_t round_evals = 0;
        for (std::size_t i = 0; i < benches.size(); ++i) {
            const baco::Benchmark& b = *benches[i];
            const int budget = study_budget(b, args.small);
            const std::uint64_t seed =
                mix_seed(mix_seed(args.seed, kWorkloadTag), round * 1000 + i);

            // ---- Timed: build, then budget ask -> evaluate -> tell. ----
            reg.begin();
            Clock::time_point t_study = Clock::now();
            std::optional<baco::Study> study;
            {
                baco::obs::Span span("perfbench.study_build", "perfbench");
                Clock::time_point t0 = Clock::now();
                study.emplace(baco::StudyBuilder()
                                  .benchmark(b.name)
                                  .method("baco")
                                  .budget(budget)
                                  .seed(seed)
                                  .execution(baco::ExecutionPolicy::Serial())
                                  .build());
                build_s.add(seconds_between(t0, Clock::now()));
            }
            std::uint64_t index = 0;
            while (study->remaining() > 0) {
                Clock::time_point t0 = Clock::now();
                std::vector<baco::Configuration> asked;
                {
                    baco::obs::Span span("perfbench.ask", "perfbench");
                    asked = study->ask(1);
                }
                Clock::time_point t1 = Clock::now();
                if (asked.empty())
                    break;
                baco::EvalResult r;
                {
                    baco::obs::Span span("perfbench.evaluate", "perfbench");
                    baco::RngEngine rng = baco::eval_rng_for(seed, index);
                    r = b.evaluate(asked[0], rng);
                }
                Clock::time_point t2 = Clock::now();
                {
                    baco::obs::Span span("perfbench.tell", "perfbench");
                    study->tell(asked[0], r);
                }
                Clock::time_point t3 = Clock::now();
                ask_s.add(seconds_between(t0, t1));
                eval_s.add(seconds_between(t1, t2));
                tell_s.add(seconds_between(t2, t3));
                steps.add(seconds_between(t0, t3));
                ++index;
            }
            round_s += seconds_between(t_study, Clock::now());
            reg.end();
            round_evals += index;
            ++studies;

            // ---- Untimed: checkpoint probe, then verification. ----
            checkpoint_probe(checks, args.out_dir + "/paper_serial.ckpt.jsonl",
                             study->tuner(), &ckpt_s, &ckpt_bytes);
            baco::StudyResult res = study->result();
            const baco::TuningHistory& h = res.history;
            checks.expect(h.size() == static_cast<std::size_t>(budget),
                          b.name + ": history length differs from budget");
            std::set<std::string> seen;
            std::vector<double> values;
            std::vector<bool> feasible;
            for (std::size_t k = 0; k < h.size(); ++k) {
                const baco::Observation& o = h.observations[k];
                check_evaluation(checks, b, study->space(), seed, k,
                                 o.config, o.value, o.feasible);
                codec_s += wire_round_trip(checks, b.name, seed, k, o.config,
                                           o.value, o.feasible);
                checks.expect(seen.insert(config_key(o.config)).second,
                              b.name + ": BaCO repeated a configuration");
                values.push_back(o.value);
                feasible.push_back(o.feasible);
            }
            quality.add(b, values, feasible);
        }
        round_stats.add(round_s, round_evals, steps);
    }

    quality.check_tiers(checks);

    report_common(report, setup_s, round_stats, quality);
    const double n =
        static_cast<double>(std::max<std::uint64_t>(round_stats.evals(), 1));
    const double ns = static_cast<double>(std::max<std::uint64_t>(studies, 1));
    report.set("core.suggest_ms", ask_s.sum() * 1e3 / n, "ms");
    report.set("core.observe_ms", tell_s.sum() * 1e3 / n, "ms");
    report.set("suite.evaluate_us", eval_s.sum() * 1e6 / n, "us");
    report.set("api.study_build_ms", build_s.sum() * 1e3 / ns, "ms");
    report.set("exec.checkpoint_write_us", ckpt_s * 1e6 / ns, "us");
    report.set("exec.checkpoint_kb", ckpt_bytes / 1024.0 / ns, "KB");
    report.set("serve.wire_codec_us", codec_s * 1e6 / n, "us");
    report_registry_layers(report, reg, round_stats);
}

}  // namespace perfbench
