// The benchmark runner: runs one workload and prints one JSON line with
// every metric it measured, plus its attempted and failed operation
// counts. perfbench/run.py builds this binary and selects the metrics
// of the untraced or traced run from that line.
//
// Usage: perfbench_runner --workload NAME --seed N --seconds S
//            --trace 0|1 --worker-cmd PATH --out-dir DIR
//            [--small] [--setup-only] [--spawn-ns NS]

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "obs/trace.hpp"

using namespace perfbench;

namespace {

/** Layer metrics a workload does not exercise read 0. */
const char* const kLayerMetrics[][2] = {
    {"core.suggest_ms", "ms"},          {"core.observe_ms", "ms"},
    {"core.acquisition_ms", "ms"},      {"gp.fit_ms", "ms"},
    {"gp.refits", "count"},             {"gp.extends", "count"},
    {"rf.feasibility_fit_ms", "ms"},    {"suite.evaluate_us", "us"},
    {"serve.rpc_suggest_ms", "ms"},     {"serve.rpc_observe_ms", "ms"},
    {"serve.session_suggest_ms", "ms"}, {"serve.session_observe_ms", "ms"},
    {"serve.spills", "count"},          {"serve.reloads", "count"},
    {"serve.reload_ms", "ms"},          {"serve.coord_roundtrip_us", "us"},
    {"serve.coord_dispatched", "count"}, {"serve.wire_codec_us", "us"},
    {"api.study_build_ms", "ms"},       {"exec.checkpoint_write_us", "us"},
    {"exec.checkpoint_kb", "KB"},
};

bool
parse(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char* flag) -> const char* {
            if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc)
                return nullptr;
            return argv[++i];
        };
        if (const char* v = value("--workload")) {
            a.workload = v;
        } else if (const char* v = value("--seed")) {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (const char* v = value("--seconds")) {
            a.seconds = std::atof(v);
        } else if (const char* v = value("--trace")) {
            a.trace = std::strcmp(v, "0") != 0;
        } else if (const char* v = value("--worker-cmd")) {
            a.worker_cmd = v;
        } else if (const char* v = value("--out-dir")) {
            a.out_dir = v;
        } else if (const char* v = value("--spawn-ns")) {
            a.spawn_ns = std::strtoll(v, nullptr, 10);
        } else if (std::strcmp(argv[i], "--small") == 0) {
            a.small = true;
        } else if (std::strcmp(argv[i], "--setup-only") == 0) {
            a.setup_only = true;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && !a.out_dir.empty() && a.seconds > 0.0;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Clock::time_point main_start = Clock::now();
    Args args;
    if (!parse(argc, argv, args)) {
        std::cerr << "usage: perfbench_runner --workload NAME --seed N "
                     "--seconds S --trace 0|1 --worker-cmd PATH --out-dir "
                     "DIR [--small] [--setup-only] [--spawn-ns NS]\n";
        return 2;
    }
    std::filesystem::create_directories(args.out_dir);
    if (args.trace)
        baco::obs::Trace::enable();

    Report report;
    Checks checks;
    if (!args.setup_only)
        for (const auto& m : kLayerMetrics)
            report.set(m[0], 0.0, m[1]);
    try {
        if (args.workload == "paper_serial") {
            run_paper_serial(args, main_start, report, checks);
        } else if (args.workload == "tenants_baco") {
            run_tenants(args, main_start, report, checks);
        } else if (args.workload == "fleet_uniform") {
            run_fleet(args, false, main_start, report, checks);
        } else if (args.workload == "fleet_checkpointed") {
            run_fleet(args, true, main_start, report, checks);
        } else {
            std::cerr << "unknown workload: " << args.workload << "\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << args.workload << " aborted: "
                  << e.what() << "\n";
        return 1;
    }

    if (args.trace) {
        const std::string path = args.out_dir + "/trace-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
        if (!baco::obs::Trace::export_chrome(path))
            std::cerr << "perfbench: cannot write " << path << "\n";
    }
    std::cout << report.to_json(checks) << std::endl;
    return 0;
}
