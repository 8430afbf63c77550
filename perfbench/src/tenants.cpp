// tenants_baco: three client connections to one in-process
// serve::Acceptor on a unix socket. Each client drives its share of the
// benchmarks as BaCO sessions, round-robin, one closed-loop step at a
// time: suggest(1), evaluate on the client, observe. The SessionManager
// checkpoints every observe and holds fewer live sessions than are open,
// so the LRU keeps spilling sessions to disk and reloading them.

#include <unistd.h>

#include <filesystem>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/study.hpp"
#include "common.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"
#include "serve/transport.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kWorkloadTag = 0x7e4a47;
constexpr int kClients = 3;
/**
 * --seconds per round. A round (every session to its budget) takes about
 * 23 s on the reference host, on the one CPU run.py gives a run, so a
 * --seconds 20 run measures two rounds, about 46 s: over one round's
 * 1660 steps, step_ms_p99 spread as far as its bound across seeds.
 */
constexpr double kSecondsPerRound = 10.0;

namespace serve = baco::serve;

/** One session as its client saw it. */
struct SessionRec {
  const baco::Benchmark* bench = nullptr;
  std::string name;
  std::uint64_t seed = 0;
  int budget = 0;
  std::vector<baco::Configuration> configs;
  std::vector<std::uint64_t> indices;
  std::vector<double> values;
  std::vector<bool> feasible;
  double server_evals = -1.0;
  bool done = false;
};

/** Per-client timings of one round. */
struct ClientTimes {
  Samples steps, rpc_suggest, rpc_observe, evaluate;
  std::string error;
};

/** Value of a counter/gauge entry of a stats_report frame (-1 if absent). */
double
stat_value(const serve::Message& m, const std::string& name)
{
    for (const serve::StatEntry& e : m.stats)
        if (e.name == name)
            return e.value;
    return -1.0;
}

/** Drive one client's sessions round-robin to their budgets. */
void
drive_client(serve::SessionClient& client, std::vector<SessionRec*>& mine,
             ClientTimes& t)
{
    for (SessionRec* s : mine) {
        serve::Message opened = client.open(s->name, s->bench->name, "baco",
                                            s->budget, s->seed);
        if (opened.type != serve::MsgType::kOpened)
            throw std::runtime_error("open " + s->name + ": " + opened.text);
    }
    std::size_t live = mine.size();
    while (live > 0) {
        for (SessionRec* s : mine) {
            if (s->done)
                continue;
            Clock::time_point t0 = Clock::now();
            serve::Message configs;
            {
                baco::obs::Span span("perfbench.rpc_suggest", "perfbench");
                configs = client.suggest(s->name, 1);
            }
            Clock::time_point t1 = Clock::now();
            if (configs.type != serve::MsgType::kConfigs ||
                configs.configs.size() != 1)
                throw std::runtime_error("suggest " + s->name + ": " +
                                         configs.text);
            serve::ObservedResult r;
            r.config = configs.configs[0];
            {
                baco::obs::Span span("perfbench.evaluate", "perfbench");
                baco::RngEngine rng =
                    baco::eval_rng_for(s->seed, configs.index);
                baco::EvalResult e = s->bench->evaluate(r.config, rng);
                r.value = e.value;
                r.feasible = e.feasible;
            }
            Clock::time_point t2 = Clock::now();
            s->configs.push_back(r.config);
            s->indices.push_back(configs.index);
            s->values.push_back(r.value);
            s->feasible.push_back(r.feasible);
            serve::Message ok;
            {
                baco::obs::Span span("perfbench.rpc_observe", "perfbench");
                ok = client.observe(s->name, {std::move(r)});
            }
            Clock::time_point t3 = Clock::now();
            if (ok.type != serve::MsgType::kOk)
                throw std::runtime_error("observe " + s->name + ": " +
                                         ok.text);
            t.rpc_suggest.add(seconds_between(t0, t1));
            t.evaluate.add(seconds_between(t1, t2));
            t.rpc_observe.add(seconds_between(t2, t3));
            t.steps.add(seconds_between(t0, t3));
            if (ok.evals >= static_cast<std::uint64_t>(s->budget)) {
                // Read the server's count while the session is live, so
                // the stats request never forces a reload.
                s->server_evals =
                    stat_value(client.stats(s->name), "session.evals");
                client.close(s->name);
                s->done = true;
                --live;
            }
        }
    }
}

/** Runs an Acceptor on its own thread; stops and joins it on every path. */
class ServerThread {
 public:
  explicit ServerThread(serve::Acceptor& acceptor)
      : acceptor_(acceptor), thread_([this] { acceptor_.run(); })
  {
  }
  ~ServerThread()
  {
      acceptor_.stop();
      thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

 private:
  serve::Acceptor& acceptor_;
  std::thread thread_;
};

/** Timings of one serial reference study. */
struct ReferenceAcc {
  double build_s = 0.0, ckpt_s = 0.0, ckpt_bytes = 0.0;
};

/**
 * The client's session with the smallest budget must equal, bit for bit,
 * a serial Study with the same benchmark, method and seed.
 */
void
check_against_serial(const std::vector<SessionRec*>& list, ReferenceAcc& acc,
                     Checks& checks, const std::string& probe_path)
{
    const SessionRec* s = list.front();
    for (const SessionRec* o : list)
        if (o->budget < s->budget)
            s = o;
    Clock::time_point t0 = Clock::now();
    baco::Study ref = baco::StudyBuilder()
                          .benchmark(s->bench->name)
                          .method("baco")
                          .budget(s->budget)
                          .seed(s->seed)
                          .execution(baco::ExecutionPolicy::Serial())
                          .build();
    acc.build_s = seconds_between(t0, Clock::now());
    bool same = true;
    for (std::size_t k = 0; ref.remaining() > 0; ++k) {
        std::vector<baco::Configuration> asked = ref.ask(1);
        if (asked.empty() || k >= s->configs.size()) {
            same = false;
            break;
        }
        baco::RngEngine rng = baco::eval_rng_for(s->seed, k);
        baco::EvalResult e = s->bench->evaluate(asked[0], rng);
        same = same && asked[0] == s->configs[k] &&
               e.feasible == s->feasible[k] && e.value == s->values[k];
        ref.tell(asked[0], e);
    }
    checks.expect(same, s->name + ": session differs from the serial Study");
    checkpoint_probe(checks, probe_path, ref.tuner(), &acc.ckpt_s,
                     &acc.ckpt_bytes);
}

}  // namespace

void
run_tenants(const Args& args, Clock::time_point main_start, Report& report,
            Checks& checks)
{
    const std::vector<const baco::Benchmark*> benches =
        workload_benchmarks(args.small);
    const std::string dir =
        args.out_dir + "/tenants-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir + "/ckpt");

    serve::SessionManagerOptions so;
    so.checkpoint_dir = dir + "/ckpt";
    // Below the open-session count, so every round spills and reloads.
    so.max_live_sessions = benches.size() / 2;
    serve::SessionManager sessions(so);
    serve::ServerContext ctx;
    ctx.sessions = &sessions;
    std::string err;
    // Relative to the working directory: a unix socket path must stay
    // under ~100 characters, whatever the checkout's absolute path.
    std::optional<serve::SocketAddress> addr = serve::parse_socket_address(
        "unix:" + std::filesystem::proximate(dir + "/s.sock").string(),
        &err);
    serve::Listener listener;
    if (!addr || !listener.open(*addr, &err))
        throw std::runtime_error("listener: " + err);
    serve::Acceptor acceptor(std::move(listener), ctx);
    std::optional<ServerThread> server(std::in_place, acceptor);

    std::vector<std::unique_ptr<serve::Transport>> transports;
    std::vector<std::unique_ptr<serve::SessionClient>> clients;
    for (int c = 0; c < kClients; ++c) {
        transports.push_back(serve::connect_socket(acceptor.address(), &err));
        if (!transports.back())
            throw std::runtime_error("connect: " + err);
        clients.push_back(
            std::make_unique<serve::SessionClient>(*transports.back()));
        if (!clients.back()->handshake(&err))
            throw std::runtime_error("handshake: " + err);
    }
    const double setup_s = setup_seconds(args, main_start);

    Samples rpc_suggest, rpc_observe, eval_s, build_s;
    RoundStats round_stats(args.seconds, kSecondsPerRound);
    Quality quality;
    RegistryDelta reg;
    double ckpt_s = 0.0, ckpt_bytes = 0.0, codec_s = 0.0;
    std::uint64_t references = 0;

    while (!args.setup_only && round_stats.another()) {
        const std::uint64_t round = round_stats.rounds();
        std::uint64_t round_evals = 0;
        Samples steps;
        std::vector<SessionRec> recs(benches.size());
        std::vector<std::vector<SessionRec*>> mine(kClients);
        for (std::size_t i = 0; i < benches.size(); ++i) {
            SessionRec& s = recs[i];
            s.bench = benches[i];
            s.name = "r" + std::to_string(round) + "-" + std::to_string(i);
            s.seed = mix_seed(mix_seed(args.seed, kWorkloadTag),
                              round * 1000 + i);
            s.budget = study_budget(*s.bench, args.small);
            mine[i % kClients].push_back(&s);
        }

        // ---- Timed: the clients' closed loops. ----
        const std::uint64_t spills0 = sessions.spill_count();
        const std::uint64_t reloads0 = sessions.reload_count();
        std::vector<ClientTimes> times(kClients);
        reg.begin();
        Clock::time_point t_round = Clock::now();
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                try {
                    drive_client(*clients[static_cast<std::size_t>(c)],
                                 mine[static_cast<std::size_t>(c)],
                                 times[static_cast<std::size_t>(c)]);
                } catch (const std::exception& e) {
                    times[static_cast<std::size_t>(c)].error = e.what();
                }
            });
        }
        for (std::thread& th : threads)
            th.join();
        const double round_s = seconds_between(t_round, Clock::now());
        reg.end();
        for (ClientTimes& t : times) {
            if (!t.error.empty())
                throw std::runtime_error("tenants client: " + t.error);
            steps.merge(t.steps);
            rpc_suggest.merge(t.rpc_suggest);
            rpc_observe.merge(t.rpc_observe);
            eval_s.merge(t.evaluate);
        }
        checks.expect(sessions.spill_count() > spills0 &&
                          sessions.reload_count() > reloads0,
                      "the session cap caused no spill or no reload");

        // ---- Untimed: verification. ----
        for (SessionRec& s : recs) {
            const baco::Benchmark& b = *s.bench;
            round_evals += s.values.size();
            checks.expect(s.values.size() == static_cast<std::size_t>(s.budget),
                          s.name + ": history length differs from budget");
            checks.expect(s.server_evals == static_cast<double>(s.values.size()),
                          s.name + ": server evaluation count differs from "
                                   "the client's");
            std::set<std::string> seen;
            for (std::size_t k = 0; k < s.values.size(); ++k) {
                checks.expect(s.indices[k] == k,
                              s.name + ": evaluation index out of order");
                check_evaluation(checks, b, space_of(b), s.seed, k,
                                 s.configs[k], s.values[k], s.feasible[k]);
                codec_s += wire_round_trip(checks, b.name, s.seed, k,
                                           s.configs[k], s.values[k],
                                           s.feasible[k]);
                checks.expect(seen.insert(config_key(s.configs[k])).second,
                              s.name + ": BaCO repeated a configuration");
            }
            quality.add(b, s.values, s.feasible);
        }
        // One session per client, the one with the smallest budget, must
        // equal a serial Study with the same benchmark, method and seed.
        std::vector<ReferenceAcc> refs(kClients);
        parallel_for(kClients, kClients, [&](std::size_t c, int) {
            check_against_serial(mine[c], refs[c], checks,
                                 dir + "/probe" + std::to_string(c) +
                                     ".ckpt.jsonl");
        });
        for (const ReferenceAcc& a : refs) {
            build_s.add(a.build_s);
            ckpt_s += a.ckpt_s;
            ckpt_bytes += a.ckpt_bytes;
            ++references;
        }
        round_stats.add(round_s, round_evals, steps);
    }
    if (!args.setup_only)
        quality.check_tiers(checks);

    clients.clear();
    transports.clear();
    server.reset();
    std::filesystem::remove_all(dir);

    if (args.setup_only) {
        report.set("setup_s", setup_s, "s");
        return;
    }
    report_common(report, setup_s, round_stats, quality);
    const double n =
        static_cast<double>(std::max<std::uint64_t>(round_stats.evals(), 1));
    const double nref =
        static_cast<double>(std::max<std::uint64_t>(references, 1));
    report.set("core.suggest_ms",
               reg.sum("tuner.suggest_seconds") * 1e3 / n, "ms");
    report.set("core.observe_ms",
               reg.sum("tuner.observe_seconds") * 1e3 / n, "ms");
    report.set("serve.rpc_suggest_ms", rpc_suggest.sum() * 1e3 / n, "ms");
    report.set("serve.rpc_observe_ms", rpc_observe.sum() * 1e3 / n, "ms");
    report.set("suite.evaluate_us", eval_s.sum() * 1e6 / n, "us");
    report.set("api.study_build_ms", build_s.sum() * 1e3 / nref, "ms");
    report.set("exec.checkpoint_write_us", ckpt_s * 1e6 / nref, "us");
    report.set("exec.checkpoint_kb", ckpt_bytes / 1024.0 / nref, "KB");
    report.set("serve.wire_codec_us", codec_s * 1e6 / n, "us");
    report_registry_layers(report, reg, round_stats);
}

}  // namespace perfbench
