/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation: it runs the relevant experiments and prints the same
 * rows/series the paper plots. Absolute values come from the simulator
 * and will differ from the authors' testbed; the *shape* (who meets the
 * SLO, who wins energy, where crossovers fall) is the reproduction
 * target — see EXPERIMENTS.md.
 */

#ifndef NMAPSIM_BENCH_BENCH_UTIL_HH_
#define NMAPSIM_BENCH_BENCH_UTIL_HH_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness/cluster.hh"
#include "harness/experiment.hh"
#include "harness/result_io.hh"
#include "harness/sweep.hh"
#include "stats/result_writer.hh"

namespace nmapsim {
namespace bench {

/**
 * Duration scale: NMAPSIM_BENCH_SCALE (default 1.0) multiplies the
 * measurement window of every bench so CI can run them fast and a
 * paper-grade run can use longer windows.
 */
inline double
durationScale()
{
    const char *env = std::getenv("NMAPSIM_BENCH_SCALE");
    if (!env)
        return 1.0;
    double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
}

/** Default experiment config for one app/load/policy cell. */
inline ExperimentConfig
cellConfig(const AppProfile &app, LoadLevel load,
           const std::string &policy, const std::string &idle = "menu")
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.load = load;
    cfg.freqPolicy = policy;
    cfg.idlePolicy = idle;
    cfg.warmup = milliseconds(200);
    cfg.duration =
        static_cast<Tick>(static_cast<double>(seconds(1)) *
                          durationScale());
    cfg.seed = 42;
    return cfg;
}

/**
 * Optional machine-readable sink: when NMAPSIM_BENCH_JSON=PATH is set,
 * every (config, result) pair a bench runs through runAll() is also
 * recorded and written to PATH as a JSON array at process exit. Every
 * bench opens the sink from banner(), so a bench that records nothing
 * writes `[]`. The table output on stdout is unchanged either way.
 */
inline ResultWriter *
jsonSink()
{
    static ResultWriter *sink = []() -> ResultWriter * {
        const char *path = std::getenv("NMAPSIM_BENCH_JSON");
        if (path == nullptr || *path == '\0')
            return nullptr;
        static ResultWriter writer;
        static std::string out = path;
        std::atexit([] { writer.writeJsonFile(out); });
        return &writer;
    }();
    return sink;
}

/** Print a standard bench banner and open the NMAPSIM_BENCH_JSON sink. */
inline void
banner(const std::string &id, const std::string &what)
{
    jsonSink();
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id.c_str(), what.c_str());
    std::printf("==============================================================\n");
}

/**
 * Run every point on the shared sweep thread pool (NMAPSIM_JOBS wide)
 * and return the results in submission order, recording each
 * (config, result) pair into the NMAPSIM_BENCH_JSON sink. A failed
 * point rethrows its own exception here — a bench wants a config error
 * to abort.
 */
inline std::vector<ExperimentResult>
runAll(const std::vector<ExperimentConfig> &points,
       const std::string &tag)
{
    std::vector<ExperimentResult> results = runParallel(
        points,
        [](const ExperimentConfig &cfg) { return Experiment(cfg).run(); },
        tag);
    if (ResultWriter *sink = jsonSink())
        for (std::size_t i = 0; i < points.size(); ++i)
            appendResultRecord(*sink, points[i], results[i]);
    return results;
}

/**
 * Cluster counterpart of runAll() above. Every @p record_stride-th
 * result, from the first, goes to the NMAPSIM_BENCH_JSON sink (2 when
 * each recorded run is paired with an unrecorded probe run).
 */
inline std::vector<ClusterResult>
runAll(const std::vector<ClusterConfig> &points, const std::string &tag,
       std::size_t record_stride = 1)
{
    std::vector<ClusterResult> results = runParallel(
        points,
        [](const ClusterConfig &cfg) {
            return ClusterExperiment(cfg).run();
        },
        tag);
    if (ResultWriter *sink = jsonSink())
        for (std::size_t i = 0; i < points.size(); i += record_stride)
            appendClusterResultRecord(*sink, points[i], results[i]);
    return results;
}

/**
 * Profile the Section 4.2 thresholds for several applications
 * concurrently (each profiling pass is itself a full simulation).
 * Returns (NI_TH, CU_TH) per application, in argument order.
 */
inline std::vector<std::pair<double, double>>
profileApps(const std::vector<AppProfile> &apps,
            const std::string &tag = "bench")
{
    std::vector<ExperimentConfig> points;
    points.reserve(apps.size());
    for (const AppProfile &app : apps)
        points.push_back(
            cellConfig(app, LoadLevel::kHigh, "NMAP"));
    return runParallel(points, &Experiment::profileThresholds,
                       tag + "/profile");
}

} // namespace bench
} // namespace nmapsim

#endif // NMAPSIM_BENCH_BENCH_UTIL_HH_
