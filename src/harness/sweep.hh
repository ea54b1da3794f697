/**
 * @file
 * Parallel experiment sweeps.
 *
 * Every figure and ablation in the paper's evaluation is a sweep over
 * (policy x load x seed) configurations, and each simulation is
 * single-threaded and exactly reproducible from (config, seed) — so
 * sweeps are embarrassingly parallel. runParallel() maps a function
 * over a vector of points on a fixed-size thread pool and returns the
 * results in submission order regardless of completion order.
 *
 * The thread count is NMAPSIM_JOBS when set to a positive integer,
 * otherwise std::thread::hardware_concurrency(). Progress
 * (completed/total, ETA) and per-point wall time go to stderr.
 *
 * SweepSpec builds the common grid shapes (policy list x idle list x
 * load/RPS list x seed list) declaratively.
 */

#ifndef NMAPSIM_HARNESS_SWEEP_HH_
#define NMAPSIM_HARNESS_SWEEP_HH_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/experiment.hh"

namespace nmapsim {

/** Worker count for a sweep of @p num_points: NMAPSIM_JOBS when it is
 *  a positive integer, else hardware_concurrency(); capped at the
 *  point count and never below 1. */
int sweepJobs(std::size_t num_points);

/**
 * Run fn(point) for every point on sweepJobs() threads and return the
 * results in submission order. Every point runs even after one throws;
 * once all have finished, the exception of the lowest-index failed
 * point is rethrown. @p tag prefixes the stderr progress lines. The
 * result type must be default-constructible and not bool (workers
 * write distinct elements concurrently).
 */
template <typename Point, typename Fn>
auto
runParallel(const std::vector<Point> &points, Fn fn,
            const std::string &tag)
    -> std::vector<std::invoke_result_t<Fn &, const Point &>>
{
    using R = std::invoke_result_t<Fn &, const Point &>;
    // lint: nondet-ok(wall time feeds only the stderr progress/ETA display, never simulated state)
    using Clock = std::chrono::steady_clock;
    const std::size_t n = points.size();
    std::vector<R> results(n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex io_mutex;
    const Clock::time_point sweep_start = Clock::now();

    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            const Clock::time_point t0 = Clock::now();
            try {
                results[i] = std::invoke(fn, points[i]);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            const Clock::time_point t1 = Clock::now();
            const double wall =
                std::chrono::duration<double>(t1 - t0).count();
            const double elapsed =
                std::chrono::duration<double>(t1 - sweep_start).count();
            const std::size_t completed = done.fetch_add(1) + 1;
            const double eta = elapsed / static_cast<double>(completed) *
                               static_cast<double>(n - completed);
            std::lock_guard<std::mutex> lock(io_mutex);
            std::fprintf(stderr,
                         "[%s] %zu/%zu done | point %zu: %.2fs%s | "
                         "elapsed %.1fs, ETA %.1fs\n",
                         tag.c_str(), completed, n, i, wall,
                         errors[i] ? " FAILED" : "", elapsed, eta);
        }
    };

    {
        std::vector<std::jthread> pool; // joins every worker at scope exit
        for (int t = sweepJobs(n); t > 0; --t)
            pool.emplace_back(worker);
    }
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    return results;
}

/**
 * Builder for the common grid shapes. Dimensions left unset contribute
 * a single implicit point (the base config's value). Points enumerate
 * in row-major order with policies outermost and seeds innermost:
 *
 *   for policy / for idle / for load / for rps / for seed
 *
 * index() maps dimension indices back to the flat point index.
 */
class SweepSpec
{
  public:
    explicit SweepSpec(ExperimentConfig base = {})
        : base_(std::move(base))
    {
    }

    SweepSpec &
    policies(std::vector<std::string> v)
    {
        policies_ = std::move(v);
        return *this;
    }

    SweepSpec &
    idlePolicies(std::vector<std::string> v)
    {
        idles_ = std::move(v);
        return *this;
    }

    SweepSpec &
    loads(std::vector<LoadLevel> v)
    {
        loads_ = std::move(v);
        return *this;
    }

    /** Average-RPS sweep; each value is installed as rpsOverride. */
    SweepSpec &
    rpsList(std::vector<double> v)
    {
        rps_ = std::move(v);
        return *this;
    }

    SweepSpec &
    seeds(std::vector<std::uint64_t> v)
    {
        seeds_ = std::move(v);
        return *this;
    }

    std::size_t numPolicies() const { return dim(policies_); }
    std::size_t numIdlePolicies() const { return dim(idles_); }
    std::size_t numLoads() const { return dim(loads_); }
    std::size_t numRps() const { return dim(rps_); }
    std::size_t numSeeds() const { return dim(seeds_); }

    std::size_t
    numPoints() const
    {
        return numPolicies() * numIdlePolicies() * numLoads() *
               numRps() * numSeeds();
    }

    /** Flat index of grid cell (policy, idle, load, rps, seed). */
    std::size_t
    index(std::size_t pi, std::size_t ii = 0, std::size_t li = 0,
          std::size_t ri = 0, std::size_t si = 0) const
    {
        return (((pi * numIdlePolicies() + ii) * numLoads() + li) *
                    numRps() +
                ri) *
                   numSeeds() +
               si;
    }

    /** Materialise the grid as configs, in enumeration order. */
    std::vector<ExperimentConfig> build() const;

  private:
    static std::size_t
    dim(std::size_t size)
    {
        return size == 0 ? 1 : size;
    }

    template <typename T>
    static std::size_t
    dim(const std::vector<T> &v)
    {
        return dim(v.size());
    }

    ExperimentConfig base_;
    std::vector<std::string> policies_;
    std::vector<std::string> idles_;
    std::vector<LoadLevel> loads_;
    std::vector<double> rps_;
    std::vector<std::uint64_t> seeds_;
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_SWEEP_HH_
