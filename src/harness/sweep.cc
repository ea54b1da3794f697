#include "harness/sweep.hh"

#include <algorithm>
#include <cstdlib>

namespace nmapsim {

int
sweepJobs(std::size_t num_points)
{
    int jobs = 0;
    if (const char *env = std::getenv("NMAPSIM_JOBS"))
        jobs = std::atoi(env);
    if (jobs <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw == 0 ? 1 : static_cast<int>(hw);
    }
    if (static_cast<std::size_t>(jobs) > num_points)
        jobs = static_cast<int>(num_points);
    return std::max(jobs, 1);
}

std::vector<ExperimentConfig>
SweepSpec::build() const
{
    std::vector<ExperimentConfig> points;
    points.reserve(numPoints());
    for (std::size_t pi = 0; pi < numPolicies(); ++pi) {
        for (std::size_t ii = 0; ii < numIdlePolicies(); ++ii) {
            for (std::size_t li = 0; li < numLoads(); ++li) {
                for (std::size_t ri = 0; ri < numRps(); ++ri) {
                    for (std::size_t si = 0; si < numSeeds(); ++si) {
                        ExperimentConfig cfg = base_;
                        if (!policies_.empty())
                            cfg.freqPolicy = policies_[pi];
                        if (!idles_.empty())
                            cfg.idlePolicy = idles_[ii];
                        if (!loads_.empty())
                            cfg.load = loads_[li];
                        if (!rps_.empty())
                            cfg.rpsOverride = rps_[ri];
                        if (!seeds_.empty())
                            cfg.seed = seeds_[si];
                        points.push_back(std::move(cfg));
                    }
                }
            }
        }
    }
    return points;
}

} // namespace nmapsim
