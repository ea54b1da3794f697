/**
 * @file
 * Example: compare every frequency policy in the library on one
 * workload — the library's governor zoo in a single table. The ten
 * policies run concurrently on the sweep pool (NMAPSIM_JOBS wide).
 *
 * Usage: ./build/examples/governor_shootout [memcached|nginx]
 */

#include <cstring>
#include <iostream>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "stats/table.hh"

using namespace nmapsim;

int
main(int argc, char **argv)
{
    AppProfile app = (argc > 1 && std::strcmp(argv[1], "nginx") == 0)
                         ? AppProfile::nginx()
                         : AppProfile::memcached();
    std::cout << "governor shootout: " << app.name << " (SLO "
              << toMilliseconds(app.slo) << " ms), high load, menu "
              << "sleep policy\n\n";

    ExperimentConfig base;
    base.app = app;
    auto [ni_th, cu_th] = Experiment::profileThresholds(base);

    const std::vector<std::string> policies = {
        "powersave",   "intel_powersave",
        "ondemand",    "conservative",
        "performance", "Parties",
        "NCAP-menu",    "NCAP",
        "NMAP-simpl",   "NMAP"};

    base.load = LoadLevel::kHigh;
    base.duration = seconds(1);
    base.params.set("nmap.ni_th", ni_th);
    base.params.set("nmap.cu_th", cu_th);
    SweepSpec spec(base);
    spec.policies(policies);

    std::vector<ExperimentResult> results = runParallel(
        spec.build(),
        [](const ExperimentConfig &cfg) { return Experiment(cfg).run(); },
        "shootout");

    Table table({"policy", "P99 (us)", "xSLO", "> SLO (%)",
                 "energy (J)", "avg power (W)", "V/F transitions"});
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
        const ExperimentResult &r = results[spec.index(pi)];
        table.addRow({
            policies[pi].c_str(),
            Table::num(toMicroseconds(r.p99), 0),
            Table::num(static_cast<double>(r.p99) /
                           static_cast<double>(app.slo),
                       2),
            Table::num(r.fracOverSlo * 100.0, 2),
            Table::num(r.energyJoules, 1),
            Table::num(r.avgPowerWatts, 1),
            std::to_string(r.pstateTransitions),
        });
    }
    table.print(std::cout);

    std::cout << "\nReading guide: a policy must keep xSLO <= 1.0; "
                 "among those, lower energy wins. At high load NMAP "
                 "ties the tuned NCAP variants; its energy advantage "
                 "grows at lower loads (see bench/fig15).\n";
    return 0;
}
