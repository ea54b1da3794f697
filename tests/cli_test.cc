/**
 * @file
 * End-to-end tests for the nmapsim_run CLI (tools/nmapsim_run.cc),
 * driven through popen exactly as a user runs it.
 *
 *  - `--list-policies` is byte-identical to a pinned golden: every
 *    registry's sorted listing and help lines;
 *  - registry names resolve case-insensitively (`--policy=nmap`);
 *  - `--print-config` output read back through `--config` prints the
 *    same config again, single-host and cluster;
 *  - `--print-config` for a single host with `--set` params and for a
 *    tiered cluster with `host<i>.*` overrides is byte-identical to
 *    tests/golden/cli/print_config_*.golden;
 *  - a malformed `--config` line and an unknown `--policy` exit 2;
 *  - three runs (default single host; faults + resilience + bypass on
 *    one host; a faulted, resilient tiered cluster) print the same
 *    stdout tables and write the same `--json` record as the pinned
 *    tests/golden/cli/run_*.golden files (stdout, then the JSON file).
 *
 * Paths are injected by CMake: NMAPSIM_RUN_BIN, NMAPSIM_GOLDEN_DIR.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult
{
    int exitCode = -1;
    std::string out;
};

/** Run nmapsim_run with @p args; stderr is kept only when asked. */
RunResult
run(const std::string &args, bool with_stderr = false)
{
    const std::string cmd = std::string(NMAPSIM_RUN_BIN) + " " + args +
                            (with_stderr ? " 2>&1" : " 2>/dev/null");
    RunResult r;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return r;
    std::array<char, 4096> buf;
    std::size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        r.out.append(buf.data(), n);
    const int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::string
readGolden(const std::string &name)
{
    return readFile(std::string(NMAPSIM_GOLDEN_DIR) + "/cli/" + name +
                    ".golden");
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
}

/** Run with `--json=<name>.json` and return stdout followed by the
 *  JSON file, compared against tests/golden/cli/<name>.golden. To
 *  regenerate after an intentional output change, run the same flags
 *  from any directory and write stdout plus the JSON file there. */
void
expectRunMatchesGolden(const std::string &name, const std::string &args)
{
    const std::string json = name + ".json";
    std::remove(json.c_str());
    const RunResult r = run(args + " --json=" + json);
    ASSERT_EQ(r.exitCode, 0) << r.out;
    const std::string out = r.out + readFile(json);
    std::remove(json.c_str());
    const std::string golden = readGolden(name);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(out, golden);
}

/** `--print-config` stdout against tests/golden/cli/<name>.golden;
 *  regenerate by running the same flags and saving stdout. */
void
expectPrintConfigMatchesGolden(const std::string &name,
                               const std::string &args)
{
    const RunResult r = run(args + " --print-config");
    ASSERT_EQ(r.exitCode, 0) << r.out;
    const std::string golden = readGolden(name);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(r.out, golden);
}

TEST(CliTest, ListPoliciesMatchesGolden)
{
    const RunResult r = run("--list-policies");
    ASSERT_EQ(r.exitCode, 0);
    const std::string golden = readGolden("list_policies");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(r.out, golden);
}

TEST(CliTest, PolicyNameResolvesCaseInsensitively)
{
    // Pinned thresholds: no offline profiling run.
    const RunResult r =
        run("--policy=nmap --cores=2 --warmup=1ms --duration=5ms "
            "--set nmap.ni_th=13 --set nmap.cu_th=0.49");
    ASSERT_EQ(r.exitCode, 0) << r.out;
    EXPECT_NE(r.out.find("policy=nmap"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("P99 latency (us)"), std::string::npos)
        << r.out;
}

TEST(CliTest, PrintConfigRoundTripsThroughConfig)
{
    for (const char *flags :
         {"--policy=ondemand --idle=c6only --cores=4 --load=low "
          "--set nmap.ni_th=13",
          "--hosts=2 --dispatch=round-robin --set host1.freq_policy=NMAP"}) {
        SCOPED_TRACE(flags);
        const RunResult first =
            run(std::string(flags) + " --print-config");
        ASSERT_EQ(first.exitCode, 0);
        ASSERT_FALSE(first.out.empty());
        const std::string path = "cli_test_roundtrip.cfg";
        writeFile(path, first.out);
        const RunResult second =
            run("--config=" + path + " --print-config");
        std::remove(path.c_str());
        ASSERT_EQ(second.exitCode, 0);
        EXPECT_EQ(second.out, first.out);
    }
}

TEST(CliTest, SingleHostPrintConfigMatchesGolden)
{
    expectPrintConfigMatchesGolden(
        "print_config_single_host",
        "--policy=NMAP --idle=c6only --cores=4 --load=med --seed=7 "
        "--set nmap.ni_th=13 --set os.napi_weight=32 --set nic.itr=20us "
        "--set burst.period=50ms --set gov.up_threshold=0.8 "
        "--set fault.wire_loss=0.01 --set client.timeout=2ms");
}

TEST(CliTest, TieredClusterPrintConfigMatchesGolden)
{
    expectPrintConfigMatchesGolden(
        "print_config_tiered_cluster",
        "--hosts=3 --dispatch=round-robin --set topology.tiers=2 "
        "--set topology.tier1.hosts=2 --set topology.tier0.slo=500us "
        "--set host0.freq_policy=NMAP --set host1.weight=2 "
        "--set host2.idle_policy=c6only --set host2.nmap.ni_th=13 "
        "--set cluster.port_queue=64 --set cluster.drain=5ms "
        "--set cluster.health_interval=1ms");
}

TEST(CliTest, MalformedConfigLineExitsTwo)
{
    const std::string path = "cli_test_malformed.cfg";
    writeFile(path, "# comment\ncores=4\n\nfreq_policy ondemand\n");
    const RunResult r = run("--config=" + path, true);
    std::remove(path.c_str());
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.out.find("config line 4: expected key=value"),
              std::string::npos)
        << r.out;
}

TEST(CliTest, UnknownPolicyExitsTwo)
{
    const RunResult r = run("--policy=no-such-policy", true);
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.out.find("unknown frequency policy 'no-such-policy'"),
              std::string::npos)
        << r.out;
}

TEST(CliTest, SingleHostRunMatchesGolden)
{
    expectRunMatchesGolden("run_single_host",
                           "--warmup=5ms --duration=20ms");
}

TEST(CliTest, FaultedResilientBypassRunMatchesGolden)
{
    expectRunMatchesGolden(
        "run_bypass_resilient",
        "--warmup=5ms --duration=20ms --cores=4 --dataplane=bypass "
        "--set dataplane.policy=metronome --fault wire_loss=0.01 "
        "--set client.timeout=2ms --set client.retries=3 "
        "--set resilience.admission=queue-deadline "
        "--set resilience.admit_target=50us "
        "--set resilience.admit_interval=1ms "
        "--set resilience.retry_budget=0.02 "
        "--set resilience.deadline=1ms");
}

TEST(CliTest, FaultedResilientTieredClusterRunMatchesGolden)
{
    expectRunMatchesGolden(
        "run_tiered_cluster",
        "--warmup=5ms --duration=30ms --cores=4 --load=med "
        "--set topology.tiers=2 --set topology.tier0.service_scale=0.25 "
        "--set topology.tier1.hosts=2 "
        "--set cluster.health_interval=1ms "
        "--set cluster.health_timeout=3ms "
        "--set cluster.eject_duration=5ms "
        "--fault crash_host=1 --fault crash_at=12ms "
        "--fault recover_at=24ms --fault wire_loss=0.01 "
        "--set client.timeout=2ms --set client.retries=2 "
        "--set resilience.admission=queue-deadline "
        "--set resilience.admit_target=200us "
        "--set resilience.admit_interval=1ms "
        "--set resilience.retry_budget=0.2 "
        "--set resilience.breaker_window=5ms "
        "--set resilience.deadline=4ms");
}

} // namespace
