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
 *  - a malformed `--config` line and an unknown `--policy` exit 2.
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

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
}

TEST(CliTest, ListPoliciesMatchesGolden)
{
    const RunResult r = run("--list-policies");
    ASSERT_EQ(r.exitCode, 0);
    const std::string golden =
        readFile(std::string(NMAPSIM_GOLDEN_DIR) +
                 "/cli/list_policies.golden");
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

} // namespace
