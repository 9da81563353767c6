/**
 * @file
 * GTest driver for the pktbuf clang-tidy plugin fixtures: every
 * check's violating fixture must produce its expected warnings and
 * its clean fixture none -- the compiled-through-the-check analog of
 * the Python linters' --self-test.
 *
 * The driver shells out to the clang-tidy binary CMake found at
 * configure time, loading the freshly built plugin with --load and
 * restricting --checks to the one check under test, so a fixture
 * can never pass because a *different* check stayed silent.
 */

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

// All three injected by tools/analyzer/CMakeLists.txt.
#ifndef PKTBUF_ANALYZER_PLUGIN
#error "PKTBUF_ANALYZER_PLUGIN must point at the built plugin .so"
#endif
#ifndef PKTBUF_CLANG_TIDY
#error "PKTBUF_CLANG_TIDY must point at the clang-tidy binary"
#endif
#ifndef PKTBUF_ANALYZER_FIXTURES
#error "PKTBUF_ANALYZER_FIXTURES must point at the fixtures dir"
#endif

namespace
{

struct TidyRun
{
    int exitStatus = -1;
    std::string output;  // stdout + stderr, interleaved
};

/** Run one check over one fixture; never throws. */
TidyRun
runTidy(const std::string &check, const std::string &fixture)
{
    const std::string fixtures = PKTBUF_ANALYZER_FIXTURES;
    const std::string cmd = std::string(PKTBUF_CLANG_TIDY) +
                            " --load=" + PKTBUF_ANALYZER_PLUGIN +
                            " --checks='-*," + check + "'" + " '" +
                            fixtures + "/" + fixture + "'" +
                            " -- -std=c++17 -w -I'" + fixtures + "' 2>&1";
    TidyRun run;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return run;
    std::array<char, 4096> buf{};
    size_t n = 0;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        run.output.append(buf.data(), n);
    run.exitStatus = pclose(pipe);
    return run;
}

/** Occurrences of `needle` in `haystack`. */
int
countOf(const std::string &haystack, const std::string &needle)
{
    int count = 0;
    for (size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

/** Warnings attributed to `check` in clang-tidy output. */
int
warningsFrom(const TidyRun &run, const std::string &check)
{
    return countOf(run.output, "[" + check + "]");
}

class AnalyzerFixture
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{
  protected:
    /**
     * The plugin must load and the check must register; a clang-tidy
     * that cannot load the plugin prints an error and lists no
     * pktbuf checks, which must fail loudly, not silently pass the
     * clean fixtures.
     */
    static void
    SetUpTestSuite()
    {
        const TidyRun list = runTidy("pktbuf-*", "enum_switch_clean.cc");
        ASSERT_EQ(countOf(list.output, "Error opening plugin"), 0)
            << "plugin failed to load:\n"
            << list.output;
    }
};

TEST_P(AnalyzerFixture, ViolationsDetectedCleanSilent)
{
    const std::string check = std::get<0>(GetParam());
    const int expected = std::get<1>(GetParam());
    const std::string base = [&] {
        std::string b = check.substr(std::string("pktbuf-").size());
        for (auto &c : b)
            if (c == '-')
                c = '_';
        return b;
    }();

    const TidyRun bad = runTidy(check, base + "_violation.cc");
    EXPECT_EQ(warningsFrom(bad, check), expected)
        << check << " on the violating fixture:\n"
        << bad.output;

    const TidyRun good = runTidy(check, base + "_clean.cc");
    EXPECT_EQ(warningsFrom(good, check), 0)
        << check << " on the clean fixture:\n"
        << good.output;
}

INSTANTIATE_TEST_SUITE_P(
    AllChecks, AnalyzerFixture,
    ::testing::Values(
        std::make_tuple("pktbuf-seed-discipline", 4),
        std::make_tuple("pktbuf-serialization-complete", 5),
        std::make_tuple("pktbuf-stat-key", 5),
        std::make_tuple("pktbuf-enum-switch", 2),
        std::make_tuple("pktbuf-describe-engine-agnostic", 2)),
    [](const ::testing::TestParamInfo<std::tuple<const char *, int>>
           &pinfo) {
        std::string name = std::get<0>(pinfo.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/**
 * The check must also be *reachable* the way run_tidy.sh invokes it:
 * --list-checks with the plugin loaded names all five.
 */
TEST(AnalyzerPlugin, ListsAllFiveChecks)
{
    const std::string cmd =
        std::string(PKTBUF_CLANG_TIDY) + " --load=" +
        PKTBUF_ANALYZER_PLUGIN + " --checks='-*,pktbuf-*' --list-checks "
        " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    std::array<char, 4096> buf{};
    size_t n = 0;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        out.append(buf.data(), n);
    pclose(pipe);
    for (const char *check :
         {"pktbuf-seed-discipline", "pktbuf-serialization-complete",
          "pktbuf-stat-key", "pktbuf-enum-switch",
          "pktbuf-describe-engine-agnostic"}) {
        EXPECT_NE(out.find(check), std::string::npos)
            << "missing " << check << " in:\n"
            << out;
    }
}

} // namespace
