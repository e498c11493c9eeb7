// Self-test for tools/at_lint: every rule (R2-R4, R6-R9) must fire on
// its violation fixture at exactly the expected location, and the clean
// fixture (which is packed with near-misses — suppressed R2, guarded
// members, post-scope I/O, an acyclic lock diamond) must pass. The
// --audit-suppressions pass must flag exactly the disable tags that cover
// nothing.
//
// The binary path and fixture directory come in via compile definitions
// (see tests/CMakeLists.txt); the test shells out to the real binary so
// the exit-code contract and output format are covered too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

struct LintRun {
  int exit_code = -1;
  std::vector<std::string> lines;  // stdout, one violation per line
};

struct ParsedViolation {
  std::string file;
  size_t line = 0;
  std::string rule;
};

LintRun RunLint(const std::string& args) {
  std::string cmd = std::string(AT_LINT_BINARY) + " --quiet " + args;
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  std::string current;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    current += buf;
    size_t nl;
    while ((nl = current.find('\n')) != std::string::npos) {
      run.lines.push_back(current.substr(0, nl));
      current.erase(0, nl + 1);
    }
  }
  int rc = pclose(pipe);
  run.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return run;
}

std::string Fixture(const std::string& name) {
  return std::string(AT_LINT_FIXTURES) + "/" + name;
}

// "path/to/file.cc:13: [R2] message" -> {file, 13, "R2"}.
ParsedViolation Parse(const std::string& line) {
  ParsedViolation v;
  size_t bracket = line.find("[R");
  size_t close = line.find(']', bracket);
  EXPECT_NE(bracket, std::string::npos) << line;
  EXPECT_NE(close, std::string::npos) << line;
  v.rule = line.substr(bracket + 1, close - bracket - 1);
  size_t colon2 = line.rfind(':', bracket);
  size_t colon1 = line.rfind(':', colon2 - 1);
  EXPECT_NE(colon1, std::string::npos) << line;
  v.file = line.substr(0, colon1);
  v.line = std::strtoull(line.c_str() + colon1 + 1, nullptr, 10);
  return v;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(LintTest, CleanFixturePasses) {
  LintRun run = RunLint(Fixture("clean"));
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_TRUE(run.lines.empty())
      << "unexpected violation: " << run.lines.front();
}

TEST(LintTest, R2FiresOnRawNondeterminism) {
  LintRun run = RunLint(Fixture("bad_r2"));
  EXPECT_EQ(run.exit_code, 1);
  ASSERT_EQ(run.lines.size(), 3u);
  // Sorted by file: src/core (std::rand), src/embed (std::random_device),
  // src/typedet (a clock).
  ParsedViolation core = Parse(run.lines[0]);
  EXPECT_EQ(core.rule, "R2");
  EXPECT_TRUE(EndsWith(core.file, "core/nondet.cc")) << core.file;
  EXPECT_EQ(core.line, 8u);
  ParsedViolation embed = Parse(run.lines[1]);
  EXPECT_EQ(embed.rule, "R2");
  EXPECT_TRUE(EndsWith(embed.file, "embed/noisy_vector.cc")) << embed.file;
  EXPECT_EQ(embed.line, 8u);
  ParsedViolation typedet = Parse(run.lines[2]);
  EXPECT_EQ(typedet.rule, "R2");
  EXPECT_TRUE(EndsWith(typedet.file, "typedet/clock_seeded.cc"))
      << typedet.file;
  EXPECT_EQ(typedet.line, 10u);
}

TEST(LintTest, R3FiresOnUnknownNameAndDeadRegistration) {
  LintRun run = RunLint(Fixture("bad_r3"));
  EXPECT_EQ(run.exit_code, 1);
  ASSERT_EQ(run.lines.size(), 2u);
  // Output is sorted by file: failpoint.h (dead) before use.cc (unknown).
  ParsedViolation dead = Parse(run.lines[0]);
  EXPECT_EQ(dead.rule, "R3");
  EXPECT_TRUE(EndsWith(dead.file, "failpoint.h")) << dead.file;
  EXPECT_EQ(dead.line, 11u);
  EXPECT_NE(run.lines[0].find("dead.point"), std::string::npos);
  EXPECT_NE(run.lines[0].find("dead registration"), std::string::npos);
  ParsedViolation unknown = Parse(run.lines[1]);
  EXPECT_EQ(unknown.rule, "R3");
  EXPECT_TRUE(EndsWith(unknown.file, "use.cc")) << unknown.file;
  EXPECT_EQ(unknown.line, 12u);
  EXPECT_NE(run.lines[1].find("fixture.unknown"), std::string::npos);
  // The registered-and-used serve.read entry in the fixture must not
  // appear: dotted serving-tier names resolve like any other failpoint.
  for (const std::string& line : run.lines) {
    EXPECT_EQ(line.find("serve.read"), std::string::npos) << line;
  }
}

TEST(LintTest, R4FiresOnAtCheckInUntrustedInputFile) {
  LintRun run = RunLint(Fixture("bad_r4"));
  EXPECT_EQ(run.exit_code, 1);
  ASSERT_EQ(run.lines.size(), 1u);
  ParsedViolation v = Parse(run.lines[0]);
  EXPECT_EQ(v.rule, "R4");
  EXPECT_TRUE(EndsWith(v.file, "csv.cc")) << v.file;
  EXPECT_EQ(v.line, 8u);
}

TEST(LintTest, R6FiresOnUnknownMissingAndDeadMetrics) {
  LintRun run = RunLint(Fixture("bad_r6"));
  EXPECT_EQ(run.exit_code, 1);
  ASSERT_EQ(run.lines.size(), 3u);
  // Output is sorted by file: metrics.h (dead + unlisted) before use.cc
  // (unknown literal).
  ParsedViolation dead = Parse(run.lines[0]);
  EXPECT_EQ(dead.rule, "R6");
  EXPECT_TRUE(EndsWith(dead.file, "metrics.h")) << dead.file;
  EXPECT_EQ(dead.line, 11u);
  EXPECT_NE(run.lines[0].find("fixture.dead_count"), std::string::npos);
  EXPECT_NE(run.lines[0].find("dead registration"), std::string::npos);
  ParsedViolation unlisted = Parse(run.lines[1]);
  EXPECT_EQ(unlisted.rule, "R6");
  EXPECT_EQ(unlisted.line, 13u);
  EXPECT_NE(run.lines[1].find("fixture.unlisted"), std::string::npos);
  EXPECT_NE(run.lines[1].find("missing from the kAllMetrics"),
            std::string::npos);
  ParsedViolation unknown = Parse(run.lines[2]);
  EXPECT_EQ(unknown.rule, "R6");
  EXPECT_TRUE(EndsWith(unknown.file, "use.cc")) << unknown.file;
  EXPECT_EQ(unknown.line, 14u);
  EXPECT_NE(run.lines[2].find("fixture.unknown_metric"), std::string::npos);
  // The registered-and-used serve.* entries must not appear: serve-tier
  // and governance metric names resolve against kAllMetrics like any
  // other.
  for (const std::string& line : run.lines) {
    EXPECT_EQ(line.find("serve.requests_shed"), std::string::npos) << line;
    EXPECT_EQ(line.find("serve.breaker_open_total"), std::string::npos)
        << line;
    EXPECT_EQ(line.find("serve.tenant_rejections"), std::string::npos)
        << line;
  }
}

TEST(LintTest, R7FiresOnRawMutexAndUnguardedWrite) {
  LintRun run = RunLint(Fixture("bad_r7"));
  EXPECT_EQ(run.exit_code, 1);
  ASSERT_EQ(run.lines.size(), 2u);
  ParsedViolation unguarded = Parse(run.lines[0]);
  EXPECT_EQ(unguarded.rule, "R7");
  EXPECT_TRUE(EndsWith(unguarded.file, "state.h")) << unguarded.file;
  EXPECT_EQ(unguarded.line, 12u);
  EXPECT_NE(run.lines[0].find("Counter::total_"), std::string::npos);
  EXPECT_NE(run.lines[0].find("AT_GUARDED_BY"), std::string::npos);
  ParsedViolation raw = Parse(run.lines[1]);
  EXPECT_EQ(raw.rule, "R7");
  EXPECT_EQ(raw.line, 16u);
  EXPECT_NE(run.lines[1].find("Counter::mu_"), std::string::npos);
  EXPECT_NE(run.lines[1].find("util::Mutex"), std::string::npos);
}

TEST(LintTest, R8FiresOnBlockingCallUnderLock) {
  LintRun run = RunLint(Fixture("bad_r8"));
  EXPECT_EQ(run.exit_code, 1);
  ASSERT_EQ(run.lines.size(), 1u);
  ParsedViolation v = Parse(run.lines[0]);
  EXPECT_EQ(v.rule, "R8");
  EXPECT_TRUE(EndsWith(v.file, "io.cc")) << v.file;
  EXPECT_EQ(v.line, 17u);
  EXPECT_NE(run.lines[0].find("fopen()"), std::string::npos);
  EXPECT_NE(run.lines[0].find("Logger::mu_"), std::string::npos);
}

TEST(LintTest, R9FiresOnCrossFileLockOrderCycle) {
  LintRun run = RunLint(Fixture("bad_r9"));
  EXPECT_EQ(run.exit_code, 1);
  ASSERT_EQ(run.lines.size(), 1u);
  ParsedViolation v = Parse(run.lines[0]);
  EXPECT_EQ(v.rule, "R9");
  EXPECT_TRUE(EndsWith(v.file, "pair.h")) << v.file;
  EXPECT_EQ(v.line, 11u);
  // The message names the full chain with per-edge provenance from both
  // files: the annotation edge and the reversed nesting edge.
  EXPECT_NE(run.lines[0].find("Pair::a_ -> Pair::b_"), std::string::npos);
  EXPECT_NE(run.lines[0].find("Pair::b_ -> Pair::a_"), std::string::npos);
  EXPECT_NE(run.lines[0].find("pair_use.cc:7"), std::string::npos);
}

TEST(LintTest, AuditReportsOnlyTheStaleSuppression) {
  LintRun run =
      RunLint("--audit-suppressions " + Fixture("stale_supp"));
  // Stale tags are warnings: exit code stays 0.
  EXPECT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.lines.size(), 1u);
  EXPECT_NE(run.lines[0].find("stale suppression"), std::string::npos);
  EXPECT_NE(run.lines[0].find("stale.cc:14"), std::string::npos);
  EXPECT_NE(run.lines[0].find("disable(R2)"), std::string::npos);
}

TEST(LintTest, WithoutAuditFlagStaleTagsAreSilent) {
  LintRun run = RunLint(Fixture("stale_supp"));
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_TRUE(run.lines.empty()) << run.lines.front();
}

TEST(LintTest, AllFixturesTogetherReportEveryRuleOnce) {
  LintRun run = RunLint(Fixture("bad_r2") + " " + Fixture("bad_r3") + " " +
                        Fixture("bad_r4") + " " + Fixture("bad_r6") + " " +
                        Fixture("bad_r7") + " " + Fixture("bad_r8") + " " +
                        Fixture("bad_r9"));
  EXPECT_EQ(run.exit_code, 1);
  std::vector<std::string> rules;
  for (const auto& line : run.lines) rules.push_back(Parse(line).rule);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "R2"), 3);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "R3"), 2);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "R4"), 1);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "R6"), 3);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "R7"), 2);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "R8"), 1);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "R9"), 1);
}

TEST(LintTest, NoArgumentsIsAUsageError) {
  LintRun run = RunLint("");
  EXPECT_EQ(run.exit_code, 2);
}

TEST(LintTest, ListRulesNamesEveryRule) {
  LintRun run = RunLint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  std::string all;
  for (const auto& line : run.lines) all += line + "\n";
  for (const char* rule :
       {"R2", "R3", "R4", "R6", "R7", "R8", "R9"}) {
    EXPECT_NE(all.find(rule), std::string::npos) << rule;
  }
}

}  // namespace
