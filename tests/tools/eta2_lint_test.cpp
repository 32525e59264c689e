// eta2_lint rule tests: every rule fires on a minimal fixture, suppression
// comments silence exactly the named rule, and a clean tree lints empty.
#include "lint/linter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace eta2::lint {
namespace {

std::vector<std::string> rules_hit(const std::vector<Diagnostic>& diagnostics) {
  std::vector<std::string> rules;
  for (const Diagnostic& d : diagnostics) rules.push_back(d.rule);
  return rules;
}

bool has_rule(const std::vector<Diagnostic>& diagnostics,
              std::string_view rule) {
  return std::any_of(
      diagnostics.begin(), diagnostics.end(),
      [&](const Diagnostic& d) { return d.rule == rule; });
}

SourceFile library_file(std::string contents) {
  return SourceFile{"src/demo/widget.cpp", std::move(contents), false};
}

// --- scrubber -------------------------------------------------------------

TEST(ScrubTest, RemovesCommentsAndStringsPreservingLines) {
  const std::string source =
      "int a; // rand() in a comment\n"
      "const char* s = \"std::cout inside a string\";\n"
      "/* block\n   rand() */ int b;\n";
  const std::string scrubbed = scrub_source(source);
  EXPECT_EQ(std::count(scrubbed.begin(), scrubbed.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
  EXPECT_EQ(scrubbed.find("rand"), std::string::npos);
  EXPECT_EQ(scrubbed.find("cout"), std::string::npos);
  EXPECT_NE(scrubbed.find("int a;"), std::string::npos);
  EXPECT_NE(scrubbed.find("int b;"), std::string::npos);
}

TEST(ScrubTest, HandlesRawStringsAndEscapes) {
  const std::string source =
      "auto r = R\"(rand() time(nullptr))\";\n"
      "char c = '\\\"'; int x = 1;\n";
  const std::string scrubbed = scrub_source(source);
  EXPECT_EQ(scrubbed.find("rand"), std::string::npos);
  EXPECT_NE(scrubbed.find("int x = 1;"), std::string::npos);
}

// --- nondeterminism -------------------------------------------------------

TEST(LintRuleTest, NondeterminismFlagsRandFamily) {
  const auto diagnostics = lint_file(library_file(
      "int f() { return rand(); }\n"
      "void g() { srand(7); }\n"
      "std::random_device rd;\n"
      "auto t = time(nullptr);\n"
      "auto n = std::chrono::steady_clock::now();\n"));
  EXPECT_EQ(diagnostics.size(), 5u);
  for (const auto& d : diagnostics) EXPECT_EQ(d.rule, "nondeterminism");
  EXPECT_EQ(diagnostics[0].line, 1u);
  EXPECT_EQ(diagnostics[3].line, 4u);
}

TEST(LintRuleTest, NondeterminismAllowedInRngAndBench) {
  const std::string contents = "std::random_device rd;\n";
  EXPECT_TRUE(
      lint_file({"src/common/rng.cpp", contents, false}).empty());
  EXPECT_TRUE(lint_file({"bench/fig99_timing.cpp", contents, false}).empty());
  EXPECT_FALSE(lint_file({"src/truth/foo.cpp", contents, false}).empty());
}

TEST(LintRuleTest, NondeterminismIgnoresLookalikes) {
  const auto diagnostics = lint_file(library_file(
      "int random_seed = brand();\n"  // brand() is not rand()
      "double lifetime = time_budget(x);\n"));
  EXPECT_TRUE(diagnostics.empty()) << format_diagnostic(diagnostics.front());
}

// --- unordered-iteration --------------------------------------------------

TEST(LintRuleTest, UnorderedIterationFlagsRangeFor) {
  const auto diagnostics = lint_file(library_file(
      "std::unordered_map<std::string, int> counts;\n"
      "void f() {\n"
      "  for (const auto& [k, v] : counts) { use(k, v); }\n"
      "}\n"));
  ASSERT_EQ(rules_hit(diagnostics),
            std::vector<std::string>{"unordered-iteration"});
  EXPECT_EQ(diagnostics[0].line, 3u);
}

TEST(LintRuleTest, UnorderedIterationFlagsIteratorLoops) {
  const auto diagnostics = lint_file(library_file(
      "std::unordered_set<int> seen;\n"
      "void f() {\n"
      "  for (auto it = seen.begin(); it != seen.end(); ++it) use(*it);\n"
      "}\n"));
  EXPECT_TRUE(has_rule(diagnostics, "unordered-iteration"));
}

TEST(LintRuleTest, UnorderedLookupIsNotIteration) {
  const auto diagnostics = lint_file(library_file(
      "std::unordered_map<std::string, int> counts;\n"
      "int f(const std::string& k) { return counts.at(k); }\n"
      "bool g(const std::string& k) { return counts.count(k) > 0; }\n"));
  EXPECT_TRUE(diagnostics.empty()) << format_diagnostic(diagnostics.front());
}

TEST(LintRuleTest, SingleLineLoopBodyMentionIsNotIteration) {
  // Regression: the range expression ends at the for's close paren; a
  // container mutated in the loop BODY of a one-line for over an ordered
  // sequence must not be flagged (src/text/vocab.cpp pattern).
  const auto diagnostics = lint_file(library_file(
      "std::unordered_map<std::string, int> counts;\n"
      "void f(const std::vector<std::string>& v) {\n"
      "  for (const auto& t : v) ++counts[t];\n"
      "}\n"));
  EXPECT_TRUE(diagnostics.empty()) << format_diagnostic(diagnostics.front());
}

// --- library-output -------------------------------------------------------

TEST(LintRuleTest, LibraryOutputFlagsCoutAndPrintfInSrcOnly) {
  const std::string contents =
      "void report() { std::cout << 1; }\n"
      "void report2() { printf(\"%d\", 2); }\n";
  const auto in_src = lint_file(library_file(contents));
  EXPECT_EQ(rules_hit(in_src),
            (std::vector<std::string>{"library-output", "library-output"}));
  EXPECT_TRUE(lint_file({"tools/eta2_cli.cpp", contents, false}).empty());
  EXPECT_TRUE(lint_file({"examples/quickstart.cpp", contents, false}).empty());
}

// --- catch-all ------------------------------------------------------------

TEST(LintRuleTest, CatchAllFlagged) {
  const auto diagnostics = lint_file(library_file(
      "void f() {\n"
      "  try { g(); } catch (...) { }\n"
      "}\n"));
  ASSERT_EQ(rules_hit(diagnostics), std::vector<std::string>{"catch-all"});
  EXPECT_EQ(diagnostics[0].line, 2u);
}

TEST(LintRuleTest, TypedCatchIsFine) {
  const auto diagnostics = lint_file(library_file(
      "void f() {\n"
      "  try { g(); } catch (const std::exception& e) { log(e); }\n"
      "}\n"));
  EXPECT_TRUE(diagnostics.empty());
}

// --- float-equality -------------------------------------------------------

TEST(LintRuleTest, FloatEqualityFlagsLiteralCompares) {
  EXPECT_TRUE(has_rule(lint_file(library_file("bool b = x == 0.0;\n")),
                       "float-equality"));
  EXPECT_TRUE(has_rule(lint_file(library_file("bool b = 1.5 != y;\n")),
                       "float-equality"));
  EXPECT_TRUE(has_rule(lint_file(library_file("if (z == 1e-9) {}\n")),
                       "float-equality"));
}

TEST(LintRuleTest, FloatEqualityIgnoresOrderedComparesAndInts) {
  EXPECT_TRUE(lint_file(library_file("bool b = x <= 0.0;\n")).empty());
  EXPECT_TRUE(lint_file(library_file("bool b = x >= 1.5;\n")).empty());
  EXPECT_TRUE(lint_file(library_file("bool b = n == 2;\n")).empty());
  EXPECT_TRUE(lint_file(library_file("bool b = version != 3;\n")).empty());
}

// --- include hygiene ------------------------------------------------------

TEST(LintRuleTest, MissingIncludeGuardFlagged) {
  const auto diagnostics =
      lint_file({"src/demo/widget.h", "struct Widget {};\n", false});
  ASSERT_EQ(rules_hit(diagnostics),
            std::vector<std::string>{"missing-include-guard"});
  EXPECT_EQ(diagnostics[0].line, 0u);
}

TEST(LintRuleTest, GuardOrPragmaOnceAccepted) {
  EXPECT_TRUE(lint_file({"src/demo/widget.h",
                         "#ifndef DEMO_WIDGET_H\n#define DEMO_WIDGET_H\n"
                         "struct Widget {};\n#endif\n",
                         false})
                  .empty());
  EXPECT_TRUE(lint_file({"src/demo/widget.h",
                         "#pragma once\nstruct Widget {};\n", false})
                  .empty());
}

TEST(LintRuleTest, SelfIncludeFirstEnforced) {
  const auto wrong_first = lint_file(
      {"src/demo/widget.cpp",
       "#include <vector>\n#include \"demo/widget.h\"\n", true});
  ASSERT_EQ(rules_hit(wrong_first),
            std::vector<std::string>{"self-include-first"});
  EXPECT_EQ(wrong_first[0].line, 1u);

  EXPECT_TRUE(lint_file({"src/demo/widget.cpp",
                         "#include \"demo/widget.h\"\n#include <vector>\n",
                         true})
                  .empty());
  // Top-level file with no directory prefix in the include.
  EXPECT_TRUE(lint_file({"bench/bench_util.cpp",
                         "#include \"bench_util.h\"\n", true})
                  .empty());
  // Never includes its own header at all.
  EXPECT_TRUE(has_rule(
      lint_file({"src/demo/widget.cpp", "#include <vector>\n", true}),
      "self-include-first"));
  // No sibling header: no requirement.
  EXPECT_TRUE(
      lint_file({"src/demo/widget.cpp", "#include <vector>\n", false})
          .empty());
}

// --- hot-loop-require -----------------------------------------------------

TEST(LintRuleTest, HotLoopRequireFlagsThrowingValidationInParallelBody) {
  const auto diagnostics = lint_file(library_file(
      "void f() {\n"
      "  parallel::parallel_for(n, 16, [&](std::size_t i) {\n"
      "    require(i < limit, \"out of range\");\n"
      "  });\n"
      "}\n"));
  ASSERT_EQ(rules_hit(diagnostics),
            std::vector<std::string>{"hot-loop-require"});
  EXPECT_EQ(diagnostics[0].line, 3u);
}

TEST(LintRuleTest, HotLoopRequireCoversAllEntryPointsAndThrowForms) {
  EXPECT_TRUE(has_rule(
      lint_file(library_file(
          "void f() {\n"
          "  parallel::parallel_for_chunks(n, 64, [&](std::size_t b,\n"
          "                                           std::size_t e) {\n"
          "    ensure(b < e, \"empty chunk\");\n"
          "  });\n"
          "}\n")),
      "hot-loop-require"));
  EXPECT_TRUE(has_rule(
      lint_file(library_file(
          "double g() {\n"
          "  return parallel::parallel_reduce(\n"
          "      n, 128, 0.0,\n"
          "      [&](std::size_t b, std::size_t e) {\n"
          "        if (b == e) throw std::logic_error(\"bad\");\n"
          "        return f(b, e);\n"
          "      },\n"
          "      [](double a, double b) { return a + b; });\n"
          "}\n")),
      "hot-loop-require"));
}

TEST(LintRuleTest, HotLoopRequireIgnoresContractMacrosAndHoistedChecks) {
  // ETA2_* contract macros are the sanctioned in-loop mechanism, and
  // validation before/after the region is exactly what the rule demands.
  EXPECT_TRUE(lint_file(library_file(
                  "void f() {\n"
                  "  require(n > 0, \"empty\");\n"
                  "  parallel::parallel_for(n, 16, [&](std::size_t i) {\n"
                  "    ETA2_ASSERT(p[i] >= 0.0);\n"
                  "    ETA2_EXPECTS(i < n);\n"
                  "  });\n"
                  "  ensure(done, \"post\");\n"
                  "}\n"))
                  .empty());
}

TEST(LintRuleTest, HotLoopRequireExemptsParallelRuntimeSources) {
  const std::string contents =
      "void f() {\n"
      "  parallel_for(n, 1, [&](std::size_t i) {\n"
      "    require(ok(i), \"bad\");\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_file({"src/common/parallel.cpp", contents, false}).empty());
  EXPECT_FALSE(lint_file({"src/truth/foo.cpp", contents, false}).empty());
}

TEST(LintSuppressionTest, HotLoopRequireSuppressible) {
  EXPECT_TRUE(lint_file(library_file(
                  "void f() {\n"
                  "  parallel::parallel_for(n, 16, [&](std::size_t i) {\n"
                  "    // eta2-lint: allow(hot-loop-require) — cold setup\n"
                  "    require(i < limit, \"out of range\");\n"
                  "  });\n"
                  "}\n"))
                  .empty());
}

// --- suppressions ---------------------------------------------------------

TEST(LintSuppressionTest, SameLineAndPrecedingCommentBlock) {
  EXPECT_TRUE(lint_file(library_file(
                  "bool b = x == 0.0;  // eta2-lint: allow(float-equality)\n"))
                  .empty());
  EXPECT_TRUE(lint_file(library_file(
                  "// eta2-lint: allow(float-equality) — exact sentinel\n"
                  "bool b = x == 0.0;\n"))
                  .empty());
  // Multi-line justification: allow() sits at the top of the comment block.
  EXPECT_TRUE(lint_file(library_file(
                  "// eta2-lint: allow(catch-all) — trampoline captures\n"
                  "// and rethrows on the posting thread.\n"
                  "void f() { try { g(); } catch (...) { } }\n"))
                  .empty());
}

TEST(LintSuppressionTest, WrongRuleNameDoesNotSuppress) {
  const auto diagnostics = lint_file(library_file(
      "// eta2-lint: allow(nondeterminism)\n"
      "bool b = x == 0.0;\n"));
  EXPECT_TRUE(has_rule(diagnostics, "float-equality"));
}

TEST(LintSuppressionTest, SuppressionOnlyCoversAdjacentLine) {
  const auto diagnostics = lint_file(library_file(
      "// eta2-lint: allow(float-equality)\n"
      "int unrelated = 0;\n"
      "bool b = x == 0.0;\n"));
  EXPECT_TRUE(has_rule(diagnostics, "float-equality"));
}

// --- whole-tree runs ------------------------------------------------------

class LintTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("eta2_lint_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(root_ / "src/demo");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void write(const std::string& relative, const std::string& contents) {
    const auto path = root_ / relative;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << contents;
  }

  std::filesystem::path root_;
};

TEST_F(LintTreeTest, CleanTreeReturnsNoDiagnostics) {
  write("src/demo/widget.h",
        "#ifndef DEMO_WIDGET_H\n#define DEMO_WIDGET_H\n"
        "struct Widget { int x = 0; };\n#endif\n");
  write("src/demo/widget.cpp",
        "#include \"demo/widget.h\"\nint use(Widget w) { return w.x; }\n");
  EXPECT_TRUE(lint_tree(root_.string()).empty());
}

TEST_F(LintTreeTest, ViolationsCarryRepoRelativePaths) {
  write("src/demo/widget.cpp", "int f() { return rand(); }\n");
  const auto diagnostics = lint_tree(root_.string());
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].file, "src/demo/widget.cpp");
  EXPECT_EQ(diagnostics[0].rule, "nondeterminism");
  EXPECT_EQ(format_diagnostic(diagnostics[0]).find("src/demo/widget.cpp:1:"),
            0u);
}

TEST_F(LintTreeTest, TestsDirectoryIsNotScanned) {
  write("tests/demo_test.cpp", "int f() { return rand(); }\n");
  EXPECT_TRUE(lint_tree(root_.string()).empty());
}

TEST(LintCatalogueTest, EveryRuleIsDocumented) {
  const auto& rules = rule_catalogue();
  ASSERT_EQ(rules.size(), 13u);
  for (const auto& rule : rules) {
    EXPECT_FALSE(rule.name.empty());
    EXPECT_FALSE(rule.summary.empty());
  }
}

}  // namespace
}  // namespace eta2::lint
