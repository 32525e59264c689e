// eta2_lint v2 tests: the shared tokenizer, the cross-TU concurrency pass
// (rules guarded-by / lock-order / thread-exception-escape /
// unbounded-input-resize), the include-graph layer-DAG pass, the CLI
// stream contract, and the golden fixture tree that pins the v1 rules
// across the scrubber -> tokenizer refactor.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "lint/cli.h"
#include "lint/include_graph.h"
#include "lint/lex.h"
#include "lint/linter.h"

namespace eta2::lint {
namespace {

bool has_rule(const std::vector<Diagnostic>& diagnostics,
              std::string_view rule) {
  return std::any_of(
      diagnostics.begin(), diagnostics.end(),
      [&](const Diagnostic& d) { return d.rule == rule; });
}

std::string joined(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) out += format_diagnostic(d) + "\n";
  return out;
}

SourceFile library_file(std::string contents) {
  return SourceFile{"src/demo/widget.cpp", std::move(contents), false};
}

// --- tokenizer ------------------------------------------------------------

TEST(LexTest, TokenizesIdentifiersNumbersAndPunct) {
  const TokenizedSource source = tokenize("int x = f(42) + y_;\n");
  std::vector<std::string> texts;
  for (const Token& t : source.tokens) texts.emplace_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{"int", "x", "=", "f", "(", "42",
                                             ")", "+", "y_", ";"}));
  EXPECT_EQ(source.tokens.front().kind, TokenKind::kIdentifier);
  EXPECT_EQ(source.tokens[5].kind, TokenKind::kNumber);
  EXPECT_EQ(source.tokens.back().kind, TokenKind::kPunct);
}

TEST(LexTest, TracksLinesAndLexesMultiCharOperatorsGreedily) {
  const TokenizedSource source = tokenize("a += b;\nc <<= d->e;\nf :: g;\n");
  ASSERT_GE(source.tokens.size(), 3u);
  EXPECT_EQ(source.tokens[1].text, "+=");
  EXPECT_EQ(source.tokens[0].line, 1u);
  std::vector<std::string> texts;
  for (const Token& t : source.tokens) texts.emplace_back(t.text);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "<<="), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "->"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "::"), texts.end());
}

TEST(LexTest, PreprocessorLinesEmitNoTokens) {
  // An #if/#else would otherwise unbalance brace matching.
  const TokenizedSource source = tokenize(
      "#if defined(FOO)\n"
      "#define BAR(x) { x }\n"
      "#endif\n"
      "int y;\n");
  std::vector<std::string> texts;
  for (const Token& t : source.tokens) texts.emplace_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{"int", "y", ";"}));
}

TEST(LexTest, CommentsAndStringsAreScrubbedBeforeTokenizing) {
  const TokenizedSource source =
      tokenize("int a; // not_a_token\nconst char* s = \"not_a_token\";\n");
  for (const Token& t : source.tokens) EXPECT_NE(t.text, "not_a_token");
}

// --- rule 10: guarded-by ---------------------------------------------------

constexpr const char* kCounterHeader =
    "#ifndef DEMO_COUNTER_H\n"
    "#define DEMO_COUNTER_H\n"
    "class Counter {\n"
    " public:\n"
    "  void bump();\n"
    "  void locked_bump();\n"
    "  void required_bump() ETA2_REQUIRES(mutex_);\n"
    " private:\n"
    "  std::mutex mutex_;\n"
    "  int value_ ETA2_GUARDED_BY(mutex_) = 0;\n"
    "};\n"
    "#endif\n";

TEST(GuardedByTest, FiresOnUnlockedUseOfGuardedMember) {
  const auto diagnostics = lint_files(
      {{"src/demo/counter.h", kCounterHeader, false},
       {"src/demo/counter.cpp",
        "#include \"demo/counter.h\"\n"
        "void Counter::bump() { value_ += 1; }\n",
        true}});
  ASSERT_TRUE(has_rule(diagnostics, "guarded-by")) << joined(diagnostics);
  EXPECT_EQ(diagnostics[0].file, "src/demo/counter.cpp");
  EXPECT_EQ(diagnostics[0].line, 2u);
}

TEST(GuardedByTest, QuietWhenMutexLockedFirst) {
  const auto diagnostics = lint_files(
      {{"src/demo/counter.h", kCounterHeader, false},
       {"src/demo/counter.cpp",
        "#include \"demo/counter.h\"\n"
        "void Counter::bump() {\n"
        "  const std::lock_guard<std::mutex> lock(mutex_);\n"
        "  value_ += 1;\n"
        "}\n",
        true}});
  EXPECT_TRUE(diagnostics.empty()) << joined(diagnostics);
}

TEST(GuardedByTest, HeaderRequiresAnnotationCoversSiblingCppDefinition) {
  // The cross-TU merge: ETA2_REQUIRES declared in counter.h applies to the
  // definition in counter.cpp.
  const auto diagnostics = lint_files(
      {{"src/demo/counter.h", kCounterHeader, false},
       {"src/demo/counter.cpp",
        "#include \"demo/counter.h\"\n"
        "void Counter::required_bump() { value_ += 1; }\n",
        true}});
  EXPECT_TRUE(diagnostics.empty()) << joined(diagnostics);
}

TEST(GuardedByTest, FileLocalAnalysisMissesHeaderAnnotationsByDesign) {
  // lint_file sees only file-local annotations: the same cpp alone knows
  // nothing about value_, so nothing fires. This is exactly what lint_files
  // adds over per-file linting.
  const auto diagnostics = lint_file(
      {"src/demo/counter.cpp",
       "#include \"demo/counter.h\"\n"
       "void Counter::bump() { value_ += 1; }\n",
       true});
  EXPECT_TRUE(diagnostics.empty()) << joined(diagnostics);
}

TEST(GuardedByTest, ConstructorAndDestructorAreExempt) {
  const auto diagnostics = lint_files(
      {{"src/demo/counter.h", kCounterHeader, false},
       {"src/demo/counter.cpp",
        "#include \"demo/counter.h\"\n"
        "Counter::Counter() { value_ = 7; }\n"
        "Counter::~Counter() { value_ = 0; }\n",
        true}});
  EXPECT_TRUE(diagnostics.empty()) << joined(diagnostics);
}

TEST(GuardedByTest, OtherObjectsMembersAreNotMine) {
  const auto diagnostics = lint_files(
      {{"src/demo/counter.h", kCounterHeader, false},
       {"src/demo/counter.cpp",
        "#include \"demo/counter.h\"\n"
        "void Counter::bump() { other.value_ = 1; peer->value_ = 2; }\n",
        true}});
  EXPECT_TRUE(diagnostics.empty()) << joined(diagnostics);
}

TEST(GuardedByTest, SharedPlainStateWithThreadEntryFires) {
  // The PR 8 listen_fd_ class of bug: a plain member mutated in one
  // function and read from a thread entry point.
  const auto diagnostics = lint_file(library_file(
      "class Server {\n"
      " public:\n"
      "  void loop() ETA2_THREAD_ENTRY {\n"
      "    while (fd_ >= 0) { work(); }\n"
      "  }\n"
      "  void stop() { fd_ = -1; }\n"
      " private:\n"
      "  int fd_ = -1;\n"
      "};\n"));
  ASSERT_TRUE(has_rule(diagnostics, "guarded-by")) << joined(diagnostics);
  EXPECT_EQ(diagnostics[0].line, 6u);
}

TEST(GuardedByTest, AtomicSharedStateIsQuiet) {
  const auto diagnostics = lint_file(library_file(
      "class Server {\n"
      " public:\n"
      "  void loop() ETA2_THREAD_ENTRY {\n"
      "    while (fd_.load() >= 0) { work(); }\n"
      "  }\n"
      "  void stop() { fd_.store(-1); }\n"
      " private:\n"
      "  std::atomic<int> fd_{-1};\n"
      "};\n"));
  EXPECT_TRUE(diagnostics.empty()) << joined(diagnostics);
}

// --- rule 11: lock-order ---------------------------------------------------

TEST(LockOrderTest, FiresOnReversedAcquisitionOrder) {
  const auto diagnostics = lint_file(library_file(
      "std::mutex a_;\n"
      "std::mutex b_;\n"
      "void ab() {\n"
      "  const std::lock_guard<std::mutex> la(a_);\n"
      "  const std::lock_guard<std::mutex> lb(b_);\n"
      "}\n"
      "void ba() {\n"
      "  const std::lock_guard<std::mutex> lb(b_);\n"
      "  const std::lock_guard<std::mutex> la(a_);\n"
      "}\n"));
  ASSERT_TRUE(has_rule(diagnostics, "lock-order")) << joined(diagnostics);
  EXPECT_EQ(diagnostics[0].line, 9u);
}

TEST(LockOrderTest, ConsistentOrderIsQuiet) {
  EXPECT_TRUE(lint_file(library_file(
                  "std::mutex a_;\n"
                  "std::mutex b_;\n"
                  "void f() {\n"
                  "  const std::lock_guard<std::mutex> la(a_);\n"
                  "  const std::lock_guard<std::mutex> lb(b_);\n"
                  "}\n"
                  "void g() {\n"
                  "  const std::lock_guard<std::mutex> la(a_);\n"
                  "  const std::lock_guard<std::mutex> lb(b_);\n"
                  "}\n"))
                  .empty());
}

TEST(LockOrderTest, ScopeEndReleasesRaiiGuards) {
  // The first lock is released by its closing brace before the second is
  // taken — no ordering edge, no cycle.
  EXPECT_TRUE(lint_file(library_file(
                  "std::mutex a_;\n"
                  "std::mutex b_;\n"
                  "void f() {\n"
                  "  { const std::lock_guard<std::mutex> la(a_); }\n"
                  "  const std::lock_guard<std::mutex> lb(b_);\n"
                  "}\n"
                  "void g() {\n"
                  "  { const std::lock_guard<std::mutex> lb(b_); }\n"
                  "  const std::lock_guard<std::mutex> la(a_);\n"
                  "}\n"))
                  .empty());
}

TEST(LockOrderTest, ScopedLockArgumentListIsDeadlockFree) {
  // std::scoped_lock orders its whole argument list internally.
  EXPECT_TRUE(lint_file(library_file(
                  "std::mutex a_;\n"
                  "std::mutex b_;\n"
                  "void f() { const std::scoped_lock lock(a_, b_); }\n"
                  "void g() { const std::scoped_lock lock(b_, a_); }\n"))
                  .empty());
}

TEST(LockOrderTest, ManualUnlockReleasesTheMutex) {
  EXPECT_TRUE(lint_file(library_file(
                  "std::mutex a_;\n"
                  "std::mutex b_;\n"
                  "void f() { a_.lock(); a_.unlock(); b_.lock(); b_.unlock(); }\n"
                  "void g() { b_.lock(); b_.unlock(); a_.lock(); a_.unlock(); }\n"))
                  .empty());
}

TEST(LockOrderTest, RequiresAnnotationCountsAsHeld) {
  const auto diagnostics = lint_file(library_file(
      "std::mutex a_;\n"
      "std::mutex b_;\n"
      "void f() {\n"
      "  const std::lock_guard<std::mutex> la(a_);\n"
      "  const std::lock_guard<std::mutex> lb(b_);\n"
      "}\n"
      "void g() ETA2_REQUIRES(b_) {\n"
      "  const std::lock_guard<std::mutex> la(a_);\n"
      "}\n"));
  ASSERT_TRUE(has_rule(diagnostics, "lock-order")) << joined(diagnostics);
  EXPECT_EQ(diagnostics[0].line, 8u);
}

// --- rule 12: thread-exception-escape --------------------------------------

TEST(ThreadExceptionTest, TryWithoutCatchAllFiresInThreadEntry) {
  const auto diagnostics = lint_file(library_file(
      "class S {\n"
      " public:\n"
      "  void loop() ETA2_THREAD_ENTRY;\n"
      "};\n"
      "void S::loop() {\n"
      "  try { work(); } catch (const std::exception& e) { log(e); }\n"
      "}\n"));
  ASSERT_TRUE(has_rule(diagnostics, "thread-exception-escape"))
      << joined(diagnostics);
  EXPECT_EQ(diagnostics[0].line, 6u);
}

TEST(ThreadExceptionTest, CatchAllArmProtectsTheTry) {
  const auto diagnostics = lint_file(library_file(
      "void loop() ETA2_THREAD_ENTRY {\n"
      "  // eta2-lint: allow(catch-all) — thread boundary backstop\n"
      "  try { buffer.push_back(1); } catch (...) { count(); }\n"
      "}\n"));
  EXPECT_TRUE(diagnostics.empty()) << joined(diagnostics);
}

TEST(ThreadExceptionTest, ThrowingCallOutsideTryFires) {
  const auto diagnostics = lint_file(library_file(
      "void loop() ETA2_THREAD_ENTRY {\n"
      "  buffer.push_back(1);\n"
      "}\n"));
  ASSERT_TRUE(has_rule(diagnostics, "thread-exception-escape"))
      << joined(diagnostics);
  EXPECT_EQ(diagnostics[0].line, 2u);
}

TEST(ThreadExceptionTest, NoThrowBoundaryGetsTheSameChecks) {
  EXPECT_TRUE(has_rule(
      lint_file(library_file(
          "void close_all() ETA2_NO_THROW_BOUNDARY { names.resize(9); }\n")),
      "thread-exception-escape"));
  EXPECT_TRUE(lint_file(library_file(
                  "void close_all() ETA2_NO_THROW_BOUNDARY { fd = -1; }\n"))
                  .empty());
}

TEST(ThreadExceptionTest, UnannotatedFunctionsAreNotChecked) {
  EXPECT_TRUE(lint_file(library_file(
                  "void helper() { buffer.push_back(1); }\n"))
                  .empty());
}

// --- rule 13: unbounded-input-resize ---------------------------------------

TEST(UnboundedResizeTest, FiresOnStreamTaintedResize) {
  const auto diagnostics = lint_file(library_file(
      "void load(std::istream& in, std::vector<int>& values) {\n"
      "  std::size_t n = 0;\n"
      "  in >> n;\n"
      "  values.resize(n);\n"
      "}\n"));
  ASSERT_TRUE(has_rule(diagnostics, "unbounded-input-resize"))
      << joined(diagnostics);
  EXPECT_EQ(diagnostics[0].line, 4u);
}

TEST(UnboundedResizeTest, FiresOnStoTaintedReserve) {
  const auto diagnostics = lint_file(library_file(
      "void parse(const std::string& s, std::vector<int>& values) {\n"
      "  std::size_t n = 0;\n"
      "  n = std::stoull(s);\n"
      "  values.reserve(n);\n"
      "}\n"));
  EXPECT_TRUE(has_rule(diagnostics, "unbounded-input-resize"))
      << joined(diagnostics);
}

TEST(UnboundedResizeTest, BoundCheckBetweenTaintAndUseIsQuiet) {
  EXPECT_TRUE(lint_file(library_file(
                  "void load(std::istream& in, std::vector<int>& values) {\n"
                  "  std::size_t n = 0;\n"
                  "  in >> n;\n"
                  "  require(n <= kMaxEntries, \"count\");\n"
                  "  values.resize(n);\n"
                  "}\n"))
                  .empty());
  EXPECT_TRUE(lint_file(library_file(
                  "void load(std::istream& in, std::vector<int>& values) {\n"
                  "  std::size_t n = 0;\n"
                  "  in >> n;\n"
                  "  check_count(n, 2, payload.size(), \"count\");\n"
                  "  values.resize(n);\n"
                  "}\n"))
                  .empty());
}

TEST(UnboundedResizeTest, UntaintedCountsAreQuiet) {
  EXPECT_TRUE(lint_file(library_file(
                  "void f(std::vector<int>& values, std::size_t n) {\n"
                  "  values.resize(n);\n"
                  "}\n"))
                  .empty());
}

TEST(UnboundedResizeTest, Suppressible) {
  EXPECT_TRUE(lint_file(library_file(
                  "void load(std::istream& in, std::vector<int>& values) {\n"
                  "  std::size_t n = 0;\n"
                  "  in >> n;\n"
                  "  // eta2-lint: allow(unbounded-input-resize) — own file\n"
                  "  values.resize(n);\n"
                  "}\n"))
                  .empty());
}

// --- rule 14: layer-dag ----------------------------------------------------

TEST(LayerDagTest, LayerMapMatchesTheDesign) {
  EXPECT_EQ(layer_of("src/common/check.h"), 0);
  EXPECT_EQ(layer_of("src/stats/mean.cpp"), 1);
  EXPECT_EQ(layer_of("src/text/embedder.h"), 1);
  EXPECT_EQ(layer_of("src/io/journal.cpp"), 2);
  EXPECT_EQ(layer_of("src/truth/eta2_mle.cpp"), 2);
  EXPECT_EQ(layer_of("src/alloc/greedy.cpp"), 2);
  EXPECT_EQ(layer_of("src/clustering/dynamic_clusterer.cpp"), 2);
  EXPECT_EQ(layer_of("src/core/eta2_server.cpp"), 3);
  EXPECT_EQ(layer_of("src/sim/simulation.cpp"), 4);
  EXPECT_EQ(layer_of("src/serve/service.cpp"), 4);
  EXPECT_EQ(layer_of("tools/eta2_cli.cpp"), 5);
  EXPECT_EQ(layer_of("src/demo/widget.cpp"), -1);
}

TEST(LayerDagTest, UpwardIncludeFires) {
  const auto diagnostics = lint_files(
      {{"src/common/a.h",
        "#ifndef A_H\n#define A_H\n#include \"core/b.h\"\n#endif\n", false},
       {"src/core/b.h", "#ifndef B_H\n#define B_H\nint b();\n#endif\n",
        false}});
  ASSERT_TRUE(has_rule(diagnostics, "layer-dag")) << joined(diagnostics);
  EXPECT_EQ(diagnostics[0].file, "src/common/a.h");
  EXPECT_EQ(diagnostics[0].line, 3u);
}

TEST(LayerDagTest, DownwardIncludeIsQuiet) {
  EXPECT_TRUE(lint_files({{"src/core/b.h",
                           "#ifndef B_H\n#define B_H\n"
                           "#include \"common/a.h\"\n#endif\n",
                           false},
                          {"src/common/a.h",
                           "#ifndef A_H\n#define A_H\nint a();\n#endif\n",
                           false}})
                  .empty());
}

TEST(LayerDagTest, IncludeCycleFires) {
  const auto diagnostics = lint_files(
      {{"src/core/x.h",
        "#ifndef X_H\n#define X_H\n#include \"core/y.h\"\n#endif\n", false},
       {"src/core/y.h",
        "#ifndef Y_H\n#define Y_H\n#include \"core/x.h\"\n#endif\n", false}});
  ASSERT_TRUE(has_rule(diagnostics, "layer-dag")) << joined(diagnostics);
  EXPECT_NE(diagnostics[0].message.find("cycle"), std::string::npos);
}

TEST(LayerDagTest, UpwardIncludeSuppressible) {
  EXPECT_TRUE(lint_files(
                  {{"src/common/a.h",
                    "#ifndef A_H\n#define A_H\n"
                    "// eta2-lint: allow(layer-dag) — known debt\n"
                    "#include \"core/b.h\"\n#endif\n",
                    false},
                   {"src/core/b.h",
                    "#ifndef B_H\n#define B_H\nint b();\n#endif\n", false}})
                  .empty());
}

TEST(LayerDagTest, DotExportClustersByLayerAndListsEdges) {
  const std::vector<SourceFile> files = {
      {"src/common/a.h", "#ifndef A\n#define A\n#endif\n", false},
      {"src/core/b.h",
       "#ifndef B\n#define B\n#include \"common/a.h\"\n#endif\n", false}};
  const std::string dot = include_graph_dot(build_include_graph(files));
  EXPECT_NE(dot.find("digraph eta2_includes"), std::string::npos);
  EXPECT_NE(dot.find("\"src/common/a.h\""), std::string::npos);
  EXPECT_NE(dot.find("\"src/core/b.h\" -> \"src/common/a.h\""),
            std::string::npos);
  EXPECT_NE(dot.find("layer 0: common"), std::string::npos);
}

// --- CLI stream contract ---------------------------------------------------

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("eta2_lint_cli_" +
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

  int run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  std::filesystem::path root_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, CleanTreePrintsCleanToStdoutOnly) {
  write("src/demo/ok.cpp", "int f() { return 1; }\n");
  EXPECT_EQ(run({"--root", root_.string()}), 0);
  EXPECT_EQ(out_.str(), "eta2_lint: clean\n");
  EXPECT_EQ(err_.str(), "");
}

TEST_F(CliTest, ViolationsGoToStdoutWithSummaryAndExit1) {
  write("src/demo/bad.cpp", "int f() { return rand(); }\n");
  EXPECT_EQ(run({"--root", root_.string()}), 1);
  EXPECT_NE(out_.str().find("src/demo/bad.cpp:1: [nondeterminism]"),
            std::string::npos);
  EXPECT_NE(out_.str().find("eta2_lint: 1 violation(s)"), std::string::npos);
  EXPECT_EQ(err_.str(), "");
}

TEST_F(CliTest, MissingRootIsAnErrorOnStderrExit2) {
  EXPECT_EQ(run({"--root", (root_ / "no_such_dir").string()}), 2);
  EXPECT_EQ(out_.str(), "");
  EXPECT_NE(err_.str().find("not a directory"), std::string::npos);
}

TEST_F(CliTest, UnknownFlagIsUsageErrorOnStderrExit2) {
  EXPECT_EQ(run({"--frobnicate"}), 2);
  EXPECT_EQ(out_.str(), "");
  EXPECT_NE(err_.str().find("unknown argument"), std::string::npos);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, ListRulesPrintsTheFullCatalogue) {
  EXPECT_EQ(run({"--list-rules"}), 0);
  for (const RuleInfo& rule : rule_catalogue()) {
    EXPECT_NE(out_.str().find(std::string(rule.name) + ":"),
              std::string::npos);
  }
  EXPECT_EQ(err_.str(), "");
}

TEST_F(CliTest, LayerDagModeRunsOnlyTheIncludeGraphPass) {
  // rand() would fail a full lint; --layer-dag ignores it but still flags
  // the upward include.
  write("src/common/a.h",
        "#ifndef A_H\n#define A_H\n#include \"core/b.h\"\n#endif\n");
  write("src/core/b.h", "#ifndef B_H\n#define B_H\nint b();\n#endif\n");
  write("src/core/c.cpp", "int f() { return rand(); }\n");
  EXPECT_EQ(run({"--root", root_.string(), "--layer-dag"}), 1);
  EXPECT_NE(out_.str().find("[layer-dag]"), std::string::npos);
  EXPECT_EQ(out_.str().find("nondeterminism"), std::string::npos);
}

TEST_F(CliTest, DotFlagWritesTheIncludeGraph) {
  write("src/common/a.h", "#ifndef A_H\n#define A_H\n#endif\n");
  write("src/core/b.h",
        "#ifndef B_H\n#define B_H\n#include \"common/a.h\"\n#endif\n");
  const std::string dot_file = (root_ / "graph.dot").string();
  EXPECT_EQ(run({"--root", root_.string(), "--dot=" + dot_file}), 0);
  std::ifstream in(dot_file, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"src/core/b.h\" -> \"src/common/a.h\""),
            std::string::npos);
}

TEST_F(CliTest, EmptyDotPathIsUsageErrorExit2) {
  EXPECT_EQ(run({"--dot="}), 2);
  EXPECT_NE(err_.str().find("--dot needs a file path"), std::string::npos);
}

// --- golden fixture tree ---------------------------------------------------

#ifndef ETA2_LINT_TREE_DIR
#error "ETA2_LINT_TREE_DIR must point at tests/tools/lint_tree"
#endif

TEST(GoldenTreeTest, NineV1RulesFireExactlyWhereTheyAlwaysDid) {
  // Pins the scrubber -> tokenizer refactor: every v1 rule still fires on
  // the committed fixture tree at the same (file, line), and nothing else
  // fires. A tokenizer regression shows up as a diff in this set.
  using Finding = std::tuple<std::string, std::size_t, std::string>;
  std::set<Finding> got;
  for (const Diagnostic& d : lint_tree(ETA2_LINT_TREE_DIR)) {
    got.insert({d.file, d.line, d.rule});
  }
  const std::set<Finding> expected = {
      {"src/demo/catchall.cpp", 2, "catch-all"},
      {"src/demo/float_eq.cpp", 1, "float-equality"},
      {"src/demo/hotloop.cpp", 3, "hot-loop-require"},
      {"src/demo/nondet.cpp", 1, "nondeterminism"},
      {"src/demo/noguard.h", 0, "missing-include-guard"},
      {"src/demo/output.cpp", 1, "library-output"},
      {"src/demo/selfinc.cpp", 1, "self-include-first"},
      {"src/demo/unordered.cpp", 4, "unordered-iteration"},
  };
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace eta2::lint
