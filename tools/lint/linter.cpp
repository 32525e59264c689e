#include "lint/linter.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "lint/analysis.h"
#include "lint/include_graph.h"
#include "lint/lex.h"

namespace eta2::lint {

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules = {
      {"nondeterminism",
       "rand/srand/std::random_device/time(...)/<named clock>::now() outside "
       "common/rng and bench/ — all randomness flows through common/rng"},
      {"unordered-iteration",
       "iteration over an unordered_{map,set} — iteration order is "
       "implementation-defined and breaks bit-identical results"},
      {"library-output",
       "std::cout/printf/puts in library code (src/) — libraries return "
       "values, binaries print"},
      {"catch-all",
       "catch (...) — swallows the typed error taxonomy; catch concrete "
       "types"},
      {"float-equality",
       "==/!= against a floating-point literal — compare with a tolerance "
       "or restructure"},
      {"missing-include-guard",
       "header without an #ifndef/#define guard or #pragma once"},
      {"self-include-first",
       "foo.cpp must #include its own header first so the header proves it "
       "is self-contained"},
      {"hot-loop-require",
       "require()/ensure()/throw inside a parallel_for/parallel_reduce body "
       "— hoist validation out of the hot loop; the ETA2_* contract macros "
       "are the sanctioned in-loop checks"},
      {"guarded-by",
       "an ETA2_GUARDED_BY(m) member touched without locking m first (and "
       "without ETA2_REQUIRES(m)), or plain mutable state shared with an "
       "ETA2_THREAD_ENTRY function — the stop()/accept listen_fd_ race "
       "class"},
      {"lock-order",
       "mutex acquired while holding another in the reverse of an "
       "acquisition order established elsewhere in the TU — a lock-order "
       "cycle is a potential deadlock"},
      {"thread-exception-escape",
       "in an ETA2_THREAD_ENTRY / ETA2_NO_THROW_BOUNDARY body: a try "
       "without a catch (...) arm, or a can-throw statement outside any "
       "catch-all-protected try — an escaping exception is std::terminate"},
      {"unbounded-input-resize",
       "resize/reserve sized by a count read from parsed input (>>/sto*) "
       "with no bound check between the read and the allocation — a hostile "
       "count drives the allocator"},
      {"layer-dag",
       "#include edge that points up the layer DAG (common -> stats/text -> "
       "io/truth/alloc/clustering -> core -> sim/serve -> tools), or an "
       "include cycle"},
  };
  return kRules;
}

namespace {

struct LineContext {
  const SourceFile& file;
  const std::vector<std::string>& original;
  std::vector<Diagnostic>* diagnostics;
};

void report(LineContext& context, std::size_t line, std::string_view rule,
            std::string message) {
  if (suppressed(context.original, line, rule)) return;
  context.diagnostics->push_back(Diagnostic{
      context.file.path, line, std::string(rule), std::move(message)});
}

// --- nondeterminism -------------------------------------------------------

bool nondeterminism_allowed(std::string_view path) {
  return starts_with(path, "src/common/rng.") || starts_with(path, "bench/");
}

void check_nondeterminism(LineContext& context, std::size_t line_number,
                          std::string_view line) {
  static const std::regex kRand(R"(\b(s?rand)\s*\()");
  static const std::regex kTime(R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))");
  static const std::regex kClockNow(
      R"(\b(steady_clock|system_clock|high_resolution_clock|file_clock|utc_clock)\s*::\s*now\b)");
  std::string text(line);
  if (contains_word(line, "random_device")) {
    report(context, line_number, "nondeterminism",
           "std::random_device is nondeterministic; seed via common/rng");
  }
  if (std::regex_search(text, kRand)) {
    report(context, line_number, "nondeterminism",
           "rand()/srand() bypasses common/rng; use eta2::Rng");
  }
  if (std::regex_search(text, kTime)) {
    report(context, line_number, "nondeterminism",
           "time(...) is a nondeterminism source; thread a seed through "
           "common/rng");
  }
  if (std::regex_search(text, kClockNow)) {
    report(context, line_number, "nondeterminism",
           "clock ::now() outside bench timing makes results "
           "time-dependent");
  }
}

// --- unordered-iteration --------------------------------------------------

// Names declared (or received as parameters) with an unordered container
// type anywhere in the scrubbed file text.
std::vector<std::string> unordered_container_names(std::string_view scrubbed) {
  std::vector<std::string> names;
  for (std::string_view token : {std::string_view("unordered_map<"),
                                 std::string_view("unordered_set<")}) {
    for (std::size_t pos = scrubbed.find(token); pos != std::string_view::npos;
         pos = scrubbed.find(token, pos + 1)) {
      // Walk to the matching '>' of the template argument list.
      std::size_t depth = 1;
      std::size_t i = pos + token.size();
      while (i < scrubbed.size() && depth > 0) {
        if (scrubbed[i] == '<') ++depth;
        if (scrubbed[i] == '>') --depth;
        ++i;
      }
      // Skip refs/pointers/whitespace, then read the declared identifier.
      while (i < scrubbed.size() &&
             (std::isspace(static_cast<unsigned char>(scrubbed[i])) != 0 ||
              scrubbed[i] == '&' || scrubbed[i] == '*')) {
        ++i;
      }
      if (i < scrubbed.size() && scrubbed[i] == ':') continue;  // ::iterator
      std::size_t start = i;
      while (i < scrubbed.size() && is_ident_char(scrubbed[i])) ++i;
      if (i > start) {
        std::string name(scrubbed.substr(start, i - start));
        if (name == "const") continue;
        if (std::find(names.begin(), names.end(), name) == names.end()) {
          names.push_back(name);
        }
      }
    }
  }
  return names;
}

void check_unordered_iteration(LineContext& context, std::size_t line_number,
                               std::string_view line,
                               const std::vector<std::string>& names) {
  const std::size_t for_pos = [&] {
    for (std::size_t pos = line.find("for"); pos != std::string_view::npos;
         pos = line.find("for", pos + 1)) {
      if (word_at(line, pos, "for")) return pos;
    }
    return std::string_view::npos;
  }();
  // Range expression of a range-for: the text between the ':' and the
  // matching close paren of the for's '(' — NOT the rest of the line, which
  // would drag in single-line loop bodies.
  std::string_view range_expr;
  if (for_pos != std::string_view::npos) {
    const std::size_t open = line.find('(', for_pos);
    if (open != std::string_view::npos) {
      std::size_t depth = 1;
      std::size_t close = open + 1;
      while (close < line.size() && depth > 0) {
        if (line[close] == '(') ++depth;
        if (line[close] == ')') --depth;
        ++close;
      }
      // First single ':' (not part of a '::' scope qualifier).
      std::size_t colon = std::string_view::npos;
      for (std::size_t k = open + 1; k + 1 < close; ++k) {
        if (line[k] != ':') continue;
        if (line[k + 1] == ':' || (k > 0 && line[k - 1] == ':')) continue;
        colon = k;
        break;
      }
      if (colon != std::string_view::npos && colon < close) {
        range_expr = line.substr(colon + 1, close - 1 - (colon + 1));
      }
    }
  }
  for (const std::string& name : names) {
    bool hit = false;
    if (!range_expr.empty() && contains_word(range_expr, name)) hit = true;
    // Iterator-style loops and explicit begin() scans.
    static const char* kIterCalls[] = {".begin", ".cbegin", ".end", ".cend"};
    for (const char* call : kIterCalls) {
      for (std::size_t pos = line.find(name); pos != std::string_view::npos;
           pos = line.find(name, pos + 1)) {
        if (word_at(line, pos, name) &&
            line.substr(pos + name.size(), std::string_view(call).size()) ==
                call) {
          hit = true;
        }
      }
    }
    if (hit) {
      report(context, line_number, "unordered-iteration",
             "iterating unordered container '" + name +
                 "' — order is implementation-defined; sort keys first or "
                 "justify with a suppression");
      break;
    }
  }
}

// --- library-output -------------------------------------------------------

void check_library_output(LineContext& context, std::size_t line_number,
                          std::string_view line) {
  if (!starts_with(context.file.path, "src/")) return;
  static const std::regex kPrint(R"(\b(printf|puts)\s*\()");
  static const std::regex kFprintfStdout(R"(\bfprintf\s*\(\s*stdout\b)");
  std::string text(line);
  if (line.find("std::cout") != std::string_view::npos) {
    report(context, line_number, "library-output",
           "std::cout in library code; return data or take an ostream&");
  }
  if (std::regex_search(text, kPrint) ||
      std::regex_search(text, kFprintfStdout)) {
    report(context, line_number, "library-output",
           "printf-family output in library code; return data or take an "
           "ostream&");
  }
}

// --- catch-all ------------------------------------------------------------

void check_catch_all(LineContext& context, std::size_t line_number,
                     std::string_view line) {
  static const std::regex kCatchAll(R"(\bcatch\s*\(\s*\.\.\.\s*\))");
  if (std::regex_search(std::string(line), kCatchAll)) {
    report(context, line_number, "catch-all",
           "catch (...) hides the failure taxonomy; catch concrete types");
  }
}

// --- float-equality -------------------------------------------------------

constexpr char kFloatLiteralPattern[] =
    R"((\d+\.\d*|\.\d+|\d+[eE][-+]?\d+)([eE][-+]?\d+)?[fFlL]?)";

bool float_literal_before(std::string_view line, std::size_t op_pos) {
  static const std::regex kTrailingFloat(std::string("(") +
                                         kFloatLiteralPattern + R"()\s*$)");
  const std::size_t begin = op_pos > 48 ? op_pos - 48 : 0;
  return std::regex_search(std::string(line.substr(begin, op_pos - begin)),
                           kTrailingFloat);
}

bool float_literal_after(std::string_view line, std::size_t after_op) {
  static const std::regex kLeadingFloat(std::string(R"(^\s*[-+]?\s*()") +
                                        kFloatLiteralPattern + ")");
  return std::regex_search(std::string(line.substr(after_op)), kLeadingFloat);
}

void check_float_equality(LineContext& context, std::size_t line_number,
                          std::string_view line) {
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    const char a = line[i];
    const char b = line[i + 1];
    const bool is_eq = a == '=' && b == '=';
    const bool is_ne = a == '!' && b == '=';
    if (!is_eq && !is_ne) continue;
    // Reject <=, >=, ==>, === style neighborhoods.
    const char before = i > 0 ? line[i - 1] : '\0';
    const char after = i + 2 < line.size() ? line[i + 2] : '\0';
    if (before == '<' || before == '>' || before == '=' || before == '!' ||
        after == '=') {
      continue;
    }
    if (float_literal_before(line, i) || float_literal_after(line, i + 2)) {
      report(context, line_number, "float-equality",
             "exact ==/!= against a floating-point literal; use a tolerance "
             "or restructure the branch");
      return;
    }
  }
}

// --- include hygiene ------------------------------------------------------

std::string include_target(std::string_view line) {
  static const std::regex kInclude(R"(^\s*#\s*include\s*([<"])([^>"]+)[>"])");
  std::smatch match;
  std::string text(line);
  if (std::regex_search(text, match, kInclude)) return match[2].str();
  return {};
}

bool is_include_line(std::string_view line) {
  static const std::regex kInclude(R"(^\s*#\s*include\b)");
  return std::regex_search(std::string(line), kInclude);
}

void check_include_guard(LineContext& context,
                         const std::vector<std::string>& scrubbed_lines) {
  bool has_ifndef = false;
  bool has_define = false;
  bool has_pragma_once = false;
  static const std::regex kIfndef(R"(^\s*#\s*ifndef\b)");
  static const std::regex kDefine(R"(^\s*#\s*define\b)");
  static const std::regex kPragmaOnce(R"(^\s*#\s*pragma\s+once\b)");
  for (const std::string& line : scrubbed_lines) {
    if (std::regex_search(line, kIfndef)) has_ifndef = true;
    if (std::regex_search(line, kDefine)) has_define = true;
    if (std::regex_search(line, kPragmaOnce)) has_pragma_once = true;
  }
  if (!(has_pragma_once || (has_ifndef && has_define))) {
    report(context, 0, "missing-include-guard",
           "header lacks an include guard (#ifndef/#define pair or #pragma "
           "once)");
  }
}

void check_self_include_first(LineContext& context,
                              const std::vector<std::string>& original_lines) {
  const std::string path = context.file.path;
  const std::size_t slash = path.rfind('/');
  const std::size_t dot = path.rfind('.');
  const std::string stem =
      path.substr(slash + 1, dot - slash - 1);  // "eta2_mle"
  const std::string own_header = stem + ".h";
  for (std::size_t i = 0; i < original_lines.size(); ++i) {
    if (!is_include_line(original_lines[i])) continue;
    const std::string target = include_target(original_lines[i]);
    const bool matches =
        target == own_header ||
        (target.size() > own_header.size() &&
         target.compare(target.size() - own_header.size() - 1,
                        std::string::npos, "/" + own_header) == 0);
    if (!matches) {
      report(context, i + 1, "self-include-first",
             "first #include must be this file's own header (" + own_header +
                 ") so the header stays self-contained");
    }
    return;
  }
  report(context, 0, "self-include-first",
         "source file never includes its own header " + own_header);
}

// --- hot-loop-require -----------------------------------------------------

// The parallel runtime's own sources define these entry points; everything
// else only calls them.
bool hot_loop_require_allowed(std::string_view path) {
  return starts_with(path, "src/common/parallel.");
}

// Flags throwing validation (require(, ensure(, throw) textually inside the
// argument list of a parallel_for / parallel_for_chunks / parallel_reduce
// call — i.e. inside the loop body lambda. Validation belongs before the
// parallel region (run once, or folded into a count that one require checks
// afterwards); the ETA2_* contract macros remain the sanctioned per-index
// checks. Spans the whole call, so multi-line bodies are covered.
void check_hot_loop_require(LineContext& context, std::string_view scrubbed) {
  static constexpr std::string_view kEntryPoints[] = {
      "parallel_for", "parallel_for_chunks", "parallel_reduce"};
  static constexpr std::string_view kThrowing[] = {"require", "ensure",
                                                   "throw"};
  for (const std::string_view entry : kEntryPoints) {
    for (std::size_t pos = scrubbed.find(entry);
         pos != std::string_view::npos;
         pos = scrubbed.find(entry, pos + 1)) {
      if (!word_at(scrubbed, pos, entry)) continue;
      const std::size_t open = scrubbed.find('(', pos + entry.size());
      if (open == std::string_view::npos) continue;
      // Only an immediate call: skip declarations like `Body&& body` where
      // text between the name and '(' is not just whitespace.
      const std::string_view gap =
          scrubbed.substr(pos + entry.size(), open - (pos + entry.size()));
      if (gap.find_first_not_of(" \t\n") != std::string_view::npos) continue;
      // Walk to the matching close paren of the call.
      std::size_t depth = 1;
      std::size_t end = open + 1;
      while (end < scrubbed.size() && depth > 0) {
        if (scrubbed[end] == '(') ++depth;
        if (scrubbed[end] == ')') --depth;
        ++end;
      }
      const std::string_view body = scrubbed.substr(open, end - open);
      for (const std::string_view bad : kThrowing) {
        for (std::size_t hit = body.find(bad); hit != std::string_view::npos;
             hit = body.find(bad, hit + 1)) {
          if (!word_at(body, hit, bad)) continue;
          // require/ensure must be calls; `throw` is a keyword hit as-is.
          if (bad != "throw") {
            std::size_t after = hit + bad.size();
            while (after < body.size() &&
                   (body[after] == ' ' || body[after] == '\t')) {
              ++after;
            }
            if (after >= body.size() || body[after] != '(') continue;
          }
          const std::size_t line =
              1 + static_cast<std::size_t>(std::count(
                      scrubbed.begin(),
                      scrubbed.begin() +
                          static_cast<std::ptrdiff_t>(open + hit),
                      '\n'));
          report(context, line, "hot-loop-require",
                 std::string(bad) + " inside a " + std::string(entry) +
                     " body; hoist validation out of the parallel region "
                     "(ETA2_* contract macros are allowed here)");
        }
      }
    }
  }
}

}  // namespace

namespace {

// The per-line rules plus the token-stream concurrency pass, given an
// already-lexed source and the (possibly cross-TU-merged) annotations.
std::vector<Diagnostic> lint_one(const SourceFile& file,
                                 const TokenizedSource& tokenized,
                                 const FileAnnotations& annotations) {
  std::vector<Diagnostic> diagnostics;
  const std::string& scrubbed = tokenized.scrubbed;
  const std::vector<std::string>& original_lines = tokenized.original_lines;
  const std::vector<std::string>& scrubbed_lines = tokenized.scrubbed_lines;
  LineContext context{file, original_lines, &diagnostics};

  const bool is_header = file.path.size() > 2 &&
                         file.path.compare(file.path.size() - 2, 2, ".h") == 0;
  const std::vector<std::string> unordered_names =
      unordered_container_names(scrubbed);

  for (std::size_t i = 0; i < scrubbed_lines.size(); ++i) {
    const std::string& line = scrubbed_lines[i];
    const std::size_t line_number = i + 1;
    if (!nondeterminism_allowed(file.path)) {
      check_nondeterminism(context, line_number, line);
    }
    if (!unordered_names.empty()) {
      check_unordered_iteration(context, line_number, line, unordered_names);
    }
    check_library_output(context, line_number, line);
    check_catch_all(context, line_number, line);
    check_float_equality(context, line_number, line);
  }
  if (is_header) {
    check_include_guard(context, scrubbed_lines);
  } else if (file.has_sibling_header) {
    check_self_include_first(context, original_lines);
  }
  if (!hot_loop_require_allowed(file.path)) {
    check_hot_loop_require(context, scrubbed);
  }

  std::vector<Diagnostic> concurrency =
      check_concurrency(file, tokenized, annotations);
  diagnostics.insert(diagnostics.end(),
                     std::make_move_iterator(concurrency.begin()),
                     std::make_move_iterator(concurrency.end()));

  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return diagnostics;
}

}  // namespace

std::vector<Diagnostic> lint_file(const SourceFile& file) {
  const TokenizedSource tokenized = tokenize(file.contents);
  return lint_one(file, tokenized, collect_annotations(tokenized));
}

std::vector<Diagnostic> lint_files(const std::vector<SourceFile>& files) {
  // Phase 1: lex everything once and collect each file's annotations.
  std::vector<TokenizedSource> tokenized;
  std::vector<FileAnnotations> annotations;
  tokenized.reserve(files.size());
  annotations.reserve(files.size());
  for (const SourceFile& file : files) {
    tokenized.push_back(tokenize(file.contents));
    annotations.push_back(collect_annotations(tokenized.back()));
  }

  // Phase 2: per-file rules, with foo.h's annotations merged into foo.cpp's
  // view (the cross-TU half: header-declared ETA2_* applies to the sibling
  // definitions).
  std::vector<Diagnostic> all;
  for (std::size_t i = 0; i < files.size(); ++i) {
    FileAnnotations merged = annotations[i];
    const std::string& path = files[i].path;
    if (path.size() > 4 && path.ends_with(".cpp")) {
      const std::string header = path.substr(0, path.size() - 4) + ".h";
      for (std::size_t j = 0; j < files.size(); ++j) {
        if (files[j].path == header) {
          merge_annotations(merged, annotations[j]);
          break;
        }
      }
    }
    std::vector<Diagnostic> diagnostics =
        lint_one(files[i], tokenized[i], merged);
    all.insert(all.end(), std::make_move_iterator(diagnostics.begin()),
               std::make_move_iterator(diagnostics.end()));
  }

  // Phase 3: the repo-wide include-graph pass.
  const IncludeGraph graph = build_include_graph(files);
  std::vector<Diagnostic> layering = check_layer_dag(graph, files);
  all.insert(all.end(), std::make_move_iterator(layering.begin()),
             std::make_move_iterator(layering.end()));
  return all;
}

std::vector<SourceFile> load_tree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const char* subtree : {"src", "tools", "bench", "examples"}) {
    const fs::path base = fs::path(root) / subtree;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".cpp") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("eta2_lint: cannot read " + path.string());
    std::ostringstream buffer;
    buffer << in.rdbuf();

    SourceFile file;
    file.path = fs::relative(path, root).generic_string();
    file.contents = buffer.str();
    fs::path sibling = path;
    sibling.replace_extension(".h");
    file.has_sibling_header =
        path.extension() == ".cpp" && fs::exists(sibling);
    files.push_back(std::move(file));
  }
  return files;
}

std::vector<Diagnostic> lint_tree(const std::string& root) {
  return lint_files(load_tree(root));
}

std::string format_diagnostic(const Diagnostic& diagnostic) {
  std::string out = diagnostic.file;
  out += ":";
  out += std::to_string(diagnostic.line);
  out += ": [";
  out += diagnostic.rule;
  out += "] ";
  out += diagnostic.message;
  return out;
}

}  // namespace eta2::lint
