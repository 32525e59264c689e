#include "lint/lex.h"

#include <algorithm>
#include <cctype>

#include "lint/linter.h"

namespace eta2::lint {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool word_at(std::string_view text, std::size_t pos, std::string_view word) {
  if (text.substr(pos, word.size()) != word) return false;
  if (pos > 0 && is_ident_char(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= text.size() || !is_ident_char(text[end]);
}

bool contains_word(std::string_view text, std::string_view word) {
  for (std::size_t pos = text.find(word); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (word_at(text, pos, word)) return true;
  }
  return false;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

bool is_comment_line(std::string_view line) {
  std::size_t i = 0;
  while (i < line.size() &&
         std::isspace(static_cast<unsigned char>(line[i])) != 0) {
    ++i;
  }
  return line.substr(i, 2) == "//";
}

bool suppressed(const std::vector<std::string>& original, std::size_t line,
                std::string_view rule) {
  const std::string needle = "eta2-lint: allow(" + std::string(rule) + ")";
  if (line == 0) {
    for (const std::string& text : original) {
      if (!is_comment_line(text)) break;
      if (text.find(needle) != std::string::npos) return true;
    }
    return false;
  }
  if (line <= original.size() &&
      original[line - 1].find(needle) != std::string::npos) {
    return true;
  }
  for (std::size_t i = line - 1; i >= 1; --i) {
    const std::string& above = original[i - 1];
    if (!is_comment_line(above)) break;
    if (above.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string scrub_source(std::string_view source) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  std::string out;
  out.reserve(source.size());
  State state = State::kCode;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !is_ident_char(source[i - 1]))) {
          // Raw string literal R"delim( ... )delim": skip it wholesale.
          std::size_t paren = source.find('(', i + 2);
          if (paren == std::string_view::npos) {
            out += c;
            break;
          }
          std::string closer = ")";
          closer.append(source.substr(i + 2, paren - (i + 2)));
          closer += '"';
          std::size_t close = source.find(closer, paren + 1);
          if (close == std::string_view::npos) close = source.size();
          const std::size_t end = std::min(source.size(), close + closer.size());
          for (std::size_t k = i; k < end; ++k) {
            out += source[k] == '\n' ? '\n' : ' ';
          }
          i = end - 1;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          out += ' ';
          if (next != '\0' && next != '\n') {
            out += ' ';
            ++i;
          }
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

namespace {

// Multi-character operators lexed as one token, longest first.
constexpr std::string_view kMultiCharOps[] = {
    "...", "->*", "<<=", ">>=", "<=>", "::", "->", "++", "--", "<<", ">>",
    "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=",
};

}  // namespace

TokenizedSource tokenize(std::string_view source) {
  TokenizedSource out;
  out.scrubbed = scrub_source(source);
  out.scrubbed_lines = split_lines(out.scrubbed);
  out.original_lines = split_lines(source);

  const std::string_view text = out.scrubbed;
  std::size_t line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor directive: no tokens (so #if/#define in headers never
      // unbalance brace matching); honor backslash continuations.
      while (i < text.size()) {
        if (text[i] == '\n') {
          bool continued = false;
          for (std::size_t back = i; back > 0; --back) {
            const char prev = text[back - 1];
            if (prev == ' ' || prev == '\t') continue;
            continued = prev == '\\';
            break;
          }
          ++line;
          ++i;
          if (!continued) break;
          continue;
        }
        ++i;
      }
      at_line_start = true;
      continue;
    }
    at_line_start = false;
    if (is_ident_char(c) && std::isdigit(static_cast<unsigned char>(c)) == 0) {
      std::size_t end = i;
      while (end < text.size() && is_ident_char(text[end])) ++end;
      out.tokens.push_back(
          Token{TokenKind::kIdentifier, text.substr(i, end - i), line});
      i = end;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t end = i;
      while (end < text.size() &&
             (is_ident_char(text[end]) || text[end] == '.' ||
              ((text[end] == '+' || text[end] == '-') && end > i &&
               (text[end - 1] == 'e' || text[end - 1] == 'E' ||
                text[end - 1] == 'p' || text[end - 1] == 'P')))) {
        ++end;
      }
      out.tokens.push_back(
          Token{TokenKind::kNumber, text.substr(i, end - i), line});
      i = end;
      continue;
    }
    std::string_view op = text.substr(i, 1);
    for (const std::string_view multi : kMultiCharOps) {
      if (text.substr(i, multi.size()) == multi) {
        op = text.substr(i, multi.size());
        break;
      }
    }
    out.tokens.push_back(Token{TokenKind::kPunct, op, line});
    i += op.size();
  }
  return out;
}

std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open) {
  if (open >= tokens.size()) return tokens.size();
  const std::string_view opener = tokens[open].text;
  std::string_view closer;
  if (opener == "(") {
    closer = ")";
  } else if (opener == "[") {
    closer = "]";
  } else if (opener == "{") {
    closer = "}";
  } else {
    return tokens.size();
  }
  std::size_t depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kPunct) continue;
    if (tokens[i].text == opener) ++depth;
    if (tokens[i].text == closer) {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return tokens.size();
}

}  // namespace eta2::lint
