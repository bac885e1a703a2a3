#include "dot/parser.h"

#include <algorithm>

#include "common/string_util.h"

namespace stetho::dot {
namespace {

/// The bytes std::isspace accepts in the C locale.
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Characters of a bare id: alphanumerics, '_', '.' and '-'.
bool IsIdChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

/// One identifier, still in the input text: a bare word or numeral, or the
/// body of a double-quoted string with its backslash escapes in place.
struct Token {
  std::string_view text;
  bool escaped = false;  ///< a quoted body holding a backslash

  /// The id's value (escapes removed).
  std::string str() const {
    return escaped ? UnescapeQuoted(text) : std::string(text);
  }
  /// Case-insensitive comparison of the value with `word`.
  bool Is(std::string_view word) const {
    return escaped ? EqualsIgnoreCase(str(), word)
                   : EqualsIgnoreCase(text, word);
  }
};

/// Minimal in-place tokenizer for the dot language subset. Between calls
/// the position rests on the next token: whitespace and comments are
/// skipped once, after each consumed token.
class DotScanner {
 public:
  explicit DotScanner(std::string_view text) : text_(text) {
    SkipSpaceAndComments();
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

  char Peek() const { return At(pos_); }

  bool Consume(char c) {
    if (At(pos_) != c) return false;
    ++pos_;
    SkipSpaceAndComments();
    return true;
  }

  /// Consumes an edge operator: "->" (directed) or "--".
  bool ConsumeArrow(bool* directed) {
    if (!IsArrowAt(pos_)) return false;
    *directed = text_[pos_ + 1] == '>';
    pos_ += 2;
    SkipSpaceAndComments();
    return true;
  }

  /// Reads an identifier: bare word, numeral, or quoted string. A bare id
  /// ends where "->" or "--" begins, so `a->b` and `a--b` are edges; its
  /// first character always belongs to it, so "-" and "-5" are ids.
  Result<Token> ReadId() {
    if (pos_ >= text_.size()) {
      return Status::ParseError("unexpected end of dot input");
    }
    char c = text_[pos_];
    if (c == '"') {
      // The body ends at the first '"' not escaped by a backslash; the
      // scan jumps between backslashes and quotes (memchr), not per byte.
      Token token;
      const size_t start = pos_ + 1;
      size_t pos = start;
      size_t quote = text_.find('"', pos);
      while (true) {
        const size_t end = quote == std::string_view::npos ? text_.size()
                                                           : quote;
        const size_t backslash = text_.substr(pos, end - pos).find('\\');
        if (backslash == std::string_view::npos) break;
        const size_t escaped_at = pos + backslash + 1;
        if (escaped_at >= text_.size()) break;  // a backslash before EOF
        token.escaped = true;
        pos = escaped_at + 1;
        if (escaped_at == quote) quote = text_.find('"', pos);
      }
      if (quote == std::string_view::npos) {
        pos_ = text_.size();
        return Status::ParseError("unterminated quoted id in dot input");
      }
      token.text = text_.substr(start, quote - start);
      pos_ = quote + 1;
      SkipSpaceAndComments();
      return token;
    }
    if (IsIdChar(c)) {
      const size_t start = pos_++;
      while (pos_ < text_.size() && IsIdChar(text_[pos_]) &&
             !IsArrowAt(pos_)) {
        ++pos_;
      }
      Token token{text_.substr(start, pos_ - start)};
      SkipSpaceAndComments();
      return token;
    }
    return Status::ParseError(
        StrFormat("unexpected character '%c' at offset %zu in dot input", c,
                  pos_));
  }

 private:
  void SkipSpaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (IsSpace(c)) {
        ++pos_;
      } else if (c == '#' || (c == '/' && At(pos_ + 1) == '/')) {
        const size_t eol = text_.find('\n', pos_);
        pos_ = eol == std::string_view::npos ? text_.size() : eol;
      } else if (c == '/' && At(pos_ + 1) == '*') {
        const size_t close = text_.find("*/", pos_ + 2);
        pos_ = close == std::string_view::npos ? text_.size() : close + 2;
      } else {
        return;
      }
    }
  }

  char At(size_t i) const { return i < text_.size() ? text_[i] : '\0'; }
  bool IsArrowAt(size_t i) const {
    return At(i) == '-' && (At(i + 1) == '>' || At(i + 1) == '-');
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// Parses an optional [k=v, ...] attribute list, handing each pair to
/// `set(key, value)` as it is read.
template <typename Set>
Status ParseAttrList(DotScanner* scan, Set&& set) {
  if (!scan->Consume('[')) return Status::OK();
  if (scan->Consume(']')) return Status::OK();
  while (true) {
    STETHO_ASSIGN_OR_RETURN(Token key, scan->ReadId());
    if (!scan->Consume('=')) {
      return Status::ParseError("expected '=' in attribute list");
    }
    STETHO_ASSIGN_OR_RETURN(Token value, scan->ReadId());
    set(key, value);
    if (scan->Consume(',') || scan->Consume(';')) continue;
    if (scan->Consume(']')) break;
    return Status::ParseError("expected ',' or ']' in attribute list");
  }
  return Status::OK();
}

/// Sizes `graph` for `text` as the writer lays a plan out: one statement
/// per line, one edge per edge operator. Another layout only regrows.
void ReserveFor(std::string_view text, Graph* graph) {
  const size_t lines =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  size_t edges = 0;
  for (size_t at = text.find('-'); at != std::string_view::npos;
       at = text.find('-', at + 1)) {
    if (at + 1 < text.size() && (text[at + 1] == '>' || text[at + 1] == '-')) {
      ++edges;
      ++at;
    }
  }
  graph->Reserve(lines > edges ? lines - edges : 0, edges);
}

}  // namespace

Result<Graph> ParseDot(std::string_view text) {
  DotScanner scan(text);
  Graph graph;
  ReserveFor(text, &graph);

  STETHO_ASSIGN_OR_RETURN(Token kind, scan.ReadId());
  if (kind.Is("strict")) {
    STETHO_ASSIGN_OR_RETURN(kind, scan.ReadId());
  }
  if (kind.Is("digraph")) {
    graph.set_directed(true);
  } else if (kind.Is("graph")) {
    graph.set_directed(false);
  } else {
    return Status::ParseError("dot input must start with (di)graph");
  }
  if (scan.Peek() != '{') {
    STETHO_ASSIGN_OR_RETURN(Token name, scan.ReadId());
    graph.set_name(name.str());
  }
  if (!scan.Consume('{')) return Status::ParseError("expected '{'");

  while (!scan.Consume('}')) {
    if (scan.AtEnd()) return Status::ParseError("missing '}' in dot input");
    STETHO_ASSIGN_OR_RETURN(Token id, scan.ReadId());

    // Graph-level attribute: ID = ID ; (not needed downstream)
    if (scan.Consume('=')) {
      STETHO_RETURN_IF_ERROR(scan.ReadId().status());
      scan.Consume(';');
      continue;
    }

    // Default attribute statements: node [...] / edge [...] / graph [...]
    if (scan.Peek() == '[' &&
        (id.Is("node") || id.Is("edge") || id.Is("graph"))) {
      STETHO_RETURN_IF_ERROR(
          ParseAttrList(&scan, [](const Token&, const Token&) {}));
      scan.Consume(';');
      continue;
    }

    bool directed_edge = false;
    if (scan.ConsumeArrow(&directed_edge)) {
      STETHO_ASSIGN_OR_RETURN(Token to, scan.ReadId());
      GraphEdge& edge = graph.AddEdge(id.str(), to.str());
      STETHO_RETURN_IF_ERROR(
          ParseAttrList(&scan, [&edge](const Token& key, const Token& value) {
            edge.attrs[key.str()] = value.str();
          }));
      scan.Consume(';');
      continue;
    }

    // A node declared again merges its attributes into the first.
    GraphNode& node = graph.AddNode(id.str());
    STETHO_RETURN_IF_ERROR(
        ParseAttrList(&scan, [&node](const Token& key, const Token& value) {
          node.SetAttr(key.str(), value.str());
        }));
    scan.Consume(';');
  }
  return graph;
}

}  // namespace stetho::dot
