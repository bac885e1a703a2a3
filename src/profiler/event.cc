#include "profiler/event.h"

#include <charconv>
#include <limits>

#include "common/string_util.h"

namespace stetho::profiler {

const char* EventStateName(EventState state) {
  switch (state) {
    case EventState::kStart:
      return "start";
    case EventState::kDone:
      return "done";
  }
  return "?";
}

std::string_view OperatorOf(std::string_view stmt) {
  size_t start = 0;
  const size_t assign = stmt.find(":=");
  if (assign != std::string_view::npos) start = assign + 2;
  while (start < stmt.size() && stmt[start] == ' ') ++start;
  // Without a '(', npos - start still reaches the end of the text.
  return stmt.substr(start, stmt.find('(', start) - start);
}

namespace {

/// Fields of a trace line, per the layout in event.h.
constexpr size_t kFields = 8;
/// Every field but the statement at its widest: four 20-byte int64s, two
/// 11-byte ints, a 5-byte state and 22 bytes of brackets, separators and
/// quotes.
constexpr size_t kMaxLineBytesWithoutStmt = 129;

void AppendInt(int64_t v, std::string* out) {
  char buf[20];  // "-9223372036854775808"
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

/// The bytes between a quoted field's quotes, as written (escapes kept).
Result<std::string_view> QuotedBody(std::string_view field) {
  const std::string_view t = TrimView(field);
  if (t.size() < 2 || t.front() != '"' || t.back() != '"') {
    return Status::ParseError("expected quoted field: " + std::string(field));
  }
  return t.substr(1, t.size() - 2);
}

/// An int field (pc, thread): a value outside int's range is an error, not
/// a wrap to some other instruction or thread.
Result<int> ParseIntField(std::string_view field, const char* name) {
  STETHO_ASSIGN_OR_RETURN(int64_t v, ParseInt64(field));
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return Status::ParseError(StrFormat(
        "trace %s %lld out of range", name, static_cast<long long>(v)));
  }
  return static_cast<int>(v);
}

}  // namespace

std::string FormatTraceLine(const TraceEvent& e) {
  std::string line;
  line.reserve(kMaxLineBytesWithoutStmt + e.stmt.size());
  line.append("[ ");
  AppendInt(e.event, &line);
  line.append(",\t");
  AppendInt(e.time_us, &line);
  line.append(",\t");
  AppendInt(e.pc, &line);
  line.append(",\t");
  AppendInt(e.thread, &line);
  line.append(",\t\"");
  line.append(EventStateName(e.state));
  line.append("\",\t");
  AppendInt(e.usec, &line);
  line.append(",\t");
  AppendInt(e.rss_bytes, &line);
  line.append(",\t\"");
  // Escape '"' and '\\'. A NUL ends the statement, as it did when the line
  // was printf'd from a C string.
  const std::string& stmt = e.stmt;
  size_t run = 0;
  size_t i = 0;
  for (; i < stmt.size() && stmt[i] != '\0'; ++i) {
    if (stmt[i] == '"' || stmt[i] == '\\') {
      line.append(stmt, run, i - run);
      line.push_back('\\');
      run = i;
    }
  }
  line.append(stmt, run, i - run);
  line.append("\" ]");
  return line;
}

Result<TraceEvent> ParseTraceLine(std::string_view line) {
  std::string_view t = TrimView(line);
  if (t.size() < 2 || t.front() != '[' || t.back() != ']') {
    return Status::ParseError("trace line must be bracketed: " +
                              std::string(line.substr(0, 60)));
  }
  // Split the inside of the brackets on commas outside quotes; inside
  // quotes a backslash escapes the next character.
  const std::string_view body = t.substr(1, t.size() - 2);
  std::string_view fields[kFields];
  size_t count = 0;
  size_t start = 0;
  bool in_quote = false;
  for (size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (in_quote) {
      if (c == '\\' && i + 1 < body.size()) {
        ++i;
      } else if (c == '"') {
        in_quote = false;
      }
    } else if (c == '"') {
      in_quote = true;
    } else if (c == ',') {
      if (count < kFields) fields[count] = body.substr(start, i - start);
      ++count;
      start = i + 1;
    }
  }
  if (in_quote) return Status::ParseError("unterminated quote in trace line");
  if (count < kFields) fields[count] = body.substr(start);
  ++count;
  if (count != kFields) {
    return Status::ParseError(StrFormat(
        "trace line has %zu fields, expected %zu", count, kFields));
  }
  TraceEvent e;
  STETHO_ASSIGN_OR_RETURN(e.event, ParseInt64(fields[0]));
  STETHO_ASSIGN_OR_RETURN(e.time_us, ParseInt64(fields[1]));
  STETHO_ASSIGN_OR_RETURN(e.pc, ParseIntField(fields[2], "pc"));
  STETHO_ASSIGN_OR_RETURN(e.thread, ParseIntField(fields[3], "thread"));
  STETHO_ASSIGN_OR_RETURN(std::string_view quoted_state, QuotedBody(fields[4]));
  const std::string state = UnescapeQuoted(quoted_state);
  if (state == "start") {
    e.state = EventState::kStart;
  } else if (state == "done") {
    e.state = EventState::kDone;
  } else {
    return Status::ParseError("unknown event state '" + state + "'");
  }
  STETHO_ASSIGN_OR_RETURN(e.usec, ParseInt64(fields[5]));
  STETHO_ASSIGN_OR_RETURN(e.rss_bytes, ParseInt64(fields[6]));
  STETHO_ASSIGN_OR_RETURN(std::string_view quoted_stmt, QuotedBody(fields[7]));
  e.stmt = UnescapeQuoted(quoted_stmt);
  return e;
}

}  // namespace stetho::profiler
