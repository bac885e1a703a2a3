#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace stetho {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitAndTrim(std::string_view input, char sep) {
  std::vector<std::string> out;
  for (const std::string& piece : Split(input, sep)) {
    std::string trimmed = Trim(piece);
    if (!trimmed.empty()) out.push_back(std::move(trimmed));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view TrimView(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ContainsString(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  const std::string_view t = TrimView(s);
  if (t.empty()) return Status::ParseError("empty integer literal");
  // strtoll's decimal grammar: from_chars plus an optional leading '+'
  // (which, like strtoll, must not be followed by another sign).
  const char* first = t.data();
  const char* last = t.data() + t.size();
  if (t.size() > 1 && t[0] == '+' && t[1] != '-') ++first;
  int64_t v = 0;
  const auto [end, ec] = std::from_chars(first, last, v);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer out of range: " + std::string(t));
  }
  if (ec != std::errc() || end != last) {
    return Status::ParseError("invalid integer literal: " + std::string(t));
  }
  return v;
}

Result<double> ParseDouble(std::string_view s) {
  std::string buf(TrimView(s));
  if (buf.empty()) return Status::ParseError("empty float literal");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("float out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid float literal: " + buf);
  }
  return v;
}

std::string EscapeQuoted(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscapedQuoted(s, &out);
  return out;
}

void AppendEscapedQuoted(std::string_view s, std::string* out) {
  // The runs between special characters go in one append each.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '"' && s[i] != '\\') continue;
    out->append(s.data() + run, i - run);
    out->push_back('\\');
    run = i;  // the special character starts the next run
  }
  out->append(s.data() + run, s.size() - run);
}

std::string UnescapeQuoted(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  // A backslash before a character drops, the character stays; a trailing
  // backslash stays. The runs between escapes go in one append each.
  size_t run = 0;
  for (size_t i = 0; i + 1 < s.size(); ++i) {
    if (s[i] != '\\') continue;
    out.append(s.data() + run, i - run);
    run = ++i;
  }
  out.append(s.data() + run, s.size() - run);
  return out;
}

std::string EscapeXml(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace stetho
