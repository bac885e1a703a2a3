#ifndef STETHO_COMMON_STRING_UTIL_H_
#define STETHO_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace stetho {

/// Splits `input` on each occurrence of `sep`. Empty pieces are kept, so
/// Split("a,,b", ',') yields {"a", "", "b"}.
std::vector<std::string> Split(std::string_view input, char sep);

/// Splits on `sep` and drops empty pieces after trimming whitespace.
std::vector<std::string> SplitAndTrim(std::string_view input, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool ContainsString(std::string_view haystack, std::string_view needle);

/// ASCII-only case conversion.
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Strict numeric parsing: the whole string must be consumed.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Escapes `"` and `\` for embedding inside a double-quoted DOT/JSON string.
std::string EscapeQuoted(std::string_view s);
/// Appends EscapeQuoted(s) to `out`.
void AppendEscapedQuoted(std::string_view s, std::string* out);

/// Inverse of EscapeQuoted for the characters it produces.
std::string UnescapeQuoted(std::string_view s);

/// Escapes XML special characters (&, <, >, ", ') for SVG attribute/text use.
std::string EscapeXml(std::string_view s);

}  // namespace stetho

#endif  // STETHO_COMMON_STRING_UTIL_H_
