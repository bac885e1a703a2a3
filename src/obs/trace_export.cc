#include "obs/trace_export.h"

#include <cctype>
#include <cstdlib>
#include <map>

#include "common/string_util.h"

namespace stetho::obs {
namespace {

/// Minimal JSON reader covering what WriteChromeTrace emits (and the usual
/// Chrome/Perfetto variations): objects, arrays, strings with escapes,
/// integer/float numbers, true/false/null. Parsed values are flattened into
/// just the shapes the span loader needs.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    STETHO_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError(
          StrFormat("trailing content at offset %zu", pos_));
    }
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  Status Expect(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Status::ParseError(
          StrFormat("expected '%c' at offset %zu", c, pos_));
    }
    ++pos_;
    return Status::OK();
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Status::ParseError("unexpected end");
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject() {
    STETHO_RETURN_IF_ERROR(Expect('{'));
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      STETHO_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      STETHO_RETURN_IF_ERROR(Expect(':'));
      STETHO_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      value.object.emplace(std::move(key.str), std::move(member));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        SkipSpace();
        continue;
      }
      STETHO_RETURN_IF_ERROR(Expect('}'));
      return value;
    }
  }

  Result<JsonValue> ParseArray() {
    STETHO_RETURN_IF_ERROR(Expect('['));
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      STETHO_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      value.array.push_back(std::move(element));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      STETHO_RETURN_IF_ERROR(Expect(']'));
      return value;
    }
  }

  Result<JsonValue> ParseString() {
    STETHO_RETURN_IF_ERROR(Expect('"'));
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        value.str += c;
        continue;
      }
      if (pos_ >= text_.size()) return Status::ParseError("dangling escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': value.str += '"'; break;
        case '\\': value.str += '\\'; break;
        case '/': value.str += '/'; break;
        case 'n': value.str += '\n'; break;
        case 't': value.str += '\t'; break;
        case 'r': value.str += '\r'; break;
        case 'b': value.str += '\b'; break;
        case 'f': value.str += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::ParseError("truncated \\u escape");
          }
          long code = std::strtol(std::string(text_.substr(pos_, 4)).c_str(),
                                  nullptr, 16);
          pos_ += 4;
          // Trace content is ASCII; anything else degrades to '?'.
          value.str += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Status::ParseError(StrFormat("bad escape '\\%c'", esc));
      }
    }
    STETHO_RETURN_IF_ERROR(Expect('"'));
    return value;
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.substr(pos_, 5) == "false") {
      value.boolean = false;
      pos_ += 5;
      return value;
    }
    return Status::ParseError(StrFormat("bad literal at offset %zu", pos_));
  }

  Result<JsonValue> ParseNull() {
    if (text_.substr(pos_, 4) != "null") {
      return Status::ParseError(StrFormat("bad literal at offset %zu", pos_));
    }
    pos_ += 4;
    return JsonValue{};
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::ParseError(StrFormat("bad value at offset %zu", start));
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = std::atof(std::string(text_.substr(start, pos_ - start)).c_str());
    return value;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

int64_t NumberField(const JsonValue& object, const char* key,
                    int64_t fallback) {
  auto it = object.object.find(key);
  if (it == object.object.end() ||
      it->second.kind != JsonValue::Kind::kNumber) {
    return fallback;
  }
  return static_cast<int64_t>(it->second.number);
}

std::string StringField(const JsonValue& object, const char* key) {
  auto it = object.object.find(key);
  if (it == object.object.end() ||
      it->second.kind != JsonValue::Kind::kString) {
    return std::string();
  }
  return it->second.str;
}

}  // namespace

std::string WriteChromeTrace(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(span.name, &out);
    out += ",\"cat\":";
    AppendJsonString(span.cat, &out);
    out += StrFormat(",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
                     "\"pid\":1,\"tid\":%d,\"args\":{\"seq\":%lld",
                     static_cast<long long>(span.start_us),
                     static_cast<long long>(span.dur_us), span.tid,
                     static_cast<long long>(span.seq));
    if (span.pc >= 0) out += StrFormat(",\"pc\":%d", span.pc);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Result<std::vector<SpanRecord>> ParseChromeTrace(std::string_view json) {
  STETHO_ASSIGN_OR_RETURN(JsonValue root, JsonParser(json).Parse());
  const JsonValue* events = nullptr;
  if (root.kind == JsonValue::Kind::kArray) {
    events = &root;
  } else if (root.kind == JsonValue::Kind::kObject) {
    auto it = root.object.find("traceEvents");
    if (it == root.object.end() ||
        it->second.kind != JsonValue::Kind::kArray) {
      return Status::ParseError("no traceEvents array");
    }
    events = &it->second;
  } else {
    return Status::ParseError("trace JSON must be an object or array");
  }

  std::vector<SpanRecord> spans;
  spans.reserve(events->array.size());
  for (const JsonValue& event : events->array) {
    if (event.kind != JsonValue::Kind::kObject) {
      return Status::ParseError("trace event is not an object");
    }
    if (StringField(event, "ph") != "X") continue;  // not a complete event
    SpanRecord span;
    span.name = StringField(event, "name");
    span.cat = StringField(event, "cat");
    span.tid = static_cast<int>(NumberField(event, "tid", 0));
    span.start_us = NumberField(event, "ts", 0);
    span.dur_us = NumberField(event, "dur", 0);
    span.seq = static_cast<int64_t>(spans.size());
    auto args = event.object.find("args");
    if (args != event.object.end() &&
        args->second.kind == JsonValue::Kind::kObject) {
      span.pc = static_cast<int>(NumberField(args->second, "pc", -1));
      span.seq = NumberField(args->second, "seq", span.seq);
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

}  // namespace stetho::obs
