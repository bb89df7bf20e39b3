// Minimal JSON reader for the tests that check the server's stats
// document (tests/net_test.cpp): objects, arrays, numbers, strings,
// true/false/null, with a hard depth limit. Anything else is a clean parse
// failure, so a malformed document fails the test instead of passing it.

#pragma once

#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace neats::testing {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

namespace json_internal {

inline constexpr int kMaxDepth = 16;

struct Parser {
  std::string_view text;
  size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r' ||
            text[pos] == '\n')) {
      ++pos;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }
  bool Digits() {
    const size_t start = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos > start;
  }

  bool ParseString(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return false;
        char e = text[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // \uXXXX decoded as Latin-1 where it fits; the stats document
            // only escapes control characters this way.
            if (text.size() - pos < 4) return false;
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (v > 0xFF) return false;
            out->push_back(static_cast<char>(v));
            break;
          }
          default: return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      out->push_back(c);
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    SkipWs();
    const size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    if (!Digits()) return false;
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      if (!Digits()) return false;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!Digits()) return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number =
        std::strtod(std::string(text.substr(start, pos - start)).c_str(),
                    nullptr);
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipWs();
    if (pos >= text.size()) return false;
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out->kind = JsonValue::Kind::kObject;
      if (Eat('}')) return true;
      while (true) {
        std::string key;
        if (!ParseString(&key)) return false;
        if (!Eat(':')) return false;
        JsonValue v;
        if (!ParseValue(&v, depth + 1)) return false;
        out->object.emplace_back(std::move(key), std::move(v));
        if (Eat(',')) continue;
        return Eat('}');
      }
    }
    if (c == '[') {
      ++pos;
      out->kind = JsonValue::Kind::kArray;
      if (Eat(']')) return true;
      while (true) {
        JsonValue v;
        if (!ParseValue(&v, depth + 1)) return false;
        out->array.push_back(std::move(v));
        if (Eat(',')) continue;
        return Eat(']');
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    for (std::string_view word : {"true", "false", "null"}) {
      if (text.substr(pos, word.size()) == word) {
        pos += word.size();
        out->kind = word == "null" ? JsonValue::Kind::kNull
                                   : JsonValue::Kind::kBool;
        out->boolean = word == "true";
        return true;
      }
    }
    return ParseNumber(out);
  }
};

}  // namespace json_internal

/// Parses one JSON document from `text` (trailing whitespace allowed,
/// trailing garbage rejected). Returns false on any syntax error or when
/// nesting exceeds a small hard limit.
inline bool ParseJson(std::string_view text, JsonValue* out) {
  json_internal::Parser p{text};
  *out = JsonValue{};
  if (!p.ParseValue(out, 0)) return false;
  p.SkipWs();
  return p.pos == p.text.size();
}

}  // namespace neats::testing
