#include "drbw/util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace drbw {

Json::Type Json::type() const {
  const std::size_t index = value_.index();
  return index > 5 ? Type::kNumber : static_cast<Type>(index);
}

bool Json::as_bool() const {
  DRBW_CHECK_MSG(std::holds_alternative<bool>(value_), "JSON value is not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
    return static_cast<double>(*u);
  }
  DRBW_CHECK_MSG(std::holds_alternative<double>(value_),
                 "JSON value is not a number");
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const std::optional<std::int64_t> i = as_i64();
  DRBW_CHECK_MSG(i.has_value(), "JSON value " << dump(-1) << " is not an int64");
  return *i;
}

std::optional<std::int64_t> Json::as_i64() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  const std::optional<std::uint64_t> u = as_u64();
  if (u && *u <= static_cast<std::uint64_t>(INT64_MAX)) {
    return static_cast<std::int64_t>(*u);
  }
  return std::nullopt;
}

std::optional<std::uint64_t> Json::as_u64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) return *u;
  const auto* i = std::get_if<std::int64_t>(&value_);
  if (i != nullptr && *i >= 0) return static_cast<std::uint64_t>(*i);
  const auto* d = std::get_if<double>(&value_);
  if (d != nullptr && *d >= 0.0 && *d < 0x1p64 && *d == std::floor(*d)) {
    return static_cast<std::uint64_t>(*d);
  }
  return std::nullopt;
}

const std::string& Json::as_string() const {
  DRBW_CHECK_MSG(std::holds_alternative<std::string>(value_),
                 "JSON value is not a string");
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  DRBW_CHECK_MSG(std::holds_alternative<JsonArray>(value_),
                 "JSON value is not an array");
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  DRBW_CHECK_MSG(std::holds_alternative<JsonObject>(value_),
                 "JSON value is not an object");
  return std::get<JsonObject>(value_);
}

JsonArray& Json::as_array() {
  DRBW_CHECK_MSG(std::holds_alternative<JsonArray>(value_),
                 "JSON value is not an array");
  return std::get<JsonArray>(value_);
}

JsonObject& Json::as_object() {
  DRBW_CHECK_MSG(std::holds_alternative<JsonObject>(value_),
                 "JSON value is not an object");
  return std::get<JsonObject>(value_);
}

const Json& Json::at(const std::string& key) const {
  const Json* found = find(key);
  DRBW_CHECK_MSG(found != nullptr, "JSON object has no key '" << key << "'");
  return *found;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(const std::string& key, Json value) {
  if (!std::holds_alternative<JsonObject>(value_)) value_ = JsonObject{};
  for (auto& [k, v] : std::get<JsonObject>(value_)) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  std::get<JsonObject>(value_).emplace_back(key, std::move(value));
}

void Json::push_back(Json value) {
  if (!std::holds_alternative<JsonArray>(value_)) value_ = JsonArray{};
  std::get<JsonArray>(value_).push_back(std::move(value));
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (d == std::floor(d) && std::abs(d) < 9.0e15) {
    out += std::to_string(static_cast<long long>(d));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent >= 0 ? std::string(static_cast<std::size_t>(indent) *
                                    static_cast<std::size_t>(depth + 1),
                                ' ')
                  : std::string();
  const std::string close_pad =
      indent >= 0 ? std::string(static_cast<std::size_t>(indent) *
                                    static_cast<std::size_t>(depth),
                                ' ')
                  : std::string();
  const char* nl = indent >= 0 ? "\n" : "";

  switch (type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += std::get<bool>(value_) ? "true" : "false"; break;
    case Type::kNumber:
      if (const auto* i = std::get_if<std::int64_t>(&value_)) {
        out += std::to_string(*i);
      } else if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
        out += std::to_string(*u);
      } else {
        append_number(out, std::get<double>(value_));
      }
      break;
    case Type::kString: append_escaped(out, std::get<std::string>(value_)); break;
    case Type::kArray: {
      const auto& arr = std::get<JsonArray>(value_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < arr.size(); ++i) {
        out += pad;
        arr[i].dump_to(out, indent, depth + 1);
        if (i + 1 < arr.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
    case Type::kObject: {
      const auto& obj = std::get<JsonObject>(value_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < obj.size(); ++i) {
        out += pad;
        append_escaped(out, obj[i].first);
        out += indent >= 0 ? ": " : ":";
        obj[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < obj.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string json_quoted(std::string_view s) {
  std::string out;
  append_escaped(out, s);
  return out;
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    // Report line:column (1-based) plus the offending token: model files are
    // multi-line documents, and a raw byte offset is useless in an editor.
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::string near;
    if (pos_ < text_.size()) {
      std::string_view rest = text_.substr(pos_);
      const std::size_t stop = std::min<std::size_t>(
          {rest.size(), rest.find('\n'), std::size_t{12}});
      near = " near '" + std::string(rest.substr(0, stop)) + "'";
    }
    throw Error("JSON parse error at line " + std::to_string(line) + ":" +
                    std::to_string(column) + ": " + why + near,
                ErrorCode::kParse);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_if(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case 'n': expect_word("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  void expect_word(std::string_view word) {
    skip_ws();
    if (text_.substr(pos_, word.size()) != word) {
      fail("expected literal '" + std::string(word) + "'");
    }
    pos_ += word.size();
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    if (consume_if('}')) return Json(std::move(obj));
    while (true) {
      std::string key = parse_string();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      if (consume_if('}')) return Json(std::move(obj));
      expect(',');
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    if (consume_if(']')) return Json(std::move(arr));
    while (true) {
      arr.push_back(parse_value());
      if (consume_if(']')) return Json(std::move(arr));
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs unsupported;
          // model files are ASCII).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool saw_digit = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        saw_digit = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
      eat_digits();
    }
    if (!saw_digit) fail("invalid number");
    const std::string token(text_.substr(start, pos_ - start));
    // An integer token is exact when it fits: int64 below zero, else uint64.
    const char* first = token.data() + (token[0] == '+' ? 1 : 0);
    const char* last = token.data() + token.size();
    std::uint64_t u = 0;
    std::int64_t i = 0;
    const std::from_chars_result exact =
        token[0] == '-' ? std::from_chars(first, last, i)
                        : std::from_chars(first, last, u);
    if (exact.ec == std::errc() && exact.ptr == last) {
      return token[0] == '-' ? Json(i) : Json(u);
    }
    return Json(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace drbw
