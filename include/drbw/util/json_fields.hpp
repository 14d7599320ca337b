// Member tables for the one-line JSON objects of the serve snapshot and the
// run manifest: a `Field<T>` table names each member once, the writer
// renders through it (put_fields / put_rows: integers in full, doubles
// "%.9g", strings quoted like Json::dump, `hex` fields "%08x") and the
// reader fills a T through it (Members), which also reads the model file.
// The reader is strict: an absent member keeps the caller's default (unless
// require()d); a wrong JSON type, also of an array element, an unsigned
// integer that is not exactly a non-negative one in its field's range, an
// int64 that is not exactly an integer, or a row that is not an object is
// Error(kCorruptArtifact) naming the file and the member.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "drbw/util/json.hpp"

namespace drbw::util {

/// One object member: its JSON name and the field of T that carries it.
template <typename T>
struct Field {
  const char* name;
  std::variant<std::uint64_t T::*, std::uint32_t T::*, int T::*,
               std::int64_t T::*, double T::*, bool T::*, std::string T::*>
      member;
  bool hex = false;  ///< uint32 only: a "%08x" string
};

/// One value in the table format.
template <typename V>
void put(std::ostream& os, const V& v, bool hex = false) {
  if constexpr (std::is_same_v<V, bool>) {
    os << (v ? "true" : "false");
  } else if constexpr (std::is_same_v<V, std::string>) {
    os << json_quoted(v);
  } else if constexpr (std::is_same_v<V, double>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    os << buf;
  } else if (hex) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "\"%08x\"", static_cast<unsigned>(v));
    os << buf;
  } else {
    os << v;
  }
}

/// `"name": value` for every field of `object`, joined by `sep`.
template <typename T, std::size_t N>
void put_fields(std::ostream& os, const T& object, const Field<T> (&fields)[N],
                const char* sep = ", ") {
  for (std::size_t i = 0; i < N; ++i) {
    os << (i == 0 ? "" : sep) << '"' << fields[i].name << "\": ";
    std::visit([&](auto member) { put(os, object.*member, fields[i].hex); },
               fields[i].member);
  }
}

/// An array of one-line objects, one row per line, each indented two
/// spaces past the closing bracket's `indent`.
template <typename T, std::size_t N>
void put_rows(std::ostream& os, const std::vector<T>& rows,
              const Field<T> (&fields)[N], int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << '[';
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << pad << "  {";
    put_fields(os, rows[i], fields);
    os << '}';
  }
  if (!rows.empty()) os << '\n' << pad;
  os << ']';
}

/// Reads the members of one JSON object of the artifact at `path`; `what`
/// names the artifact in errors ("serve snapshot").
class Members {
 public:
  Members(const Json& node, std::string path, std::string what,
          std::string where = "");

  bool has(const char* key) const { return node_->find(key) != nullptr; }
  /// fail()s unless member `key` is present.
  void require(const char* key) const;

  /// Member `key` into `out`, which keeps its value when `key` is absent.
  /// A std::vector `out` reads an array, element by element.
  template <typename V>
  void get(const char* key, V& out, bool hex = false) const {
    if (const Json* v = node_->find(key)) read(*v, key, out, hex);
  }
  /// Object `key`'s members appended as (name, value) in document order.
  template <typename V>
  void get(const char* key,
           std::vector<std::pair<std::string, V>>& out) const {
    if (const Json* node = typed(key, Json::Type::kObject)) {
      for (const auto& [name, v] : node->as_object()) {
        read(v, std::string(key) + "." + name,
             out.emplace_back(name, V{}).second);
      }
    }
  }
  template <typename T, std::size_t N>
  void get_fields(T& object, const Field<T> (&fields)[N]) const {
    for (const Field<T>& field : fields) {
      std::visit(
          [&](auto member) { get(field.name, object.*member, field.hex); },
          field.member);
    }
  }

  /// Nested object `key` into `object` through `fields`; false when absent.
  template <typename T, std::size_t N>
  bool get_object(const char* key, T& object,
                  const Field<T> (&fields)[N]) const {
    const std::optional<Members> members = this->object(key);
    if (members) members->get_fields(object, fields);
    return members.has_value();
  }
  /// Each object of array `key` appended to `out` through `fields`.
  template <typename T, std::size_t N>
  void get_rows(const char* key, std::vector<T>& out,
                const Field<T> (&fields)[N]) const {
    for (const Members& row : rows(key)) {
      row.get_fields(out.emplace_back(), fields);
    }
  }

  /// The members of nested object `key` (nullopt when absent).
  std::optional<Members> object(const char* key) const;
  /// Each element of array `key` (none when absent).
  std::vector<Members> rows(const char* key) const;
  /// Each member of object `key` with its name (none when absent).
  std::vector<std::pair<std::string, Members>> entries(const char* key) const;

  [[noreturn]] void fail(const std::string& what) const;

 private:
  template <typename V>
  void read(const Json& v, const std::string& key, V& out,
            bool hex = false) const {
    const auto wrong = [&](const char* type) {
      fail("member '" + key + "' is not " + type);
    };
    if constexpr (std::is_same_v<V, bool>) {
      if (v.type() != Json::Type::kBool) wrong("a bool");
      out = v.as_bool();
    } else if constexpr (std::is_same_v<V, double>) {
      if (v.type() != Json::Type::kNumber) wrong("a number");
      out = v.as_number();
    } else if constexpr (std::is_same_v<V, std::string>) {
      if (v.type() != Json::Type::kString) wrong("a string");
      out = v.as_string();
    } else if constexpr (std::is_same_v<V, std::int64_t>) {
      const std::optional<std::int64_t> i = v.as_i64();
      if (!i) wrong("an integer");
      out = *i;
    } else if constexpr (requires { typename V::value_type; }) {  // vector
      if (v.type() != Json::Type::kArray) wrong("an array");
      out.clear();
      for (const Json& element : v.as_array()) {
        const std::string at = key + "[" + std::to_string(out.size()) + "]";
        read(element, at, out.emplace_back());
      }
    } else if (hex) {  // uint32 only
      std::string text;
      read(v, key, text);
      if (text.size() != 8 ||
          text.find_first_not_of("0123456789abcdef") != std::string::npos) {
        wrong("8 lowercase hex digits");
      }
      out = static_cast<V>(std::stoul(text, nullptr, 16));
    } else {  // an integer field: uint64, uint32 or (non-negative) int
      const std::optional<std::uint64_t> u = v.as_u64();
      using Limits = std::numeric_limits<V>;
      if (!u || *u > static_cast<std::uint64_t>(Limits::max())) {
        wrong("a non-negative integer in range");
      }
      out = static_cast<V>(*u);
    }
  }
  const Json* typed(const char* key, Json::Type type) const;
  std::string child(const std::string& key) const;

  const Json* node_;
  std::string path_;
  std::string what_;
  std::string where_;  ///< "" for the root, else e.g. "drift.clients[2]"
};

}  // namespace drbw::util
