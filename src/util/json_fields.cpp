#include "drbw/util/json_fields.hpp"

namespace drbw::util {

Members::Members(const Json& node, std::string path, std::string what,
                 std::string where)
    : node_(&node),
      path_(std::move(path)),
      what_(std::move(what)),
      where_(std::move(where)) {
  if (!node.is_object()) fail("is not an object");
}

std::optional<Members> Members::object(const char* key) const {
  const Json* node = typed(key, Json::Type::kObject);
  if (node == nullptr) return std::nullopt;
  return Members(*node, path_, what_, child(key));
}

std::vector<Members> Members::rows(const char* key) const {
  std::vector<Members> out;
  if (const Json* node = typed(key, Json::Type::kArray)) {
    for (const Json& row : node->as_array()) {
      out.emplace_back(row, path_, what_,
                       child(key) + "[" + std::to_string(out.size()) + "]");
    }
  }
  return out;
}

std::vector<std::pair<std::string, Members>> Members::entries(
    const char* key) const {
  std::vector<std::pair<std::string, Members>> out;
  if (const Json* node = typed(key, Json::Type::kObject)) {
    for (const auto& [name, value] : node->as_object()) {
      out.emplace_back(name,
                       Members(value, path_, what_, child(key) + "." + name));
    }
  }
  return out;
}

void Members::require(const char* key) const {
  if (!has(key)) fail(std::string("lacks member '") + key + "'");
}

void Members::fail(const std::string& what) const {
  throw Error(path_ + ": corrupt " + what_ + ": " +
                  (where_.empty() ? "body" : where_) + " " + what,
              ErrorCode::kCorruptArtifact);
}

const Json* Members::typed(const char* key, Json::Type type) const {
  const Json* node = node_->find(key);
  if (node != nullptr && node->type() != type) {
    fail(std::string("member '") + key + "' has the wrong type");
  }
  return node;
}

std::string Members::child(const std::string& key) const {
  return where_.empty() ? key : where_ + "." + key;
}

}  // namespace drbw::util
