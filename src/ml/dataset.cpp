#include "drbw/ml/dataset.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "drbw/util/json_fields.hpp"

namespace drbw::ml {

void Dataset::add(std::vector<double> row, Label label) {
  add(std::move(row), label, "");
}

void Dataset::add(std::vector<double> row, Label label, std::string tag) {
  if (feature_names_.empty() && rows_.empty()) {
    // Anonymous columns when the caller never named them.
    for (std::size_t i = 0; i < row.size(); ++i) {
      feature_names_.push_back("f" + std::to_string(i));
    }
  }
  DRBW_CHECK_MSG(row.size() == feature_names_.size(),
                 "row has " << row.size() << " features, dataset has "
                            << feature_names_.size());
  rows_.push_back(std::move(row));
  labels_.push_back(label);
  tags_.push_back(std::move(tag));
}

std::size_t Dataset::count(Label label) const {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), label));
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  Dataset out(feature_names_);
  for (const std::size_t i : indices) {
    DRBW_CHECK_MSG(i < rows_.size(), "subset index " << i << " out of range");
    out.add(rows_[i], labels_[i], tags_[i]);
  }
  return out;
}

Normalizer Normalizer::fit(const Dataset& data) {
  DRBW_CHECK_MSG(data.size() > 0, "cannot fit normalizer on empty dataset");
  Normalizer n;
  const std::size_t f = data.num_features();
  n.lo_.assign(f, std::numeric_limits<double>::infinity());
  n.hi_.assign(f, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& row = data.row(i);
    for (std::size_t j = 0; j < f; ++j) {
      n.lo_[j] = std::min(n.lo_[j], row[j]);
      n.hi_[j] = std::max(n.hi_[j], row[j]);
    }
  }
  return n;
}

double Normalizer::apply_one(std::size_t feature, double value) const {
  DRBW_CHECK_MSG(feature < lo_.size(), "feature index out of range");
  const double span = hi_[feature] - lo_[feature];
  if (span <= 0.0) return 0.0;  // constant feature carries no information
  return (value - lo_[feature]) / span;  // deliberately NOT clamped: unseen
                                         // magnitudes should look extreme
}

std::vector<double> Normalizer::apply(const std::vector<double>& row) const {
  DRBW_CHECK_MSG(row.size() == lo_.size(),
                 "row arity " << row.size() << " != normalizer " << lo_.size());
  std::vector<double> out(row.size());
  for (std::size_t j = 0; j < row.size(); ++j) out[j] = apply_one(j, row[j]);
  return out;
}

Json Normalizer::to_json() const {
  Json j;
  // Range-constructing the arrays (implicit double -> Json) sidesteps the
  // push_back relocation path, where GCC 12's inliner reports spurious
  // -Wmaybe-uninitialized warnings inside the variant move machinery.
  JsonArray lo(lo_.begin(), lo_.end());
  JsonArray hi(hi_.begin(), hi_.end());
  j.set("lo", Json(std::move(lo)));
  j.set("hi", Json(std::move(hi)));
  return j;
}

Normalizer Normalizer::from_json(const Json& json, const std::string& path) {
  const util::Members members(json, path, "model", "normalizer");
  for (const char* key : {"lo", "hi"}) members.require(key);
  Normalizer n;
  members.get("lo", n.lo_);
  members.get("hi", n.hi_);
  if (n.hi_.size() != n.lo_.size()) {
    members.fail("member 'hi' has " + std::to_string(n.hi_.size()) +
                 " entries, 'lo' has " + std::to_string(n.lo_.size()));
  }
  return n;
}

}  // namespace drbw::ml
