// Labelled dataset container and min-max normalization for the classifier.
#pragma once

#include <string>
#include <vector>

#include "drbw/util/error.hpp"
#include "drbw/util/json.hpp"

namespace drbw::ml {

/// Binary labels follow the paper's vocabulary.
enum class Label : int { kGood = 0, kRmc = 1 };

inline const char* label_name(Label l) {
  return l == Label::kRmc ? "rmc" : "good";
}

/// Rows of features with labels; column names travel with the data so
/// trained models can be introspected (Fig. 3 prints feature descriptions).
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> feature_names)
      : feature_names_(std::move(feature_names)) {}

  void add(std::vector<double> row, Label label);
  void add(std::vector<double> row, Label label, std::string tag);

  std::size_t size() const { return rows_.size(); }
  std::size_t num_features() const { return feature_names_.size(); }
  const std::vector<double>& row(std::size_t i) const { return rows_.at(i); }
  Label label(std::size_t i) const { return labels_.at(i); }
  /// Free-form provenance tag (program/config) for reporting.
  const std::string& tag(std::size_t i) const { return tags_.at(i); }
  const std::vector<std::string>& feature_names() const { return feature_names_; }

  std::size_t count(Label label) const;

  /// Subset by row indices (used by cross-validation).
  Dataset subset(const std::vector<std::size_t>& indices) const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<std::vector<double>> rows_;
  std::vector<Label> labels_;
  std::vector<std::string> tags_;
};

/// What member errors call a model document that was not read from a file.
inline constexpr const char* kModelDocument = "model document";

/// Per-feature min-max scaling to [0, 1], fit on the training set.  The
/// paper's Fig. 3 thresholds are over "normalized values"; persisting the
/// scaler with the tree keeps deployment consistent with training.
class Normalizer {
 public:
  static Normalizer fit(const Dataset& data);

  std::vector<double> apply(const std::vector<double>& row) const;
  double apply_one(std::size_t feature, double value) const;
  std::size_t num_features() const { return lo_.size(); }

  Json to_json() const;
  /// Error(kCorruptArtifact) naming `path` and the member when `lo` or `hi`
  /// is missing, is not an array of numbers, or differs from the other in
  /// length.
  static Normalizer from_json(const Json& json,
                              const std::string& path = kModelDocument);

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

}  // namespace drbw::ml
