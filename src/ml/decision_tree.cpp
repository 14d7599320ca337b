#include "drbw/ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "drbw/fault/injector.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/util/json_fields.hpp"

namespace drbw::ml {

namespace {

using util::Field;
using util::Members;

/// One tree node as the model file spells it; from_json range-checks it
/// into a DecisionTree::Node.
struct NodeRow {
  std::int64_t feature = 0;
  double threshold = 0.0;
  std::int64_t left = 0;
  std::int64_t right = 0;
  std::string label;
  std::uint64_t count = 0;
  std::uint64_t rmc_count = 0;
};
const Field<NodeRow> kNodeFields[] = {
    {"feature", &NodeRow::feature},   {"threshold", &NodeRow::threshold},
    {"left", &NodeRow::left},         {"right", &NodeRow::right},
    {"label", &NodeRow::label},       {"count", &NodeRow::count},
    {"rmc_count", &NodeRow::rmc_count},
};

struct MlMetrics {
  obs::Counter& trees;
  obs::Counter& split_nodes;
  obs::Counter& leaf_nodes;

  static MlMetrics& get() {
    auto& reg = obs::Registry::global();
    static MlMetrics m{
        reg.counter("drbw_ml_trees_trained_total", "DecisionTree::train calls"),
        reg.counter("drbw_ml_split_nodes_total",
                    "Internal split nodes created during tree building"),
        reg.counter("drbw_ml_leaf_nodes_total",
                    "Leaf nodes created during tree building"),
    };
    return m;
  }
};

double gini(std::size_t rmc, std::size_t total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(rmc) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

double rmc_fraction(const DecisionTree::Node& node) {
  if (node.count == 0) return 0.0;
  return static_cast<double>(node.rmc_count) / static_cast<double>(node.count);
}

}  // namespace

std::string Explanation::path_signature() const {
  if (path.empty()) return "root";
  std::string sig;
  for (const PathStep& step : path) {
    if (!sig.empty()) sig += ' ';
    sig += std::to_string(step.feature);
    sig += step.went_right ? 'R' : 'L';
  }
  return sig;
}

std::size_t DriftBaseline::bucket_of(double normalized_value) {
  // Clamp first: serving values outside the training min-max range land in
  // the edge buckets (NaN compares false both ways and falls into bucket 0).
  double v = normalized_value;
  if (!(v > 0.0)) v = 0.0;
  if (v > 1.0) v = 1.0;
  const auto bucket = static_cast<std::size_t>(v * static_cast<double>(kBuckets));
  return bucket < kBuckets ? bucket : kBuckets - 1;
}

void DriftBaseline::resize(std::size_t num_features) {
  counts.assign(num_features, std::array<std::uint64_t, kBuckets>{});
  total = 0;
}

void DriftBaseline::observe(std::span<const double> normalized_row) {
  DRBW_CHECK_MSG(normalized_row.size() >= counts.size(),
                 "row too short for drift baseline of " << counts.size()
                                                        << " features");
  for (std::size_t f = 0; f < counts.size(); ++f) {
    ++counts[f][bucket_of(normalized_row[f])];
  }
  ++total;
}

void DriftBaseline::merge(const DriftBaseline& other) {
  if (other.counts.empty()) return;
  if (counts.empty()) resize(other.counts.size());
  DRBW_CHECK_MSG(other.counts.size() == counts.size(),
                 "drift histograms disagree on feature count");
  for (std::size_t f = 0; f < counts.size(); ++f) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      counts[f][b] += other.counts[f][b];
    }
  }
  total += other.total;
}

namespace {

// PSI with epsilon-floored proportions so buckets one side never populated
// stay finite; ~0 in-distribution, grows as mass shifts.
constexpr double kDriftEps = 1e-4;

double floored_proportion(std::uint64_t count, std::uint64_t total) {
  return std::max(static_cast<double>(count) / static_cast<double>(total),
                  kDriftEps);
}

/// One bucket's PSI term, serving proportion `q` against baseline `p`.
double psi_term(double q, double p) { return (q - p) * std::log(q / p); }

}  // namespace

std::vector<double> DriftBaseline::divergence(
    const DriftBaseline& serving) const {
  DRBW_CHECK_MSG(serving.counts.size() == counts.size(),
                 "drift histograms disagree on feature count");
  if (empty() || serving.empty()) {
    return std::vector<double>(counts.size(), 0.0);
  }
  return divergence(proportions(), serving);
}

DriftBaseline::Proportions DriftBaseline::proportions() const {
  DRBW_CHECK_MSG(!empty(), "an empty drift baseline has no proportions");
  Proportions out{std::vector<std::array<double, kBuckets>>(counts.size()),
                  std::vector<std::array<double, kBuckets>>(counts.size())};
  for (std::size_t f = 0; f < counts.size(); ++f) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const double p = floored_proportion(counts[f][b], total);
      out.floored[f][b] = p;
      out.at_floor[f][b] = psi_term(kDriftEps, p);
    }
  }
  return out;
}

std::vector<double> DriftBaseline::divergence(const Proportions& baseline,
                                              const DriftBaseline& serving) {
  DRBW_CHECK_MSG(serving.counts.size() == baseline.floored.size(),
                 "drift histograms disagree on feature count");
  std::vector<double> scores(baseline.floored.size(), 0.0);
  if (serving.empty()) return scores;
  for (std::size_t f = 0; f < scores.size(); ++f) {
    double psi = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const double p = baseline.floored[f][b];
      const double q = floored_proportion(serving.counts[f][b], serving.total);
      // Equal proportions add (q - p) * log(1) = +0, which leaves psi's
      // bits as they are; a serving bucket at the floor adds the term
      // proportions() computed from the same operands.
      if (q == p) continue;
      psi += q == kDriftEps ? baseline.at_floor[f][b] : psi_term(q, p);
    }
    scores[f] = psi;
  }
  return scores;
}

Json DriftBaseline::to_json() const {
  Json j;
  j.set("buckets", static_cast<std::int64_t>(kBuckets));
  j.set("total", total);
  Json rows = JsonArray{};
  for (const auto& feature_counts : counts) {
    Json row = JsonArray{};
    for (const std::uint64_t c : feature_counts) row.push_back(Json(c));
    rows.push_back(std::move(row));
  }
  j.set("counts", std::move(rows));
  return j;
}

DriftBaseline DriftBaseline::from_json(const Json& json,
                                       std::size_t num_features,
                                       const std::string& path) {
  const Members members(json, path, "model", "drift_baseline");
  for (const char* key : {"buckets", "total", "counts"}) members.require(key);
  std::uint64_t buckets = 0;
  std::vector<std::vector<std::uint64_t>> rows;
  DriftBaseline baseline;
  members.get("buckets", buckets);
  members.get("total", baseline.total);
  members.get("counts", rows);
  // A baseline that fails structural validation — or a fired model.drift
  // corrupt-field fault simulating one — disables drift rather than
  // failing the load: the tree itself is intact and still serves.
  DriftBaseline empty_baseline;
  if (buckets != kBuckets) return empty_baseline;
  if (rows.size() != num_features) return empty_baseline;
  for (std::size_t f = 0; f < rows.size(); ++f) {
    if (fault::should_inject("model.drift", fault::Kind::kCorruptField, f)) {
      return empty_baseline;
    }
    const std::vector<std::uint64_t>& row = rows[f];
    if (row.size() != kBuckets) return empty_baseline;
    // Every observed row increments each feature's histogram exactly once.
    if (std::accumulate(row.begin(), row.end(), std::uint64_t{0}) !=
        baseline.total) {
      return empty_baseline;
    }
    std::array<std::uint64_t, kBuckets>& feature_counts =
        baseline.counts.emplace_back();
    std::copy(row.begin(), row.end(), feature_counts.begin());
  }
  return baseline;
}

int DecisionTree::add_leaf(const Dataset& data,
                           const std::vector<std::size_t>& indices) {
  Node leaf;
  leaf.count = indices.size();
  for (const std::size_t i : indices) {
    if (data.label(i) == Label::kRmc) ++leaf.rmc_count;
  }
  leaf.label = 2 * leaf.rmc_count > leaf.count ? Label::kRmc : Label::kGood;
  nodes_.push_back(leaf);
  MlMetrics::get().leaf_nodes.add(1);
  return static_cast<int>(nodes_.size() - 1);
}

int DecisionTree::build(const Dataset& data,
                        const std::vector<std::size_t>& indices,
                        const TreeParams& params, int depth) {
  std::size_t rmc = 0;
  for (const std::size_t i : indices) {
    if (data.label(i) == Label::kRmc) ++rmc;
  }
  const double parent_gini = gini(rmc, indices.size());
  if (depth >= params.max_depth || indices.size() < params.min_samples_split ||
      parent_gini == 0.0) {
    return add_leaf(data, indices);
  }

  // Exhaustive CART split search: for every feature, sort the rows and try
  // the midpoint between each pair of adjacent distinct values.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = params.min_gini_gain;
  const std::size_t n = indices.size();

  for (std::size_t f = 0; f < data.num_features(); ++f) {
    std::vector<std::pair<double, bool>> values;  // (value, is_rmc)
    values.reserve(n);
    for (const std::size_t i : indices) {
      values.emplace_back(data.row(i)[f], data.label(i) == Label::kRmc);
    }
    std::sort(values.begin(), values.end());

    std::size_t left_n = 0, left_rmc = 0;
    for (std::size_t k = 0; k + 1 < n; ++k) {
      ++left_n;
      if (values[k].second) ++left_rmc;
      if (values[k].first == values[k + 1].first) continue;  // no boundary
      const std::size_t right_n = n - left_n;
      if (left_n < params.min_samples_leaf || right_n < params.min_samples_leaf) {
        continue;
      }
      const std::size_t right_rmc = rmc - left_rmc;
      const double weighted =
          (static_cast<double>(left_n) * gini(left_rmc, left_n) +
           static_cast<double>(right_n) * gini(right_rmc, right_n)) /
          static_cast<double>(n);
      const double gain = parent_gini - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (values[k].first + values[k + 1].first);
      }
    }
  }

  if (best_feature < 0) return add_leaf(data, indices);

  std::vector<std::size_t> left_idx, right_idx;
  for (const std::size_t i : indices) {
    // Fig. 3 convention: right when above the threshold.
    (data.row(i)[static_cast<std::size_t>(best_feature)] > best_threshold
         ? right_idx
         : left_idx)
        .push_back(i);
  }

  // Reserve our slot before recursing so child indices are stable.
  MlMetrics::get().split_nodes.add(1);
  const int self = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(self)].feature = best_feature;
  nodes_[static_cast<std::size_t>(self)].threshold = best_threshold;
  nodes_[static_cast<std::size_t>(self)].count = indices.size();
  nodes_[static_cast<std::size_t>(self)].rmc_count = rmc;
  const int left = build(data, left_idx, params, depth + 1);
  const int right = build(data, right_idx, params, depth + 1);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

DecisionTree DecisionTree::train(const Dataset& normalized, TreeParams params) {
  DRBW_CHECK_MSG(normalized.size() > 0, "cannot train on empty dataset");
  DRBW_CHECK_MSG(params.max_depth >= 1, "max_depth must be >= 1");
  DRBW_CHECK_MSG(params.min_samples_leaf >= 1, "min_samples_leaf must be >= 1");
  obs::Span span("tree_train");
  span.arg("rows", static_cast<double>(normalized.size()));
  DecisionTree tree;
  std::vector<std::size_t> all(normalized.size());
  std::iota(all.begin(), all.end(), 0);
  tree.build(normalized, all, params, 0);
  tree.index_depth();
  MlMetrics::get().trees.add(1);
  span.arg("nodes", static_cast<double>(tree.nodes().size()));
  return tree;
}

Label DecisionTree::predict(const std::vector<double>& row) const {
  DRBW_CHECK_MSG(!nodes_.empty(), "predict on untrained tree");
  int at = 0;
  while (!nodes_[static_cast<std::size_t>(at)].is_leaf()) {
    const Node& node = nodes_[static_cast<std::size_t>(at)];
    DRBW_CHECK_MSG(static_cast<std::size_t>(node.feature) < row.size(),
                   "row too short for tree feature " << node.feature);
    at = row[static_cast<std::size_t>(node.feature)] > node.threshold
             ? node.right
             : node.left;
  }
  return nodes_[static_cast<std::size_t>(at)].label;
}

Explanation DecisionTree::predict_explained(
    std::span<const double> row, std::size_t num_features) const {
  DRBW_CHECK_MSG(!nodes_.empty(), "predict on untrained tree");
  Explanation out;
  out.path.reserve(static_cast<std::size_t>(depth_));
  out.attributions.assign(num_features, 0.0);
  int at = 0;
  while (!nodes_[static_cast<std::size_t>(at)].is_leaf()) {
    const Node& node = nodes_[static_cast<std::size_t>(at)];
    DRBW_CHECK_MSG(static_cast<std::size_t>(node.feature) < row.size(),
                   "row too short for tree feature " << node.feature);
    const bool right =
        row[static_cast<std::size_t>(node.feature)] > node.threshold;
    out.path.push_back(PathStep{at, node.feature, node.threshold, right});
    const int child = right ? node.right : node.left;
    // Saabas attribution: the change in P(rmc) this split caused, credited
    // to the feature it consulted.
    if (static_cast<std::size_t>(node.feature) < num_features) {
      out.attributions[static_cast<std::size_t>(node.feature)] +=
          rmc_fraction(nodes_[static_cast<std::size_t>(child)]) -
          rmc_fraction(node);
    }
    at = child;
  }
  const Node& leaf = nodes_[static_cast<std::size_t>(at)];
  out.label = leaf.label;
  out.leaf = at;
  const double p_rmc = rmc_fraction(leaf);
  out.confidence = leaf.label == Label::kRmc ? p_rmc : 1.0 - p_rmc;
  return out;
}

void DecisionTree::index_depth() {
  // Children always follow their parent (build() reserves a node's slot
  // before recursing; from_json checks it), so one reverse pass sees every
  // child before its parent.
  std::vector<int> below(nodes_.size(), 0);
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    const Node& node = nodes_[i];
    if (node.is_leaf()) continue;
    below[i] = 1 + std::max(below[static_cast<std::size_t>(node.left)],
                            below[static_cast<std::size_t>(node.right)]);
  }
  depth_ = below.empty() ? 0 : below[0];
}

std::size_t DecisionTree::leaf_count() const {
  std::size_t leaves = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf()) ++leaves;
  }
  return leaves;
}

std::vector<int> DecisionTree::used_features() const {
  std::set<int> used;
  for (const Node& node : nodes_) {
    if (!node.is_leaf()) used.insert(node.feature);
  }
  return std::vector<int>(used.begin(), used.end());
}

std::vector<std::pair<int, std::size_t>> DecisionTree::split_counts() const {
  std::map<int, std::size_t> by_feature;
  for (const Node& node : nodes_) {
    if (!node.is_leaf()) ++by_feature[node.feature];
  }
  return std::vector<std::pair<int, std::size_t>>(by_feature.begin(),
                                                  by_feature.end());
}

namespace {

void render(const std::vector<DecisionTree::Node>& nodes, int at,
            const std::vector<std::string>& names, const std::string& prefix,
            const std::string& branch, std::ostringstream& os) {
  const auto& node = nodes[static_cast<std::size_t>(at)];
  os << prefix << branch;
  if (node.is_leaf()) {
    os << "[" << label_name(node.label) << "]  (" << node.count
       << " training samples, " << node.rmc_count << " rmc)\n";
    return;
  }
  const std::string name =
      static_cast<std::size_t>(node.feature) < names.size()
          ? names[static_cast<std::size_t>(node.feature)]
          : "f" + std::to_string(node.feature);
  os << name << " > " << node.threshold << " ?\n";
  const std::string child_prefix = prefix + (branch.empty() ? "" : "    ");
  render(nodes, node.left, names, child_prefix, "no  -> ", os);
  render(nodes, node.right, names, child_prefix, "yes -> ", os);
}

}  // namespace

std::string DecisionTree::to_string(
    const std::vector<std::string>& feature_names) const {
  std::ostringstream os;
  render(nodes_, 0, feature_names, "", "", os);
  return os.str();
}

Json DecisionTree::to_json() const {
  JsonArray nodes;
  for (const Node& n : nodes_) {
    Json j;
    j.set("feature", n.feature);
    j.set("threshold", n.threshold);
    j.set("left", n.left);
    j.set("right", n.right);
    j.set("label", n.label == Label::kRmc ? "rmc" : "good");
    j.set("count", n.count);
    j.set("rmc_count", n.rmc_count);
    nodes.push_back(std::move(j));
  }
  Json out;
  out.set("nodes", Json(std::move(nodes)));
  return out;
}

DecisionTree DecisionTree::from_json(const Json& json,
                                     std::size_t num_features,
                                     const std::string& path) {
  const Members members(json, path, "model", "tree");
  const std::vector<Members> rows = members.rows("nodes");
  if (rows.empty()) members.fail("has no nodes");
  const auto size = static_cast<std::int64_t>(rows.size());
  DecisionTree tree;
  for (std::int64_t i = 0; i < size; ++i) {
    const Members& m = rows[static_cast<std::size_t>(i)];
    for (const Field<NodeRow>& field : kNodeFields) m.require(field.name);
    NodeRow row;
    m.get_fields(row, kNodeFields);
    if (row.label != "rmc" && row.label != "good") {
      m.fail("member 'label' is neither \"rmc\" nor \"good\"");
    }
    if (row.feature < -1 ||
        row.feature >= static_cast<std::int64_t>(num_features)) {
      m.fail("member 'feature' is outside [-1, " +
             std::to_string(num_features) + ")");
    }
    // Children follow their parent, which index_depth relies on; a leaf
    // has none (-1).
    const std::int64_t lo = row.feature < 0 ? -1 : i + 1;
    const std::int64_t hi = row.feature < 0 ? -1 : size - 1;
    for (const auto& [name, child] :
         {std::pair{"left", row.left}, std::pair{"right", row.right}}) {
      if (child < lo || child > hi) {
        m.fail(std::string("member '") + name + "' is outside [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]");
      }
    }
    Node n;
    n.feature = static_cast<int>(row.feature);
    n.threshold = row.threshold;
    n.left = static_cast<int>(row.left);
    n.right = static_cast<int>(row.right);
    n.label = row.label == "rmc" ? Label::kRmc : Label::kGood;
    n.count = row.count;
    n.rmc_count = row.rmc_count;
    tree.nodes_.push_back(n);
  }
  tree.index_depth();
  return tree;
}

Classifier::Classifier(Normalizer normalizer, DecisionTree tree,
                       std::vector<std::string> feature_names)
    : normalizer_(std::move(normalizer)), tree_(std::move(tree)),
      feature_names_(std::move(feature_names)) {}

Classifier Classifier::train(const Dataset& data, TreeParams params) {
  const Normalizer normalizer = Normalizer::fit(data);
  Dataset normalized(data.feature_names());
  Classifier model;
  model.drift_baseline_.resize(data.num_features());
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::vector<double> row = normalizer.apply(data.row(i));
    model.drift_baseline_.observe(row);
    normalized.add(std::move(row), data.label(i));
  }
  model.normalizer_ = normalizer;
  model.tree_ = DecisionTree::train(normalized, params);
  model.feature_names_ = data.feature_names();
  return model;
}

Label Classifier::predict(const std::vector<double>& raw_row) const {
  return tree_.predict(normalizer_.apply(raw_row));
}

namespace {

/// Rows up to this wide normalize into a stack buffer.
constexpr std::size_t kStackFeatures = 32;

/// Calls `fn` with `raw` normalized into a buffer on the stack (on the
/// heap past kStackFeatures features).
template <typename Fn>
auto with_normalized(const Normalizer& normalizer, std::span<const double> raw,
                     Fn&& fn) {
  DRBW_CHECK_MSG(raw.size() == normalizer.num_features(),
                 "row arity " << raw.size() << " != normalizer "
                              << normalizer.num_features());
  std::array<double, kStackFeatures> stack;
  std::vector<double> heap;
  double* row = stack.data();
  if (raw.size() > stack.size()) {
    heap.resize(raw.size());
    row = heap.data();
  }
  for (std::size_t j = 0; j < raw.size(); ++j) {
    row[j] = normalizer.apply_one(j, raw[j]);
  }
  return fn(std::span<const double>(row, raw.size()));
}

}  // namespace

Explanation Classifier::predict_explained(
    std::span<const double> raw_row) const {
  return with_normalized(normalizer_, raw_row, [&](std::span<const double> row) {
    return tree_.predict_explained(row, feature_names_.size());
  });
}

void Classifier::observe_drift(std::span<const double> raw_row,
                               DriftBaseline& serving) const {
  with_normalized(normalizer_, raw_row,
                  [&](std::span<const double> row) { serving.observe(row); });
}

std::string Classifier::describe() const {
  return tree_.to_string(feature_names_);
}

Json Classifier::to_json() const {
  Json j;
  j.set("kind", "drbw-decision-tree");
  JsonArray names;
  for (const auto& n : feature_names_) names.push_back(Json(n));
  j.set("feature_names", Json(std::move(names)));
  j.set("normalizer", normalizer_.to_json());
  j.set("tree", tree_.to_json());
  if (!drift_baseline_.empty()) {
    j.set("drift_baseline", drift_baseline_.to_json());
  }
  return j;
}

Classifier Classifier::from_json(const Json& json, const std::string& path) {
  const Members members(json, path, "model");
  for (const char* key : {"kind", "feature_names", "normalizer", "tree"}) {
    members.require(key);
  }
  std::string kind;
  std::vector<std::string> names;
  members.get("kind", kind);
  members.get("feature_names", names);
  if (kind != "drbw-decision-tree") {
    members.fail("member 'kind' is not \"drbw-decision-tree\"");
  }
  Normalizer normalizer = Normalizer::from_json(json.at("normalizer"), path);
  if (normalizer.num_features() != names.size()) {
    members.fail("member 'normalizer' scales " +
                 std::to_string(normalizer.num_features()) +
                 " features, 'feature_names' has " +
                 std::to_string(names.size()));
  }
  DecisionTree tree =
      DecisionTree::from_json(json.at("tree"), names.size(), path);
  Classifier model(std::move(normalizer), std::move(tree), std::move(names));
  // v2 documents carry no baseline: the model loads fine, drift detection
  // is simply unavailable (doctor advises re-training).
  if (const Json* baseline = json.find("drift_baseline")) {
    model.drift_baseline_ =
        DriftBaseline::from_json(*baseline, model.feature_names_.size(), path);
  }
  return model;
}

namespace {
constexpr const char* kModelKind = "model";
// v3 embeds the drift baseline; v2 still loads (baseline absent).
constexpr int kModelVersion = 3;
}  // namespace

void Classifier::save(const std::string& path) const {
  util::write_versioned_artifact(path, kModelKind, kModelVersion,
                                 to_json().dump() + "\n", "model.write");
}

Classifier Classifier::load(const std::string& path) {
  return load(path, util::LoadPolicy{}, nullptr);
}

Classifier Classifier::load(const std::string& path,
                            const util::LoadPolicy& policy,
                            util::LoadStats* stats) {
  const util::VersionedArtifact artifact =
      util::read_versioned_artifact(path, kModelKind, kModelVersion, policy,
                                    stats);
  Json json;
  try {
    // A model is one JSON document: even a lenient load (which tolerates a
    // bad checksum) must fail hard when the document no longer parses —
    // there is no record granularity to quarantine at.
    json = Json::parse(artifact.body);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what(),
                e.code() == ErrorCode::kGeneric ? ErrorCode::kParse
                                                : e.code());
  }
  try {
    return from_json(json, path);
  } catch (const Error& e) {
    // Member errors already name the path.
    if (e.code() == ErrorCode::kCorruptArtifact) throw;
    throw Error(path + ": " + e.what(),
                e.code() == ErrorCode::kGeneric ? ErrorCode::kCorruptArtifact
                                                : e.code());
  }
}

}  // namespace drbw::ml
