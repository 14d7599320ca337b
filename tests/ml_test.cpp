// Tests for the ML substrate: dataset/normalizer, CART training and
// prediction, model persistence, explanation/drift observability, confusion
// metrics, and stratified k-fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "drbw/fault/injector.hpp"
#include "drbw/ml/metrics.hpp"
#include "drbw/util/rng.hpp"

namespace drbw::ml {
namespace {

Dataset xor_free_dataset() {
  // Linearly separable on feature 0 with a little slack; feature 1 is noise.
  Dataset d({"signal", "noise"});
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    d.add({rng.uniform(0.0, 0.4), rng.uniform()}, Label::kGood);
    d.add({rng.uniform(0.6, 1.0), rng.uniform()}, Label::kRmc);
  }
  return d;
}

TEST(Dataset, AddAndQuery) {
  Dataset d({"a", "b"});
  d.add({1.0, 2.0}, Label::kGood, "run1");
  d.add({3.0, 4.0}, Label::kRmc);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_EQ(d.count(Label::kGood), 1u);
  EXPECT_EQ(d.count(Label::kRmc), 1u);
  EXPECT_EQ(d.tag(0), "run1");
  EXPECT_DOUBLE_EQ(d.row(1)[0], 3.0);
  EXPECT_THROW(d.add({1.0}, Label::kGood), Error);
}

TEST(Dataset, AnonymousColumnsInferArity) {
  Dataset d;
  d.add({1.0, 2.0, 3.0}, Label::kGood);
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_EQ(d.feature_names()[2], "f2");
}

TEST(Dataset, SubsetPreservesRows) {
  Dataset d({"a"});
  d.add({1.0}, Label::kGood, "r0");
  d.add({2.0}, Label::kRmc, "r1");
  d.add({3.0}, Label::kGood, "r2");
  const Dataset s = d.subset({2, 0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.row(0)[0], 3.0);
  EXPECT_EQ(s.tag(1), "r0");
  EXPECT_THROW(d.subset({9}), Error);
}

TEST(Normalizer, MapsToUnitRange) {
  Dataset d({"a", "b"});
  d.add({0.0, 100.0}, Label::kGood);
  d.add({10.0, 300.0}, Label::kRmc);
  const Normalizer n = Normalizer::fit(d);
  const auto mid = n.apply({5.0, 200.0});
  EXPECT_DOUBLE_EQ(mid[0], 0.5);
  EXPECT_DOUBLE_EQ(mid[1], 0.5);
  // Out-of-range values extrapolate (unseen magnitudes look extreme).
  EXPECT_DOUBLE_EQ(n.apply({20.0, 100.0})[0], 2.0);
}

TEST(Normalizer, ConstantFeatureMapsToZero) {
  Dataset d({"c"});
  d.add({7.0}, Label::kGood);
  d.add({7.0}, Label::kRmc);
  const Normalizer n = Normalizer::fit(d);
  EXPECT_DOUBLE_EQ(n.apply({7.0})[0], 0.0);
  EXPECT_DOUBLE_EQ(n.apply({100.0})[0], 0.0);
}

TEST(Normalizer, JsonRoundTrip) {
  Dataset d({"a"});
  d.add({1.0}, Label::kGood);
  d.add({9.0}, Label::kRmc);
  const Normalizer n = Normalizer::fit(d);
  const Normalizer m = Normalizer::from_json(n.to_json());
  EXPECT_DOUBLE_EQ(m.apply({5.0})[0], n.apply({5.0})[0]);
}

TEST(DecisionTree, LearnsSeparableBoundary) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  EXPECT_EQ(model.predict({0.1, 0.9}), Label::kGood);
  EXPECT_EQ(model.predict({0.9, 0.1}), Label::kRmc);
  const ConfusionMatrix cm = evaluate(model, d);
  EXPECT_DOUBLE_EQ(cm.correctness(), 1.0);
  // Only the signal feature should be used.
  EXPECT_EQ(model.tree().used_features(), std::vector<int>{0});
}

TEST(DecisionTree, TwoFeatureInteraction) {
  // rmc iff f0 high AND f1 high: requires depth 2, like Fig. 3's two-feature
  // tree (remote count high AND remote latency high).
  Dataset d({"remote_count", "remote_lat"});
  for (double a : {0.1, 0.3, 0.7, 0.9}) {
    for (double b : {0.1, 0.3, 0.7, 0.9}) {
      for (int rep = 0; rep < 3; ++rep) {
        d.add({a + rep * 0.01, b + rep * 0.01},
              (a > 0.5 && b > 0.5) ? Label::kRmc : Label::kGood);
      }
    }
  }
  const Classifier model = Classifier::train(d);
  EXPECT_EQ(model.predict({0.8, 0.8}), Label::kRmc);
  EXPECT_EQ(model.predict({0.8, 0.2}), Label::kGood);
  EXPECT_EQ(model.predict({0.2, 0.8}), Label::kGood);
  EXPECT_EQ(evaluate(model, d).correctness(), 1.0);
  EXPECT_EQ(model.tree().used_features().size(), 2u);
}

TEST(DecisionTree, PureDatasetIsSingleLeaf) {
  Dataset d({"a"});
  for (int i = 0; i < 10; ++i) d.add({static_cast<double>(i)}, Label::kGood);
  const DecisionTree tree = DecisionTree::train(d);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_EQ(tree.depth(), 0);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.predict({5.0}), Label::kGood);
}

TEST(DecisionTree, RespectsMaxDepth) {
  Dataset d = xor_free_dataset();
  TreeParams p;
  p.max_depth = 1;
  const DecisionTree tree = DecisionTree::train(d, p);
  EXPECT_LE(tree.depth(), 1);
}

TEST(DecisionTree, MinLeafPreventsSlivers) {
  Dataset d({"a"});
  // One outlier good point inside an rmc cluster.
  for (int i = 0; i < 20; ++i) d.add({1.0 + i * 0.001}, Label::kRmc);
  d.add({1.010}, Label::kGood);
  TreeParams p;
  p.min_samples_leaf = 5;
  const DecisionTree tree = DecisionTree::train(d, p);
  // Cannot isolate the single outlier with min leaf 5.
  EXPECT_EQ(tree.predict({1.0105}), Label::kRmc);
}

TEST(DecisionTree, PrintsFigureThreeStyle) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  const std::string rendered = model.describe();
  EXPECT_NE(rendered.find("signal >"), std::string::npos);
  EXPECT_NE(rendered.find("[good]"), std::string::npos);
  EXPECT_NE(rendered.find("[rmc]"), std::string::npos);
  EXPECT_NE(rendered.find("yes ->"), std::string::npos);
}

TEST(DecisionTree, JsonRoundTripPreservesPredictions) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  const Classifier loaded = Classifier::from_json(model.to_json());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> row{rng.uniform(), rng.uniform()};
    EXPECT_EQ(model.predict(row), loaded.predict(row));
  }
  EXPECT_EQ(loaded.feature_names(), model.feature_names());
}

TEST(DecisionTree, SaveLoadFile) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  const std::string path = ::testing::TempDir() + "/drbw_model.json";
  model.save(path);
  const Classifier loaded = Classifier::load(path);
  EXPECT_EQ(loaded.predict({0.9, 0.5}), Label::kRmc);
  std::remove(path.c_str());
  EXPECT_THROW(Classifier::load("/nonexistent/model.json"), Error);
}

TEST(DecisionTree, EmptyAndInvalidInputs) {
  EXPECT_THROW(DecisionTree::train(Dataset{}), Error);
  Dataset d({"a"});
  d.add({1.0}, Label::kGood);
  TreeParams bad;
  bad.max_depth = 0;
  EXPECT_THROW(DecisionTree::train(d, bad), Error);
  DecisionTree untrained;
  EXPECT_THROW(untrained.predict({1.0}), Error);
}

TEST(Explanation, PathMatchesPredictionAndTree) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  const Explanation e = model.predict_explained(std::vector<double>{0.9, 0.1});
  EXPECT_EQ(e.label, Label::kRmc);
  EXPECT_EQ(e.label, model.predict({0.9, 0.1}));
  ASSERT_FALSE(e.path.empty());
  // Every hop consults the one signal feature of the separable dataset.
  for (const PathStep& step : e.path) EXPECT_EQ(step.feature, 0);
  EXPECT_TRUE(
      model.tree().nodes()[static_cast<std::size_t>(e.leaf)].is_leaf());
}

TEST(Explanation, ConfidenceIsLeafPurityInMajorityRange) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Explanation e = model.predict_explained(
        std::vector<double>{rng.uniform(), rng.uniform()});
    EXPECT_GE(e.confidence, 0.5);
    EXPECT_LE(e.confidence, 1.0);
  }
}

TEST(Explanation, AttributionsSumToLeafMinusRootProbability) {
  // The Saabas identity: P(rmc | leaf) = P(rmc | root) + sum(attributions).
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  const auto& nodes = model.tree().nodes();
  const auto p_rmc = [&](int node) {
    const auto& n = nodes[static_cast<std::size_t>(node)];
    return static_cast<double>(n.rmc_count) / static_cast<double>(n.count);
  };
  const double p_root = p_rmc(0);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const Explanation e = model.predict_explained(
        std::vector<double>{rng.uniform(), rng.uniform()});
    ASSERT_EQ(e.attributions.size(), 2u);
    const double p_leaf = p_rmc(e.leaf);
    const double sum = std::accumulate(e.attributions.begin(),
                                       e.attributions.end(), 0.0);
    EXPECT_NEAR(p_root + sum, p_leaf, 1e-12);
  }
}

TEST(Explanation, PathSignatureIsStable) {
  Dataset pure({"a"});
  for (int i = 0; i < 8; ++i) pure.add({1.0}, Label::kGood);
  const Classifier lone = Classifier::train(pure);
  EXPECT_EQ(lone.predict_explained(std::vector<double>{1.0}).path_signature(), "root");

  const Classifier model = Classifier::train(xor_free_dataset());
  const Explanation e = model.predict_explained(std::vector<double>{0.9, 0.1});
  // "<feature><L|R>" per hop, space-joined — the explain report's group key.
  std::string expect;
  for (const PathStep& step : e.path) {
    if (!expect.empty()) expect += ' ';
    expect += std::to_string(step.feature) + (step.went_right ? "R" : "L");
  }
  EXPECT_EQ(e.path_signature(), expect);
  EXPECT_EQ(e.path_signature(),
            model.predict_explained(std::vector<double>{0.9, 0.5}).path_signature());
}

/// A random `width`-feature dataset with a label that depends on the first
/// two features, so trained trees split several times.
Dataset random_dataset(std::size_t width, std::uint64_t seed) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < width; ++f) names.push_back("f" + std::to_string(f));
  Dataset d(names);
  Rng rng(seed);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row(width);
    for (double& v : row) v = rng.uniform(-50.0, 400.0);
    const bool rmc = (row[0] > 150.0) != (row[1] > 300.0);
    d.add(std::move(row), rmc ? Label::kRmc : Label::kGood);
  }
  return d;
}

TEST(Explanation, SpanPathMatchesNormalizeThenExplainBitForBit) {
  // 13 features normalize on the stack, 40 past the stack buffer.
  for (const std::size_t width : {std::size_t{13}, std::size_t{40}}) {
    const Classifier model = Classifier::train(random_dataset(width, width));
    ASSERT_GT(model.tree().depth(), 1);
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
      std::vector<double> raw(width);
      // Past the training range too: normalized values leave [0, 1].
      for (double& v : raw) v = rng.uniform(-200.0, 600.0);
      const Explanation got = model.predict_explained(raw);
      const Explanation want = model.tree().predict_explained(
          model.normalizer().apply(raw), model.feature_names().size());
      EXPECT_EQ(got.label, want.label);
      EXPECT_EQ(got.leaf, want.leaf);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.confidence),
                std::bit_cast<std::uint64_t>(want.confidence));
      ASSERT_EQ(got.path.size(), want.path.size());
      EXPECT_LE(got.path.size(), static_cast<std::size_t>(model.tree().depth()));
      for (std::size_t k = 0; k < got.path.size(); ++k) {
        EXPECT_EQ(got.path[k].node, want.path[k].node);
        EXPECT_EQ(got.path[k].feature, want.path[k].feature);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.path[k].threshold),
                  std::bit_cast<std::uint64_t>(want.path[k].threshold));
        EXPECT_EQ(got.path[k].went_right, want.path[k].went_right);
      }
      ASSERT_EQ(got.attributions.size(), want.attributions.size());
      for (std::size_t f = 0; f < got.attributions.size(); ++f) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.attributions[f]),
                  std::bit_cast<std::uint64_t>(want.attributions[f]));
      }
    }
    // A row of the wrong arity is refused, as Normalizer::apply refuses it.
    EXPECT_THROW(model.predict_explained(std::vector<double>(width + 1, 0.0)),
                 Error);
  }
}

TEST(DriftBaseline, TrainingEmbedsBaselineAndRoundTrips) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  ASSERT_TRUE(model.has_drift_baseline());
  EXPECT_EQ(model.drift_baseline().total, d.size());
  const Classifier loaded = Classifier::from_json(model.to_json());
  ASSERT_TRUE(loaded.has_drift_baseline());
  EXPECT_EQ(loaded.drift_baseline().counts, model.drift_baseline().counts);
  EXPECT_EQ(loaded.drift_baseline().total, model.drift_baseline().total);
}

TEST(DriftBaseline, DivergenceSeparatesInFromOutOfDistribution) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  DriftBaseline in_dist, shifted;
  in_dist.resize(2);
  shifted.resize(2);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    // In-distribution: the same bimodal signal the training set carries.
    model.observe_drift(std::vector<double>{i % 2 == 0
                                                ? rng.uniform(0.0, 0.4)
                                                : rng.uniform(0.6, 1.0),
                                            rng.uniform()},
                        in_dist);
    // Shifted: all mass inside the training gap.
    model.observe_drift(
        std::vector<double>{rng.uniform(0.45, 0.55), rng.uniform()}, shifted);
  }
  const auto quiet = model.drift_baseline().divergence(in_dist);
  const auto loud = model.drift_baseline().divergence(shifted);
  ASSERT_EQ(quiet.size(), 2u);
  ASSERT_EQ(loud.size(), 2u);
  EXPECT_LT(quiet[0], 1.0);
  EXPECT_GT(loud[0], quiet[0] + 1.0);
  // The noise feature stays uniform in both streams.
  EXPECT_LT(loud[1], 1.0);
}

TEST(DriftBaseline, DivergenceKeepsThePsiFormulasBits) {
  // divergence() skips equal buckets and reuses the term of a serving
  // bucket at the epsilon floor; the scores must stay the textbook PSI
  // over floored proportions, bit for bit.
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    DriftBaseline base, serving;
    base.resize(5);
    serving.resize(5);
    // Narrow streams leave many buckets empty on one side or both.
    const double lo = rng.uniform(0.0, 0.8);
    for (int i = 0; i < 400; ++i) {
      std::vector<double> row(5), shifted(5);
      for (std::size_t f = 0; f < 5; ++f) {
        row[f] = rng.uniform(lo, lo + 0.3);
        shifted[f] = rng.uniform(0.2, 0.6);
      }
      base.observe(row);
      if (i < 37 + trial) serving.observe(shifted);
    }
    const std::vector<double> got = base.divergence(serving);
    const std::vector<double> cached =
        DriftBaseline::divergence(base.proportions(), serving);
    ASSERT_EQ(got.size(), 5u);
    for (std::size_t f = 0; f < 5; ++f) {
      double psi = 0.0;
      for (std::size_t b = 0; b < DriftBaseline::kBuckets; ++b) {
        const double p = std::max(static_cast<double>(base.counts[f][b]) /
                                      static_cast<double>(base.total),
                                  1e-4);
        const double q = std::max(static_cast<double>(serving.counts[f][b]) /
                                      static_cast<double>(serving.total),
                                  1e-4);
        psi += (q - p) * std::log(q / p);
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[f]),
                std::bit_cast<std::uint64_t>(psi))
          << "trial " << trial << " feature " << f;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cached[f]),
                std::bit_cast<std::uint64_t>(psi));
    }
  }
}

TEST(DriftBaseline, MergeIsCommutativeAndMatchesSerial) {
  Rng rng(23);
  DriftBaseline serial, a, b;
  serial.resize(1);
  a.resize(1);
  b.resize(1);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform();
    serial.observe(std::vector<double>{v});
    (i % 2 == 0 ? a : b).observe(std::vector<double>{v});
  }
  DriftBaseline ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.counts, serial.counts);
  EXPECT_EQ(ba.counts, serial.counts);
  EXPECT_EQ(ab.total, serial.total);
}

TEST(DriftBaseline, EdgeBucketsAbsorbOutOfRangeValues) {
  EXPECT_EQ(DriftBaseline::bucket_of(-5.0), 0u);
  EXPECT_EQ(DriftBaseline::bucket_of(0.0), 0u);
  EXPECT_EQ(DriftBaseline::bucket_of(1.0), DriftBaseline::kBuckets - 1);
  EXPECT_EQ(DriftBaseline::bucket_of(42.0), DriftBaseline::kBuckets - 1);
}

TEST(DriftBaseline, InvalidEmbeddedBaselineDisablesDriftNotLoad) {
  const Classifier model = Classifier::train(xor_free_dataset());
  Json doc = model.to_json();
  // Structurally broken baseline: feature arity no longer matches.
  Json bad;
  bad.set("buckets", Json(DriftBaseline::kBuckets));
  bad.set("total", Json(static_cast<std::uint64_t>(7)));
  bad.set("counts", Json(JsonArray{}));
  doc.set("drift_baseline", std::move(bad));
  const Classifier loaded = Classifier::from_json(doc);
  EXPECT_FALSE(loaded.has_drift_baseline());
  EXPECT_EQ(loaded.predict({0.9, 0.1}), model.predict({0.9, 0.1}));
}

/// A model document whose members are missing, wrong-typed or mutually
/// inconsistent fails to load as a corrupt artifact whose message names
/// the member.
TEST(ModelJson, DamagedMembersAreNamed) {
  const Json doc = Classifier::train(xor_free_dataset()).to_json();
  // Replaces member `key` of the object at `path` (empty: the root).
  const auto damaged = [&doc](const std::vector<std::string>& path,
                              const std::string& key, Json value) {
    std::vector<Json> chain{doc};
    for (const std::string& step : path) chain.push_back(chain.back().at(step));
    chain.back().set(key, std::move(value));
    for (std::size_t i = path.size(); i > 0; --i) {
      chain[i - 1].set(path[i - 1], std::move(chain[i]));
    }
    return chain.front();
  };
  JsonArray counts = doc.at("drift_baseline").at("counts").as_array();
  counts[1].as_array()[2] = Json(-3.0);
  JsonArray short_hi = doc.at("normalizer").at("hi").as_array();
  short_hi.pop_back();
  Json missing_tree = doc;
  JsonObject& top = missing_tree.as_object();
  top.erase(std::remove_if(top.begin(), top.end(),
                           [](const auto& m) { return m.first == "tree"; }),
            top.end());
  const std::vector<std::pair<Json, std::string>> cases = {
      {damaged({}, "kind", Json("forest")), "body member 'kind'"},
      {damaged({}, "feature_names", Json(JsonArray{Json(1.0), Json("b")})),
       "body member 'feature_names[0]' is not a string"},
      {damaged({}, "feature_names", Json(JsonArray{Json("a")})),
       "body member 'normalizer' scales 2 features"},
      {damaged({"normalizer"}, "hi", Json(std::move(short_hi))),
       "normalizer member 'hi' has 1 entries"},
      {missing_tree, "body lacks member 'tree'"},
      {damaged({"drift_baseline"}, "counts", Json(std::move(counts))),
       "drift_baseline member 'counts[1][2]'"},
  };
  for (const auto& [bad, expected] : cases) {
    try {
      Classifier::from_json(bad);
      ADD_FAILURE() << "loaded; expected " << expected;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptArtifact) << e.what();
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

TEST(DriftBaseline, CorruptFieldFaultYieldsEmptyBaseline) {
  const Classifier model = Classifier::train(xor_free_dataset());
  const Json doc = model.to_json();
  fault::Injector::global().arm(
      fault::Plan::parse("seed=1,model.drift:corrupt:1"));
  const Classifier faulted = Classifier::from_json(doc);
  fault::Injector::global().disarm();
  // The fired model.drift fault disables drift; the model itself survives.
  EXPECT_FALSE(faulted.has_drift_baseline());
  EXPECT_EQ(faulted.predict({0.9, 0.1}), model.predict({0.9, 0.1}));
  EXPECT_TRUE(Classifier::from_json(doc).has_drift_baseline());
}

TEST(DriftBaseline, V2DocumentLoadsWithDriftUnavailable) {
  const Classifier model = Classifier::train(xor_free_dataset());
  Json doc = model.to_json();
  // A v2-era document simply lacks the key.
  JsonObject& fields = doc.as_object();
  fields.erase(std::remove_if(fields.begin(), fields.end(),
                              [](const auto& field) {
                                return field.first == "drift_baseline";
                              }),
               fields.end());
  const Classifier loaded = Classifier::from_json(doc);
  EXPECT_FALSE(loaded.has_drift_baseline());
  EXPECT_EQ(loaded.predict({0.2, 0.5}), Label::kGood);
}

TEST(ConfusionMatrix, RatesMatchPaperDefinitions) {
  // Table VI's numbers: TP=63, FN=0, FP=19, TN=430.
  ConfusionMatrix cm;
  cm.true_rmc = 63;
  cm.false_good = 0;
  cm.false_rmc = 19;
  cm.true_good = 430;
  EXPECT_NEAR(cm.correctness(), 0.963, 0.0005);
  EXPECT_NEAR(cm.false_positive_rate(), 0.042, 0.0005);
  EXPECT_DOUBLE_EQ(cm.false_negative_rate(), 0.0);
  EXPECT_EQ(cm.total(), 512u);
  const std::string s = cm.to_string();
  EXPECT_NE(s.find("430"), std::string::npos);
  EXPECT_NE(s.find("96.3%"), std::string::npos);
}

TEST(ConfusionMatrix, RecordAndMerge) {
  ConfusionMatrix a, b;
  a.record(Label::kRmc, Label::kRmc);
  a.record(Label::kGood, Label::kRmc);
  b.record(Label::kGood, Label::kGood);
  b.record(Label::kRmc, Label::kGood);
  a.merge(b);
  EXPECT_EQ(a.true_rmc, 1u);
  EXPECT_EQ(a.false_rmc, 1u);
  EXPECT_EQ(a.true_good, 1u);
  EXPECT_EQ(a.false_good, 1u);
  EXPECT_DOUBLE_EQ(a.correctness(), 0.5);
}

TEST(ConfusionMatrix, EmptyIsZeroSafe) {
  const ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.correctness(), 0.0);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 0.0);
  EXPECT_DOUBLE_EQ(cm.false_negative_rate(), 0.0);
}

TEST(CrossValidation, HighAccuracyOnSeparableData) {
  const Dataset d = xor_free_dataset();
  const auto cv = stratified_kfold(d, 10, TreeParams{}, 42);
  EXPECT_EQ(cv.folds, 10);
  EXPECT_EQ(cv.confusion.total(), d.size());
  EXPECT_GT(cv.accuracy, 0.95);
}

TEST(CrossValidation, DeterministicForSeed) {
  const Dataset d = xor_free_dataset();
  const auto a = stratified_kfold(d, 5, TreeParams{}, 7);
  const auto b = stratified_kfold(d, 5, TreeParams{}, 7);
  EXPECT_EQ(a.confusion.true_rmc, b.confusion.true_rmc);
  EXPECT_EQ(a.confusion.false_rmc, b.confusion.false_rmc);
}

TEST(CrossValidation, ValidatesArguments) {
  Dataset d({"a"});
  d.add({1.0}, Label::kGood);
  EXPECT_THROW(stratified_kfold(d, 1, TreeParams{}, 0), Error);
  EXPECT_THROW(stratified_kfold(d, 5, TreeParams{}, 0), Error);
}

}  // namespace
}  // namespace drbw::ml
