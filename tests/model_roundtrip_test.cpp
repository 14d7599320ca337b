// Round-trip schema validation for the committed model artifact.
//
// drbw_model.json is the deployable classifier checked into the repo.  Model-
// format drift — a renamed key, a reordered field, a change in number
// formatting — must be caught statically, not at inference time in some
// downstream run.  The pin: loading the committed model and re-serializing it
// through the current code reproduces the file byte for byte.  (Key order is
// stable because drbw::Json objects are vectors of pairs, and number
// formatting is locale-independent %.17g — both deliberate.)  A second pin:
// the default training run (`drbw train`, seed 2017) reproduces the file, so
// a change that moves any training feature bit fails here too.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "drbw/ml/decision_tree.hpp"
#include "drbw/topology/machine.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/workloads/training.hpp"

namespace drbw::ml {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const std::string kModelPath = std::string(DRBW_SOURCE_ROOT) + "/drbw_model.json";

/// The bytes Classifier::save writes: the versioned artifact header, the
/// JSON dump, and a trailing newline.
std::string serialize(const Classifier& model) {
  const std::string body = model.to_json().dump() + "\n";
  return util::format_artifact_header("model", 3, body) + "\n" + body;
}

TEST(ModelRoundTripTest, CommittedModelReserializesByteIdentical) {
  const std::string committed = read_file(kModelPath);
  ASSERT_FALSE(committed.empty());
  EXPECT_EQ(serialize(Classifier::load(kModelPath)), committed)
      << "model serialization drifted from the committed artifact — if the "
         "format change is intentional, retrain/save and recommit "
         "drbw_model.json";
}

TEST(ModelRoundTripTest, DefaultTrainingReproducesCommittedModel) {
  const Classifier model = workloads::train_default_classifier(
      topology::Machine::xeon_e5_4650(), 2017, 1);
  EXPECT_EQ(serialize(model), read_file(kModelPath))
      << "default training no longer reproduces drbw_model.json — if the "
         "change is intentional, run `drbw train` and recommit it";
}

TEST(ModelRoundTripTest, CommittedModelChecksumValidates) {
  // The committed artifact's own header must validate: a bad checksum here
  // means drbw_model.json was hand-edited without re-saving.
  util::LoadStats stats;
  (void)util::read_versioned_artifact(kModelPath, "model", 3,
                                      util::LoadPolicy{}, &stats);
  EXPECT_TRUE(stats.checksum_ok);
}

TEST(ModelRoundTripTest, ParseDumpFixpoint) {
  // Once normalized by one parse+dump, the text is a fixpoint: a second
  // round trip changes nothing.  Guards the serializer against asymmetries
  // the committed-file pin would miss (e.g. if the artifact were stale).
  const std::string body =
      util::read_versioned_artifact(kModelPath, "model", 3, util::LoadPolicy{})
          .body;
  const std::string once = Json::parse(body).dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(ModelRoundTripTest, SaveLoadPreservesPredictions) {
  const Classifier model = Classifier::load(kModelPath);
  const std::string copy = ::testing::TempDir() + "/model_roundtrip.json";
  model.save(copy);
  EXPECT_EQ(read_file(copy), read_file(kModelPath));
  std::remove(copy.c_str());
}

}  // namespace
}  // namespace drbw::ml
