// Tests for the framework extensions: dataset persistence and online
// training.
#include <gtest/gtest.h>

#include <sstream>

#include "core/online.h"
#include "test_helpers.h"
#include "ml/model_io.h"
#include "trace/io.h"

namespace libra {
namespace {

using libra::testing::make_record;

// ---------- dataset IO ----------

TEST(DatasetIo, RoundTripPreservesEverything) {
  trace::Dataset ds;
  ds.records.push_back(make_record(6, 3, 5, trace::Impairment::kBlockage));
  ds.records.back().env_name = "lobby";
  ds.records.back().position_id = "lobby#3";
  ds.records.back().interferer_eirp_dbm = 12.5;
  trace::CaseRecord na = make_record(5, 5, 5);
  na.forced_na = true;
  na.new_at_init_pair.tof_ns = std::nullopt;  // exercise the "inf" case
  ds.na_records.push_back(na);

  std::stringstream stream;
  trace::save_dataset(ds, stream);
  const trace::Dataset back = trace::load_dataset(stream);

  ASSERT_EQ(back.records.size(), 1u);
  ASSERT_EQ(back.na_records.size(), 1u);
  const auto& r = back.records[0];
  EXPECT_EQ(r.impairment, trace::Impairment::kBlockage);
  EXPECT_EQ(r.env_name, "lobby");
  EXPECT_EQ(r.position_id, "lobby#3");
  EXPECT_EQ(r.init_mcs, 6);
  EXPECT_DOUBLE_EQ(r.interferer_eirp_dbm, 12.5);
  EXPECT_EQ(r.init_best.pdp, ds.records[0].init_best.pdp);
  EXPECT_EQ(r.new_best.throughput_mbps, ds.records[0].new_best.throughput_mbps);
  ASSERT_TRUE(r.init_best.tof_ns.has_value());
  EXPECT_DOUBLE_EQ(*r.init_best.tof_ns, 20.0);
  EXPECT_FALSE(back.na_records[0].new_at_init_pair.tof_ns.has_value());
  EXPECT_TRUE(back.na_records[0].forced_na);
  // Failover traces and the angular flag survive the round trip too.
  EXPECT_EQ(r.init_failover.throughput_mbps,
            ds.records[0].init_failover.throughput_mbps);
  EXPECT_EQ(r.new_at_failover.cdr, ds.records[0].new_at_failover.cdr);
  EXPECT_EQ(r.angular_displacement, ds.records[0].angular_displacement);

  // Labels survive the round trip.
  const auto before = ds.labeled({});
  const auto after = back.labeled({});
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(before[0].y, after[0].y);
}

TEST(DatasetIo, RejectsGarbage) {
  std::stringstream stream("not a dataset");
  EXPECT_THROW(trace::load_dataset(stream), std::runtime_error);
}

TEST(DatasetIo, RejectsTruncatedStream) {
  trace::Dataset ds;
  ds.records.push_back(make_record(6, 3, 5));
  std::stringstream stream;
  trace::save_dataset(ds, stream);
  std::string text = stream.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(trace::load_dataset(truncated), std::runtime_error);
}

TEST(DatasetIo, FileRoundTrip) {
  trace::Dataset ds;
  ds.records.push_back(make_record(7, 2, 6));
  const std::string path = ::testing::TempDir() + "/libra_ds_test.txt";
  trace::save_dataset_file(ds, path);
  const trace::Dataset back = trace::load_dataset_file(path);
  EXPECT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0].init_mcs, 7);
}

TEST(DatasetIo, MissingFileThrows) {
  EXPECT_THROW(trace::load_dataset_file("/nonexistent/nope.txt"),
               std::runtime_error);
}

TEST(DatasetIo, FeatureCsvHasHeaderAndRows) {
  trace::Dataset ds;
  ds.records.push_back(make_record(6, 3, 5));
  ds.records.push_back(make_record(6, -1, 4));
  std::stringstream out;
  trace::write_feature_csv(ds, {}, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("snr_diff_db"), std::string::npos);
  // Header + 2 rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

// ---------- model IO ----------

TEST(ModelIo, TreeRoundTripPredictsIdentically) {
  ml::DataSet d(2);
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const int y = rng.bernoulli(0.5) ? 1 : 0;
    d.add(std::vector<double>{y * 3.0 + rng.gaussian(0, 1),
                              rng.gaussian(0, 1)},
          y);
  }
  ml::DecisionTree tree;
  tree.fit(d, rng);
  std::stringstream stream;
  ml::save_tree(tree, stream);
  const ml::DecisionTree back = ml::load_tree(stream);
  EXPECT_EQ(back.nodes().size(), tree.nodes().size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(back.predict(d.row(i)), tree.predict(d.row(i)));
  }
  ASSERT_EQ(back.feature_importances().size(), 2u);
  EXPECT_NEAR(back.feature_importances()[0], tree.feature_importances()[0],
              1e-12);
}

TEST(ModelIo, ForestRoundTripPredictsIdentically) {
  ml::DataSet d(3);
  util::Rng rng(2);
  for (int i = 0; i < 150; ++i) {
    const int y = rng.uniform_int(0, 2);
    d.add(std::vector<double>{y * 2.0 + rng.gaussian(0, 0.5),
                              rng.gaussian(0, 1), rng.gaussian(0, 1)},
          y);
  }
  ml::RandomForestConfig cfg;
  cfg.num_trees = 12;
  ml::RandomForest forest(cfg);
  forest.fit(d, rng);
  std::stringstream stream;
  ml::save_forest(forest, stream);
  const ml::RandomForest back = ml::load_forest(stream);
  EXPECT_EQ(back.trees().size(), 12u);
  EXPECT_EQ(back.num_classes(), 3);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(back.predict(d.row(i)), forest.predict(d.row(i)));
  }
}

// A deployed fleet ships its forest in firmware: the serialized model must
// restore with bit-identical per-class vote fractions (not just argmax
// predictions) on rows it never saw, or confidence gating drifts.
TEST(ModelIo, ThreeClassForestRoundTripVotesBitIdentical) {
  ml::DataSet train(4), held_out(4);
  util::Rng rng(7);
  for (int i = 0; i < 240; ++i) {
    const int y = rng.uniform_int(0, 2);
    const std::vector<double> row{y * 2.0 + rng.gaussian(0, 0.6),
                                  rng.gaussian(0, 1.0),
                                  y - rng.gaussian(0, 0.4),
                                  rng.uniform(-1, 1)};
    (i % 4 == 0 ? held_out : train).add(row, y);
  }
  ml::RandomForestConfig cfg;
  cfg.num_trees = 24;
  ml::RandomForest forest(cfg);
  forest.fit(train, rng);

  std::stringstream stream;
  ml::save_forest(forest, stream);
  const ml::RandomForest back = ml::load_forest(stream);
  ASSERT_EQ(back.num_classes(), 3);
  ASSERT_EQ(back.trees().size(), forest.trees().size());
  for (std::size_t i = 0; i < held_out.size(); ++i) {
    const std::vector<double> a = forest.vote_fractions(held_out.row(i));
    const std::vector<double> b = back.vote_fractions(held_out.row(i));
    ASSERT_EQ(a, b) << "held-out row " << i;  // exact, not approximate
  }
  EXPECT_EQ(back.feature_importances(), forest.feature_importances());
}

TEST(ModelIo, RejectsGarbageAndDanglingIndices) {
  std::stringstream garbage("nope");
  EXPECT_THROW(ml::load_tree(garbage), std::runtime_error);
  // A node referencing a child beyond the node table must be rejected —
  // structural validation lives in import_model (std::invalid_argument).
  std::stringstream dangling("libra-tree-v1 1 2 0\n0 0.5 5 6 0\n\n");
  EXPECT_THROW(ml::load_tree(dangling), std::invalid_argument);
}

TEST(ModelIo, ForestFileRoundTrip) {
  ml::DataSet d(1);
  util::Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    d.add(std::vector<double>{double(i % 2) * 4 + rng.gaussian(0, 0.1)},
          i % 2);
  }
  ml::RandomForest forest;
  forest.fit(d, rng);
  const std::string path = ::testing::TempDir() + "/libra_forest_test.txt";
  ml::save_forest_file(forest, path);
  const ml::RandomForest back = ml::load_forest_file(path);
  EXPECT_EQ(back.predict(std::vector<double>{0.0}), 0);
  EXPECT_EQ(back.predict(std::vector<double>{4.0}), 1);
}

// ---------- online training ----------

trace::CaseRecord drifted_ba_case(int salt) {
  // A BA case whose feature signature differs from the seed distribution:
  // moderate SNR drop but from a *low-SNR regime* the seed set labels RA.
  trace::CaseRecord rec = make_record(7, 5, 5);
  rec.init_best.snr_db = 25.0;
  rec.new_at_init_pair.snr_db = 18.5 - 0.01 * salt;
  rec.new_at_init_pair.tof_ns = 44.0;  // looks like backward motion
  rec.init_best.tof_ns = 20.0;
  // ...but the new pair is actually much better: label = BA.
  rec.new_best = libra::testing::make_trace(7);
  return rec;
}

trace::Dataset ra_biased_seed() {
  trace::Dataset seed;
  for (int i = 0; i < 60; ++i) {
    trace::CaseRecord ra = make_record(8, 5, 5);
    ra.init_best.snr_db = 26.0;
    ra.init_best.tof_ns = 20.0;
    ra.new_at_init_pair.snr_db = 19.5 - 0.02 * (i % 10);
    ra.new_at_init_pair.tof_ns = 45.0;
    seed.records.push_back(ra);
    trace::CaseRecord ba = make_record(4, -1, 4);
    ba.init_best.snr_db = 20.0;
    ba.new_at_init_pair.snr_db = 4.0;
    ba.new_at_init_pair.tof_ns = std::nullopt;
    seed.records.push_back(ba);
  }
  return seed;
}

TEST(OnlineLibra, SeedBehavesLikeOffline) {
  core::OnlineLibra online;
  util::Rng rng(1);
  online.seed(ra_biased_seed(), {}, rng);
  const trace::FeatureVector f =
      trace::extract_features(drifted_ba_case(0));
  // Without deployment data, the drifted case is misread as RA.
  EXPECT_EQ(online.classify(f, rng), trace::Action::kRA);
}

TEST(OnlineLibra, AdaptsToDeploymentDistribution) {
  core::OnlineLibra online;
  util::Rng rng(2);
  online.seed(ra_biased_seed(), {}, rng);
  for (int i = 0; i < 6 * core::kRetrainEvery; ++i) {
    online.observe(drifted_ba_case(i), {}, rng);
  }
  EXPECT_EQ(online.retrains(), 6);
  const trace::FeatureVector f =
      trace::extract_features(drifted_ba_case(999));
  EXPECT_EQ(online.classify(f, rng), trace::Action::kBA);
}

TEST(OnlineLibra, RetrainsEveryKthEvent) {
  core::OnlineLibra online;
  util::Rng rng(3);
  online.seed(ra_biased_seed(), {}, rng);
  for (int i = 0; i + 1 < core::kRetrainEvery; ++i) {
    online.observe(drifted_ba_case(i), {}, rng);
  }
  EXPECT_EQ(online.observed_events(), core::kRetrainEvery - 1);
  EXPECT_EQ(online.retrains(), 0);
  online.observe(drifted_ba_case(0), {}, rng);
  EXPECT_EQ(online.retrains(), 1);
}

}  // namespace
}  // namespace libra
