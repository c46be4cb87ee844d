// Design-choice ablations (DESIGN.md):
//
//   A. Feature ablation: retrain the RF with each PHY metric removed --
//      quantifies how much each metric contributes beyond Gini importance.
//   B. Forest size: accuracy vs number of trees (cost of the deployed model).
//   C. Missing-ACK fallback: LiBRA's distilled rule vs always-BA vs
//      always-RA fallbacks, measured as bytes-gap vs Oracle-Data.
//   D. Utility weight alpha: how the BA/RA ground-truth split moves as the
//      operator shifts weight from throughput to recovery delay.
#include <cstdio>
#include <memory>

#include "common.h"
#include "ml/cross_validation.h"
#include "ml/random_forest.h"
#include "sim/event_sim.h"

using namespace libra;

namespace {

ml::DataSet to_dataset(const std::vector<trace::LabeledEntry>& entries,
                       int drop_feature) {
  const int dim = trace::FeatureVector::kDim - (drop_feature >= 0 ? 1 : 0);
  ml::DataSet d(static_cast<std::size_t>(dim));
  std::vector<double> row;
  for (const auto& e : entries) {
    row.clear();
    for (int f = 0; f < trace::FeatureVector::kDim; ++f) {
      if (f == drop_feature) continue;
      row.push_back(e.x.v[static_cast<std::size_t>(f)]);
    }
    d.add(row, e.y == trace::Action::kBA ? 0 : 1);
  }
  return d;
}

}  // namespace

int main() {
  std::printf("Design ablations\n");
  auto wb = bench::Workbench::collect(/*with_na=*/true);
  trace::GroundTruthConfig gt;
  const auto train_entries = wb.training.labeled(gt);
  const auto test_entries = wb.testing.labeled(gt);
  util::Rng rng(31);
  const ml::ClassifierFactory rf_factory = [] {
    return std::make_unique<ml::RandomForest>();
  };

  // --- A. Feature ablation ---
  bench::heading("A. RF accuracy with one metric removed");
  {
    util::Table t({"removed metric", "CV acc", "x-bldg acc"});
    for (int drop = -1; drop < trace::FeatureVector::kDim; ++drop) {
      const ml::DataSet dtr = to_dataset(train_entries, drop);
      const ml::DataSet dte = to_dataset(test_entries, drop);
      const auto cv = ml::cross_validate(dtr, rf_factory, 5, 5, rng);
      const auto xb = ml::train_test(dtr, dte, rf_factory, rng);
      const std::string name =
          drop < 0 ? "(none)"
                   : std::string(
                         trace::FeatureVector::kNames[(std::size_t)drop]);
      t.add_row({name, util::format_double(100 * cv.accuracy, 1),
                 util::format_double(100 * xb.accuracy, 1)});
    }
    std::printf("%s", t.to_string().c_str());
  }

  // --- B. Forest size ---
  bench::heading("B. RF accuracy vs number of trees");
  {
    util::Table t({"trees", "CV acc", "x-bldg acc"});
    const ml::DataSet dtr = to_dataset(train_entries, -1);
    const ml::DataSet dte = to_dataset(test_entries, -1);
    for (int trees : {1, 5, 15, 30, 60, 120}) {
      const ml::ClassifierFactory f = [trees] {
        ml::RandomForestConfig c;
        c.num_trees = trees;
        return std::make_unique<ml::RandomForest>(c);
      };
      const auto cv = ml::cross_validate(dtr, f, 5, 5, rng);
      const auto xb = ml::train_test(dtr, dte, f, rng);
      t.add_row({std::to_string(trees),
                 util::format_double(100 * cv.accuracy, 1),
                 util::format_double(100 * xb.accuracy, 1)});
    }
    std::printf("%s", t.to_string().c_str());
  }

  // --- C. Missing-ACK fallback variants ---
  bench::heading("C. missing-ACK fallback: median bytes gap vs Oracle-Data");
  {
    util::Table t({"fallback", "BA 0.5ms median gap (MB)",
                   "BA 250ms median gap (MB)"});
    struct Variant {
      const char* name;
      phy::McsIndex mcs_threshold;  // BA below this; above, overhead decides
      double overhead_threshold;
    };
    const Variant variants[] = {
        {"LiBRA rule (MCS<6, few-ms)", 6, 10.0},
        {"always BA", 99, 1e9},
        {"always RA", -1, -1.0},
    };
    for (const Variant& v : variants) {
      std::vector<std::string> row{v.name};
      for (double ba : {0.5, 250.0}) {
        trace::GroundTruthConfig cfg;
        cfg.alpha = mac::alpha_for_ba_overhead(ba);
        cfg.ba_overhead_ms = ba;
        core::LibraClassifierConfig ccfg;
        ccfg.no_ack_mcs_threshold = v.mcs_threshold;
        ccfg.no_ack_ba_overhead_threshold_ms = v.overhead_threshold;
        core::LibraClassifier clf(ccfg);
        clf.train(wb.training, cfg, rng);
        const sim::EventSimulator simulator(cfg, &clf);
        const sim::EventParams p;
        std::vector<double> gaps;
        for (const auto& rec : wb.testing.records) {
          const auto oracle =
              simulator.run(rec, core::Strategy::kOracleData, p, rng);
          const auto r = simulator.run(rec, core::Strategy::kLibra, p, rng);
          gaps.push_back(oracle.bytes_mb - r.bytes_mb);
        }
        row.push_back(util::format_double(util::median(gaps), 2));
      }
      t.add_row(std::move(row));
    }
    std::printf("%s", t.to_string().c_str());
  }

  // --- E. Confidence gate on the classifier's adaptation verdicts ---
  bench::heading("E. confidence gate: mean bytes gap vs Oracle-Data (MB)");
  {
    util::Table t({"min confidence", "BA 0.5ms mean gap", "BA 250ms mean gap"});
    for (double conf : {0.0, 0.5, 0.7, 0.9}) {
      std::vector<std::string> row{util::format_double(conf, 1)};
      for (double ba : {0.5, 250.0}) {
        trace::GroundTruthConfig cfg;
        cfg.alpha = mac::alpha_for_ba_overhead(ba);
        cfg.ba_overhead_ms = ba;
        core::LibraClassifierConfig ccfg;
        ccfg.min_confidence = conf;
        core::LibraClassifier clf(ccfg);
        clf.train(wb.training, cfg, rng);
        const sim::EventSimulator simulator(cfg, &clf);
        const sim::EventParams p;
        double gap_sum = 0.0;
        int n = 0;
        for (const auto& rec : wb.testing.records) {
          const auto oracle =
              simulator.run(rec, core::Strategy::kOracleData, p, rng);
          const auto r = simulator.run(rec, core::Strategy::kLibra, p, rng);
          gap_sum += oracle.bytes_mb - r.bytes_mb;
          ++n;
        }
        row.push_back(util::format_double(gap_sum / n, 2));
      }
      t.add_row(std::move(row));
    }
    std::printf("%s", t.to_string().c_str());
    std::printf(
        "note: a moderate gate trims misprediction cost when sweeps are\n"
        "expensive; an extreme gate degenerates toward never adapting.\n");
  }

  // --- D. Utility weight alpha ---
  bench::heading("D. ground-truth BA fraction vs alpha (Eqn. 1)");
  {
    util::Table t({"alpha", "BA cases", "RA cases", "BA fraction"});
    for (double alpha : {0.0, 0.3, 0.5, 0.7, 1.0}) {
      trace::GroundTruthConfig cfg;
      cfg.alpha = alpha;
      const auto summary = trace::summarize(wb.training, cfg);
      t.add_row({util::format_double(alpha, 1),
                 std::to_string(summary.overall.ba),
                 std::to_string(summary.overall.ra),
                 util::format_double(
                     double(summary.overall.ba) / summary.overall.total, 2)});
    }
    std::printf("%s", t.to_string().c_str());
    std::printf(
        "note: lower alpha weights recovery delay more, shifting the ground\n"
        "truth toward the cheaper mechanism for the configured overheads.\n");
  }
  return 0;
}
