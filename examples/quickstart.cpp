// Quickstart: train Auto-Test on a synthetic table corpus, then detect the
// errors in the paper's Figure-2 example table.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/auto_test.h"
#include "datagen/corpus_gen.h"
#include "table/table.h"

using autotest::core::AutoTest;
using autotest::core::AutoTestConfig;
using autotest::core::Variant;

namespace {

autotest::table::Column MakeColumn(const char* name,
                                   std::initializer_list<const char*> vals) {
  autotest::table::Column c;
  c.name = name;
  for (const char* v : vals) c.values.emplace_back(v);
  return c;
}

}  // namespace

int main() {
  // 1. A training corpus of table columns. Auto-Test learns semantic-domain
  //    constraints from it fully unsupervised: no labels, no per-table rules.
  std::printf("Generating training corpus...\n");
  auto corpus = autotest::datagen::GenerateCorpus(
      autotest::datagen::RelationalTablesProfile(1500, 11));

  // 2. Offline training: candidate generation + statistical tests +
  //    LP-based selection (this is the expensive, run-once part).
  std::printf("Training Auto-Test (this loads the pre-trained CTA zoos, "
              "mines patterns, runs statistical tests)...\n");
  AutoTestConfig config;
  config.train_options.synthetic_count = 600;
  AutoTest at = AutoTest::Train(corpus, config);
  std::printf("Learned %zu semantic-domain constraints (from %zu candidates)\n",
              at.model().constraints.size(),
              at.model().candidates_enumerated);

  // 3. Online prediction. The demo uses the full calibrated rule set;
  //    production deployments use the compact Fine-Select distillate
  //    (see MakePredictor(Variant::kFineSelect) and the bench binaries).
  auto predictor = at.MakePredictor(Variant::kAllConstraints);
  auto fine = at.MakePredictor(Variant::kFineSelect);
  std::printf("Using all %zu rules (Fine-Select would keep %zu)\n\n",
              predictor.num_rules(), fine.num_rules());

  // The paper's Figure-2 columns, each with one real error.
  std::vector<autotest::table::Column> columns = {
      MakeColumn("C1 (country)",
                 {"germany", "austria", "france", "liechstein", "italy",
                  "switzerland", "poland", "spain", "portugal", "greece",
                  "sweden", "norway", "denmark", "finland", "ireland",
                  "belgium", "netherlands", "hungary", "romania",
                  "bulgaria"}),
      MakeColumn("C2 (state code)",
                 {"fl", "az", "ca", "ok", "germany", "al", "ga", "tx", "ny",
                  "wa", "or", "il", "mi", "oh", "pa", "nc", "va", "tn",
                  "mo", "md"}),
      MakeColumn("C3 (month)",
                 {"january", "febuary", "march", "april", "may", "june",
                  "july", "august", "september", "october", "november",
                  "december", "january", "march", "may", "july"}),
      MakeColumn("C5 (fiscal year)",
                 {"fy17", "fy18", "fy19", "fy20", "fy definition", "fy21",
                  "fy22", "fy16", "fy15", "fy14", "fy13", "fy12", "fy11",
                  "fy23", "fy24", "fy25"}),
      MakeColumn("C7 (date)",
                 {"12/3/2020", "11/5/2020", "2/5/2021", "10/23/2020",
                  "10/7/2020", "new facility", "3/26/2021", "4/2/2021",
                  "5/13/2020", "6/21/2020", "7/4/2020", "8/15/2020",
                  "9/9/2020", "1/1/2021", "2/14/2021", "3/17/2021"}),
  };

  for (const auto& column : columns) {
    std::printf("Column %s:\n", column.name.c_str());
    auto detections = predictor.Predict(column);
    if (detections.empty()) {
      std::printf("  (no errors detected)\n");
    }
    for (const auto& d : detections) {
      std::printf("  row %2zu: \"%s\" flagged with confidence %.2f\n",
                  d.row, d.value.c_str(), d.confidence);
      std::printf("          rule: %s\n", d.explanation.c_str());
    }
  }
  return 0;
}
