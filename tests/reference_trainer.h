#ifndef AUTOTEST_TESTS_REFERENCE_TRAINER_H_
#define AUTOTEST_TESTS_REFERENCE_TRAINER_H_

#include "core/trainer.h"
#include "table/table.h"
#include "typedet/eval_functions.h"

namespace autotest::core {

/// Offline training written directly from the paper's definitions
/// (Sections 5.1-5.3): one scalar distance profile per (evaluation
/// function, corpus column), the candidate grid scored with the public
/// stats:: tests, and distant supervision over BuildSyntheticCorpus. It is
/// the test oracle for TrainAutoTest's columnar pass, which must produce a
/// byte-identical model. Serial, and blind to failpoints.
TrainedModel ReferenceTrainAutoTest(const table::Corpus& corpus,
                                    const typedet::EvalFunctionSet& evals,
                                    const TrainOptions& options);

}  // namespace autotest::core

#endif  // AUTOTEST_TESTS_REFERENCE_TRAINER_H_
