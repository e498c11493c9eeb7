#ifndef AUTOTEST_TESTS_DENSE_TABLEAU_H_
#define AUTOTEST_TESTS_DENSE_TABLEAU_H_

#include "lp/simplex.h"

namespace autotest::lp {

/// Dense two-phase tableau simplex with native variable upper bounds and
/// the same contract as SolveLp. A test oracle only: it must never grow
/// features the sparse solver lacks.
Solution SolveLpDense(const LinearProgram& lp);

}  // namespace autotest::lp

#endif  // AUTOTEST_TESTS_DENSE_TABLEAU_H_
