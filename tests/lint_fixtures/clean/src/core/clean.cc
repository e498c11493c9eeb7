// Clean fixture: every rule has a near-miss here that must NOT fire.
namespace fixture {

struct Clock {
  static int now();
};

// R2 near-miss: a wall-clock read with the sanctioned suppression.
int PhaseTimer() {
  return Clock::now();  // at_lint: disable(R2) wall-clock phase timing
}

// R2 near-miss: "rand(" inside a comment and a string must not match.
// A call like rand() here is commentary, not code.
const char* kDoc = "rand() and srand() are banned in deterministic code";

}  // namespace fixture
