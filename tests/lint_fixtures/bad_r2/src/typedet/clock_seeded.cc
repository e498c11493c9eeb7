// R2 fixture: a classifier seeded from the wall clock inside src/typedet,
// whose trained weights must be a pure function of their config.
#include <chrono>
#include <cstdint>

namespace fixture {

uint64_t TrainingSeed() {
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());  // line 10
}

}  // namespace fixture
