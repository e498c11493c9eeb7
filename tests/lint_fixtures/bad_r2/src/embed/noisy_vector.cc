// R2 fixture: an embedding perturbed by an unseeded device draw inside
// src/embed, whose vectors must be a pure function of value and seed.
#include <random>

namespace fixture {

float Jitter() {
  std::random_device device;  // line 8: the violation
  return static_cast<float>(device() % 7) / 1000.0f;
}

}  // namespace fixture
