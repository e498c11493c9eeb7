// Build-time generator of the CTA zoo weight table that at_typedet
// compiles in (typedet/shipped_zoos.h):
//
//   cta_zoo_gen <out.cc>
//
// Trains sherlock-sim and doduo-sim from SherlockSimConfig() and
// DoduoSimConfig() and writes a data-only C++ file holding each zoo's
// name, type names, feature dim, and every packed weight, bias and
// trained flag. Doubles are written as hexfloats, so the compiled table
// is bit-identical to the trained zoo. Training is deterministic in the
// configs, so the file is a pure function of the sources the generator
// links.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "typedet/cta_zoo.h"
#include "util/check.h"

namespace {

using autotest::typedet::CtaModelZoo;
using autotest::typedet::CtaZooConfig;

void WriteDoubles(std::FILE* out, const std::string& array,
                  const std::vector<double>& values) {
  std::fprintf(out, "constexpr double %s[] = {", array.c_str());
  for (size_t i = 0; i < values.size(); ++i) {
    AT_CHECK_MSG(std::isfinite(values[i]), array.c_str());
    std::fprintf(out, "%s%a,", i % 4 == 0 ? "\n    " : " ", values[i]);
  }
  std::fprintf(out, "\n};\n");
}

// Trains one zoo and writes its arrays plus the ShippedZooTable `table`
// that points at them.
void WriteZoo(std::FILE* out, const std::string& prefix,
              const std::string& table, const CtaZooConfig& config) {
  const std::unique_ptr<CtaModelZoo> zoo = CtaModelZoo::Train(config);
  std::fprintf(out, "\nconstexpr const char* %sTypes[] = {\n", prefix.c_str());
  for (const std::string& type : zoo->type_names()) {
    for (char c : type) {
      AT_CHECK_MSG(c >= 0x20 && c < 0x7f && c != '"' && c != '\\',
                   type.c_str());
    }
    std::fprintf(out, "    \"%s\",\n", type.c_str());
  }
  std::fprintf(out, "};\n");
  WriteDoubles(out, prefix + "Wt", zoo->weights().wt);
  WriteDoubles(out, prefix + "Biases", zoo->weights().biases);
  std::fprintf(out, "constexpr uint8_t %sTrained[] = {", prefix.c_str());
  const std::vector<uint8_t>& trained = zoo->weights().trained;
  for (size_t t = 0; t < trained.size(); ++t) {
    std::fprintf(out, "%s%d,", t % 16 == 0 ? "\n    " : " ", trained[t]);
  }
  std::fprintf(out, "\n};\n");
  std::fprintf(out,
               "constinit const ShippedZooTable %s = {\n"
               "    \"%s\", %sTypes, %zu, %sWt, %sBiases, %sTrained};\n",
               table.c_str(), zoo->name().c_str(), prefix.c_str(),
               zoo->feature_dim(), prefix.c_str(), prefix.c_str(),
               prefix.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out.cc>\n", argv[0]);
    return 2;
  }
  // Written next to the target and renamed into place, so an interrupted
  // run never leaves a truncated table for the build to compile.
  const std::string path = argv[1];
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  AT_CHECK_MSG(out != nullptr, tmp.c_str());
  std::fprintf(out,
               "// Generated by cta_zoo_gen (src/typedet/cta_zoo_gen.cc): "
               "the built-in CTA\n"
               "// zoos trained from SherlockSimConfig() and "
               "DoduoSimConfig(). Do not edit.\n"
               "#include \"typedet/shipped_zoos.h\"\n\n"
               "namespace autotest::typedet {\n");
  WriteZoo(out, "kSherlockSim", "kShippedSherlockSim",
           autotest::typedet::SherlockSimConfig());
  WriteZoo(out, "kDoduoSim", "kShippedDoduoSim",
           autotest::typedet::DoduoSimConfig());
  std::fprintf(out, "\n}  // namespace autotest::typedet\n");
  AT_CHECK(std::ferror(out) == 0);
  AT_CHECK(std::fclose(out) == 0);
  AT_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0);
  return 0;
}
