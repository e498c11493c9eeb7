#include "core/serialization.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/failpoint.h"
#include "util/string_util.h"

namespace autotest::core {

namespace {

using util::DataLossError;
using util::InvalidArgumentError;
using util::IoError;
using util::NotFoundError;
using util::Result;
using util::Status;

constexpr char kHeader[] = "# autotest-sdc v1";
constexpr char kHeaderPrefix[] = "# autotest-sdc ";

// Column names of a rule line, indexed like the split fields (0 = record
// type). Used to name the offending field in diagnostics.
constexpr const char* kFieldNames[13] = {
    "record-type", "eval-id",  "d_in",
    "d_out",       "m",        "conf",
    "fpr",         "covered_triggered", "covered_not_triggered",
    "uncovered_triggered", "uncovered_not_triggered", "cohens_h",
    "chi_squared_p"};

std::string EscapeId(std::string_view id) {
  std::string out;
  for (char c : id) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeId(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 't':
          out.push_back('\t');
          break;
        case 'n':
          out.push_back('\n');
          break;
        default:
          out.push_back(s[i]);
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string FieldError(size_t line, size_t field, const std::string& value,
                       const char* what) {
  return "rule line " + std::to_string(line) + ": field '" +
         kFieldNames[field] + "' " + what + ": '" + value + "'";
}

// Strict double parse: the whole token must be consumed.
bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* endp = nullptr;
  *out = std::strtod(s.c_str(), &endp);
  return endp == s.c_str() + s.size();
}

bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* endp = nullptr;
  *out = std::strtoll(s.c_str(), &endp, 10);
  return endp == s.c_str() + s.size();
}

// Semantic validation of one parsed rule (satellite: never load garbage
// rules). `line` is the 1-based line number for diagnostics.
Status ValidateRule(const Sdc& r, size_t line) {
  auto err = [&](const char* field, const char* what,
                 double value) -> Status {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return InvalidArgumentError("rule line " + std::to_string(line) +
                                ": field '" + field + "' " + what + ": '" +
                                buf + "'");
  };
  struct {
    const char* name;
    double value;
  } finite_fields[] = {
      {"d_in", r.d_in},         {"d_out", r.d_out},
      {"m", r.m},               {"conf", r.confidence},
      {"fpr", r.fpr},           {"cohens_h", r.cohens_h},
      {"chi_squared_p", r.chi_squared_p},
  };
  for (const auto& f : finite_fields) {
    if (!std::isfinite(f.value)) {
      return err(f.name, "is not finite", f.value);
    }
  }
  if (r.d_in > r.d_out) {
    return InvalidArgumentError(
        "rule line " + std::to_string(line) +
        ": inner radius d_in exceeds outer radius d_out (" +
        std::to_string(r.d_in) + " > " + std::to_string(r.d_out) + ")");
  }
  struct {
    const char* name;
    double value;
  } unit_fields[] = {
      {"m", r.m}, {"conf", r.confidence}, {"fpr", r.fpr}};
  for (const auto& f : unit_fields) {
    if (f.value < 0.0 || f.value > 1.0) {
      return err(f.name, "is outside [0,1]", f.value);
    }
  }
  struct {
    const char* name;
    int64_t value;
  } count_fields[] = {
      {"covered_triggered", r.contingency.covered_triggered},
      {"covered_not_triggered", r.contingency.covered_not_triggered},
      {"uncovered_triggered", r.contingency.uncovered_triggered},
      {"uncovered_not_triggered", r.contingency.uncovered_not_triggered},
  };
  for (const auto& f : count_fields) {
    if (f.value < 0) {
      return InvalidArgumentError("rule line " + std::to_string(line) +
                                  ": field '" + f.name + "' is negative: " +
                                  std::to_string(f.value));
    }
  }
  return Status::Ok();
}

}  // namespace

const typedet::DomainEvalFunction* FindEvalById(
    const typedet::EvalFunctionSet& evals, std::string_view id) {
  for (const auto& f : evals.functions()) {
    if (f->id() == id) return f.get();
  }
  return nullptr;
}

std::string SerializeRules(const std::vector<Sdc>& rules) {
  std::string out = kHeader;
  out += "\n";
  char buf[256];
  for (const auto& r : rules) {
    out += "rule\t";
    out += EscapeId(r.eval != nullptr ? r.eval->id() : "<null>");
    std::snprintf(
        buf, sizeof(buf),
        "\t%.17g\t%.17g\t%.17g\t%.17g\t%.17g\t%lld\t%lld\t%lld\t%lld\t%"
        ".17g\t%.17g\n",
        r.d_in, r.d_out, r.m, r.confidence, r.fpr,
        static_cast<long long>(r.contingency.covered_triggered),
        static_cast<long long>(r.contingency.covered_not_triggered),
        static_cast<long long>(r.contingency.uncovered_triggered),
        static_cast<long long>(r.contingency.uncovered_not_triggered),
        r.cohens_h, r.chi_squared_p);
    out += buf;
  }
  return out;
}

Result<std::vector<Sdc>> TryDeserializeRules(
    std::string_view text, const typedet::EvalFunctionSet& evals,
    size_t* unresolved) {
  if (unresolved != nullptr) *unresolved = 0;
  if (auto injected = util::FailpointFiresCode(
          util::kFpRulesParse, util::StatusCode::kDataLoss)) {
    return util::InjectedFault(*injected, util::kFpRulesParse);
  }
  std::vector<Sdc> rules;
  bool saw_header = false;
  size_t pos = 0;
  size_t line_no = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (line[0] == '#') {
      if (line == kHeader) {
        saw_header = true;
      } else if (util::StartsWith(line, kHeaderPrefix)) {
        return InvalidArgumentError(
            "unsupported rule-file version '" +
            std::string(line.substr(sizeof(kHeaderPrefix) - 1)) +
            "' (expected 'v1')");
      }
      continue;
    }
    if (!saw_header) {
      return InvalidArgumentError(
          "missing '# autotest-sdc v1' header before line " +
          std::to_string(line_no));
    }
    auto fields = util::Split(line, '\t');
    if (fields[0] != "rule") {
      return DataLossError("rule line " + std::to_string(line_no) +
                           ": unknown record type '" + fields[0] + "'");
    }
    if (fields.size() != 13) {
      return DataLossError("rule line " + std::to_string(line_no) +
                           ": expected 13 tab-separated fields, got " +
                           std::to_string(fields.size()));
    }
    Sdc r;
    auto field_err = [&](size_t f, const char* what) {
      return DataLossError(FieldError(line_no, f, fields[f], what));
    };
    struct {
      size_t field;
      double* out;
    } doubles[] = {{2, &r.d_in},        {3, &r.d_out},
                   {4, &r.m},           {5, &r.confidence},
                   {6, &r.fpr},         {11, &r.cohens_h},
                   {12, &r.chi_squared_p}};
    for (const auto& d : doubles) {
      if (!ParseDouble(fields[d.field], d.out)) {
        return field_err(d.field, "is not a number");
      }
    }
    struct {
      size_t field;
      int64_t* out;
    } counts[] = {{7, &r.contingency.covered_triggered},
                  {8, &r.contingency.covered_not_triggered},
                  {9, &r.contingency.uncovered_triggered},
                  {10, &r.contingency.uncovered_not_triggered}};
    for (const auto& c : counts) {
      if (!ParseInt64(fields[c.field], c.out)) {
        return field_err(c.field, "is not an integer");
      }
    }
    AT_RETURN_IF_ERROR(ValidateRule(r, line_no));
    const typedet::DomainEvalFunction* eval =
        FindEvalById(evals, UnescapeId(fields[1]));
    if (eval == nullptr) {
      if (unresolved != nullptr) ++*unresolved;
      continue;
    }
    r.eval = eval;
    // Recover the index within the set for completeness.
    for (size_t i = 0; i < evals.size(); ++i) {
      if (&evals.at(i) == eval) {
        r.eval_index = i;
        break;
      }
    }
    rules.push_back(std::move(r));
  }
  if (!saw_header) {
    return InvalidArgumentError(
        "missing '# autotest-sdc v1' header (is this a rules.sdc file?)");
  }
  return rules;
}

util::Status TrySaveRulesToFile(const std::vector<Sdc>& rules,
                                const std::string& path) {
  if (auto injected = util::FailpointFiresCode(util::kFpRulesSave,
                                               util::StatusCode::kIoError)) {
    return util::InjectedFault(*injected, util::kFpRulesSave)
        .WithContext("saving rules to " + path);
  }
  // Write-then-rename so a failure mid-write never truncates an existing
  // rules file; readers see either the old or the new content.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return IoError("cannot open temp file " + tmp + " for writing");
    }
    out << SerializeRules(rules);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return IoError("write failure on temp file " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IoError("cannot rename " + tmp + " over " + path);
  }
  return Status::Ok();
}

Result<std::vector<Sdc>> TryLoadRulesFromFile(
    const std::string& path, const typedet::EvalFunctionSet& evals,
    size_t* unresolved) {
  if (unresolved != nullptr) *unresolved = 0;
  if (auto injected = util::FailpointFiresCode(util::kFpRulesOpen,
                                               util::StatusCode::kIoError)) {
    return util::InjectedFault(*injected, util::kFpRulesOpen)
        .WithContext("loading rules from " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) {
    return IoError("read failure on " + path);
  }
  auto rules = TryDeserializeRules(ss.str(), evals, unresolved);
  if (!rules.ok()) {
    return Status(rules.status()).WithContext("loading rules from " + path);
  }
  return rules;
}

}  // namespace autotest::core
