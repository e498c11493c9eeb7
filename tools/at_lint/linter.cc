#include "at_lint/linter.h"

#include <algorithm>
#include <deque>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "at_lint/decl_model.h"

namespace autotest::lint {

namespace fs = std::filesystem;

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string_view TrimView(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// True if `token` occurs in `line` starting at a non-identifier boundary
/// (the char before, if any, is not part of an identifier).
bool ContainsToken(std::string_view line, std::string_view token) {
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string_view::npos) {
    if (pos == 0 || !IsIdentChar(line[pos - 1])) return true;
    pos += 1;
  }
  return false;
}

/// `<component>.<operation>`, lower-case — the failpoint naming scheme.
bool IsFailpointShaped(std::string_view s) {
  size_t dot = s.find('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 == s.size()) {
    return false;
  }
  if (s.find('.', dot + 1) != std::string_view::npos) return false;
  auto lower_ident = [](std::string_view part) {
    if (!std::islower(static_cast<unsigned char>(part.front()))) return false;
    for (char c : part) {
      if (!std::islower(static_cast<unsigned char>(c)) &&
          !std::isdigit(static_cast<unsigned char>(c)) && c != '_') {
        return false;
      }
    }
    return true;
  };
  return lower_ident(s.substr(0, dot)) && lower_ident(s.substr(dot + 1));
}

/// Normalizes path separators so scope checks work on any input spelling.
std::string NormalizedPath(const std::string& path) {
  std::string out = path;
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// ---------------------------------------------------------------------------
// Preprocessing: comment stripping, literal extraction, suppressions.
// ---------------------------------------------------------------------------

/// Builds the code view (comments removed, literal bodies blanked) and the
/// per-line literal list from raw text. Line structure is preserved.
void StripAndCollect(const std::vector<std::string>& raw,
                     std::vector<std::string>* code,
                     std::vector<std::vector<std::string>>* literals) {
  enum class State { kNormal, kLineComment, kBlockComment, kString, kChar };
  State state = State::kNormal;
  std::string current_literal;

  code->assign(raw.size(), std::string());
  literals->assign(raw.size(), {});
  for (size_t li = 0; li < raw.size(); ++li) {
    const std::string& in = raw[li];
    std::string& out = (*code)[li];
    out.reserve(in.size());
    if (state == State::kLineComment) state = State::kNormal;
    for (size_t i = 0; i < in.size(); ++i) {
      char c = in[i];
      char next = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (state) {
        case State::kNormal:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            i = in.size();  // rest of the line is comment
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            out += "  ";
            ++i;
          } else if (c == '"') {
            state = State::kString;
            current_literal.clear();
            out += '"';
          } else if (c == '\'') {
            state = State::kChar;
            out += '\'';
          } else {
            out += c;
          }
          break;
        case State::kLineComment:
          i = in.size();
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kNormal;
            out += "  ";
            ++i;
          } else {
            out += ' ';
          }
          break;
        case State::kString:
          if (c == '\\' && i + 1 < in.size()) {
            current_literal += c;
            current_literal += next;
            out += "  ";
            ++i;
          } else if (c == '"') {
            state = State::kNormal;
            (*literals)[li].push_back(current_literal);
            out += '"';
          } else {
            current_literal += c;
            out += ' ';
          }
          break;
        case State::kChar:
          if (c == '\\' && i + 1 < in.size()) {
            out += "  ";
            ++i;
          } else if (c == '\'') {
            state = State::kNormal;
            out += '\'';
          } else {
            out += ' ';
          }
          break;
      }
    }
    // An unterminated string at end-of-line: adjacent-line literals are not
    // a thing in this codebase; close it to stay line-oriented.
    if (state == State::kString) {
      (*literals)[li].push_back(current_literal);
      state = State::kNormal;
    }
    if (state == State::kChar) state = State::kNormal;
  }
}

/// Per-file suppression state parsed from `at_lint:` comments. Each tag
/// remembers whether it ever covered a would-be violation, so the
/// --audit-suppressions pass can report the stale ones.
struct Suppressions {
  struct Tag {
    size_t line = 0;        // 1-based line of the tag comment
    std::string rule;
    bool whole_file = false;
    /// Set by Covers when the tag excuses a would-be violation. Mutable
    /// because coverage is observed through the const rule interface.
    mutable bool used = false;
  };
  std::vector<Tag> tags;

  /// True when a tag suppresses the given (line, rule); a line-level tag
  /// covers its own line and the one after it, so the comment can sit
  /// above the offending statement. Marks every covering tag as used.
  bool Covers(size_t line, const std::string& rule) const {
    bool hit = false;
    for (const Tag& t : tags) {
      if (t.rule != rule) continue;
      if (t.whole_file || t.line == line || t.line + 1 == line) {
        t.used = true;
        hit = true;
      }
    }
    return hit;
  }
};

/// `R` + digits — rejects the `disable(...)` placeholder spelling that
/// prose documentation uses.
bool IsRuleName(std::string_view rule) {
  if (rule.size() < 2 || rule[0] != 'R') return false;
  for (char c : rule.substr(1)) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

void ParseRuleList(std::string_view text, size_t line, bool whole_file,
                   Suppressions* out) {
  size_t close = text.find(')');
  if (close == std::string_view::npos) return;
  std::string_view inside = text.substr(0, close);
  size_t start = 0;
  while (start <= inside.size()) {
    size_t comma = inside.find(',', start);
    size_t end = comma == std::string_view::npos ? inside.size() : comma;
    std::string rule(TrimView(inside.substr(start, end - start)));
    if (IsRuleName(rule)) out->tags.push_back({line, rule, whole_file});
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
}

Suppressions ParseSuppressions(const SourceFile& file) {
  constexpr std::string_view kLineTag = "at_lint: disable(";
  constexpr std::string_view kFileTag = "at_lint: disable-file(";
  Suppressions out;
  // A real suppression directly follows its `//` comment opener. That
  // anchors out the documentation spellings: tag text inside string
  // literals (the linter's own constants, usage text in main.cc) and
  // `//   // at_lint: ...` example lines in header comments. The comment
  // opener's column is exactly the stripped code view's length — the
  // stripper drops a line comment from that point on.
  auto at_comment_start = [](const std::string& raw_line,
                             const std::string& code_line, size_t pos) {
    size_t c = code_line.size();
    if (pos < c + 2 || raw_line.compare(c, 2, "//") != 0) return false;
    for (size_t i = c + 2; i < pos; ++i) {
      if (raw_line[i] != ' ' && raw_line[i] != '\t') return false;
    }
    return true;
  };
  for (size_t li = 0; li < file.raw.size(); ++li) {
    const std::string& line = file.raw[li];
    bool in_literal = false;
    for (const std::string& lit : file.literals[li]) {
      if (lit.find("at_lint:") != std::string::npos) in_literal = true;
    }
    if (in_literal) continue;
    size_t pos = line.find(kFileTag);
    if (pos != std::string::npos &&
        at_comment_start(line, file.code[li], pos)) {
      ParseRuleList(std::string_view(line).substr(pos + kFileTag.size()),
                    li + 1, /*whole_file=*/true, &out);
      continue;
    }
    pos = line.find(kLineTag);
    if (pos != std::string::npos &&
        at_comment_start(line, file.code[li], pos)) {
      ParseRuleList(std::string_view(line).substr(pos + kLineTag.size()),
                    li + 1, /*whole_file=*/false, &out);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule R2 — raw nondeterminism in deterministic subsystems.
// ---------------------------------------------------------------------------

constexpr std::string_view kR2Scopes[] = {
    "src/core/",          "src/stats/",        "src/lp/",
    "src/typedet/",       "src/ml/",           "src/embed/",
    "src/pattern/",       "src/datagen/",      "src/util/parallel/",
    "src/util/retry",     "src/util/metrics",  "src/util/row_cache",
    "src/table/shard_loader"};

bool InR2Scope(const std::string& normalized_path) {
  for (std::string_view scope : kR2Scopes) {
    if (normalized_path.find(scope) != std::string::npos) return true;
  }
  return false;
}

void CheckR2(const SourceFile& file, const Suppressions& supp,
             std::vector<Violation>* out) {
  if (!InR2Scope(NormalizedPath(file.path))) return;
  struct Pattern {
    std::string_view token;
    bool ident_boundary;  // require non-identifier char before the match
    std::string_view what;
  };
  static constexpr Pattern kPatterns[] = {
      {"rand(", true, "rand()"},
      {"srand(", true, "srand()"},
      {"random_device", true, "std::random_device"},
      {"std::time(", false, "std::time()"},
      {"gettimeofday", true, "gettimeofday()"},
      {"::now(", false, "a wall-clock read (Clock::now)"},
  };
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (const Pattern& p : kPatterns) {
      bool hit = p.ident_boundary ? ContainsToken(line, p.token)
                                  : line.find(p.token) != std::string::npos;
      if (!hit || supp.Covers(li + 1, "R2")) continue;
      out->push_back(
          {file.path, li + 1, "R2",
           std::string("raw nondeterminism: ") + std::string(p.what) +
               " inside a deterministic subsystem (DESIGN.md §4a); seed "
               "an explicit util::Rng or suppress with a reason if this "
               "is pure wall-clock telemetry"});
      break;  // one report per line is enough
    }
  }
}

// ---------------------------------------------------------------------------
// Rule R3 — failpoint names vs. the registry.
// ---------------------------------------------------------------------------

struct FailpointRegistration {
  std::string const_name;  // e.g. kFpCsvOpen
  std::string name;        // e.g. csv.open
  const SourceFile* file = nullptr;
  size_t line = 0;
};

bool IsRegistryFile(const SourceFile& file) {
  for (const std::string& line : file.code) {
    if (line.find("kAllFailpoints") != std::string::npos) return true;
  }
  return false;
}

/// Parses `... kFpFoo = "component.operation";` registration lines.
std::vector<FailpointRegistration> ParseRegistry(const SourceFile& file) {
  std::vector<FailpointRegistration> regs;
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    size_t pos = line.find("kFp");
    if (pos == std::string::npos) continue;
    if (line.find('=', pos) == std::string::npos) continue;
    size_t end = pos;
    while (end < line.size() && IsIdentChar(line[end])) ++end;
    if (end == pos + 3) continue;  // bare "kFp"
    if (file.literals[li].size() != 1) continue;
    const std::string& name = file.literals[li][0];
    if (!IsFailpointShaped(name)) continue;
    regs.push_back({line.substr(pos, end - pos), name, &file, li + 1});
  }
  return regs;
}

constexpr std::string_view kFailpointCalls[] = {"FailpointFires(",
                                                "FailpointFiresCode(",
                                                "FailpointFiresKeyed(",
                                                "ShouldFail(",
                                                "ShouldFailWithCode(",
                                                "ShouldFailKeyed(",
                                                "InjectedFault("};

void CheckR3(const std::vector<SourceFile>& files,
             const std::vector<const SourceFile*>& registry_files,
             const std::vector<Suppressions>& supps,
             std::vector<Violation>* out) {
  if (registry_files.empty()) return;  // nothing to check against
  std::vector<FailpointRegistration> regs;
  for (const SourceFile* reg_file : registry_files) {
    auto parsed = ParseRegistry(*reg_file);
    regs.insert(regs.end(), parsed.begin(), parsed.end());
  }
  std::set<std::string> registered;
  for (const auto& r : regs) registered.insert(r.name);

  auto is_registry = [&](const SourceFile& f) {
    for (const SourceFile* reg_file : registry_files) {
      if (reg_file == &f) return true;
    }
    // The registry's own .cc (grammar diagnostics, kAllFailpoints walker)
    // does not count as a use site either.
    return Basename(NormalizedPath(f.path)) == "failpoint.cc";
  };

  std::map<std::string, size_t> uses;  // registered name -> use count
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& file = files[fi];
    if (is_registry(file)) continue;
    const Suppressions& supp = supps[fi];
    for (size_t li = 0; li < file.code.size(); ++li) {
      const std::string& line = file.code[li];
      // Uses via the kFp constants.
      for (const auto& r : regs) {
        if (ContainsToken(line, r.const_name)) ++uses[r.name];
      }
      // Literal names at injection-site calls.
      bool at_call_site = false;
      for (std::string_view call : kFailpointCalls) {
        if (line.find(call) != std::string::npos) at_call_site = true;
      }
      for (const std::string& lit : file.literals[li]) {
        if (IsFailpointShaped(lit)) {
          if (registered.count(lit)) {
            ++uses[lit];
          } else if (at_call_site && !supp.Covers(li + 1, "R3")) {
            out->push_back({file.path, li + 1, "R3",
                            "failpoint '" + lit +
                                "' is not registered in kAllFailpoints "
                                "(src/util/failpoint.h)"});
          }
          continue;
        }
        // Arming specs: "name=on,other.name:p=0.5,seed=7".
        if (lit.find("=on") == std::string::npos &&
            lit.find("=off") == std::string::npos &&
            lit.find(":p=") == std::string::npos) {
          continue;
        }
        std::string_view rest = lit;
        while (!rest.empty()) {
          size_t comma = rest.find(',');
          std::string_view entry = TrimView(rest.substr(0, comma));
          rest = comma == std::string_view::npos
                     ? std::string_view()
                     : rest.substr(comma + 1);
          size_t cut = entry.find_first_of(":=");
          if (cut == std::string_view::npos) continue;
          std::string name(TrimView(entry.substr(0, cut)));
          if (!IsFailpointShaped(name)) continue;  // all / seed / prose
          if (registered.count(name)) {
            ++uses[name];
          } else if (!supp.Covers(li + 1, "R3")) {
            out->push_back({file.path, li + 1, "R3",
                            "failpoint '" + name +
                                "' in arming spec is not registered in "
                                "kAllFailpoints (src/util/failpoint.h)"});
          }
        }
      }
    }
  }

  for (const auto& r : regs) {
    if (uses[r.name] == 0) {
      out->push_back({r.file->path, r.line, "R3",
                      "failpoint '" + r.name + "' (" + r.const_name +
                          ") is registered but no code site uses it — "
                          "dead registration"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule R4 — AT_CHECK on untrusted-input paths.
// ---------------------------------------------------------------------------

/// Files whose whole job is parsing untrusted bytes; DESIGN.md §4c moved
/// them to Status, so a new AT_CHECK there would abort on bad *input*.
constexpr std::string_view kR4Basenames[] = {
    "csv.cc", "csv.h", "serialization.cc", "serialization.h",
    "autotest_cli.cpp"};

bool InR4Scope(const std::string& normalized_path) {
  std::string base = Basename(normalized_path);
  for (std::string_view b : kR4Basenames) {
    if (base == b) return true;
  }
  return normalized_path.find("recipe") != std::string::npos;
}

void CheckR4(const SourceFile& file, const Suppressions& supp,
             std::vector<Violation>* out) {
  if (!InR4Scope(NormalizedPath(file.path))) return;
  for (size_t li = 0; li < file.code.size(); ++li) {
    std::string_view trimmed = TrimView(file.code[li]);
    if (!trimmed.empty() && trimmed[0] == '#') continue;  // #define/#include
    if (!ContainsToken(trimmed, "AT_CHECK")) continue;
    if (supp.Covers(li + 1, "R4")) continue;
    out->push_back(
        {file.path, li + 1, "R4",
         "AT_CHECK on an untrusted-input path; corrupt bytes must surface "
         "as a Status, not an abort (DESIGN.md §4c)"});
  }
}

// ---------------------------------------------------------------------------
// Rule R6 — metric names vs. the catalogue in src/util/metrics.h.
// ---------------------------------------------------------------------------

struct MetricRegistration {
  std::string const_name;  // e.g. kMParallelSteals
  std::string name;        // e.g. parallel.steals
  const SourceFile* file = nullptr;
  size_t line = 0;
};

bool IsMetricsRegistryFile(const SourceFile& file) {
  for (const std::string& line : file.code) {
    if (line.find("kAllMetrics") != std::string::npos) return true;
  }
  return false;
}

/// `<segment>(.<segment>)+` of [a-z0-9_], each segment starting with a
/// letter — the metric naming contract. Two or more segments (unlike
/// failpoints' exactly-two: `failpoint.<site>.evals` has four).
bool IsMetricShaped(std::string_view s) {
  size_t segments = 0;
  size_t start = 0;
  while (true) {
    size_t dot = s.find('.', start);
    std::string_view part = s.substr(
        start, dot == std::string_view::npos ? s.size() - start : dot - start);
    if (part.empty() ||
        !std::islower(static_cast<unsigned char>(part.front()))) {
      return false;
    }
    for (char c : part) {
      if (!std::islower(static_cast<unsigned char>(c)) &&
          !std::isdigit(static_cast<unsigned char>(c)) && c != '_') {
        return false;
      }
    }
    ++segments;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return segments >= 2;
}

/// Parses `... kMFoo = "component.name";` catalogue lines, including the
/// clang-format-wrapped form where the literal sits alone on the next
/// line after the `=`.
std::vector<MetricRegistration> ParseMetricsRegistry(const SourceFile& file) {
  std::vector<MetricRegistration> regs;
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    size_t pos = 0;
    while ((pos = line.find("kM", pos)) != std::string::npos &&
           pos > 0 && IsIdentChar(line[pos - 1])) {
      pos += 2;
    }
    if (pos == std::string::npos) continue;
    if (line.find('=', pos) == std::string::npos) continue;
    size_t end = pos;
    while (end < line.size() && IsIdentChar(line[end])) ++end;
    // The catalogue style is kM + UpperCamel; skips kMax-style locals.
    if (end < pos + 3 ||
        !std::isupper(static_cast<unsigned char>(line[pos + 2]))) {
      continue;
    }
    size_t lit_line = li;
    if (file.literals[li].size() != 1) {
      // Wrapped registration: `kMFoo =` / `    "component.name";`.
      if (!file.literals[li].empty() || li + 1 >= file.code.size() ||
          file.literals[li + 1].size() != 1) {
        continue;
      }
      lit_line = li + 1;
    }
    const std::string& name = file.literals[lit_line][0];
    if (!IsMetricShaped(name)) continue;
    regs.push_back({line.substr(pos, end - pos), name, &file, li + 1});
  }
  return regs;
}

constexpr std::string_view kMetricCalls[] = {"GetCounter(", "GetGauge(",
                                             "GetHistogram("};

void CheckR6(const std::vector<SourceFile>& files,
             const std::vector<const SourceFile*>& registry_files,
             const std::vector<Suppressions>& supps,
             std::vector<Violation>* out) {
  if (registry_files.empty()) return;  // nothing to check against
  std::vector<MetricRegistration> regs;
  for (const SourceFile* reg_file : registry_files) {
    auto parsed = ParseMetricsRegistry(*reg_file);
    regs.insert(regs.end(), parsed.begin(), parsed.end());
  }
  std::set<std::string> registered;
  for (const auto& r : regs) registered.insert(r.name);

  // Each catalogue constant must also appear in its file's kAllMetrics
  // array (definition alone = one mention).
  for (const auto& r : regs) {
    size_t mentions = 0;
    for (const std::string& line : r.file->code) {
      if (ContainsToken(line, r.const_name)) ++mentions;
    }
    if (mentions < 2) {
      out->push_back({r.file->path, r.line, "R6",
                      "metric '" + r.name + "' (" + r.const_name +
                          ") is defined but missing from the kAllMetrics "
                          "catalogue"});
    }
  }

  auto is_registry = [&](const SourceFile& f) {
    for (const SourceFile* reg_file : registry_files) {
      if (reg_file == &f) return true;
    }
    // The registry's own .cc (serializers, Snapshot walker) is not a use
    // site either.
    return Basename(NormalizedPath(f.path)) == "metrics.cc";
  };

  std::map<std::string, size_t> uses;  // registered name -> use count
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& file = files[fi];
    if (is_registry(file)) continue;
    const Suppressions& supp = supps[fi];
    // Tests and benches mint ad-hoc names (`test.*`, per-bench gauges);
    // only src/ registrations must come from the static catalogue or a
    // documented dynamic family.
    bool in_src =
        NormalizedPath(file.path).find("src/") != std::string::npos;
    for (size_t li = 0; li < file.code.size(); ++li) {
      const std::string& line = file.code[li];
      for (const auto& r : regs) {
        if (ContainsToken(line, r.const_name)) ++uses[r.name];
      }
      bool at_call_site = false;
      for (std::string_view call : kMetricCalls) {
        if (line.find(call) != std::string::npos) at_call_site = true;
      }
      for (const std::string& lit : file.literals[li]) {
        if (!IsMetricShaped(lit)) continue;
        if (registered.count(lit)) {
          ++uses[lit];
        } else if (at_call_site && in_src && !supp.Covers(li + 1, "R6")) {
          out->push_back(
              {file.path, li + 1, "R6",
               "metric '" + lit +
                   "' is not in the kAllMetrics catalogue "
                   "(src/util/metrics.h); add it there or build the name "
                   "from a documented dynamic family (DESIGN.md §4f)"});
        }
      }
    }
  }

  for (const auto& r : regs) {
    if (uses[r.name] == 0) {
      out->push_back({r.file->path, r.line, "R6",
                      "metric '" + r.name + "' (" + r.const_name +
                          ") is registered but no code site uses it — "
                          "dead registration"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rules R7-R9 — concurrency contracts over the declaration model
// (decl_model.h, DESIGN.md §4i). Scoped to src/ paths; the util::Mutex
// wrapper and the annotation macro header are the mechanism and exempt.
// ---------------------------------------------------------------------------

bool InConcurrencyScope(const std::string& normalized_path) {
  if (normalized_path.find("src/") == std::string::npos) return false;
  std::string base = Basename(normalized_path);
  return base != "mutex.h" && base != "thread_annotations.h";
}

/// `Class::member` (or the bare expression for classless scopes) — the
/// program-wide node name used by the lock-order graph and in messages.
std::string QualifiedLockName(const std::string& class_name,
                              const std::string& mutex) {
  return class_name.empty() ? mutex : class_name + "::" + mutex;
}

/// Merged member view across every file: a class's members are declared
/// in its header while the lock scopes that write them live in the .cc.
struct MemberInfo {
  bool is_mutex = false;
  bool is_condvar = false;
  bool is_atomic = false;
  bool guarded = false;
};
using MemberMap = std::map<std::string, MemberInfo>;  // "Class::member"

MemberMap BuildMemberMap(const std::vector<FileModel>& models) {
  MemberMap out;
  for (const FileModel& model : models) {
    for (const ClassDecl& cls : model.classes) {
      for (const MemberDecl& m : cls.members) {
        MemberInfo& info = out[cls.name + "::" + m.name];
        info.is_mutex |= m.is_mutex;
        info.is_condvar |= m.is_condvar;
        info.is_atomic |= m.is_atomic;
        info.guarded |= !m.guarded_by.empty();
      }
    }
  }
  return out;
}

/// Container mutators for the R7 write heuristic: `member_.push_back(x)`
/// mutates the member even though no assignment operator appears.
constexpr std::string_view kMutatorCalls[] = {
    "push",    "push_back", "pop",    "pop_back", "emplace",
    "emplace_back", "insert", "erase", "clear",   "swap",
    "resize",  "assign",    "reset"};

/// If the statement starting at `trimmed` writes an identifier (assign,
/// compound-assign, increment/decrement, or a mutating container call),
/// returns that identifier; empty otherwise.
std::string_view WrittenIdent(std::string_view trimmed) {
  // ++x_ / --x_
  if (trimmed.size() > 2 &&
      (trimmed.substr(0, 2) == "++" || trimmed.substr(0, 2) == "--")) {
    std::string_view rest = trimmed.substr(2);
    size_t end = 0;
    while (end < rest.size() && IsIdentChar(rest[end])) ++end;
    return rest.substr(0, end);
  }
  size_t end = 0;
  while (end < trimmed.size() && IsIdentChar(trimmed[end])) ++end;
  if (end == 0) return {};
  std::string_view ident = trimmed.substr(0, end);
  std::string_view rest = trimmed.substr(end);
  while (!rest.empty() &&
         std::isspace(static_cast<unsigned char>(rest.front()))) {
    rest.remove_prefix(1);
  }
  if (rest.empty()) return {};
  // x_ = v; and the compound assignments (but not == / <= / >= / !=).
  if (rest[0] == '=' && (rest.size() < 2 || rest[1] != '=')) return ident;
  if (rest.size() >= 2 && rest[1] == '=' &&
      std::string_view("+-*/%&|^").find(rest[0]) !=
          std::string_view::npos) {
    return ident;
  }
  if (rest.size() >= 3 && (rest.substr(0, 3) == "<<=" ||
                           rest.substr(0, 3) == ">>=")) {
    return ident;
  }
  if (rest.substr(0, 2) == "++" || rest.substr(0, 2) == "--") return ident;
  // x_.push_back(v); — a mutating member-function call.
  if (rest[0] == '.') {
    rest.remove_prefix(1);
    size_t call_end = 0;
    while (call_end < rest.size() && IsIdentChar(rest[call_end])) {
      ++call_end;
    }
    if (call_end < rest.size() && rest[call_end] == '(') {
      std::string_view callee = rest.substr(0, call_end);
      for (std::string_view mut : kMutatorCalls) {
        if (callee == mut) return ident;
      }
    }
  }
  return {};
}

/// R7a: raw std:: synchronization members in src/ — the tree-wide
/// annotation policy requires the util::Mutex / util::CondVar wrappers so
/// Clang thread-safety analysis sees a capability.
/// R7b: a data member written inside a lock scope must carry
/// AT_GUARDED_BY (mutexes, condvars and atomics are self-synchronizing
/// and exempt).
void CheckR7(const SourceFile& file, const FileModel& model,
             const MemberMap& members, const Suppressions& supp,
             std::vector<Violation>* out) {
  for (const ClassDecl& cls : model.classes) {
    for (const MemberDecl& m : cls.members) {
      if (!m.is_raw_mutex || supp.Covers(m.line, "R7")) continue;
      out->push_back(
          {file.path, m.line, "R7",
           "raw std:: synchronization member '" + cls.name + "::" + m.name +
               "'; use util::Mutex / util::CondVar (src/util/mutex.h) so "
               "the capability is visible to Clang thread-safety analysis "
               "(DESIGN.md §4i)"});
    }
  }
  // One report per (line, member) even when scopes overlap.
  std::set<std::pair<size_t, std::string>> reported;
  for (const LockScope& scope : model.scopes) {
    if (scope.class_name.empty()) continue;  // no member context
    for (size_t line = scope.line + 1; line <= scope.end_line &&
                                       line <= file.code.size();
         ++line) {
      std::string_view trimmed = TrimView(file.code[line - 1]);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      std::string_view ident = WrittenIdent(trimmed);
      if (ident.empty() || ident.back() != '_') continue;
      std::string key = scope.class_name + "::" + std::string(ident);
      auto it = members.find(key);
      if (it == members.end()) continue;  // a local, or unknown class
      const MemberInfo& info = it->second;
      if (info.is_mutex || info.is_condvar || info.is_atomic ||
          info.guarded) {
        continue;
      }
      if (!reported.insert({line, key}).second) continue;
      if (supp.Covers(line, "R7")) continue;
      out->push_back(
          {file.path, line, "R7",
           "member '" + key + "' is written under the lock scope at line " +
               std::to_string(scope.line) + " (holds '" +
               QualifiedLockName(scope.class_name, scope.mutex) +
               "') but carries no AT_GUARDED_BY annotation"});
    }
  }
}

/// Calls that can block the calling thread: syscall-level socket I/O,
/// file streams and stdio, sleeps, and the project's own Try* I/O entry
/// points. Deliberately absent: CondVar waits (waiting under the lock is
/// the point) and shutdown() (non-blocking by contract, used to kick
/// peers during drain).
struct BlockingPattern {
  std::string_view token;
  bool ident_boundary;  // require a non-identifier char before the match
  std::string_view what;
};
constexpr BlockingPattern kBlockingPatterns[] = {
    {"::poll(", false, "poll()"},
    {"::accept(", false, "accept()"},
    {"::recv(", false, "recv()"},
    {"::send(", false, "send()"},
    {"::connect(", false, "connect()"},
    {"::read(", false, "read()"},
    {"::write(", false, "write()"},
    {"getline(", true, "getline()"},
    {"fread(", true, "fread()"},
    {"fwrite(", true, "fwrite()"},
    {"fopen(", true, "fopen()"},
    {"system(", true, "system()"},
    {"SleepMicros(", true, "SleepMicros()"},
    {"sleep_for(", true, "sleep_for()"},
    {"TryReadFrame(", true, "TryReadFrame() [socket I/O]"},
    {"TryWriteFrame(", true, "TryWriteFrame() [socket I/O]"},
    {"TryReadCsvFile(", true, "TryReadCsvFile() [file I/O]"},
    {"TryLoadRulesFromFile(", true, "TryLoadRulesFromFile() [file I/O]"},
    {"ifstream", true, "std::ifstream [file I/O]"},
    {"ofstream", true, "std::ofstream [file I/O]"},
};

void ReportR8InRange(const SourceFile& file, size_t first_line,
                     size_t last_line, const std::string& held,
                     const std::string& why, const Suppressions& supp,
                     std::set<size_t>* reported_lines,
                     std::vector<Violation>* out) {
  for (size_t line = first_line;
       line <= last_line && line <= file.code.size(); ++line) {
    const std::string& code = file.code[line - 1];
    for (const BlockingPattern& p : kBlockingPatterns) {
      bool hit = p.ident_boundary
                     ? ContainsToken(code, p.token)
                     : code.find(p.token) != std::string::npos;
      if (!hit) continue;
      if (!reported_lines->insert(line).second) break;
      if (supp.Covers(line, "R8")) break;
      out->push_back(
          {file.path, line, "R8",
           "blocking call " + std::string(p.what) + " while holding '" +
               held + "' (" + why +
               "); move the I/O outside the critical section "
               "(DESIGN.md §4i)"});
      break;  // one report per line
    }
  }
}

/// R8: no blocking call on a lock-holding path — inside a lexical lock
/// scope, or anywhere in the body of a function that declares
/// AT_REQUIRES (its callers hold the lock for it).
void CheckR8(const SourceFile& file, const FileModel& model,
             const Suppressions& supp, std::vector<Violation>* out) {
  std::set<size_t> reported_lines;
  for (const LockScope& scope : model.scopes) {
    ReportR8InRange(file, scope.line, scope.end_line,
                    QualifiedLockName(scope.class_name, scope.mutex),
                    "lock scope at line " + std::to_string(scope.line),
                    supp, &reported_lines, out);
  }
  for (const FunctionDef& fn : model.functions) {
    if (fn.requires_locks.empty()) continue;
    std::string held;
    for (const std::string& lock : fn.requires_locks) {
      if (!held.empty()) held += ", ";
      held += QualifiedLockName(fn.class_name, lock);
    }
    ReportR8InRange(file, fn.line, fn.end_line, held,
                    "AT_REQUIRES on '" + fn.name + "'", supp,
                    &reported_lines, out);
  }
}

/// One directed lock-order edge: `from` is acquired before `to`.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;   // provenance for the report
  size_t line = 0;
};

/// R9: the program-wide lock acquisition order must be a DAG. Edges come
/// from lexically nested lock scopes, AT_ACQUIRED_BEFORE / AFTER member
/// annotations, and scopes inside AT_REQUIRES functions (the required
/// lock is already held when the scope's lock is taken).
void CheckR9(const std::vector<const SourceFile*>& files,
             const std::vector<FileModel>& models,
             const std::vector<const Suppressions*>& supps,
             std::vector<Violation>* out) {
  std::vector<LockEdge> edges;
  std::map<std::string, const Suppressions*> supp_by_file;
  for (size_t i = 0; i < models.size(); ++i) {
    const FileModel& model = models[i];
    const std::string& path = files[i]->path;
    supp_by_file[path] = supps[i];
    for (const ClassDecl& cls : model.classes) {
      for (const MemberDecl& m : cls.members) {
        for (const std::string& later : m.acquired_before) {
          edges.push_back({QualifiedLockName(cls.name, m.name),
                           QualifiedLockName(cls.name, later), path,
                           m.line});
        }
        for (const std::string& earlier : m.acquired_after) {
          edges.push_back({QualifiedLockName(cls.name, earlier),
                           QualifiedLockName(cls.name, m.name), path,
                           m.line});
        }
      }
    }
    // Lexically nested scopes: outer acquired before inner.
    for (const LockScope& outer : model.scopes) {
      for (const LockScope& inner : model.scopes) {
        if (&outer == &inner) continue;
        if (inner.line <= outer.line || inner.line > outer.end_line) {
          continue;
        }
        edges.push_back(
            {QualifiedLockName(outer.class_name, outer.mutex),
             QualifiedLockName(inner.class_name, inner.mutex), path,
             inner.line});
      }
    }
    // Scopes inside an AT_REQUIRES body: the required lock is held on
    // entry, so it precedes every lock the body takes.
    for (const FunctionDef& fn : model.functions) {
      if (fn.requires_locks.empty()) continue;
      for (const LockScope& scope : model.scopes) {
        if (scope.line < fn.line || scope.line > fn.end_line) continue;
        for (const std::string& lock : fn.requires_locks) {
          edges.push_back(
              {QualifiedLockName(fn.class_name, lock),
               QualifiedLockName(scope.class_name, scope.mutex), path,
               scope.line});
        }
      }
    }
  }
  // Self-edges (a scope "nested" in another scope on the same mutex —
  // re-acquisition is a bug, but it is Clang TSA's bug to report, and the
  // common lexical cause is two sibling scopes the line-range heuristic
  // cannot tell apart) carry no ordering information.
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const LockEdge& e) {
                               return e.from == e.to;
                             }),
              edges.end());
  // Deterministic order; first occurrence of each (from, to) wins.
  std::sort(edges.begin(), edges.end(),
            [](const LockEdge& a, const LockEdge& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  std::map<std::pair<std::string, std::string>, const LockEdge*> unique;
  for (const LockEdge& e : edges) {
    unique.emplace(std::make_pair(e.from, e.to), &e);
  }
  std::map<std::string, std::vector<const LockEdge*>> adj;
  for (const auto& [key, edge] : unique) adj[key.first].push_back(edge);

  // For every edge u->v, a v..u path means the graph has a cycle through
  // that edge. BFS gives the shortest back-path; reporting at the edge
  // keeps file:line provenance. Dedup by the cycle's node set.
  std::set<std::set<std::string>> seen_cycles;
  for (const auto& [key, edge] : unique) {
    const std::string& u = key.first;
    const std::string& v = key.second;
    std::map<std::string, const LockEdge*> via;  // node -> edge used
    std::deque<std::string> queue{v};
    std::set<std::string> visited{v};
    bool found = false;
    while (!queue.empty() && !found) {
      std::string node = queue.front();
      queue.pop_front();
      auto it = adj.find(node);
      if (it == adj.end()) continue;
      for (const LockEdge* next : it->second) {
        if (!visited.insert(next->to).second) continue;
        via[next->to] = next;
        if (next->to == u) {
          found = true;
          break;
        }
        queue.push_back(next->to);
      }
    }
    if (!found) continue;
    // Reconstruct u -> ... -> v -> u as edge + back-path.
    std::vector<const LockEdge*> chain{edge};
    std::string node = u;
    std::vector<const LockEdge*> back;
    while (node != v) {
      const LockEdge* step = via[node];
      back.push_back(step);
      node = step->from;
    }
    chain.insert(chain.end(), back.rbegin(), back.rend());
    std::set<std::string> cycle_nodes;
    for (const LockEdge* e : chain) cycle_nodes.insert(e->from);
    if (!seen_cycles.insert(cycle_nodes).second) continue;
    std::string msg = "lock-order cycle: ";
    for (size_t i = 0; i < chain.size(); ++i) {
      if (i > 0) msg += ", ";
      msg += chain[i]->from + " -> " + chain[i]->to + " (" +
             chain[i]->file + ":" + std::to_string(chain[i]->line) + ")";
    }
    msg += "; a consistent acquisition order is required (DESIGN.md §4i)";
    auto supp_it = supp_by_file.find(edge->file);
    if (supp_it != supp_by_file.end() &&
        supp_it->second->Covers(edge->line, "R9")) {
      continue;
    }
    out->push_back({edge->file, edge->line, "R9", msg});
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

std::string Violation::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

std::string StaleSuppression::ToString() const {
  return file + ":" + std::to_string(line) + ": stale suppression: " +
         std::string(whole_file ? "disable-file(" : "disable(") + rule +
         ") no longer covers any violation — remove the tag";
}

bool LoadSourceFile(const std::string& path, SourceFile* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->path = path;
  out->raw.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out->raw.push_back(line);
  }
  StripAndCollect(out->raw, &out->code, &out->literals);
  return true;
}

namespace {

bool HasSourceExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

bool SkippedDirName(const std::string& name) {
  return name == "lint_fixtures" || name.rfind("build", 0) == 0 ||
         name == ".git";
}

void Walk(const fs::path& root, std::vector<std::string>* out) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    out->push_back(root.string());
    return;
  }
  if (!fs::is_directory(root, ec)) return;
  for (fs::directory_iterator it(root, ec), end; it != end && !ec;
       it.increment(ec)) {
    const fs::path& p = it->path();
    if (it->is_directory(ec)) {
      if (!SkippedDirName(p.filename().string())) Walk(p, out);
    } else if (HasSourceExtension(p)) {
      out->push_back(p.string());
    }
  }
}

}  // namespace

std::vector<std::string> CollectSources(
    const std::vector<std::string>& roots) {
  std::vector<std::string> out;
  for (const std::string& root : roots) Walk(fs::path(root), &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Violation> LintFiles(const std::vector<SourceFile>& files,
                                 std::vector<StaleSuppression>* stale) {
  std::vector<Violation> out;
  std::vector<Suppressions> supps;
  supps.reserve(files.size());
  std::vector<const SourceFile*> registry_files;
  std::vector<const SourceFile*> metric_registry_files;
  for (const SourceFile& file : files) {
    supps.push_back(ParseSuppressions(file));
    if (IsRegistryFile(file) &&
        Basename(NormalizedPath(file.path)) != "failpoint.cc") {
      registry_files.push_back(&file);
    }
    if (IsMetricsRegistryFile(file) &&
        Basename(NormalizedPath(file.path)) != "metrics.cc") {
      metric_registry_files.push_back(&file);
    }
  }
  // Declaration models for the concurrency rules, src/ scope only.
  std::vector<const SourceFile*> conc_files;
  std::vector<const Suppressions*> conc_supps;
  std::vector<FileModel> models;
  for (size_t i = 0; i < files.size(); ++i) {
    if (!InConcurrencyScope(NormalizedPath(files[i].path))) continue;
    conc_files.push_back(&files[i]);
    conc_supps.push_back(&supps[i]);
    models.push_back(BuildFileModel(files[i]));
  }
  const MemberMap members = BuildMemberMap(models);
  for (size_t i = 0; i < files.size(); ++i) {
    CheckR2(files[i], supps[i], &out);
    CheckR4(files[i], supps[i], &out);
  }
  for (size_t i = 0; i < models.size(); ++i) {
    CheckR7(*conc_files[i], models[i], members, *conc_supps[i], &out);
    CheckR8(*conc_files[i], models[i], *conc_supps[i], &out);
  }
  CheckR3(files, registry_files, supps, &out);
  CheckR6(files, metric_registry_files, supps, &out);
  CheckR9(conc_files, models, conc_supps, &out);
  if (stale != nullptr) {
    stale->clear();
    for (size_t i = 0; i < files.size(); ++i) {
      for (const Suppressions::Tag& tag : supps[i].tags) {
        if (tag.used) continue;
        stale->push_back(
            {files[i].path, tag.line, tag.rule, tag.whole_file});
      }
    }
    std::sort(stale->begin(), stale->end(),
              [](const StaleSuppression& a, const StaleSuppression& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
  }
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

std::vector<Violation> LintTree(const std::vector<std::string>& roots,
                                std::vector<StaleSuppression>* stale) {
  std::vector<SourceFile> files;
  for (const std::string& path : CollectSources(roots)) {
    SourceFile file;
    if (LoadSourceFile(path, &file)) files.push_back(std::move(file));
  }
  return LintFiles(files, stale);
}

}  // namespace autotest::lint
