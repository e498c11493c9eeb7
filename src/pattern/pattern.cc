#include "pattern/pattern.h"

#include <cctype>

#include "util/check.h"

namespace autotest::pattern {

namespace {

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool IsAlpha(char c) { return std::isalpha(static_cast<unsigned char>(c)); }
bool IsLower(char c) { return std::islower(static_cast<unsigned char>(c)); }
bool IsUpper(char c) { return std::isupper(static_cast<unsigned char>(c)); }

// Parses a quantifier at position i (after a class token); defaults to {1}.
bool ParseQuantifier(std::string_view text, size_t* i, int* min_len,
                     int* max_len) {
  *min_len = 1;
  *max_len = 1;
  if (*i >= text.size()) return true;
  if (text[*i] == '+') {
    *min_len = 1;
    *max_len = Atom::kUnbounded;
    ++*i;
    return true;
  }
  if (text[*i] != '{') return true;
  size_t j = *i + 1;
  int lo = 0;
  bool have_lo = false;
  while (j < text.size() && IsDigit(text[j])) {
    lo = lo * 10 + (text[j] - '0');
    have_lo = true;
    ++j;
  }
  if (!have_lo) return false;
  int hi = lo;
  if (j < text.size() && text[j] == ',') {
    ++j;
    hi = 0;
    bool have_hi = false;
    while (j < text.size() && IsDigit(text[j])) {
      hi = hi * 10 + (text[j] - '0');
      have_hi = true;
      ++j;
    }
    if (!have_hi) return false;
  }
  if (j >= text.size() || text[j] != '}') return false;
  if (hi < lo) return false;
  *min_len = lo;
  *max_len = hi;
  *i = j + 1;
  return true;
}

std::string QuantifierString(const Atom& a) {
  if (a.min_len == 1 && a.max_len == 1) return "";
  if (a.min_len == 1 && a.max_len == Atom::kUnbounded) return "+";
  if (a.min_len == a.max_len) return "{" + std::to_string(a.min_len) + "}";
  return "{" + std::to_string(a.min_len) + "," + std::to_string(a.max_len) +
         "}";
}

bool IsPatternSpecial(char c) {
  return c == '\\' || c == '[' || c == ']' || c == '{' || c == '}' ||
         c == '+';
}

// Backtracking matcher over (atom index, value position).
bool MatchFrom(const std::vector<Atom>& atoms, size_t ai,
               std::string_view value, size_t pos) {
  if (ai == atoms.size()) return pos == value.size();
  const Atom& a = atoms[ai];
  // Consume the mandatory minimum.
  size_t taken = 0;
  size_t p = pos;
  while (taken < static_cast<size_t>(a.min_len)) {
    if (p >= value.size() || !a.MatchesChar(value[p])) return false;
    ++p;
    ++taken;
  }
  // Greedily extend, then backtrack: the atom can stop anywhere in
  // [first, p], and the stops are tried from p down.
  const size_t first = p;
  while ((a.max_len == Atom::kUnbounded ||
          taken < static_cast<size_t>(a.max_len)) &&
         p < value.size() && a.MatchesChar(value[p])) {
    ++p;
    ++taken;
  }
  for (size_t stop = p + 1; stop-- > first;) {
    if (MatchFrom(atoms, ai + 1, value, stop)) return true;
  }
  return false;
}

}  // namespace

bool Atom::MatchesChar(char c) const {
  switch (cls) {
    case AtomClass::kDigit:
      return IsDigit(c);
    case AtomClass::kAlpha:
      return IsAlpha(c);
    case AtomClass::kLower:
      return IsLower(c);
    case AtomClass::kUpper:
      return IsUpper(c);
    case AtomClass::kLiteral:
      return c == literal;
  }
  return false;
}

std::optional<Pattern> Pattern::Parse(std::string_view text) {
  std::vector<Atom> atoms;
  size_t i = 0;
  while (i < text.size()) {
    Atom a;
    if (text[i] == '\\') {
      if (i + 1 >= text.size()) return std::nullopt;
      char c = text[i + 1];
      i += 2;
      if (c == 'd') {
        a.cls = AtomClass::kDigit;
        if (!ParseQuantifier(text, &i, &a.min_len, &a.max_len)) {
          return std::nullopt;
        }
      } else {
        a.cls = AtomClass::kLiteral;
        a.literal = c;
      }
    } else if (text[i] == '[') {
      AtomClass cls;
      size_t len;
      if (text.substr(i).starts_with("[a-zA-Z]")) {
        cls = AtomClass::kAlpha;
        len = 8;
      } else if (text.substr(i).starts_with("[a-z]")) {
        cls = AtomClass::kLower;
        len = 5;
      } else if (text.substr(i).starts_with("[A-Z]")) {
        cls = AtomClass::kUpper;
        len = 5;
      } else {
        return std::nullopt;
      }
      i += len;
      a.cls = cls;
      if (!ParseQuantifier(text, &i, &a.min_len, &a.max_len)) {
        return std::nullopt;
      }
    } else if (text[i] == '{' || text[i] == '}' || text[i] == '+' ||
               text[i] == ']') {
      return std::nullopt;  // specials must be escaped
    } else {
      a.cls = AtomClass::kLiteral;
      a.literal = text[i];
      ++i;
    }
    atoms.push_back(a);
  }
  return Pattern(std::move(atoms));
}

std::string Pattern::ToString() const {
  std::string out;
  for (const Atom& a : atoms_) {
    switch (a.cls) {
      case AtomClass::kDigit:
        out += "\\d";
        break;
      case AtomClass::kAlpha:
        out += "[a-zA-Z]";
        break;
      case AtomClass::kLower:
        out += "[a-z]";
        break;
      case AtomClass::kUpper:
        out += "[A-Z]";
        break;
      case AtomClass::kLiteral:
        if (IsPatternSpecial(a.literal)) out.push_back('\\');
        out.push_back(a.literal);
        break;
    }
    if (a.cls != AtomClass::kLiteral) out += QuantifierString(a);
  }
  return out;
}

bool Pattern::Matches(std::string_view value) const {
  if (atoms_.empty()) return value.empty();
  return MatchFrom(atoms_, 0, value, 0);
}

Pattern Generalize(std::string_view value, GeneralizationLevel level) {
  std::vector<Atom> atoms;
  size_t i = 0;
  while (i < value.size()) {
    char c = value[i];
    if (IsDigit(c)) {
      size_t j = i;
      while (j < value.size() && IsDigit(value[j])) ++j;
      Atom a;
      a.cls = AtomClass::kDigit;
      if (level == GeneralizationLevel::kExactDigits) {
        a.min_len = a.max_len = static_cast<int>(j - i);
      } else {
        a.min_len = 1;
        a.max_len = Atom::kUnbounded;
      }
      atoms.push_back(a);
      i = j;
    } else if (IsAlpha(c)) {
      size_t j = i;
      while (j < value.size() && IsAlpha(value[j])) ++j;
      Atom a;
      a.cls = AtomClass::kAlpha;
      a.min_len = 1;
      a.max_len = Atom::kUnbounded;
      atoms.push_back(a);
      i = j;
    } else {
      Atom a;
      a.cls = AtomClass::kLiteral;
      a.literal = c;
      atoms.push_back(a);
      ++i;
    }
  }
  return Pattern(std::move(atoms));
}

}  // namespace autotest::pattern
