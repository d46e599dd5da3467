#include "bench/atom_bench/stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

namespace atom_bench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  if (values.empty()) {
    return {0, 0, 0};
  }
  if (values.size() == 1) {
    return {values[0], values[0], values[0]};
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles, method="exclusive", n=4 — integer arithmetic
  // exactly as CPython writes it, so the spreads computed here match the
  // ones computed from the result lines with Python.
  const long n = 4;
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < n; i++) {
    long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    out[i - 1] = (values[j - 1] * static_cast<double>(n - delta) +
                  values[j] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return out;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) {
    v = 0;  // JSON has no inf/nan; a metric that produced one reads 0
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

// Minimal JSON reader for the result line: objects, strings without
// escapes beyond \" and \\, numbers, and the literals true/false.
class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  bool Fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }
  const std::string& error() const { return error_; }

  void Skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      pos_++;
    }
  }
  bool Eat(char c) {
    Skip();
    if (pos_ < s_.size() && s_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    Skip();
    return pos_ < s_.size() && s_[pos_] == c;
  }
  bool AtEnd() {
    Skip();
    return pos_ == s_.size();
  }

  bool String(std::string* out) {
    if (!Eat('"')) {
      return Fail("expected a string");
    }
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
        pos_++;
      }
      out->push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) {
      return Fail("unterminated string");
    }
    pos_++;
    return true;
  }

  bool NumberValue(double* out) {
    Skip();
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    if (end == begin) {
      return Fail("expected a number");
    }
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  bool Bool(bool* out) {
    Skip();
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      *out = true;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      *out = false;
      return true;
    }
    return Fail("expected true or false");
  }

  // Iterates "key": <value> pairs of one object; `value` parses each.
  template <typename Fn>
  bool Object(Fn value) {
    if (!Eat('{')) {
      return Fail("expected an object");
    }
    if (Eat('}')) {
      return true;
    }
    do {
      std::string key;
      if (!String(&key) || !Eat(':')) {
        return Fail("expected a key");
      }
      if (!value(key)) {
        return false;
      }
    } while (Eat(','));
    return Eat('}') || Fail("expected '}'");
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
  std::string error_;
};

bool WholeCount(double v, uint64_t* out) {
  if (v < 0 || v != std::floor(v) || v > 9.0e15) {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

}  // namespace

std::string FormatResultLine(const ResultLine& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); i++) {
    const Metric& m = result.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::optional<ResultLine> ParseResultLine(const std::string& line,
                                          std::string* error) {
  Reader r(line);
  ResultLine out;
  std::set<std::string> seen;
  bool ok = r.Object([&](const std::string& key) {
    if (!seen.insert(key).second) {
      return r.Fail("duplicate key " + key);
    }
    double v = 0;
    if (key == "correct") {
      return r.Bool(&out.correct);
    }
    if (key == "attempted" || key == "failed") {
      if (!r.NumberValue(&v)) {
        return false;
      }
      uint64_t* dst = key == "attempted" ? &out.attempted : &out.failed;
      return WholeCount(v, dst) || r.Fail(key + " is not a whole number");
    }
    if (key == "metrics") {
      std::set<std::string> names;
      return r.Object([&](const std::string& name) {
        if (!names.insert(name).second) {
          return r.Fail("duplicate metric " + name);
        }
        Metric m;
        m.name = name;
        bool has_value = false, has_unit = false;
        bool inner = r.Object([&](const std::string& field) {
          if (field == "value" && !has_value) {
            has_value = true;
            return r.NumberValue(&m.value);
          }
          if (field == "unit" && !has_unit) {
            has_unit = true;
            return r.String(&m.unit);
          }
          return r.Fail("unexpected metric field " + field);
        });
        if (!inner) {
          return false;
        }
        if (!has_value || !has_unit) {
          return r.Fail("metric " + name + " lacks value or unit");
        }
        out.metrics.push_back(std::move(m));
        return true;
      });
    }
    return r.Fail("unexpected key " + key);
  });
  if (ok && !r.AtEnd()) {
    ok = r.Fail("trailing characters");
  }
  if (ok && seen.size() != 4) {
    ok = r.Fail("expected exactly correct, attempted, failed, metrics");
  }
  if (ok && out.attempted < 1) {
    ok = r.Fail("attempted must be at least 1");
  }
  if (!ok) {
    if (error != nullptr) {
      *error = r.error();
    }
    return std::nullopt;
  }
  return out;
}

}  // namespace atom_bench
