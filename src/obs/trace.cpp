#include "src/obs/trace.h"

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace atom {
namespace obs {

namespace {

using Clock = std::chrono::steady_clock;

struct Collector {
  std::mutex mu;
  std::vector<TraceEvent> events;
  Clock::time_point epoch = Clock::now();
  bool epoch_pinned = false;
};

Collector& GetCollector() {
  static Collector* collector = new Collector();  // outlives static teardown
  return *collector;
}

uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

std::atomic<bool> Trace::enabled_{false};

void Trace::Enable() {
  Collector& c = GetCollector();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (!c.epoch_pinned) {
      c.epoch = Clock::now();
      c.epoch_pinned = true;
    }
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Trace::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Trace::Clear() {
  Collector& c = GetCollector();
  std::lock_guard<std::mutex> lock(c.mu);
  c.events.clear();
}

size_t Trace::EventCount() {
  Collector& c = GetCollector();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.events.size();
}

int64_t Trace::NowUs() {
  Collector& c = GetCollector();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               c.epoch)
      .count();
}

void Trace::Emit(const TraceEvent& event) {
  if (!Enabled()) {
    return;  // raced a Disable between span start and end: drop quietly
  }
  Collector& c = GetCollector();
  TraceEvent copy = event;
  copy.tid = ThreadOrdinal();
  std::lock_guard<std::mutex> lock(c.mu);
  // Span volume is phase-granular (hundreds per round, not per-message);
  // the cap is a backstop so a forgotten Enable in a long-running process
  // cannot grow without bound.
  if (c.events.size() < (size_t{1} << 20)) {
    c.events.push_back(copy);
  }
}

std::string Trace::ToJson() {
  Collector& c = GetCollector();
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    events = c.events;
  }
  long pid = static_cast<long>(getpid());
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < events.size(); i++) {
    const TraceEvent& e = events[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%lld,\"dur\":%lld,\"pid\":%ld,\"tid\":%u",
                  i == 0 ? "" : ",", e.name, e.cat,
                  static_cast<long long>(e.ts_us),
                  static_cast<long long>(e.dur_us), pid, e.tid);
    out += buf;
    out += ",\"args\":{";
    std::snprintf(buf, sizeof(buf), "\"round\":%llu",
                  static_cast<unsigned long long>(e.round_id));
    out += buf;
    if (e.k0 != nullptr) {
      std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", e.k0,
                    static_cast<unsigned long long>(e.v0));
      out += buf;
    }
    if (e.k1 != nullptr) {
      std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", e.k1,
                    static_cast<unsigned long long>(e.v1));
      out += buf;
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

// ------------------------------------------------------ trace validation

namespace {

// Recursive-descent JSON syntax checker (values are not materialized).
// Returns the position one past the parsed value, or npos on error.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Parse(std::string* error) {
    size_t pos = SkipWs(0);
    pos = Value(pos);
    if (pos == kNpos) {
      *error = error_;
      return false;
    }
    pos = SkipWs(pos);
    if (pos != text_.size()) {
      *error = "trailing bytes after the top-level value";
      return false;
    }
    return true;
  }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  static constexpr int kMaxDepth = 64;

  size_t Fail(const char* why) {
    if (error_.empty()) {
      error_ = why;
    }
    return kNpos;
  }

  size_t SkipWs(size_t pos) {
    while (pos < text_.size() &&
           (text_[pos] == ' ' || text_[pos] == '\t' || text_[pos] == '\n' ||
            text_[pos] == '\r')) {
      pos++;
    }
    return pos;
  }

  size_t Value(size_t pos, int depth = 0) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (pos >= text_.size()) {
      return Fail("truncated value");
    }
    char c = text_[pos];
    if (c == '{') {
      return Object(pos, depth);
    }
    if (c == '[') {
      return Array(pos, depth);
    }
    if (c == '"') {
      return String(pos);
    }
    if (c == 't') {
      return Literal(pos, "true");
    }
    if (c == 'f') {
      return Literal(pos, "false");
    }
    if (c == 'n') {
      return Literal(pos, "null");
    }
    return Number(pos);
  }

  size_t Literal(size_t pos, const char* word) {
    size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos, len, word) != 0) {
      return Fail("bad literal");
    }
    return pos + len;
  }

  size_t String(size_t pos) {
    pos++;  // opening quote
    while (pos < text_.size()) {
      char c = text_[pos];
      if (c == '"') {
        return pos + 1;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      }
      if (c == '\\') {
        if (pos + 1 >= text_.size()) {
          return Fail("truncated escape");
        }
        char esc = text_[pos + 1];
        if (esc == 'u') {
          if (pos + 5 >= text_.size()) {
            return Fail("truncated \\u escape");
          }
          for (size_t i = pos + 2; i < pos + 6; i++) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[i]))) {
              return Fail("bad \\u escape");
            }
          }
          pos += 6;
          continue;
        }
        if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
            esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return Fail("bad escape");
        }
        pos += 2;
        continue;
      }
      pos++;
    }
    return Fail("unterminated string");
  }

  size_t Number(size_t pos) {
    size_t start = pos;
    if (pos < text_.size() && text_[pos] == '-') {
      pos++;
    }
    size_t digits = 0;
    while (pos < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos]))) {
      pos++;
      digits++;
    }
    if (digits == 0) {
      return Fail("bad number");
    }
    if (pos < text_.size() && text_[pos] == '.') {
      pos++;
      size_t frac = 0;
      while (pos < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos]))) {
        pos++;
        frac++;
      }
      if (frac == 0) {
        return Fail("bad fraction");
      }
    }
    if (pos < text_.size() && (text_[pos] == 'e' || text_[pos] == 'E')) {
      pos++;
      if (pos < text_.size() && (text_[pos] == '+' || text_[pos] == '-')) {
        pos++;
      }
      size_t exp = 0;
      while (pos < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos]))) {
        pos++;
        exp++;
      }
      if (exp == 0) {
        return Fail("bad exponent");
      }
    }
    return pos > start ? pos : Fail("bad number");
  }

  size_t Object(size_t pos, int depth) {
    pos = SkipWs(pos + 1);
    if (pos < text_.size() && text_[pos] == '}') {
      return pos + 1;
    }
    for (;;) {
      pos = SkipWs(pos);
      if (pos >= text_.size() || text_[pos] != '"') {
        return Fail("object key must be a string");
      }
      pos = String(pos);
      if (pos == kNpos) {
        return kNpos;
      }
      pos = SkipWs(pos);
      if (pos >= text_.size() || text_[pos] != ':') {
        return Fail("missing ':' in object");
      }
      pos = Value(SkipWs(pos + 1), depth + 1);
      if (pos == kNpos) {
        return kNpos;
      }
      pos = SkipWs(pos);
      if (pos < text_.size() && text_[pos] == ',') {
        pos++;
        continue;
      }
      if (pos < text_.size() && text_[pos] == '}') {
        return pos + 1;
      }
      return Fail("missing ',' or '}' in object");
    }
  }

  size_t Array(size_t pos, int depth) {
    pos = SkipWs(pos + 1);
    if (pos < text_.size() && text_[pos] == ']') {
      return pos + 1;
    }
    for (;;) {
      pos = Value(SkipWs(pos), depth + 1);
      if (pos == kNpos) {
        return kNpos;
      }
      pos = SkipWs(pos);
      if (pos < text_.size() && text_[pos] == ',') {
        pos++;
        continue;
      }
      if (pos < text_.size() && text_[pos] == ']') {
        return pos + 1;
      }
      return Fail("missing ',' or ']' in array");
    }
  }

  const std::string& text_;
  std::string error_;
};

// Every trace event object must carry these members for chrome://tracing
// and Perfetto to render it as a complete span.
const char* const kRequiredEventKeys[] = {"\"name\"", "\"ph\"",  "\"ts\"",
                                          "\"dur\"",  "\"pid\"", "\"tid\""};

}  // namespace

bool ValidateTraceJson(const std::string& json, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  JsonChecker checker(json);
  if (!checker.Parse(error)) {
    return false;
  }
  size_t array = json.find("\"traceEvents\"");
  if (array == std::string::npos) {
    *error = "missing traceEvents member";
    return false;
  }
  // Structural spot check: walk the event objects (the emitter writes one
  // "{...}" per event inside the array) and require the span keys. The
  // syntax was already fully validated above, so simple brace scanning is
  // safe here — strings in events never contain braces (names and arg
  // keys are C identifiers).
  size_t pos = json.find('[', array);
  if (pos == std::string::npos) {
    *error = "traceEvents is not an array";
    return false;
  }
  size_t end = json.rfind(']');
  size_t count = 0;
  while (pos < end) {
    size_t open = json.find('{', pos);
    if (open == std::string::npos || open > end) {
      break;
    }
    // Find this event's matching close brace (events nest one level: the
    // args object).
    int depth = 0;
    size_t close = open;
    while (close < json.size()) {
      if (json[close] == '{') {
        depth++;
      } else if (json[close] == '}') {
        depth--;
        if (depth == 0) {
          break;
        }
      }
      close++;
    }
    if (depth != 0) {
      *error = "unbalanced event object";
      return false;
    }
    std::string event = json.substr(open, close - open + 1);
    for (const char* key : kRequiredEventKeys) {
      if (event.find(key) == std::string::npos) {
        *error = std::string("event missing ") + key;
        return false;
      }
    }
    count++;
    pos = close + 1;
  }
  (void)count;
  return true;
}

}  // namespace obs
}  // namespace atom
