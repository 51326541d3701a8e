#pragma once

// Minimal JSON emitter for the driver's result document: objects, arrays,
// strings, bools and doubles written with all 17 significant digits
// (non-finite values become null).  Commas are inserted automatically.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(const std::string& k) {
    separate();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  Json& value(double v) {
    separate();
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    } else {
      out_ += "null";
    }
    return *this;
  }
  Json& value(std::int64_t v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(std::uint64_t v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Json& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  Json& value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(const std::string& s) {
    separate();
    quote(s);
    return *this;
  }
  Json& value(const char* s) { return value(std::string(s)); }

  template <typename T>
  Json& field(const std::string& k, const T& v) {
    return key(k).value(v);
  }

  Json& array(const std::string& k, const std::vector<double>& values) {
    key(k).begin_array();
    for (const double v : values) value(v);
    return end_array();
  }

  const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    separate();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }
  void quote(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

}  // namespace perfbench
