#pragma once

// Minimal key = value configuration parser used by the examples and the
// standalone-kernel driver (paper §7.2).  Supports comments (#), blank
// lines, strings, integers, and floating-point values.

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace hacc::util {

class Config {
 public:
  Config() = default;

  // Parses "key = value" lines; returns false and sets error on bad syntax.
  bool parse(const std::string& text);
  bool parse_file(const std::string& path);

  // Command-line overrides of the form key=value (argv-style).  Callers
  // typically pass (argc - 1, argv + 1); arguments that do not look like
  // key=value (including a program path containing '=') are skipped.
  void apply_overrides(int argc, const char* const* argv);

  // has() and get_*() record the key as read, whether or not it is set, so
  // even const reads must not race: read a Config from one thread at a time.
  bool has(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) != 0;
  }

  std::string get_string(const std::string& key, const std::string& fallback) const;
  long get_int(const std::string& key, long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  void set(const std::string& key, const std::string& value) { values_[key] = value; }

  const std::string& error() const { return error_; }
  const std::map<std::string, std::string>& values() const { return values_; }

  // Keys that are set but that no has()/get_*() call has read, in key order.
  // Once every consumer has read its keys, these are unknown (misspelt or
  // retired) keys.
  std::vector<std::string> unread_keys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  std::string error_;
};

}  // namespace hacc::util
