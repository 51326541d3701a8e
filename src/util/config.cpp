#include "util/config.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace hacc::util {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// A command-line override key: what appears left of '=' in `key=value`.
// Rejecting path-ish characters keeps an argv[0] program path that happens
// to contain '=' (e.g. "./run=prod/app") from being ingested as an override.
bool is_override_key(const std::string& key) {
  if (key.empty()) return false;
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

bool Config::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      error_ = "line " + std::to_string(lineno) + ": expected key = value";
      return false;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      error_ = "line " + std::to_string(lineno) + ": empty key";
      return false;
    }
    values_[key] = value;
  }
  return true;
}

bool Config::parse_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    error_ = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse(buf.str());
}

void Config::apply_overrides(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    const std::string key = trim(arg.substr(0, eq));
    if (!is_override_key(key)) continue;
    values_[key] = trim(arg.substr(eq + 1));
  }
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) unread.push_back(key);
  }
  return unread;
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  read_.insert(key);
  if (auto it = values_.find(key); it != values_.end()) return it->second;
  return fallback;
}

namespace {

// After strtol/strtod consume a prefix, only trailing whitespace may remain
// (set() stores values verbatim); anything else ("10abc") is garbage.
bool fully_numeric(const char* begin, const char* end) {
  if (end == begin) return false;
  while (*end == ' ' || *end == '\t' || *end == '\r' || *end == '\n') ++end;
  return *end == '\0';
}

}  // namespace

long Config::get_int(const std::string& key, long fallback) const {
  read_.insert(key);
  if (auto it = values_.find(key); it != values_.end()) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(it->second.c_str(), &end, 10);
    if (errno != ERANGE && fully_numeric(it->second.c_str(), end)) return v;
  }
  return fallback;
}

double Config::get_double(const std::string& key, double fallback) const {
  read_.insert(key);
  if (auto it = values_.find(key); it != values_.end()) {
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(it->second.c_str(), &end);
    if (errno != ERANGE && fully_numeric(it->second.c_str(), end)) return v;
  }
  return fallback;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  read_.insert(key);
  if (auto it = values_.find(key); it != values_.end()) {
    const std::string& v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
    if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  }
  return fallback;
}

}  // namespace hacc::util
