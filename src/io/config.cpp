#include "uld3d/io/config.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "uld3d/util/check.hpp"
#include "uld3d/util/status.hpp"

namespace uld3d::io {

namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

}  // namespace

Config Config::parse(const std::string& text) {
  Config config;
  std::istringstream is(text);
  std::string line;
  std::string section = "global";
  int line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      expects(line.back() == ']' && line.size() > 2,
              "malformed section header at line " + std::to_string(line_number));
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    const std::size_t eq = line.find('=');
    expects(eq != std::string::npos,
            "expected key = value at line " + std::to_string(line_number));
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    expects(!key.empty(), "empty key at line " + std::to_string(line_number));
    config.sections_[section][key] = value;
  }
  return config;
}

Config Config::load(const std::string& path) {
  // A directory opens as an empty stream and /dev/null reads as an empty
  // file: both would silently run on defaults, so only regular files load.
  std::error_code ec;
  const auto status = std::filesystem::status(path, ec);
  if (std::filesystem::exists(status) &&
      !std::filesystem::is_regular_file(status)) {
    throw StatusError(Failure(ErrorCode::kInvalidConfig,
                              "config path is not a regular file")
                          .with("path", path));
  }
  std::ifstream file(path);
  expects(file.good(), "cannot open config file: " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return parse(buffer.str());
}

bool Config::has(const std::string& section, const std::string& key) const {
  const auto s = sections_.find(section);
  return s != sections_.end() && s->second.count(key) > 0;
}

std::string Config::get_string(const std::string& section,
                               const std::string& key,
                               const std::string& fallback) const {
  const auto s = sections_.find(section);
  if (s == sections_.end()) return fallback;
  const auto k = s->second.find(key);
  return k == s->second.end() ? fallback : k->second;
}

double Config::get_double(const std::string& section, const std::string& key,
                          double fallback) const {
  if (!has(section, key)) return fallback;
  const std::string value = get_string(section, key);
  // Catch only the parser's own exceptions (narrowly, so an internal
  // `expects` is never masked) and report overflow distinctly.
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::out_of_range&) {
    throw StatusError(Failure(ErrorCode::kInvalidConfig,
                              "number out of double range (overflow)")
                          .with("section", section)
                          .with("key", key)
                          .with("value", value));
  } catch (const std::invalid_argument&) {
    throw StatusError(Failure(ErrorCode::kInvalidConfig, "not a number")
                          .with("section", section)
                          .with("key", key)
                          .with("value", value));
  }
  if (consumed != value.size()) {
    throw StatusError(Failure(ErrorCode::kInvalidConfig,
                              "trailing characters after number")
                          .with("section", section)
                          .with("key", key)
                          .with("value", value));
  }
  return parsed;
}

std::int64_t Config::get_int(const std::string& section, const std::string& key,
                             std::int64_t fallback) const {
  if (!has(section, key)) return fallback;
  const std::string value = get_string(section, key);
  std::size_t consumed = 0;
  long long parsed = 0;
  try {
    parsed = std::stoll(value, &consumed);
  } catch (const std::out_of_range&) {
    throw StatusError(Failure(ErrorCode::kInvalidConfig,
                              "integer out of 64-bit range (overflow)")
                          .with("section", section)
                          .with("key", key)
                          .with("value", value));
  } catch (const std::invalid_argument&) {
    throw StatusError(Failure(ErrorCode::kInvalidConfig, "not an integer")
                          .with("section", section)
                          .with("key", key)
                          .with("value", value));
  }
  if (consumed != value.size()) {
    throw StatusError(Failure(ErrorCode::kInvalidConfig,
                              "trailing characters after integer")
                          .with("section", section)
                          .with("key", key)
                          .with("value", value));
  }
  return parsed;
}

bool Config::get_bool(const std::string& section, const std::string& key,
                      bool fallback) const {
  if (!has(section, key)) return fallback;
  const std::string value = lower(get_string(section, key));
  if (value == "true" || value == "yes" || value == "1" || value == "on") {
    return true;
  }
  if (value == "false" || value == "no" || value == "0" || value == "off") {
    return false;
  }
  expects(false, "not a boolean: [" + section + "] " + key + " = " + value);
  return fallback;
}

std::vector<std::string> Config::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [section, entries] : sections_) names.push_back(section);
  return names;
}

std::vector<std::string> Config::keys(const std::string& section) const {
  std::vector<std::string> names;
  const auto s = sections_.find(section);
  if (s == sections_.end()) return names;
  names.reserve(s->second.size());
  for (const auto& [key, value] : s->second) names.push_back(key);
  return names;
}

void Config::set(const std::string& section, const std::string& key,
                 const std::string& value) {
  expects(!section.empty() && !key.empty(), "section and key required");
  sections_[section][key] = value;
}

std::string Config::to_text() const {
  std::ostringstream os;
  for (const auto& [section, entries] : sections_) {
    os << '[' << section << "]\n";
    for (const auto& [key, value] : entries) {
      os << key << " = " << value << '\n';
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace uld3d::io
