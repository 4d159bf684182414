// Minimal INI-style configuration: `[section]` headers and `key = value`
// pairs, `#` comments, whitespace-tolerant.  Used to describe case studies
// and custom architectures in text so experiments re-run without
// recompiling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace uld3d::io {

class Config {
 public:
  /// Parse INI text; throws PreconditionError on malformed lines.
  [[nodiscard]] static Config parse(const std::string& text);
  /// Parse a file on disk; throws PreconditionError if unreadable and
  /// StatusError(kInvalidConfig) if the path is not a regular file.
  [[nodiscard]] static Config load(const std::string& path);

  /// True if `[section]` contains `key`.
  [[nodiscard]] bool has(const std::string& section,
                         const std::string& key) const;

  /// All section names, sorted (schema validation iterates these).
  [[nodiscard]] std::vector<std::string> section_names() const;
  /// All keys of `section`, sorted; empty for an absent section.
  [[nodiscard]] std::vector<std::string> keys(const std::string& section) const;

  /// Typed getters with defaults; throw on present-but-unparsable values.
  [[nodiscard]] std::string get_string(const std::string& section,
                                       const std::string& key,
                                       const std::string& fallback = {}) const;
  [[nodiscard]] double get_double(const std::string& section,
                                  const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& section,
                                     const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& section,
                              const std::string& key, bool fallback) const;

  /// Set a value (used when round-tripping programmatic configs).
  void set(const std::string& section, const std::string& key,
           const std::string& value);

  /// Serialize back to INI text (sections and keys sorted).
  [[nodiscard]] std::string to_text() const;

 private:
  std::map<std::string, std::map<std::string, std::string>> sections_;
};

}  // namespace uld3d::io
