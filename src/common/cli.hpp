// Minimal command-line flag parsing for the daop_cli tool.
//
// Supports "--name value", "--name=value" and boolean "--name" flags.
// Unknown flags are an error (typos should not silently change an
// experiment).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace daop {

/// Parses `text` as a whole base-10 integer that fits in an int: the rule
/// of every integer flag and integer spec field. nullopt when the text is
/// empty, has trailing characters (a fraction or an exponent included) or
/// is out of range.
std::optional<int> parse_int(const std::string& text);

class FlagParser {
 public:
  /// Parses argv[1..]; the first non-flag token becomes the positional
  /// command, remaining non-flag tokens are positional arguments.
  /// Throws CheckError on malformed input.
  FlagParser(int argc, const char* const* argv);

  const std::string& command() const { return command_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const;

  /// Typed getters with defaults. Throw CheckError on unparsable values.
  std::string get(const std::string& name, const std::string& def) const;
  int get_int(const std::string& name, int def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  /// Names that were provided but never read — call after all getters to
  /// reject typos.
  std::vector<std::string> unused() const;

 private:
  std::string command_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> used_;
};

}  // namespace daop
