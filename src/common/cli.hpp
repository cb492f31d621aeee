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

/// One row of the CLI output-flag support matrix: an observability output
/// flag, its companion configuration flags, and the report-producing modes
/// that accept it.
struct CliOutputFlagSpec {
  std::string flag;                     ///< e.g. "metrics-out"
  std::vector<std::string> companions;  ///< e.g. {"metrics-format"}
  std::vector<std::string> modes;       ///< modes accepting the flag
};

/// The report-producing daop_cli modes ("serve-cluster" is `serve --nodes
/// N`'s dedicated path). Every observability output flag is supported in
/// every one of these modes — the uniformity contract the matrix encodes.
const std::vector<std::string>& cli_output_modes();

/// The full support matrix. Commands consult cli_output_flag_supported()
/// before reading an output flag and tests assert the matrix is complete,
/// so flag support can never silently drift per command again.
const std::vector<CliOutputFlagSpec>& cli_output_flag_matrix();

bool cli_output_flag_supported(const std::string& flag,
                               const std::string& mode);

}  // namespace daop
