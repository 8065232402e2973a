// wsv_cli — the flag tables of wsvc, wsvc-fuzz and wsvc-merge and the one
// parser that reads a command line against them. Each flag lists the
// commands that read it, and every other command rejects it; usage text is
// rendered from the same table.

#ifndef WSVERIFY_TOOLS_CLI_H_
#define WSVERIFY_TOOLS_CLI_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace wsv::cli {

/// What a flag takes: nothing (a bool flag), one value, one value per
/// occurrence (the only kind that may repeat), a number of at most
/// Flag::max, or a "lo:hi" range with lo <= hi.
enum class Arg { kNone, kText, kRepeated, kNumber, kRange };

struct Flag {
  std::string name;
  Arg arg;
  std::string placeholder;  // the value's name in usage text
  std::vector<std::string> commands;
  std::string help;  // '\n' separates usage lines
  std::vector<std::string> choices = {};  // an enum flag's allowed values
  uint64_t max = UINT64_MAX;
};

struct Command {
  std::string name;      // empty: the program takes no command word
  std::string operands;  // usage text of the positional arguments
  size_t min_operands;
  size_t max_operands;
  std::string help;
  std::vector<std::string> required = {};  // flags the command needs
};

struct Tool {
  std::string program;
  std::vector<Command> commands;
  std::vector<Flag> flags;
};

const Tool& WsvcTool();
const Tool& FuzzTool();
const Tool& MergeTool();

/// A command line that passed its tool's table.
struct ParsedArgs {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::vector<std::string>> values;  // "" for a bool

  bool Has(const std::string& flag) const { return values.count(flag) > 0; }
  /// The flag's value, or "" when it is absent.
  std::string Get(const std::string& flag) const;
  std::vector<std::string> All(const std::string& flag) const;
  uint64_t Number(const std::string& flag, uint64_t fallback) const;
  std::optional<std::pair<uint64_t, uint64_t>> Range(
      const std::string& flag) const;
};

/// Rejects an unknown flag, a flag the command does not read, a missing
/// value, a repeat, a value outside the choices, a bad number and a missing
/// required flag, with a ParseError that names the program, the command and
/// the flag.
Result<ParsedArgs> ParseCommandLine(const Tool& tool, int argc,
                                    const char* const* argv);

/// ParseCommandLine, or print its rejection and the usage and exit 2.
ParsedArgs ParseOrExit(const Tool& tool, int argc, const char* const* argv);

/// A non-negative decimal number no larger than `max`. strtoull silently
/// wraps negatives ("-1") and saturates overflows, so both are rejected.
Result<uint64_t> ReadNumber(const std::string& text, uint64_t max);
Result<std::pair<uint64_t, uint64_t>> ReadRange(const std::string& text);

/// One command and its flags; with a command the tool lacks, every command
/// and every flag with the commands that accept it.
std::string Usage(const Tool& tool, const std::string& command);

}  // namespace wsv::cli

#endif  // WSVERIFY_TOOLS_CLI_H_
