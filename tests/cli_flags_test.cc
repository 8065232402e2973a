// The flag tables of wsvc, wsvc-fuzz and wsvc-merge, walked binary by
// command by flag: a flag parses exactly on the commands its entry lists,
// and every malformed use (a bool flag given a value, a missing value, a
// repeat of a flag that may not repeat, a value outside an enum's choices,
// a bad number) is rejected with a message naming the flag and the command.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cli.h"
#include "gen/generator.h"

namespace wsv::cli {
namespace {

const std::vector<const Tool*>& Tools() {
  static const std::vector<const Tool*> tools = {&WsvcTool(), &FuzzTool(),
                                                 &MergeTool()};
  return tools;
}

bool Accepts(const Flag& flag, const std::string& command) {
  for (const std::string& name : flag.commands) {
    if (name == command) return true;
  }
  return false;
}

/// A value the flag's table entry allows.
std::string GoodValue(const Flag& flag) {
  if (!flag.choices.empty()) return flag.choices.front();
  if (flag.arg == Arg::kNumber) return "1";
  if (flag.arg == Arg::kRange) return "0:1";
  return "x";
}

/// program [command] operands... [required flags not in extra] extra...
std::vector<std::string> Line(const Tool& tool, const Command& command,
                              const std::vector<std::string>& extra) {
  std::vector<std::string> line = {tool.program};
  if (!command.name.empty()) line.push_back(command.name);
  for (size_t i = 0; i < command.min_operands; ++i) {
    line.push_back("operand" + std::to_string(i));
  }
  for (const std::string& flag : command.required) {
    if (std::find(extra.begin(), extra.end(), flag) == extra.end()) {
      line.insert(line.end(), {flag, "x"});
    }
  }
  line.insert(line.end(), extra.begin(), extra.end());
  return line;
}

Result<ParsedArgs> Parse(const Tool& tool,
                         const std::vector<std::string>& line) {
  std::vector<const char*> argv;
  for (const std::string& word : line) argv.push_back(word.c_str());
  return ParseCommandLine(tool, static_cast<int>(argv.size()), argv.data());
}

/// The flag with its value, if it takes one.
std::vector<std::string> Use(const Flag& flag) {
  if (flag.arg == Arg::kNone) return {flag.name};
  return {flag.name, GoodValue(flag)};
}

void ExpectRejected(const Tool& tool, const Command& command,
                    const std::vector<std::string>& extra,
                    const std::string& flag, const std::string& why) {
  Result<ParsedArgs> parsed = Parse(tool, Line(tool, command, extra));
  ASSERT_FALSE(parsed.ok()) << tool.program << " " << command.name << ": "
                            << why;
  const std::string& message = parsed.status().message();
  EXPECT_NE(message.find("'" + flag + "'"), std::string::npos) << message;
  EXPECT_NE(message.find(tool.program + (command.name.empty() ? "" : " ") +
                         command.name + ": "),
            std::string::npos)
      << message;
}

TEST(CliFlags, EachFlagParsesExactlyOnTheCommandsItsEntryLists) {
  for (const Tool* tool : Tools()) {
    for (const Command& command : tool->commands) {
      for (const Flag& flag : tool->flags) {
        Result<ParsedArgs> parsed =
            Parse(*tool, Line(*tool, command, Use(flag)));
        if (Accepts(flag, command.name)) {
          ASSERT_TRUE(parsed.ok()) << parsed.status().message();
          EXPECT_TRUE(parsed->Has(flag.name));
          EXPECT_EQ(parsed->command, command.name);
          EXPECT_EQ(parsed->positional.size(), command.min_operands);
        } else {
          ExpectRejected(*tool, command, Use(flag), flag.name,
                         "flag the command does not read");
        }
      }
    }
  }
}

TEST(CliFlags, MalformedUsesAreRejected) {
  for (const Tool* tool : Tools()) {
    for (const Command& command : tool->commands) {
      for (const Flag& flag : tool->flags) {
        if (!Accepts(flag, command.name)) continue;
        if (flag.arg == Arg::kNone) {
          ExpectRejected(*tool, command, {flag.name + "=1"}, flag.name,
                         "bool flag given a value");
        } else {
          ExpectRejected(*tool, command, {flag.name}, flag.name,
                         "value flag missing its value");
        }
        std::vector<std::string> twice = Use(flag);
        for (const std::string& word : Use(flag)) twice.push_back(word);
        if (flag.arg == Arg::kRepeated) {
          Result<ParsedArgs> parsed =
              Parse(*tool, Line(*tool, command, twice));
          ASSERT_TRUE(parsed.ok()) << parsed.status().message();
          EXPECT_EQ(parsed->All(flag.name).size(), 2u);
        } else {
          ExpectRejected(*tool, command, twice, flag.name,
                         "repeat of a flag that may not repeat");
        }
        if (!flag.choices.empty()) {
          ExpectRejected(*tool, command, {flag.name, "no-such-choice"},
                         flag.name, "value outside the enum");
        }
        if (flag.arg == Arg::kNumber) {
          for (const char* bad :
               {"-1", "+1", "", "1x", "99999999999999999999"}) {
            ExpectRejected(*tool, command, {flag.name, bad}, flag.name,
                           std::string("bad number ") + bad);
          }
        }
        if (flag.arg == Arg::kRange) {
          for (const char* bad : {"5:2", "3", "a:b", "-1:2"}) {
            ExpectRejected(*tool, command, {flag.name, bad}, flag.name,
                           std::string("bad range ") + bad);
          }
        }
      }
      ExpectRejected(*tool, command, {"--no-such-flag"}, "--no-such-flag",
                     "unknown flag");
    }
  }
}

TEST(CliFlags, UnknownCommandsAndWrongOperandCountsAreRejected) {
  EXPECT_FALSE(Parse(WsvcTool(), {"wsvc"}).ok());
  EXPECT_FALSE(Parse(WsvcTool(), {"wsvc", "nosuch", "a.wsv"}).ok());
  EXPECT_FALSE(Parse(WsvcTool(), {"wsvc", "verify", "--property", "x"}).ok());
  EXPECT_FALSE(Parse(WsvcTool(), {"wsvc", "verify", "a.wsv", "b.wsv",
                                  "--property", "x"})
                   .ok());
  for (const Tool* tool : Tools()) {
    for (const Command& command : tool->commands) {
      for (const std::string& flag : command.required) {
        std::vector<std::string> line = Line(*tool, command, {});
        line.erase(std::find(line.begin(), line.end(), flag), line.end());
        Result<ParsedArgs> parsed = Parse(*tool, line);
        ASSERT_FALSE(parsed.ok()) << command.name << " without " << flag;
        EXPECT_NE(parsed.status().message().find("'" + flag + "' is required"),
                  std::string::npos)
            << parsed.status().message();
      }
    }
  }
  EXPECT_FALSE(Parse(FuzzTool(), {"wsvc-fuzz", "replay"}).ok());
  EXPECT_FALSE(Parse(FuzzTool(), {"wsvc-fuzz", "run", "extra"}).ok());
  Result<ParsedArgs> merge =
      Parse(MergeTool(), {"wsvc-merge", "s.json", "-", "--finalize"});
  ASSERT_TRUE(merge.ok()) << merge.status().message();
  EXPECT_EQ(merge->positional, (std::vector<std::string>{"s.json", "-"}));
}

TEST(CliFlags, ValuesReadBack) {
  Result<ParsedArgs> parsed = Parse(
      WsvcTool(), {"wsvc", "verify", "a.wsv", "--jobs", "4", "--db-range",
                   "2:9", "--db", "P.r=a", "--db", "P.s=b", "--perfect",
                   "--property", "G true"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->positional, (std::vector<std::string>{"a.wsv"}));
  EXPECT_EQ(parsed->Number("--jobs", 1), 4u);
  EXPECT_EQ(parsed->Number("--fresh", 7), 7u);
  EXPECT_EQ(parsed->Range("--db-range"),
            std::make_pair(uint64_t{2}, uint64_t{9}));
  EXPECT_FALSE(parsed->Range("--valuation-range").has_value());
  EXPECT_EQ(parsed->All("--db"),
            (std::vector<std::string>{"P.r=a", "P.s=b"}));
  EXPECT_TRUE(parsed->Has("--perfect"));
  EXPECT_EQ(parsed->Get("--property"), "G true");
  EXPECT_EQ(parsed->Get("--ltl"), "");
}

TEST(CliFlags, NumbersHonorTheirCaps) {
  EXPECT_EQ(ReadNumber("4096", 4096).value(), 4096u);
  EXPECT_FALSE(ReadNumber("4097", 4096).ok());
  EXPECT_EQ(ReadNumber("18446744073709551615", UINT64_MAX).value(),
            UINT64_MAX);
  EXPECT_FALSE(ReadNumber("18446744073709551616", UINT64_MAX).ok());
  EXPECT_EQ(ReadRange("3:3").value(), std::make_pair(uint64_t{3}, uint64_t{3}));
  EXPECT_TRUE(Parse(WsvcTool(), {"wsvc", "verify", "a.wsv", "--property", "x",
                                 "--jobs", "4096"})
                  .ok());
  EXPECT_FALSE(Parse(WsvcTool(), {"wsvc", "verify", "a.wsv", "--property", "x",
                                  "--jobs", "4097"})
                   .ok());
}

TEST(CliFlags, GenerateRegimeChoicesAreTheGeneratorsRegimes) {
  std::vector<std::string> names;
  for (gen::Regime regime : gen::AllRegimes()) {
    names.push_back(gen::RegimeName(regime));
  }
  size_t found = 0;
  for (const Flag& flag : FuzzTool().flags) {
    if (flag.name != "--regime") continue;
    EXPECT_EQ(flag.choices, names);
    ++found;
  }
  EXPECT_EQ(found, 1u);
}

TEST(CliFlags, CommandUsageListsExactlyItsFlags) {
  for (const Tool* tool : Tools()) {
    for (const Command& command : tool->commands) {
      std::string usage = Usage(*tool, command.name);
      for (const Flag& flag : tool->flags) {
        bool listed = usage.find("\n  " + flag.name + " ") !=
                          std::string::npos ||
                      usage.find("\n  " + flag.name + "\n") !=
                          std::string::npos;
        EXPECT_EQ(listed, Accepts(flag, command.name))
            << tool->program << " " << command.name << " " << flag.name;
      }
    }
  }
}

}  // namespace
}  // namespace wsv::cli
