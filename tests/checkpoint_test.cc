#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/run_control.h"
#include "ltl/property.h"
#include "spec/parser.h"
#include "verifier/checkpoint.h"
#include "verifier/verifier.h"

namespace wsv::verifier {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CheckpointIo, RoundTripPreservesEveryField) {
  const std::string path = TempPath("roundtrip.ckpt");
  Checkpoint cp;
  cp.fingerprint = FingerprintParts({"spec", "property"});
  cp.covered = {{0, 42}};
  cp.failed_indices = {3, 17, 40};
  cp.databases_completed = 45;
  cp.stop_reason = "deadline";
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());

  auto loaded = ReadCheckpoint(path, cp.fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->fingerprint, cp.fingerprint);
  EXPECT_EQ(loaded->covered, cp.covered);
  EXPECT_EQ(loaded->failed_indices, cp.failed_indices);
  EXPECT_EQ(loaded->databases_completed, 45u);
  EXPECT_EQ(loaded->stop_reason, "deadline");
}

TEST(CheckpointIo, WriteReplacesExistingFileAtomically) {
  const std::string path = TempPath("replace.ckpt");
  Checkpoint first;
  first.covered = {{0, 1}};
  ASSERT_TRUE(WriteCheckpoint(path, first).ok());
  Checkpoint second;
  second.covered = {{0, 2}};
  ASSERT_TRUE(WriteCheckpoint(path, second).ok());

  auto loaded = ReadCheckpoint(path, "");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(ContiguousPrefix(loaded->covered), 2u);
  // The temp file of the atomic write must not linger.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(CheckpointIo, MissingFileIsNotFound) {
  auto loaded = ReadCheckpoint(TempPath("does-not-exist.ckpt"), "");
  ASSERT_FALSE(loaded.ok());
}

/// `body` followed by its CRC32 trailer and the end marker: a v3 document
/// whose only defect is whatever `body` puts there.
std::string Sealed(const std::string& body) {
  char crc_line[24];
  std::snprintf(crc_line, sizeof(crc_line), "crc32 %08x\n", Crc32(body));
  return body + crc_line + "end\n";
}

TEST(CheckpointIo, RejectsCorruptedDocuments) {
  struct Case {
    const char* name;
    std::string content;
  };
  const Case cases[] = {
      {"empty", ""},
      {"bad magic", "not-a-checkpoint 1\nend\n"},
      {"unsupported version",
       "wsv-checkpoint 99\ncompleted_prefix 1\nend\n"},
      // The retired formats: v1 (prefix only) and v2 (intervals, no CRC).
      {"unsupported version 1",
       "wsv-checkpoint 1\nfingerprint -\ncompleted_prefix 3\n"
       "databases_completed 3\nstop_reason budget\nend\n"},
      {"unsupported version 2",
       "wsv-checkpoint 2\nfingerprint -\ncompleted_prefix 2\n"
       "covered 0:2,5:7\nunit database\nfailed 1\n"
       "databases_completed 4\nstop_reason budget\nend\n"},
      {"non-numeric prefix",
       "wsv-checkpoint 3\ncompleted_prefix abc\nend\n"},
      {"unknown field",
       "wsv-checkpoint 3\ncompleted_prefix 1\nbogus 3\nend\n"},
      {"truncated (no end marker)",
       "wsv-checkpoint 3\nfingerprint -\ncompleted_prefix 7\n"},
      {"missing covered intervals",
       Sealed("wsv-checkpoint 3\nfingerprint -\ncompleted_prefix 2\n")},
      {"failed index beyond prefix",
       Sealed("wsv-checkpoint 3\nfingerprint -\ncompleted_prefix 2\n"
              "covered 0:2\nfailed 5\n")},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = TempPath("corrupt.ckpt");
    std::ofstream(path) << c.content;
    auto loaded = ReadCheckpoint(path, "");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
  // The sealing itself is sound: the same document with a valid failed
  // index reads back.
  const std::string path = TempPath("sealed.ckpt");
  std::ofstream(path) << Sealed(
      "wsv-checkpoint 3\nfingerprint -\ncompleted_prefix 2\n"
      "covered 0:2\nfailed 1\n");
  auto loaded = ReadCheckpoint(path, "");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->failed_indices, std::vector<uint64_t>{1});
}

TEST(CheckpointIo, RejectsFingerprintMismatch) {
  const std::string path = TempPath("fingerprint.ckpt");
  Checkpoint cp;
  cp.fingerprint = FingerprintParts({"original spec"});
  cp.covered = {{0, 5}};
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());

  auto loaded = ReadCheckpoint(path, FingerprintParts({"edited spec"}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidSpec);
  // But the empty expected fingerprint disables the check (for tooling).
  EXPECT_TRUE(ReadCheckpoint(path, "").ok());
}

// --- v3 hardening: CRC trailer, durability, .bak recovery. ---

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CheckpointIo, WritesTheContiguousPrefixOfCoveredAsCompletedPrefix) {
  // The v3 format keeps its completed_prefix line, derived from `covered`.
  const std::string path = TempPath("prefix-line.ckpt");
  Checkpoint cp;
  cp.covered = {{12, 20}, {0, 9}};
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());
  EXPECT_NE(Slurp(path).find("completed_prefix 9\ncovered 0:9,12:20\n"),
            std::string::npos)
      << Slurp(path);
}

TEST(CheckpointCrc, MatchesTheIeeeCheckValue) {
  // The standard CRC32 check vector: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(CheckpointCrc, BitFlipUnderTheCrcIsDetected) {
  const std::string path = TempPath("bitflip.ckpt");
  Checkpoint cp;
  cp.fingerprint = FingerprintParts({"spec"});
  cp.covered = {{0, 9}, {12, 20}};
  cp.failed_indices = {4};
  cp.databases_completed = 17;
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());

  std::string text = Slurp(path);
  // Flip one bit in every body byte position in turn; each damaged copy
  // must be rejected (the keyword lines parse fine for most positions, so
  // only the CRC catches the flip).
  const size_t body_end = text.find("\ncrc32 ");
  ASSERT_NE(body_end, std::string::npos);
  for (size_t pos = 0; pos < body_end; pos += 7) {
    std::string damaged = text;
    damaged[pos] ^= 0x01;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << damaged;
    auto loaded = ReadCheckpoint(path, "");
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << pos << " was accepted";
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    }
  }
}

TEST(CheckpointCrc, TruncatedV3IsRejected) {
  const std::string path = TempPath("truncated.ckpt");
  Checkpoint cp;
  cp.covered = {{0, 100}};
  cp.databases_completed = 100;
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());
  const std::string text = Slurp(path);
  // Cut at every prefix length: a torn write can stop anywhere.
  for (size_t len : {text.size() - 5, text.size() / 2, size_t{10}}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << text.substr(0, len);
    auto loaded = ReadCheckpoint(path, "");
    EXPECT_FALSE(loaded.ok()) << "truncation to " << len << " accepted";
  }
}

TEST(CheckpointCrc, V3RequiresTheCrcTrailer) {
  // A v3 document without a crc32 line is torn by definition.
  const std::string path = TempPath("nocrc.ckpt");
  std::ofstream(path) << "wsv-checkpoint 3\nfingerprint -\n"
                         "completed_prefix 1\ncovered 0:1\nunit database\n"
                         "failed -\ndatabases_completed 1\n"
                         "stop_reason complete\nend\n";
  auto loaded = ReadCheckpoint(path, "");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(CheckpointRecovery, WriterKeepsTheLastGoodBackup) {
  const std::string path = TempPath("backup.ckpt");
  Checkpoint first;
  first.covered = {{0, 10}};
  ASSERT_TRUE(WriteCheckpoint(path, first).ok());
  Checkpoint second;
  second.covered = {{0, 20}};
  ASSERT_TRUE(WriteCheckpoint(path, second).ok());

  auto backup = ReadCheckpoint(path + ".bak", "");
  ASSERT_TRUE(backup.ok()) << backup.status();
  EXPECT_EQ(ContiguousPrefix(backup->covered), 10u);
}

TEST(CheckpointRecovery, CorruptPrimaryFallsBackToBak) {
  const std::string path = TempPath("recover.ckpt");
  Checkpoint first;
  first.covered = {{0, 10}};
  ASSERT_TRUE(WriteCheckpoint(path, first).ok());
  Checkpoint second;
  second.covered = {{0, 20}};
  ASSERT_TRUE(WriteCheckpoint(path, second).ok());

  // Damage the primary under its CRC.
  std::string text = Slurp(path);
  text[text.find("completed_prefix")] ^= 0x20;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

  ASSERT_FALSE(ReadCheckpoint(path, "").ok());
  auto recovered = ReadCheckpointWithRecovery(path, "");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->recovered_from_backup);
  EXPECT_EQ(ContiguousPrefix(recovered->checkpoint.covered), 10u);
}

TEST(CheckpointRecovery, HealthyPrimaryDoesNotTouchTheBak) {
  const std::string path = TempPath("healthy.ckpt");
  Checkpoint cp;
  cp.covered = {{0, 7}};
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());
  auto recovered = ReadCheckpointWithRecovery(path, "");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(recovered->recovered_from_backup);
  EXPECT_EQ(ContiguousPrefix(recovered->checkpoint.covered), 7u);
}

TEST(CheckpointRecovery, BothFilesBadReportsTheChain) {
  const std::string path = TempPath("chain.ckpt");
  std::ofstream(path) << "garbage\n";
  std::ofstream(path + ".bak") << "also garbage\n";
  auto recovered = ReadCheckpointWithRecovery(path, "");
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kParseError);
  EXPECT_NE(recovered.status().message().find("also unusable"),
            std::string::npos)
      << recovered.status();
}

TEST(CheckpointRecovery, MissingPrimaryUsesBak) {
  const std::string path = TempPath("missing-primary.ckpt");
  Checkpoint cp;
  cp.covered = {{0, 3}};
  ASSERT_TRUE(WriteCheckpoint(path + ".bak", cp).ok());
  auto recovered = ReadCheckpointWithRecovery(path, "");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->recovered_from_backup);
  EXPECT_EQ(ContiguousPrefix(recovered->checkpoint.covered), 3u);
}

TEST(CheckpointRecovery, FingerprintMismatchIsNeverRecovered) {
  // Recovery must not resurrect a different problem's progress: a valid
  // checkpoint with the wrong fingerprint is a hard error even when the
  // .bak (same fingerprint) would also "work".
  const std::string path = TempPath("wrongfp.ckpt");
  Checkpoint cp;
  cp.fingerprint = FingerprintParts({"problem A"});
  cp.covered = {{0, 5}};
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());  // rotates a .bak into place

  auto recovered =
      ReadCheckpointWithRecovery(path, FingerprintParts({"problem B"}));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidSpec);
}

TEST(CheckpointRecovery, StaleTmpFromACrashedWriterIsReplaced) {
  const std::string path = TempPath("staletmp.ckpt");
  std::ofstream(path + ".tmp") << "half-written torn garbage";
  Checkpoint cp;
  cp.covered = {{0, 9}};
  ASSERT_TRUE(WriteCheckpoint(path, cp).ok());
  auto loaded = ReadCheckpoint(path, "");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(ContiguousPrefix(loaded->covered), 9u);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(CheckpointIo, FingerprintIsBoundaryAware) {
  // Length-prefixed parts: moving a character across a part boundary must
  // change the fingerprint even though the concatenation is identical.
  EXPECT_NE(FingerprintParts({"ab", "c"}), FingerprintParts({"a", "bc"}));
  EXPECT_EQ(FingerprintParts({"ab", "c"}), FingerprintParts({"ab", "c"}));
}

// --- End-to-end: interrupt, checkpoint, resume, identical verdict. ---

constexpr char kPingPong[] = R"(
peer Requester {
  database { item(x); }
  input    { ask(x); }
  state    { got(x); }
  inqueue flat  { resp(x); }
  outqueue flat { req(x); }
  rules {
    options ask(x) :- item(x);
    send req(x) :- ask(x);
    insert got(x) :- ?resp(x);
  }
}
peer Responder {
  inqueue flat  { req(x); }
  outqueue flat { resp(x); }
  rules {
    send resp(x) :- ?req(x);
  }
}
)";

struct RunOutput {
  VerificationResult result;
  std::string counterexample_text;
};

RunOutput RunVerifier(const spec::Composition& comp,
                      const std::string& property_text,
                      VerifierOptions options) {
  auto property = ltl::Property::Parse(property_text);
  EXPECT_TRUE(property.ok()) << property.status();
  Verifier verifier(&comp, std::move(options));
  auto result = verifier.Verify(*property);
  EXPECT_TRUE(result.ok()) << result.status();
  RunOutput out;
  out.result = std::move(*result);
  if (out.result.counterexample.has_value()) {
    out.counterexample_text =
        out.result.counterexample->ToString(comp, verifier.interner());
  }
  return out;
}

/// The resume contract end to end: a run stopped early (here via
/// max_databases, which exercises the same completed-prefix machinery as a
/// deadline without timing nondeterminism) leaves a checkpoint from which
/// the resumed run reproduces the uninterrupted verdict, witness index and
/// rendered counterexample bit-for-bit.
TEST(CheckpointResume, ResumedRunMatchesUninterruptedBitForBit) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  const std::string property = "forall x: G(not Requester.got(x))";
  const std::string ckpt = TempPath("resume.ckpt");
  const std::string fingerprint = FingerprintParts({kPingPong, property});

  VerifierOptions base;
  base.fresh_domain_size = 2;

  RunOutput full = RunVerifier(*comp, property, base);
  ASSERT_FALSE(full.result.holds);
  ASSERT_TRUE(full.result.counterexample.has_value());

  // Interrupted leg: stop before the witness, leaving a checkpoint.
  VerifierOptions interrupted = base;
  interrupted.max_databases =
      full.result.counterexample->database_index;  // stop just short of it
  interrupted.checkpoint_path = ckpt;
  interrupted.checkpoint_fingerprint = fingerprint;
  RunOutput partial = RunVerifier(*comp, property, interrupted);
  EXPECT_TRUE(partial.result.holds);  // bounded: witness not reached yet
  EXPECT_EQ(partial.result.coverage.stop_reason, StopReason::kBudget);

  auto loaded = ReadCheckpoint(ckpt, fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(ContiguousPrefix(loaded->covered),
            full.result.counterexample->database_index);

  // Resumed leg: fast-forward past the checkpointed prefix.
  VerifierOptions resumed = base;
  resumed.checkpoint_path = ckpt;
  resumed.checkpoint_fingerprint = fingerprint;
  resumed.resume_covered = loaded->covered;
  for (uint64_t index : loaded->failed_indices) {
    resumed.resume_failed.push_back(static_cast<size_t>(index));
  }
  RunOutput rerun = RunVerifier(*comp, property, resumed);

  ASSERT_FALSE(rerun.result.holds);
  ASSERT_TRUE(rerun.result.counterexample.has_value());
  EXPECT_EQ(rerun.result.counterexample->database_index,
            full.result.counterexample->database_index);
  EXPECT_EQ(rerun.result.counterexample->closure_valuation,
            full.result.counterexample->closure_valuation);
  EXPECT_EQ(rerun.counterexample_text, full.counterexample_text);

  // The final checkpoint of the resumed run records the witness run's stop,
  // with the prefix capped at the witness index so resuming a VIOLATED run
  // re-checks the witness database rather than skipping past it.
  auto final_ckpt = ReadCheckpoint(ckpt, fingerprint);
  ASSERT_TRUE(final_ckpt.ok()) << final_ckpt.status();
  EXPECT_EQ(final_ckpt->stop_reason, "complete");
  EXPECT_EQ(ContiguousPrefix(final_ckpt->covered),
            full.result.counterexample->database_index);

  // Resume of the completed VIOLATED checkpoint reproduces the verdict.
  VerifierOptions again = resumed;
  again.resume_covered = final_ckpt->covered;
  RunOutput rerun2 = RunVerifier(*comp, property, again);
  ASSERT_FALSE(rerun2.result.holds);
  ASSERT_TRUE(rerun2.result.counterexample.has_value());
  EXPECT_EQ(rerun2.result.counterexample->database_index,
            full.result.counterexample->database_index);
}

/// Cancellation through the public Verifier options: the partial result
/// carries kCanceled coverage and a checkpoint, and a Reset() control plus
/// resume completes the verification.
TEST(CheckpointResume, CanceledRunLeavesResumableCheckpoint) {
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok());
  const std::string property =
      "forall x: G(Requester.got(x) -> Requester.item(x))";
  const std::string ckpt = TempPath("canceled.ckpt");

  RunControl control;
  control.RequestCancel();
  VerifierOptions options;
  options.fresh_domain_size = 2;
  options.control = &control;
  options.checkpoint_path = ckpt;
  RunOutput canceled = RunVerifier(*comp, property, options);
  EXPECT_EQ(canceled.result.coverage.stop_reason, StopReason::kCanceled);
  EXPECT_FALSE(canceled.result.complete);

  auto loaded = ReadCheckpoint(ckpt, "");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->stop_reason, "canceled");

  control.Reset();
  options.resume_covered = loaded->covered;
  RunOutput resumed = RunVerifier(*comp, property, options);
  EXPECT_TRUE(resumed.result.holds);
  EXPECT_EQ(resumed.result.coverage.stop_reason, StopReason::kComplete);
}

TEST(StopReasonNames, RoundTrip) {
  for (StopReason reason :
       {StopReason::kComplete, StopReason::kBudget, StopReason::kDeadline,
        StopReason::kCanceled, StopReason::kDbFailures,
        StopReason::kRangeEnd, StopReason::kMemoryBudget}) {
    StopReason parsed;
    ASSERT_TRUE(ParseStopReason(StopReasonName(reason), &parsed))
        << StopReasonName(reason);
    EXPECT_EQ(parsed, reason);
  }
  StopReason parsed;
  EXPECT_FALSE(ParseStopReason("nonsense", &parsed));
}

}  // namespace
}  // namespace wsv::verifier
