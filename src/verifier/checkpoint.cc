#include "verifier/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/fault.h"
#include "obs/metrics.h"

namespace wsv::verifier {

namespace {

constexpr char kMagic[] = "wsv-checkpoint";
constexpr int kVersion = 3;

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::ParseError("checkpoint '" + path + "' is corrupted (" +
                            why + "); delete it or rerun without --resume");
}

/// Flushes userspace + kernel buffers of `f` to stable storage. Returns
/// false on any failure.
bool FlushAndSync(std::FILE* f) {
  if (std::fflush(f) != 0) return false;
#if defined(__unix__) || defined(__APPLE__)
  if (fsync(fileno(f)) != 0) return false;
#endif
  return true;
}

/// fsyncs the directory containing `path` so a just-renamed entry is
/// durable. Best-effort on platforms without directory fds.
void SyncParentDir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    fsync(fd);
    close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

Status PublishDurably(const std::string& path, std::string_view doc,
                      const std::string& what, bool keep_backup,
                      const char* fault_site) {
  const std::string tmp = path + ".tmp";
  // A previous writer may have crashed between opening and renaming; its
  // stale temp must not shadow this write or linger forever.
  std::remove(tmp.c_str());
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return Status::NotFound("cannot open " + what + " for writing: " + tmp);
  }
  // Write in two halves with the fault site between them: in crash mode the
  // process dies with a torn temp file flushed to disk (what a power cut
  // mid-write leaves); in fail mode this simulates a plain IO error.
  const size_t half = doc.size() / 2;
  bool write_ok = std::fwrite(doc.data(), 1, half, out) == half &&
                  std::fflush(out) == 0;
  if (write_ok && fault_site != nullptr && WSV_FAULT_POINT(fault_site)) {
    std::fclose(out);
    std::remove(tmp.c_str());
    return Status::Internal(what + " write failed (injected fault '" +
                            fault_site + "'): " + tmp);
  }
  write_ok = write_ok &&
             std::fwrite(doc.data() + half, 1, doc.size() - half, out) ==
                 doc.size() - half &&
             FlushAndSync(out);
  if (std::fclose(out) != 0) write_ok = false;
  if (!write_ok) {
    std::remove(tmp.c_str());
    return Status::Internal("failed writing " + what + ": " + tmp);
  }
  // Best effort: the first write has nothing to back up. A crash between
  // the two renames leaves only the .bak, which checkpoint recovery also
  // handles.
  if (keep_backup) std::rename(path.c_str(), (path + ".bak").c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("failed renaming " + what + " '" + tmp +
                            "' over '" + path + "'");
  }
  // The rename is only durable once the directory entry is, too.
  SyncParentDir(path);
  return Status::Ok();
}

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (char c : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(c)) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<IndexInterval> NormalizeIntervals(std::vector<IndexInterval> set) {
  set.erase(std::remove_if(set.begin(), set.end(),
                           [](const IndexInterval& iv) {
                             return iv.second <= iv.first;
                           }),
            set.end());
  std::sort(set.begin(), set.end());
  std::vector<IndexInterval> out;
  for (const IndexInterval& iv : set) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

void AddInterval(std::vector<IndexInterval>* set, uint64_t lo, uint64_t hi) {
  if (hi <= lo) return;
  set->emplace_back(lo, hi);
  *set = NormalizeIntervals(std::move(*set));
}

bool IntervalsContain(const std::vector<IndexInterval>& set, uint64_t index) {
  for (const IndexInterval& iv : set) {
    if (index < iv.first) return false;
    if (index < iv.second) return true;
  }
  return false;
}

std::vector<IndexInterval> IntersectIntervals(
    const std::vector<IndexInterval>& set, uint64_t lo, uint64_t hi) {
  std::vector<IndexInterval> out;
  for (const IndexInterval& iv : set) {
    uint64_t a = std::max(iv.first, lo);
    uint64_t b = std::min(iv.second, hi);
    if (a < b) out.emplace_back(a, b);
  }
  return out;
}

uint64_t ContiguousPrefix(const std::vector<IndexInterval>& set) {
  if (set.empty() || set.front().first != 0) return 0;
  return set.front().second;
}

std::vector<IndexInterval> IntervalGaps(const std::vector<IndexInterval>& set,
                                        uint64_t end) {
  std::vector<IndexInterval> gaps;
  uint64_t cursor = 0;
  for (const IndexInterval& iv : set) {
    if (cursor >= end) break;
    if (iv.first > cursor) {
      gaps.emplace_back(cursor, std::min(iv.first, end));
    }
    cursor = std::max(cursor, iv.second);
  }
  if (cursor < end) gaps.emplace_back(cursor, end);
  return gaps;
}

uint64_t ResumeStart(const std::vector<IndexInterval>& set, uint64_t lo) {
  for (const IndexInterval& iv : set) {
    if (lo < iv.first) return lo;
    if (lo < iv.second) return iv.second;
  }
  return lo;
}

std::string IntervalsToString(const std::vector<IndexInterval>& set) {
  if (set.empty()) return "-";
  std::ostringstream out;
  for (size_t i = 0; i < set.size(); ++i) {
    if (i > 0) out << ',';
    out << set[i].first << ':' << set[i].second;
  }
  return out.str();
}

Result<std::vector<IndexInterval>> ParseIntervals(const std::string& text) {
  std::vector<IndexInterval> set;
  if (text == "-" || text.empty()) return set;
  std::istringstream items(text);
  std::string item;
  while (std::getline(items, item, ',')) {
    size_t colon = item.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("interval '" + item + "' is not 'lo:hi'");
    }
    uint64_t lo = 0;
    uint64_t hi = 0;
    try {
      size_t used = 0;
      lo = std::stoull(item.substr(0, colon), &used);
      if (used != colon) throw std::invalid_argument(item);
      std::string hi_text = item.substr(colon + 1);
      hi = std::stoull(hi_text, &used);
      if (used != hi_text.size()) throw std::invalid_argument(item);
    } catch (...) {
      return Status::ParseError("interval '" + item + "' is not numeric");
    }
    if (hi < lo) {
      return Status::ParseError("interval '" + item + "' has hi < lo");
    }
    set.emplace_back(lo, hi);
  }
  return set;
}

Status WriteCheckpoint(const std::string& path, const Checkpoint& cp) {
  const std::vector<IndexInterval> covered = NormalizeIntervals(cp.covered);

  // The whole document is built in memory first: the CRC trailer covers
  // every byte before it, and the fault site below needs a well-defined
  // "half written" prefix to crash on.
  std::ostringstream body;
  body << kMagic << ' ' << kVersion << '\n';
  body << "fingerprint "
       << (cp.fingerprint.empty() ? "-" : cp.fingerprint) << '\n';
  body << "completed_prefix " << ContiguousPrefix(covered) << '\n';
  body << "covered " << IntervalsToString(covered) << '\n';
  body << "unit " << (cp.unit.empty() ? "database" : cp.unit) << '\n';
  body << "failed";
  if (cp.failed_indices.empty()) {
    body << " -";
  } else {
    for (size_t i = 0; i < cp.failed_indices.size(); ++i) {
      body << (i == 0 ? " " : ",") << cp.failed_indices[i];
    }
  }
  body << '\n';
  body << "databases_completed " << cp.databases_completed << '\n';
  body << "stop_reason " << cp.stop_reason << '\n';
  std::string doc = body.str();
  char crc_line[24];
  std::snprintf(crc_line, sizeof(crc_line), "crc32 %08x\n", Crc32(doc));
  doc += crc_line;
  doc += "end\n";

  return PublishDurably(path, doc, "checkpoint", /*keep_backup=*/true,
                        "checkpoint.write.io");
}

Result<Checkpoint> ReadCheckpoint(const std::string& path,
                                  const std::string& expected_fingerprint) {
  if (WSV_FAULT_POINT("checkpoint.read.io")) {
    return Corrupt(path, "injected fault 'checkpoint.read.io'");
  }
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot open checkpoint file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  Checkpoint cp;
  std::string line;
  int version = -1;

  // Line-by-line over the in-memory buffer, tracking byte offsets: the v3
  // CRC trailer covers every byte before its own line.
  size_t cursor = 0;
  auto next_line = [&text, &cursor](std::string* out, size_t* start) {
    if (cursor >= text.size()) return false;
    *start = cursor;
    size_t nl = text.find('\n', cursor);
    if (nl == std::string::npos) {
      *out = text.substr(cursor);
      cursor = text.size();
    } else {
      *out = text.substr(cursor, nl - cursor);
      cursor = nl + 1;
    }
    return true;
  };

  size_t line_start = 0;
  if (!next_line(&line, &line_start)) return Corrupt(path, "empty file");
  {
    std::istringstream header(line);
    std::string magic;
    header >> magic >> version;
    if (magic != kMagic) return Corrupt(path, "bad magic");
    if (version != kVersion) {
      return Corrupt(path, "unsupported version " + std::to_string(version));
    }
  }

  bool saw_end = false;
  bool saw_prefix = false;
  bool saw_covered = false;
  bool saw_crc = false;
  while (next_line(&line, &line_start)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "fingerprint") {
      fields >> cp.fingerprint;
      if (cp.fingerprint == "-") cp.fingerprint.clear();
    } else if (key == "completed_prefix") {
      // Derived from `covered`; read only to validate the field.
      uint64_t prefix = 0;
      if (!(fields >> prefix)) {
        return Corrupt(path, "non-numeric completed_prefix");
      }
      saw_prefix = true;
    } else if (key == "covered") {
      std::string list;
      fields >> list;
      auto parsed = ParseIntervals(list);
      if (!parsed.ok()) {
        return Corrupt(path, "bad covered list: " + parsed.status().message());
      }
      cp.covered = NormalizeIntervals(std::move(parsed).value());
      saw_covered = true;
    } else if (key == "unit") {
      fields >> cp.unit;
      if (cp.unit != "database" && cp.unit != "valuation") {
        return Corrupt(path, "unknown unit '" + cp.unit + "'");
      }
    } else if (key == "databases_completed") {
      if (!(fields >> cp.databases_completed)) {
        return Corrupt(path, "non-numeric databases_completed");
      }
    } else if (key == "stop_reason") {
      fields >> cp.stop_reason;
    } else if (key == "crc32") {
      std::string hex;
      fields >> hex;
      uint32_t recorded = 0;
      try {
        size_t used = 0;
        recorded = static_cast<uint32_t>(std::stoul(hex, &used, 16));
        if (used != hex.size() || hex.empty()) {
          throw std::invalid_argument(hex);
        }
      } catch (...) {
        return Corrupt(path, "non-hex crc32 '" + hex + "'");
      }
      uint32_t actual =
          Crc32(std::string_view(text.data(), line_start));
      if (actual != recorded) {
        char diag[64];
        std::snprintf(diag, sizeof(diag),
                      "crc mismatch: recorded %08x, actual %08x", recorded,
                      actual);
        return Corrupt(path, diag);
      }
      saw_crc = true;
    } else if (key == "failed") {
      std::string list;
      fields >> list;
      if (list != "-" && !list.empty()) {
        std::istringstream items(list);
        std::string item;
        while (std::getline(items, item, ',')) {
          try {
            cp.failed_indices.push_back(std::stoull(item));
          } catch (...) {
            return Corrupt(path, "non-numeric failed index '" + item + "'");
          }
        }
      }
    } else {
      return Corrupt(path, "unknown field '" + key + "'");
    }
  }
  if (!saw_end) return Corrupt(path, "truncated: missing end marker");
  if (!saw_prefix) return Corrupt(path, "missing completed_prefix");
  if (!saw_covered) return Corrupt(path, "missing covered intervals");
  if (!saw_crc) return Corrupt(path, "missing crc32 trailer");
  for (uint64_t index : cp.failed_indices) {
    if (!IntervalsContain(cp.covered, index)) {
      return Corrupt(path, "failed index beyond the completed prefix");
    }
  }
  if (!expected_fingerprint.empty() &&
      cp.fingerprint != expected_fingerprint) {
    return Status::InvalidSpec(
        "checkpoint '" + path + "' was written for a different "
        "spec/property/options combination (fingerprint " + cp.fingerprint +
        " != " + expected_fingerprint + "); refusing to resume");
  }
  return cp;
}

Result<RecoveredCheckpoint> ReadCheckpointWithRecovery(
    const std::string& path, const std::string& expected_fingerprint) {
  Result<Checkpoint> primary = ReadCheckpoint(path, expected_fingerprint);
  if (primary.ok()) {
    return RecoveredCheckpoint{std::move(primary).value(), false};
  }
  // A fingerprint mismatch is not damage — the file is intact and belongs
  // to a different problem; falling back would be wrong, not resilient.
  if (primary.status().code() == StatusCode::kInvalidSpec) {
    return primary.status();
  }
  const std::string bak = path + ".bak";
  Result<Checkpoint> backup = ReadCheckpoint(bak, expected_fingerprint);
  if (backup.ok()) {
    obs::Registry::Global().counter("checkpoint.recoveries").Add(1);
    std::fprintf(stderr,
                 "wsv: checkpoint '%s' unusable (%s); recovered from '%s'\n",
                 path.c_str(), primary.status().message().c_str(),
                 bak.c_str());
    return RecoveredCheckpoint{std::move(backup).value(), true};
  }
  if (backup.status().code() == StatusCode::kInvalidSpec) {
    return backup.status();
  }
  return Status(primary.status().code(),
                primary.status().message() + "; backup '" + bak +
                    "' also unusable: " + backup.status().message());
}

std::string FingerprintParts(std::initializer_list<std::string_view> parts) {
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&hash](const char* data, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      hash ^= static_cast<unsigned char>(data[i]);
      hash *= 1099511628211ull;  // FNV prime
    }
  };
  for (std::string_view part : parts) {
    // Length prefix keeps ("ab","c") distinct from ("a","bc").
    uint64_t len = part.size();
    mix(reinterpret_cast<const char*>(&len), sizeof(len));
    mix(part.data(), part.size());
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(out);
}

}  // namespace wsv::verifier
