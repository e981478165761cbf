// Replays every seed in tests/corpus/ through its parser, asserting the
// ingestion contract the fuzz harnesses enforce: each input either parses
// successfully or throws support::DiagnosticError.  Anything else -- a
// foreign exception type, a crash, a sanitizer report (this test runs in
// the ASan/UBSan CI job) -- is a contract violation.  Known-good seeds
// (valid.journal, minimal_v3.prox, report_v2.json, nand3.sp, valid.argv)
// must load; known-bad seeds must be rejected with the expected typed code.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cells/corner.hpp"
#include "cli_table.hpp"
#include "characterize/serialize.hpp"
#include "fleet/bundle.hpp"
#include "obs/report.hpp"
#include "spice/netlist.hpp"
#include "sta/blif.hpp"
#include "support/diagnostic.hpp"
#include "support/journal.hpp"

namespace fs = std::filesystem;
using prox::support::DiagnosticError;

namespace {

std::string readAll(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "cannot open corpus file " << p;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::vector<fs::path> corpusFiles(const char* subdir) {
  const fs::path dir = fs::path(PROX_CORPUS_DIR) / subdir;
  EXPECT_TRUE(fs::is_directory(dir)) << "missing corpus dir " << dir;
  std::vector<fs::path> files;
  if (fs::is_directory(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  EXPECT_FALSE(files.empty()) << "empty corpus dir " << dir;
  return files;
}

/// Runs @p parse on every file of @p subdir; success and DiagnosticError
/// both satisfy the contract, any other exception fails the test.  Returns
/// the set of file names that parsed cleanly (for accept/reject spot
/// checks).
std::vector<std::string> replayAll(
    const char* subdir, const std::function<void(const std::string&)>& parse) {
  std::vector<std::string> accepted;
  for (const fs::path& p : corpusFiles(subdir)) {
    const std::string bytes = readAll(p);
    try {
      parse(bytes);
      accepted.push_back(p.filename().string());
    } catch (const DiagnosticError&) {
      // Typed rejection: within contract.
    } catch (const std::exception& e) {
      ADD_FAILURE() << p << " escaped with foreign exception type: "
                    << e.what();
    }
  }
  return accepted;
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

}  // namespace

TEST(CorpusTest, SpiceSeedsHonorContract) {
  const auto accepted = replayAll("spice", [](const std::string& bytes) {
    prox::spice::parseNetlist(bytes);
  });
  EXPECT_TRUE(contains(accepted, "nand3.sp"));
  EXPECT_FALSE(contains(accepted, "overflow_suffix.sp"));
  EXPECT_FALSE(contains(accepted, "underflow_suffix.sp"));
}

TEST(CorpusTest, ProxSeedsHonorContract) {
  const auto accepted = replayAll("prox", [](const std::string& bytes) {
    std::istringstream is(bytes);
    prox::characterize::loadGateModel(is);
  });
  EXPECT_TRUE(contains(accepted, "minimal_v3.prox"));
  EXPECT_FALSE(contains(accepted, "overlong_token.prox"));
  // Each rejection seed carries a current header, so it is refused for the
  // defect it targets, not at line 1.
  const struct {
    const char* seed;
    const char* reason;
    int line;
  } kRejected[] = {
      {"bitflip_v3.prox", "crc32 mismatch", 21},
      {"huge_fanin.prox", "gate fanin 4000 outside [1, 64]", 2},
      {"huge_row_count.prox",
       "count 999999999 in single table rows exceeds ceiling 4194304", 9},
      {"truncated.prox", "unexpected end of file reading single table row", 10},
      {"minimal_v1.prox", "bad header", 1},  // unchecksummed legacy version
  };
  for (const auto& r : kRejected) {
    EXPECT_FALSE(contains(accepted, r.seed)) << r.seed;
    std::istringstream is(
        readAll(fs::path(PROX_CORPUS_DIR) / "prox" / r.seed));
    try {
      prox::characterize::loadGateModel(is);
    } catch (const DiagnosticError& e) {
      EXPECT_NE(e.diagnostic().message.find(r.reason), std::string::npos)
          << r.seed << ": " << e.diagnostic().message;
      EXPECT_EQ(e.diagnostic().line, r.line) << r.seed;
    }
  }
}

TEST(CorpusTest, JournalSeedsHonorContract) {
  const auto accepted = replayAll("journal", [](const std::string& bytes) {
    std::istringstream is(bytes);
    prox::support::Journal::loadStream(is, "<corpus>");
  });
  EXPECT_TRUE(contains(accepted, "valid.journal"));
  // Tail damage loads by design (crash contract) -- the point of the
  // huge_count seed is that the bogus length is rejected by arithmetic, not
  // honoured by the allocator; ASan would flag the multi-GB resize.
  EXPECT_TRUE(contains(accepted, "huge_count.journal"));
  EXPECT_FALSE(contains(accepted, "bad_header.journal"));
}

TEST(CorpusTest, JournalHugeCountDropsRecordAsTornTail) {
  std::istringstream is(
      readAll(fs::path(PROX_CORPUS_DIR) / "journal" / "huge_count.journal"));
  const auto contents = prox::support::Journal::loadStream(is, "<corpus>");
  ASSERT_TRUE(contents.has_value());
  EXPECT_TRUE(contents->truncatedTail);
  EXPECT_TRUE(contents->records.empty());
}

TEST(CorpusTest, BlifSeedsHonorContract) {
  static const prox::sta::GateLibrary lib = prox::sta::analyticLibrary();
  const auto accepted = replayAll("blif", [](const std::string& bytes) {
    prox::sta::Netlist nl;
    prox::sta::readBlifString(bytes, lib, &nl);
  });
  for (const char* valid :
       {"mini_bench.blif", "crlf.blif", "continued_header.blif",
        "midline_comment.blif", "latch_constant.blif", "triple_driver.blif"}) {
    EXPECT_TRUE(contains(accepted, valid)) << valid;
  }
  EXPECT_FALSE(contains(accepted, "truncated_card.blif"));
  EXPECT_FALSE(contains(accepted, "unterminated_names.blif"));
  EXPECT_FALSE(contains(accepted, "duplicate_model.blif"));
  EXPECT_FALSE(contains(accepted, "huge_fanin.blif"));
  EXPECT_FALSE(contains(accepted, "nonascii_junk.blif"));
}

TEST(CorpusTest, BlifTripleDriverSeedIsUniquifiedNotRejected) {
  static const prox::sta::GateLibrary lib = prox::sta::analyticLibrary();
  prox::sta::Netlist nl;
  prox::sta::readBlifString(
      readAll(fs::path(PROX_CORPUS_DIR) / "blif" / "triple_driver.blif"), lib,
      &nl);
  ASSERT_EQ(nl.nodeCount(), 3u);
  EXPECT_EQ(nl.nodeName(prox::sta::NodeId(0u)), "x");
  EXPECT_EQ(nl.nodeName(prox::sta::NodeId(1u)), "x#2");
  EXPECT_EQ(nl.nodeName(prox::sta::NodeId(2u)), "x#3");
  const auto issues = nl.validate();
  ASSERT_EQ(issues.size(), 2u);
  for (const auto& issue : issues) {
    EXPECT_EQ(issue.kind, prox::sta::StructuralIssue::Kind::MultiDriver);
  }
}

TEST(CorpusTest, CornersSeedsHonorContract) {
  const auto accepted = replayAll("corners", [](const std::string& bytes) {
    prox::cells::parseCornersFile(bytes, "<corpus>");
  });
  EXPECT_TRUE(contains(accepted, "default.corners"));
  EXPECT_FALSE(contains(accepted, "bad_magic.corners"));
  EXPECT_FALSE(contains(accepted, "huge_scale.corners"));
  EXPECT_FALSE(contains(accepted, "dup_name.corners"));
}

TEST(CorpusTest, BundleSeedsHonorContract) {
  const auto accepted = replayAll("bundle", [](const std::string& bytes) {
    prox::fleet::parseBundle(bytes, "<corpus>");
  });
  // A bundle of nothing but holes is valid -- quarantine is data, not error.
  EXPECT_TRUE(contains(accepted, "holes_only.proxbundle"));
  EXPECT_FALSE(contains(accepted, "tampered_line.proxbundle"));
  EXPECT_FALSE(contains(accepted, "truncated.proxbundle"));
  // The bogus corner count must be rejected by arithmetic, not allocated.
  EXPECT_FALSE(contains(accepted, "huge_count.proxbundle"));
}

TEST(CorpusTest, JsonSeedsHonorContract) {
  const auto accepted = replayAll("json", [](const std::string& bytes) {
    prox::obs::parseJson(bytes);
  });
  EXPECT_TRUE(contains(accepted, "report_v2.json"));
  EXPECT_TRUE(contains(accepted, "report_v1.json"));
  EXPECT_FALSE(contains(accepted, "deep_nesting.json"));
  EXPECT_FALSE(contains(accepted, "huge_exponent.json"));
  EXPECT_FALSE(contains(accepted, "bad_unicode_escape.json"));
}

TEST(CorpusTest, CliSeedsHonorContract) {
  const auto accepted = replayAll("cli", [](const std::string& bytes) {
    prox::fuzz::parseCliBytes(bytes);
  });
  EXPECT_TRUE(contains(accepted, "valid.argv"));
  EXPECT_TRUE(contains(accepted, "bare_stats.argv"));
  EXPECT_TRUE(contains(accepted, "empty.argv"));
  for (const char* rejected :
       {"garbage_threads.argv", "prefix_number.argv",
        "overflow_max_memory.argv", "negative_seed.argv", "wide_depth.argv",
        "nan_timeout.argv", "zero_timeout.argv", "missing_value.argv",
        "empty_value.argv", "unknown_flag.argv", "positional.argv",
        "stats_space_file.argv", "toggle_with_value.argv", "bad_choice.argv",
        "bad_list_item.argv", "overlong_number.argv", "embedded_junk.argv"}) {
    EXPECT_FALSE(contains(accepted, rejected)) << rejected;
  }
}
