// Golden diagnostics for the BLIF reader (sta/blif.cpp): every rejection
// site is pinned to its StatusCode, its exact message, its site and the line
// it reports, and the lexer's edge cases (CRLF, trailing blanks, mid-line
// comments, '\' continuations, junk after .end) are pinned to the netlist
// they build or the line they blame.  corpus_test only checks that *some*
// DiagnosticError escapes; this file fixes *which* one.  A property test
// then holds the reader to the reference reader in blif_reference.hpp over
// seeded mutations of generated circuits.
//
// Line conventions the cases below rely on:
//   * grammar errors name the logical line, i.e. the physical line holding
//     the first token of a '\'-continued line;
//   * the token-size cap and the token budget name the physical line of the
//     offending token;
//   * "missing .end" names the last physical line (a trailing newline opens
//     one more, empty, line).

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "blif_reference.hpp"
#include "sta/blif.hpp"
#include "sta/synth.hpp"
#include "support/diagnostic.hpp"

namespace {

using namespace prox;
using support::DiagnosticError;
using support::StatusCode;

const sta::GateLibrary& library() {
  static const sta::GateLibrary lib = sta::analyticLibrary();
  return lib;
}

/// The reader's verdict on one input: Ok, or the diagnostic it threw.
struct Verdict {
  StatusCode code = StatusCode::Ok;
  std::string message;
  std::string site;
  int line = -1;
};

Verdict verdictOf(std::string_view text, const sta::BlifOptions& options = {},
                  const sta::GateLibrary& lib = library()) {
  sta::Netlist nl;
  try {
    sta::readBlifString(text, lib, &nl, options);
  } catch (const DiagnosticError& e) {
    return {e.code(), e.diagnostic().message, e.diagnostic().site,
            e.diagnostic().line};
  }
  return {};
}

struct Case {
  const char* what;
  std::string text;
  StatusCode code;
  std::string message;
  int line;
};

void expectVerdicts(const std::vector<Case>& cases,
                    const sta::BlifOptions& options = {},
                    const sta::GateLibrary& lib = library()) {
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const Verdict v = verdictOf(c.text, options, lib);
    EXPECT_EQ(v.code, c.code);
    EXPECT_EQ(v.message, c.message);
    EXPECT_EQ(v.line, c.line);
    if (c.code != StatusCode::Ok) {
      EXPECT_EQ(v.site, "sta.blif");
    }
  }
}

/// Options whose allocation budget is exactly @p bytes, whatever the input
/// size, so a test can trip it at a chosen charge.
sta::BlifOptions budgetOf(std::size_t bytes) {
  sta::BlifOptions o;
  o.limits.allocFactor = 0;
  o.limits.allocFloor = bytes;
  return o;
}

std::string budgetMessage(const char* what, std::size_t cap) {
  return std::string("allocation budget exceeded reading ") + what +
         " (declared sizes need > " + std::to_string(cap) + " bytes for a " +
         std::to_string(cap) + "-byte budget derived from the input size)";
}

constexpr StatusCode kParse = StatusCode::ParseError;
constexpr StatusCode kResource = StatusCode::ResourceExhausted;

// --- Grammar errors (failParse) -----------------------------------------------

TEST(BlifReaderDiagnostics, CoverRowErrors) {
  expectVerdicts({
      {"constant row with two tokens",
       ".model m\n.outputs k\n.names k\n1 1\n.end\n", kParse,
       "constant cover row must be a single '0' or '1'", 4},
      {"constant row not a bit", ".model m\n.names k\n-\n.end\n", kParse,
       "constant cover row must be a single '0' or '1'", 3},
      {"row with one token", ".model m\n.inputs a\n.names a y\n0\n.end\n",
       kParse, "cover row must be <plane> <output>", 4},
      {"row with three tokens",
       ".model m\n.inputs a\n.names a y\n0 1 1\n.end\n", kParse,
       "cover row must be <plane> <output>", 4},
      {"row wider than the fanin",
       ".model m\n.inputs a b\n.names a b y\n11 0\n111 0\n.end\n", kParse,
       "cover row width 3 does not match fanin 2", 5},
      {"bad plane character", ".model m\n.inputs a b\n.names a b y\n1x 0\n.end\n",
       kParse, "invalid cover-plane character 'x'", 4},
      {"bad output bit", ".model m\n.inputs a\n.names a y\n0 -\n.end\n", kParse,
       "cover output must be '0' or '1'", 4},
      {"two-character output", ".model m\n.inputs a\n.names a y\n0 10\n.end\n",
       kParse, "cover output must be '0' or '1'", 4},
  });
}

TEST(BlifReaderDiagnostics, CardErrors) {
  expectVerdicts({
      {"row before any .names", ".model m\n0 1\n.end\n", kParse,
       "cover row outside a .names card", 2},
      {"row after another card closes the cover",
       ".model m\n.inputs a\n.names a y\n0 1\n.outputs y\n1 0\n.end\n", kParse,
       "cover row outside a .names card", 6},
      {"duplicate .model", ".model a\n.model b\n.end\n", kParse,
       "duplicate .model", 2},
      {".model without a name", ".model\n.end\n", kParse,
       ".model: expected one name", 1},
      {".model with two names", ".model a b\n.end\n", kParse,
       ".model: expected one name", 1},
      {".names without nets", ".model m\n.names\n.end\n", kParse,
       ".names: missing output net", 2},
      {".latch with one operand", ".model m\n.inputs d\n.latch d\n.end\n",
       kParse, ".latch: expected 2..5 operands", 3},
      {".latch with six operands",
       ".model m\n.inputs d\n.latch d q re clk 0 x\n.end\n", kParse,
       ".latch: expected 2..5 operands", 3},
      {"unsupported card", ".model m\n.subckt foo a=b\n.end\n", kParse,
       "unsupported construct '.subckt'", 2},
      {"missing .end", ".model m\n.inputs a\n", kParse,
       "truncated input: missing .end", 3},
      {"missing .end without a trailing newline", ".model m\n.inputs a",
       kParse, "truncated input: missing .end", 2},
      {"empty input", "", kParse, "truncated input: missing .end", 1},
  });
}

TEST(BlifReaderDiagnostics, LatchesRejectedByOption) {
  sta::BlifOptions options;
  options.allowLatches = false;
  expectVerdicts({{"latch refused",
                   ".model m\n.inputs d\n.outputs q\n.latch d q\n.end\n",
                   kParse, ".latch not allowed by reader options", 4}},
                 options);
}

TEST(BlifReaderDiagnostics, CoverClassificationErrors) {
  expectVerdicts({
      {"cover with no rows", ".model m\n.inputs a\n.names a y\n.end\n", kParse,
       ".names with inputs but no cover rows", 3},
      {"mixed on-set and off-set rows (blames the row)",
       ".model m\n.inputs a b\n.names a b y\n0- 1\n-0 0\n.end\n", kParse,
       "cover mixes on-set and off-set rows", 5},
      {"buffer",
       ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n", kParse,
       "single-input cover is not an inverter (buffers have no characterized "
       "cell)",
       4},
      {"two-row inverter",
       ".model m\n.inputs a\n.names a y\n0 1\n0 1\n.end\n", kParse,
       "single-input cover is not an inverter (buffers have no characterized "
       "cell)",
       3},
      {"AND", ".model m\n.inputs a b\n.names a b y\n11 1\n.end\n", kParse,
       "cover does not denote a characterized INV/NAND/NOR cell", 3},
      {"one-hot NAND with a repeated position",
       ".model m\n.inputs a b\n.names a b y\n0- 1\n0- 1\n.end\n", kParse,
       "cover does not denote a characterized INV/NAND/NOR cell", 3},
  });
}

TEST(BlifReaderDiagnostics, BuildErrors) {
  expectVerdicts({
      {"no .model", ".inputs a\n.end\n", kParse, "missing .model", 1},
      {"duplicate .inputs net", ".model m\n.inputs a b\n.inputs c a\n.end\n",
       kParse, "duplicate .inputs net 'a'", 3},
      {"duplicate .outputs net",
       ".model m\n.inputs a\n.outputs a\n.outputs a\n.end\n", kParse,
       "duplicate .outputs net 'a'", 4},
      {"latch output re-drives an input",
       ".model m\n.inputs d q\n.latch d q\n.end\n", kParse,
       ".latch output 'q' re-drives a net", 3},
      {"constant with two rows", ".model m\n.names k\n1\n0\n.end\n", kParse,
       "constant cover has multiple rows", 2},
      {"constant re-drives an input", ".model m\n.inputs k\n.names k\n1\n.end\n",
       kParse, "constant re-drives net 'k'", 3},
      {"constant re-drives a latch output",
       ".model m\n.inputs d\n.latch d q\n.names q\n0\n.end\n", kParse,
       "constant re-drives net 'q'", 4},
      {"undriven output",
       ".model m\n.inputs a\n.outputs y z\n.names a y\n0 1\n.end\n", kParse,
       "undriven .outputs net 'z'", 3},
  });
}

TEST(BlifReaderDiagnostics, MissingLibraryCellNamesTheCover) {
  const sta::GateLibrary narrow = sta::analyticLibrary(2);
  expectVerdicts({{"NAND3 beyond the library",
                   ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n"
                   "111 0\n.end\n",
                   StatusCode::TableMissing, "no characterized cell for NAND3",
                   4}},
                 {}, narrow);
}

TEST(BlifReaderDiagnostics, LexErrorsPrecedeBuildErrors) {
  // The undriven output (line 3) is a build error; the bad row (line 6) is a
  // lex-phase error, and the whole file is lexed before anything is built.
  expectVerdicts({{"row error after an undriven output",
                   ".model m\n.inputs a\n.outputs z\n.names a y\n0 1\n0 -\n"
                   ".end\n",
                   kParse, "cover output must be '0' or '1'", 6}});
}

// --- Resource caps (failResource) -------------------------------------------

TEST(BlifReaderDiagnostics, FaninCap) {
  sta::BlifOptions options;
  options.maxFanin = 2;
  expectVerdicts({{"three-input cover over a cap of two",
                   ".model m\n.inputs a b c\n.names a b c y\n111 0\n.end\n",
                   kResource, ".names fanin 3 exceeds cap 2", 3}},
                 options);
}

TEST(BlifReaderDiagnostics, InputSizeCap) {
  sta::BlifOptions options;
  options.limits.maxInputBytes = 16;
  const std::string text = ".model m\n.inputs a\n.end\n";  // 23 bytes
  expectVerdicts({{"input over the byte cap", text, kResource,
                   "input exceeds size cap", -1}},
                 options);

  // The stream entry point enforces the cap while buffering.
  std::istringstream is(text);
  sta::Netlist nl;
  try {
    sta::readBlif(is, library(), &nl, options);
    ADD_FAILURE() << "readBlif accepted an input over its byte cap";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), kResource);
    EXPECT_EQ(e.diagnostic().message, "input exceeds the 16-byte reader cap");
    EXPECT_EQ(e.diagnostic().line, -1);
  }
}

TEST(BlifReaderDiagnostics, UnreadableFileIsIoError) {
  sta::Netlist nl;
  try {
    sta::readBlifFile("/nonexistent/dir/none.blif", library(), &nl);
    ADD_FAILURE() << "readBlifFile opened a nonexistent path";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::IoError);
  }
}

TEST(BlifReaderDiagnostics, TokenSizeCapNamesThePhysicalLine) {
  sta::BlifOptions options;
  options.limits.maxTokenBytes = 8;
  expectVerdicts(
      {
          {"long net name", ".model m\n.inputs a\n.outputs longname9\n.end\n",
           kResource, "token exceeds size cap", 3},
          {"long token on a continuation line",
           ".model m\n.inputs a \\\n  b \\\n  longname9\n.end\n", kResource,
           "token exceeds size cap", 4},
          {"tokens after .end are still lexed",
           ".model m\n.end\njunk junk longname9\n", kResource,
           "token exceeds size cap", 3},
          {"a long comment is not a token",
           ".model m # longname9 longname9\n.end\n", StatusCode::Ok, "", -1},
          {"exactly at the cap", ".model m\n.inputs abcdefgh\n.end\n",
           StatusCode::Ok, "", -1},
      },
      options);
}

TEST(BlifReaderDiagnostics, TokenBudgetNamesThePhysicalLine) {
  // Every token costs its length plus 32: ".model" 38, "m" 33, ".inputs" 39.
  expectVerdicts({{"third token over a 100-byte budget",
                   ".model m\n.inputs a\n.end\n", kResource,
                   budgetMessage("token", 100), 2}},
                 budgetOf(100));
  // 38 + 33 + 39 + 33 = 143 fits; "b" on the continuation line makes 176.
  expectVerdicts({{"token on a continuation line",
                   ".model m\n.inputs a \\\nb\n.end\n", kResource,
                   budgetMessage("token", 150), 3}},
                 budgetOf(150));
  // Junk after .end is charged like any other token.
  expectVerdicts({{"junk after .end", ".model m\n.end\nx y z\n", kResource,
                   budgetMessage("token", 150), 3}},
                 budgetOf(150));
}

TEST(BlifReaderDiagnostics, BuildBudgetsTripAtTheirCards) {
  // Tokens of kInverter cost 422 bytes; the build then charges the primary
  // input (1 + 64) and the instance's two nets (2 x 48).
  const std::string kInverter =
      ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n";
  expectVerdicts({{"primary input", kInverter, kResource,
                   budgetMessage("primary input", 450), 2}},
                 budgetOf(450));
  expectVerdicts({{"instance nets", kInverter, kResource,
                   budgetMessage("instance nets", 500), 4}},
                 budgetOf(500));
  expectVerdicts({{"all charges fit", kInverter, StatusCode::Ok, "", -1}},
                 budgetOf(583));
  // Tokens 356, input d 65, then the latch output q 65.
  expectVerdicts({{"latch output",
                   ".model m\n.inputs d\n.outputs q\n.latch d q\n.end\n",
                   kResource, budgetMessage("latch output", 450), 4}},
                 budgetOf(450));
  // Tokens 284, then the constant net k 65.
  expectVerdicts({{"constant net", ".model m\n.outputs k\n.names k\n1\n.end\n",
                   kResource, budgetMessage("constant net", 300), 3}},
                 budgetOf(300));
}

// --- Lexer edges --------------------------------------------------------------

/// Structural fingerprint of a parsed netlist: every instance with its cell,
/// pins and output, every net with its driver, and the primary inputs.
std::string fingerprint(const sta::Netlist& nl) {
  std::string out;
  for (std::uint32_t i = 0; i < nl.nodeCount(); ++i) {
    const sta::NodeId n(i);
    out += nl.nodeName(n) + ":" +
           cells::gateTypeName(nl.nodeCell(n).gate.spec.type,
                               nl.nodeCell(n).gate.spec.fanin) +
           "(";
    for (const sta::NetId in : nl.nodeInputs(n)) out += nl.netName(in) + ",";
    out += ")->" + nl.netName(nl.nodeOutput(n)) + ";";
  }
  for (std::uint32_t i = 0; i < nl.netCount(); ++i) {
    const sta::NetId net(i);
    out += nl.netName(net) + (nl.netIsPrimaryInput(net) ? "[pi]" : "") + ";";
  }
  return out;
}

constexpr const char* kPlain =
    ".model lex\n"
    ".inputs a b c\n"
    ".outputs y\n"
    ".names a b n\n"
    "11 0\n"
    ".names n c y\n"
    "00 1\n"
    ".end\n";

std::string parseFingerprint(std::string_view text) {
  sta::Netlist nl;
  const sta::BlifSummary s = sta::readBlifString(text, library(), &nl);
  EXPECT_EQ(s.modelName, "lex");
  EXPECT_EQ(s.gates, 2u);
  return fingerprint(nl);
}

TEST(BlifReaderLexer, EquivalentSpellingsBuildTheSameNetlist) {
  const std::string want = parseFingerprint(kPlain);
  EXPECT_EQ(want,
            "n:NAND2(a,b,)->n;y:NOR2(n,c,)->y;a[pi];b[pi];c[pi];n;y;");
  const struct {
    const char* what;
    const char* text;
  } spellings[] = {
      {"CRLF line endings",
       ".model lex\r\n.inputs a b c\r\n.outputs y\r\n.names a b n\r\n"
       "11 0\r\n.names n c y\r\n00 1\r\n.end\r\n"},
      {"trailing blanks and tabs",
       ".model lex \t\n.inputs a b c  \n.outputs y\t\n.names a b n \n"
       "11 0\t \n.names n c y\n00 1 \n.end\t\n"},
      {"leading and inner tabs",
       "\t.model\tlex\n.inputs\ta\t b  c\n .outputs y\n.names a b n\n"
       "\t11\t0\n.names n c y\n00 1\n.end\n"},
      {"mid-line and whole-line comments",
       "# header\n.model lex # name\n.inputs a b c#d\n.outputs y\n"
       ".names a b n # nand\n11 0 # row\n   # indented comment\n"
       ".names n c y\n00 1\n.end # done\n"},
      {"continuation splitting a .names header",
       ".model lex\n.inputs a \\\n b c\n.outputs y\n.names a \\\nb \\\n n\n"
       "11 0\n.names n c y\n00 1\n.end\n"},
      {"continuation with trailing blanks and CRLF",
       ".model lex\r\n.inputs a b \\  \r\n c\r\n.outputs y\r\n"
       ".names a b \\\t\r\n n\r\n11 0\r\n.names n c y\r\n00 1\r\n.end\r\n"},
      {"blank lines and junk after .end",
       "\n\n.model lex\n\n.inputs a b c\n.outputs y\n.names a b n\n11 0\n"
       ".names n c y\n00 1\n.end\n.names q\n1\n.bogus card\n11 0 1 1\n"},
      {"no trailing newline",
       ".model lex\n.inputs a b c\n.outputs y\n.names a b n\n11 0\n"
       ".names n c y\n00 1\n.end"},
  };
  for (const auto& s : spellings) {
    SCOPED_TRACE(s.what);
    EXPECT_EQ(parseFingerprint(s.text), want);
  }
}

TEST(BlifReaderLexer, LogicalLineIsTheFirstPhysicalLine) {
  expectVerdicts({
      {"classification error on a split header",
       ".model m\n.inputs a b\n.names a \\\n b \\\n y\n11 1\n.end\n", kParse,
       "cover does not denote a characterized INV/NAND/NOR cell", 3},
      {"row error on a split row",
       ".model m\n.inputs a b\n.names a b y\n1 \\\n1 \\\n1\n.end\n", kParse,
       "cover row must be <plane> <output>", 4},
      {"a blank line before the first token does not start the logical line",
       ".model m\n\\\n\\\n.subckt x\n.end\n", kParse,
       "unsupported construct '.subckt'", 4},
      {"CRLF keeps the physical line count",
       ".model m\r\n.inputs a\r\n\r\n.names a y\r\n0 -\r\n.end\r\n", kParse,
       "cover output must be '0' or '1'", 5},
      {"a comment swallows a trailing backslash",
       ".model m # no continuation \\\n.inputs a\n.names a y\n0 1\n.end\n",
       StatusCode::Ok, "", -1},
      {"a backslash inside a token is data",
       ".model m\n.inputs a\\b\n.names a\\b y\n0 1\n.end\n", StatusCode::Ok,
       "", -1},
      {"a continuation into the end of input drops the pending line",
       ".model m\n.end \\", kParse, "truncated input: missing .end", 2},
      {"dangling continuation swallows .end",
       ".model m\n.inputs a \\\n.end\n", kParse,
       "truncated input: missing .end", 4},
  });
}

TEST(BlifReaderLexer, JunkAfterEndIsIgnored) {
  sta::Netlist nl;
  const sta::BlifSummary s = sta::readBlifString(
      ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n"
      ".model other\n.names a y z w\n1 1 1 1\n\x01\x02 garbage\n",
      library(), &nl);
  EXPECT_EQ(s.modelName, "m");
  EXPECT_EQ(s.gates, 1u);
  EXPECT_EQ(nl.nodeCount(), 1u);
  EXPECT_EQ(nl.netCount(), 2u);
}

// --- Differential against the reference reader ------------------------------

/// Field-by-field netlist equality: names, cells, pins, drivers, primary
/// inputs, and what levelize(Degrade) makes of the structure.
void expectSameNetlist(const sta::Netlist& got, const sta::Netlist& want) {
  ASSERT_EQ(got.nodeCount(), want.nodeCount());
  ASSERT_EQ(got.netCount(), want.netCount());
  ASSERT_EQ(got.arcCount(), want.arcCount());
  for (std::uint32_t i = 0; i < got.nodeCount(); ++i) {
    const sta::NodeId n(i);
    EXPECT_EQ(got.nodeName(n), want.nodeName(n));
    EXPECT_EQ(&got.nodeCell(n), &want.nodeCell(n)) << got.nodeName(n);
    EXPECT_EQ(got.nodeOutput(n), want.nodeOutput(n)) << got.nodeName(n);
    EXPECT_EQ(got.nodeFirstArc(n), want.nodeFirstArc(n)) << got.nodeName(n);
    const auto gi = got.nodeInputs(n);
    const auto wi = want.nodeInputs(n);
    EXPECT_TRUE(std::equal(gi.begin(), gi.end(), wi.begin(), wi.end()))
        << got.nodeName(n);
  }
  for (std::uint32_t i = 0; i < got.netCount(); ++i) {
    const sta::NetId net(i);
    EXPECT_EQ(got.netName(net), want.netName(net));
    EXPECT_EQ(got.netDriver(net), want.netDriver(net)) << got.netName(net);
    EXPECT_EQ(got.netIsPrimaryInput(net), want.netIsPrimaryInput(net))
        << got.netName(net);
  }
  EXPECT_EQ(got.primaryInputs(), want.primaryInputs());
  const sta::LevelizeResult gl = got.levelize(sta::StructuralPolicy::Degrade);
  const sta::LevelizeResult wl = want.levelize(sta::StructuralPolicy::Degrade);
  ASSERT_EQ(gl.issues.size(), wl.issues.size());
  for (std::size_t i = 0; i < gl.issues.size(); ++i) {
    EXPECT_EQ(gl.issues[i].kind, wl.issues[i].kind);
    EXPECT_EQ(gl.issues[i].message, wl.issues[i].message);
    EXPECT_EQ(gl.issues[i].instances, wl.issues[i].instances);
  }
  EXPECT_EQ(gl.degradedInstances, wl.degradedInstances);
}

/// A small generated circuit with one to three seeded mutations: dropped,
/// duplicated or swapped lines, injected continuations, comments, blanks
/// and CRLF, corrupted cover planes, extra drivers, and cut lines.
std::string mutatedBlif(std::uint64_t seed) {
  sta::SynthSpec spec;
  spec.seed = seed;
  spec.depth = 2 + static_cast<std::uint32_t>(seed % 3);
  spec.width = 2 + static_cast<std::uint32_t>((seed / 3) % 4);
  spec.primaryInputs = 3;
  const std::string text = sta::generateBlifString(spec);
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = text.find('\n', pos);
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }

  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto lastToken = [](const std::string& line) {
    return line.substr(line.rfind(' ') + 1);
  };
  std::string eol = "\n";
  const std::size_t mutations = 1 + pick(3);
  for (std::size_t m = 0; m < mutations && !lines.empty(); ++m) {
    const std::size_t at = pick(lines.size());
    std::string& line = lines[at];
    switch (pick(10)) {
      case 0:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), line);
        break;
      case 2:
        std::swap(line, lines[pick(lines.size())]);
        break;
      case 3:  // continuation at a blank (or a dangling one at the end)
        if (const std::size_t blank = line.find(' ');
            blank != std::string::npos) {
          line.insert(blank, pick(2) != 0 ? " \\\n  " : "\\\n");
        } else {
          line += " \\";
        }
        break;
      case 4:
        line += pick(2) != 0 ? " # note \\" : "\t ";
        break;
      case 5:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     pick(2) != 0 ? "# comment" : "");
        break;
      case 6:
        eol = "\r\n";
        break;
      case 7:  // corrupt one plane or output character of a cover row
        if (!line.empty() && line[0] != '.') {
          line[pick(line.size())] = "01-x 2"[pick(6)];
        }
        break;
      case 8: {  // an extra inverter driving some .names output
        std::vector<std::string> outs;
        for (const std::string& l : lines) {
          if (l.rfind(".names ", 0) == 0) outs.push_back(lastToken(l));
        }
        if (outs.empty()) break;
        const std::size_t end = lines.size() - 1;
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(end),
                     {".names pi" + std::to_string(pick(3)) + " " +
                          outs[pick(outs.size())],
                      pick(2) != 0 ? "0 1" : "1 0"});
        break;
      }
      default:
        line.resize(pick(line.size() + 1));
        break;
    }
  }
  std::string out;
  for (const std::string& l : lines) out += l + eol;
  return out;
}

TEST(BlifReaderDifferential, MatchesReferenceReaderOnMutatedCircuits) {
  int accepted = 0, rejected = 0, defective = 0, budgeted = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const std::string text = mutatedBlif(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + text);
    // Every fourth input runs under a tight budget, so charges made in a
    // different order or amount would trip on a different card.
    sta::BlifOptions options;
    if (seed % 4 == 3) {
      options = budgetOf(sta::synthRandom(seed, 0, 0) % (6 * text.size()));
    }
    sta::Netlist got, want;
    sta::BlifSummary gotSummary, wantSummary;
    Verdict gotVerdict, wantVerdict;
    try {
      gotSummary = sta::readBlifString(text, library(), &got, options);
    } catch (const DiagnosticError& e) {
      gotVerdict = {e.code(), e.diagnostic().message, e.diagnostic().site,
                    e.diagnostic().line};
    }
    try {
      wantSummary =
          testutil::referenceReadBlif(text, library(), &want, options);
    } catch (const DiagnosticError& e) {
      wantVerdict = {e.code(), e.diagnostic().message, e.diagnostic().site,
                     e.diagnostic().line};
    }
    EXPECT_EQ(gotVerdict.code, wantVerdict.code);
    EXPECT_EQ(gotVerdict.message, wantVerdict.message);
    EXPECT_EQ(gotVerdict.site, wantVerdict.site);
    EXPECT_EQ(gotVerdict.line, wantVerdict.line);
    if (wantVerdict.code != StatusCode::Ok) {
      ++rejected;
      if (wantVerdict.message.rfind("allocation budget", 0) == 0) ++budgeted;
      continue;
    }
    ++accepted;
    EXPECT_EQ(gotSummary.modelName, wantSummary.modelName);
    EXPECT_EQ(gotSummary.inputs, wantSummary.inputs);
    EXPECT_EQ(gotSummary.outputs, wantSummary.outputs);
    EXPECT_EQ(gotSummary.gates, wantSummary.gates);
    EXPECT_EQ(gotSummary.latches, wantSummary.latches);
    EXPECT_EQ(gotSummary.constants, wantSummary.constants);
    expectSameNetlist(got, want);
    if (!want.validate().empty()) ++defective;
  }
  // The mutations must reach both verdicts, structural defects (extra
  // drivers, dangling nets from dropped covers), and the budget.
  EXPECT_GE(accepted, 60);
  EXPECT_GE(rejected, 60);
  EXPECT_GE(defective, 15);
  EXPECT_GE(budgeted, 15);
}

}  // namespace
