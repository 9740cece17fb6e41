//===- InvalidCorpusTest.cpp -----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every file in tests/corpus/invalid/ through the front end under
/// the untrusted-input budget and checks that each one is rejected with
/// the *expected structured diagnostic* - not a crash, not an assert,
/// and not a vague catch-all. The corpus is the executable spec of the
/// hardened pipeline's rejection behavior.
///
//===----------------------------------------------------------------------===//

#include "memlook/frontend/Parser.h"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

using namespace memlook;

namespace {

// A case names its file by enumerator, not by pointer: gtest prints a
// parameter type it has no printer for as its raw bytes, that print is
// part of each case's ctest name, and a string's address differs from
// build to build and, under ASLR, from run to run.
enum class InvalidFile : size_t {
  Cycle,
  DuplicateClass,
  MixedVirtualDuplicateEdge,
  UnterminatedBlock,
  DeepChain,
};

constexpr const char *FileNames[] = {
    "cycle.mlk",
    "duplicate_class.mlk",
    "mixed_virtual_duplicate_edge.mlk",
    "unterminated_block.mlk",
    "deep_chain.mlk",
};

struct InvalidCase {
  InvalidFile File;
  DiagCode ExpectedCode;

  const char *fileName() const {
    return FileNames[static_cast<size_t>(File)];
  }
};

// Every file in corpus/invalid must appear here: the test cross-checks
// the directory listing against this table so a new malformed input
// can't land without a stated expectation.
constexpr InvalidCase Cases[] = {
    {InvalidFile::Cycle, DiagCode::SelfInheritance},
    {InvalidFile::DuplicateClass, DiagCode::DuplicateClass},
    {InvalidFile::MixedVirtualDuplicateEdge, DiagCode::ConflictingBase},
    {InvalidFile::UnterminatedBlock, DiagCode::SyntaxError},
    {InvalidFile::DeepChain, DiagCode::TooManyClasses},
};
static_assert(std::size(Cases) == std::size(FileNames));

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::filesystem::path invalidDir() {
  return std::filesystem::path(MEMLOOK_CORPUS_DIR) / "invalid";
}

class InvalidCorpusTest : public ::testing::TestWithParam<InvalidCase> {};

} // namespace

TEST_P(InvalidCorpusTest, RejectedWithStructuredDiagnostic) {
  const InvalidCase &Case = GetParam();
  std::string Source = readFile(invalidDir() / Case.fileName());
  ASSERT_FALSE(Source.empty());

  DiagnosticEngine Diags;
  ParseOptions Options;
  Options.Budget = ResourceBudget::untrustedInput();
  std::optional<ParsedProgram> Program =
      parseProgram(Source, Diags, Options);

  EXPECT_FALSE(Program.has_value())
      << Case.fileName() << " should have been rejected";
  EXPECT_TRUE(Diags.hasErrors()) << Case.fileName();
  EXPECT_TRUE(Diags.hasCode(Case.ExpectedCode))
      << Case.fileName() << ": expected " << diagCodeLabel(Case.ExpectedCode)
      << " among the reported diagnostics";
}

TEST(InvalidCorpusTest, EveryCorpusFileHasAnExpectation) {
  size_t FilesSeen = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(invalidDir())) {
    if (Entry.path().extension() != ".mlk")
      continue;
    ++FilesSeen;
    std::string Name = Entry.path().filename().string();
    bool Known = false;
    for (const InvalidCase &Case : Cases)
      Known |= Name == Case.fileName();
    EXPECT_TRUE(Known) << Name << " has no entry in the expectation table";
  }
  EXPECT_EQ(FilesSeen, sizeof(Cases) / sizeof(Cases[0]));
}

TEST(InvalidCorpusTest, DiagnosticCapBoundsErrorCount) {
  // The deep chain emits exactly one budget diagnostic, but even inputs
  // with thousands of independent errors stay within the configured cap
  // (plus the TooManyErrors sentinel).
  std::string Source;
  for (int I = 0; I != 500; ++I)
    Source += "lookup ; ;\n"; // each line is an independent syntax error
  DiagnosticEngine Diags;
  ParseOptions Options;
  Options.Budget = ResourceBudget::untrustedInput();
  EXPECT_FALSE(parseProgram(Source, Diags, Options).has_value());
  EXPECT_TRUE(Diags.truncated());
  EXPECT_TRUE(Diags.hasCode(DiagCode::TooManyErrors));
  EXPECT_LE(Diags.errorCount(),
            ResourceBudget::untrustedInput().MaxErrorDiagnostics + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Files, InvalidCorpusTest, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<InvalidCase> &Info) {
      std::string Name = Info.param.fileName();
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
