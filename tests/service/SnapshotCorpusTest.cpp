//===- SnapshotCorpusTest.cpp ----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every file in tests/corpus/snapshots/ through the snapshot
/// loader under the untrusted-input budget and checks that each one is
/// rejected with the *expected structured ErrorCode* - not a crash, not
/// an assert, and not a vague catch-all. The corpus is the executable
/// spec of the loader's rejection behavior; regenerate it with the
/// make_snapshot_corpus tool (which self-checks the same table).
///
//===----------------------------------------------------------------------===//

#include "memlook/service/SnapshotFile.h"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <iterator>

using namespace memlook;
using namespace memlook::service;

namespace {

// A case names its file by enumerator, not by pointer: gtest prints a
// parameter type it has no printer for as its raw bytes, that print is
// part of each case's ctest name, and a string's address differs from
// build to build and, under ASLR, from run to run.
enum class SnapFile : size_t {
  Empty,
  BadMagic,
  BadVersion,
  TruncatedMidSection,
  FlippedPayloadBit,
  OobPoolOffset,
  HeaderClassCountLie,
  CyclicHierarchy,
  HugeCounts,
  ViaNotBase,
  MemberRefSwap,
  StaleTableAfterHierarchyEdit,
};

constexpr const char *FileNames[] = {
    "empty.snap",
    "bad_magic.snap",
    "bad_version.snap",
    "truncated_mid_section.snap",
    "flipped_payload_bit.snap",
    "oob_pool_offset.snap",
    "header_class_count_lie.snap",
    "cyclic_hierarchy.snap",
    "huge_counts.snap",
    "via_not_base.snap",
    "member_ref_swap.snap",
    "stale_table_after_hierarchy_edit.snap",
};

struct CorpusCase {
  SnapFile File;
  ErrorCode ExpectedCode;

  const char *fileName() const {
    return FileNames[static_cast<size_t>(File)];
  }
};

// Every file in corpus/snapshots must appear here: the test cross-checks
// the directory listing against this table so a new corrupted snapshot
// can't land without a stated expectation.
constexpr CorpusCase Cases[] = {
    {SnapFile::Empty, ErrorCode::SnapshotMalformed},
    {SnapFile::BadMagic, ErrorCode::SnapshotVersionMismatch},
    {SnapFile::BadVersion, ErrorCode::SnapshotVersionMismatch},
    {SnapFile::TruncatedMidSection, ErrorCode::SnapshotMalformed},
    {SnapFile::FlippedPayloadBit, ErrorCode::SnapshotChecksumMismatch},
    {SnapFile::OobPoolOffset, ErrorCode::SnapshotMalformed},
    {SnapFile::HeaderClassCountLie, ErrorCode::SnapshotMalformed},
    {SnapFile::CyclicHierarchy, ErrorCode::SnapshotMalformed},
    {SnapFile::HugeCounts, ErrorCode::BudgetExceeded},
    {SnapFile::ViaNotBase, ErrorCode::SnapshotMalformed},
    {SnapFile::MemberRefSwap, ErrorCode::SnapshotMalformed},
    {SnapFile::StaleTableAfterHierarchyEdit, ErrorCode::SnapshotMalformed},
};
static_assert(std::size(Cases) == std::size(FileNames));

std::filesystem::path snapshotsDir() {
  return std::filesystem::path(MEMLOOK_CORPUS_DIR) / "snapshots";
}

class SnapshotCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

} // namespace

TEST_P(SnapshotCorpusTest, RejectedWithStructuredError) {
  const CorpusCase &Case = GetParam();
  std::filesystem::path Path = snapshotsDir() / Case.fileName();
  ASSERT_TRUE(std::filesystem::exists(Path))
      << Path << " missing - regenerate with make_snapshot_corpus";

  Expected<SnapshotPayload> Loaded =
      readSnapshotFile(Path.string(), ResourceBudget::untrustedInput());
  ASSERT_FALSE(Loaded.hasValue())
      << Case.fileName() << " should have been rejected";
  EXPECT_EQ(Loaded.status().code(), Case.ExpectedCode)
      << Case.fileName() << ": rejected as '" << Loaded.status().toString()
      << "', expected " << errorCodeLabel(Case.ExpectedCode);
}

TEST(SnapshotCorpusTest, EveryCorpusFileHasAnExpectation) {
  size_t FilesSeen = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(snapshotsDir())) {
    if (Entry.path().extension() != ".snap")
      continue;
    ++FilesSeen;
    std::string Name = Entry.path().filename().string();
    bool Known = false;
    for (const CorpusCase &Case : Cases)
      Known |= Name == Case.fileName();
    EXPECT_TRUE(Known) << Name << " has no entry in the expectation table";
  }
  EXPECT_EQ(FilesSeen, sizeof(Cases) / sizeof(Cases[0]));
}

INSTANTIATE_TEST_SUITE_P(
    Files, SnapshotCorpusTest, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<CorpusCase> &Info) {
      std::string Name = Info.param.fileName();
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
