//===- WalCorpusTest.cpp -----------------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every file in tests/corpus/wal/ through the salvager and checks
/// the full structured outcome - the stop code, how many records the
/// clean prefix still yields, and whether a torn tail was silently
/// dropped. The corpus is the executable spec of the torn-tail-versus-
/// corrupt-interior doctrine: damage a kill can produce is silent,
/// damage it cannot produce stops the scan with a recoverable Status,
/// and the clean prefix survives either way. Regenerate with the
/// make_wal_corpus tool (which self-checks the same table).
///
//===----------------------------------------------------------------------===//

#include "memlook/service/WriteAheadLog.h"

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
enum class WalFile : size_t {
  Empty,
  NoBaseRecord,
  BadMagic,
  BadBaseVersion,
  FlippedPayloadByte,
  DuplicatedEpoch,
  EpochGap,
  TornTail,
  TruncatedMidHeader,
  LengthLie,
  JunkInterior,
};

constexpr const char *FileNames[] = {
    "empty.wal",
    "no_base_record.wal",
    "bad_magic.wal",
    "bad_base_version.wal",
    "flipped_payload_byte.wal",
    "duplicated_epoch.wal",
    "epoch_gap.wal",
    "torn_tail.wal",
    "truncated_mid_header.wal",
    "length_lie.wal",
    "junk_interior.wal",
};

struct CorpusCase {
  WalFile File;
  ErrorCode ExpectedCode;
  uint64_t ExpectedRecords;
  bool ExpectTornDrop;

  const char *fileName() const {
    return FileNames[static_cast<size_t>(File)];
  }
};

// Every file in corpus/wal must appear here: the cross-check test below
// refuses a new damaged log without a stated expectation.
constexpr CorpusCase Cases[] = {
    {WalFile::Empty, ErrorCode::Ok, 0, false},
    {WalFile::NoBaseRecord, ErrorCode::WalCorrupt, 0, false},
    {WalFile::BadMagic, ErrorCode::WalCorrupt, 0, false},
    {WalFile::BadBaseVersion, ErrorCode::WalCorrupt, 0, false},
    {WalFile::FlippedPayloadByte, ErrorCode::WalCorrupt, 1, false},
    {WalFile::DuplicatedEpoch, ErrorCode::WalEpochSkew, 2, false},
    {WalFile::EpochGap, ErrorCode::WalEpochSkew, 1, false},
    {WalFile::TornTail, ErrorCode::Ok, 2, true},
    {WalFile::TruncatedMidHeader, ErrorCode::Ok, 2, true},
    {WalFile::LengthLie, ErrorCode::WalCorrupt, 2, false},
    {WalFile::JunkInterior, ErrorCode::WalCorrupt, 3, false},
};
static_assert(std::size(Cases) == std::size(FileNames));

std::filesystem::path walDir() {
  return std::filesystem::path(MEMLOOK_CORPUS_DIR) / "wal";
}

class WalCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

} // namespace

TEST_P(WalCorpusTest, SalvageMatchesTheDoctrine) {
  const CorpusCase &Case = GetParam();
  std::filesystem::path Path = walDir() / Case.fileName();
  ASSERT_TRUE(std::filesystem::exists(Path))
      << Path << " missing - regenerate with make_wal_corpus";

  WalSalvage S = WriteAheadLog::replayFile(Path.string());
  EXPECT_EQ(S.Error.code(), Case.ExpectedCode)
      << Case.fileName() << ": salvage stopped with '" << S.Error.toString()
      << "', expected " << errorCodeLabel(Case.ExpectedCode);
  EXPECT_EQ(S.Records.size(), Case.ExpectedRecords) << Case.fileName();
  EXPECT_EQ(S.TornBytesDropped != 0, Case.ExpectTornDrop) << Case.fileName();

  // The byte accounting closes on clean scans: every byte is either
  // cleanly framed or accounted torn.
  if (S.Error.isOk()) {
    EXPECT_EQ(S.CleanBytes + S.TornBytesDropped,
              std::filesystem::file_size(Path))
        << Case.fileName();
  }
}

TEST(WalCorpusTest, EveryCorpusFileHasAnExpectation) {
  size_t FilesSeen = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(walDir())) {
    if (Entry.path().extension() != ".wal")
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
    Files, WalCorpusTest, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<CorpusCase> &Info) {
      std::string Name = Info.param.fileName();
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
