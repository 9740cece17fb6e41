//===- EditScriptDigestTest.cpp --------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the commit path's observable behaviour to recorded values. Each
/// edit-script fuzz case reduces its commit attempts to one digest: the
/// hierarchyFingerprint() of every published epoch and the ErrorCode of
/// every rejection, in order (EditScriptCaseResult::OutcomeDigest). The
/// table below was recorded when edit scripts were still replayed
/// through a name-keyed model and rebuilt from scratch; the draft-based
/// applyEditScript must reproduce it seed for seed. The seeds' mix
/// includes RemoveClass, RemoveBase, AddUsing, self-edges, cycles and
/// budget-free rejections of every kind.
///
/// Why it matters: restore() compares the WAL base record's fingerprint
/// with the snapshot's hierarchy, and the durable log replays through
/// the commit path, so any drift in class ids, base order or member
/// order would turn a clean snapshot+WAL restore into data loss.
///
/// A deliberate change to what a script commits or how it is refused
/// changes these values; the failure message prints the new table.
///
//===----------------------------------------------------------------------===//

#include "fuzz/EditScriptFuzz.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace memlook::service;

namespace {

constexpr uint64_t FirstSeed = 2000;

constexpr uint32_t RecordedDigests[] = {
    0x9f4a7562u, 0xe0cd8af5u, 0xb12aaf40u, 0x7e2cebfdu, 0x1765035du,
    0x58fa53deu, 0x0bf7bef0u, 0x4eb6a5aau, 0x882097e9u, 0xf1b54862u,
    0xcdfbdbfdu, 0xa7b762aau, 0xed7d7a2au, 0x8e0223e1u, 0x51571ac0u,
    0xa16a6961u, 0xdd86aee2u, 0x8cda4996u, 0x3170460au, 0x939b6c02u,
    0xb1c62392u, 0x48df0e74u, 0x6244a25fu, 0xbd9e3450u, 0x7a037692u,
    0xed55bd42u, 0x6298c1d3u, 0xa26c5a15u, 0x251a7f2cu, 0xe6df8a12u,
    0x44d98c22u, 0x25b37785u, 0x2db4d3fdu, 0x988cb5aeu, 0xa3f88164u,
    0xb2b95440u, 0xba5588ceu, 0xc05f7ad1u, 0x7eb022d6u, 0xe61f975au,
    0x413532c7u, 0x5d4987efu, 0x985247d0u, 0xd231856bu, 0xadf194e1u,
    0xacd75e74u, 0xfaf1bbf7u, 0x0d11f7f1u, 0x78d35e98u, 0x6b6abe88u,
    0xc8b3cc8bu, 0xb54610b5u, 0xdcbefb0au, 0xc6d3b651u, 0x78e7cb02u,
    0x6b2140a1u, 0xdeef95f6u, 0x57948e7cu, 0xd736c151u, 0x5a71a91eu,
    0xfe395759u, 0x092f8948u, 0xdbdf4b4du, 0x48618a3cu, 0x1295eb8bu,
    0x18f42e72u, 0x0b91dedbu, 0xbeeb1005u, 0x4ad1ddb6u, 0x50637f53u,
    0xde518d0fu, 0x531cac36u, 0x2dba478cu, 0xa62028bfu, 0x42cbe7a9u,
    0x2f6e8f97u, 0xdaeca092u, 0x38800546u, 0x2f7ba239u, 0x57ca99fdu,
    0x424c0488u, 0xde2003d2u, 0xecbc517cu, 0x82a199a4u, 0x09c96edfu,
    0xba906a41u, 0xc20a717fu, 0x65358d02u, 0x06bac70au, 0x60ed0e24u,
    0x3b4c05afu, 0x75f92848u, 0x551a8151u, 0xb8757a58u, 0x90546f66u,
    0xed6cd8eau, 0xd35ebd9fu, 0x8f6745c2u, 0xcc7d6b5du, 0xabba71d5u,
    0x528653dbu, 0x7b48c3f0u, 0x9d475750u, 0xddfdd314u, 0xb6a3c7e5u,
    0x73ac50c9u, 0x41193d1au, 0xf9d06e15u, 0x5cc83647u, 0x21f1294cu,
    0x947989dbu, 0x1071ac65u, 0x72354d46u, 0x6118f4bfu, 0x166dc255u,
    0x1b13ca8du, 0x4319f7ccu, 0x9d60203au, 0x0c6a3da1u, 0xbe1ba6feu,
    0x41253603u, 0x069489a7u, 0x5d866bdeu, 0x4c5e1044u, 0xb81d2545u,
    0x703c56a0u, 0xf7ec5cc6u, 0xb97ed481u, 0x72d14ff3u, 0xe21e4d3au,
};

} // namespace

TEST(EditScriptDigestTest, SeedsReproduceRecordedCommitOutcomes) {
  std::string Table;
  bool AllMatch = true;
  for (uint64_t Idx = 0; Idx != std::size(RecordedDigests); ++Idx) {
    const uint64_t Seed = FirstSeed + Idx;
    EditScriptCaseResult Case = runEditScriptCase(Seed);
    for (const std::string &M : Case.Mismatches)
      ADD_FAILURE() << "seed " << Seed << ": " << M;
    if (Case.OutcomeDigest != RecordedDigests[Idx]) {
      ADD_FAILURE() << "seed " << Seed << ": outcome digest "
                    << Case.OutcomeDigest << ", recorded "
                    << RecordedDigests[Idx];
      AllMatch = false;
    }
    char Entry[16];
    std::snprintf(Entry, sizeof(Entry), "0x%08xu,%c", Case.OutcomeDigest,
                  Idx % 5 == 4 ? '\n' : ' ');
    Table += Entry;
  }
  if (!AllMatch)
    ADD_FAILURE() << "digests this build produces:\n" << Table;
}
