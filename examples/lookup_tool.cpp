//===- lookup_tool.cpp - The memlook command-line driver --------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
//
// A small compiler-front-end-shaped tool: parse a class-declaration file
// in the mini language, run its `lookup C::m;` directives (or --query
// flags), and optionally dump the whole lookup table or DOT graphs.
//
//   $ ./lookup_tool file.mlk
//   $ ./lookup_tool file.mlk --query E::m --engine gxx
//   $ ./lookup_tool file.mlk --table
//   $ ./lookup_tool file.mlk --dot-chg out.dot
//   $ echo 'class A { void m(); }; lookup A::m;' | ./lookup_tool -
//
// With --serve the parsed hierarchy seeds a live LookupService and the
// tool becomes a line-oriented REPL: queries degrade along the deadline
// ladder and report which rung answered, edit commands commit
// transactions (singly, or batched between :begin and :commit), and
// :audit runs the self-audit on demand. Type `help` at the prompt.
//
//   $ ./lookup_tool file.mlk --serve
//   memlook> E::m
//   memlook> add-member C n
//   memlook> :audit
//
// With --wal the service runs durably: every committed transaction is
// appended (and fsynced) to the write-ahead log before it is published,
// and `--load SNAP --wal LOG` replays logged commits newer than the
// snapshot - the full recovery ladder, with exit codes distinguishing
// clean recovery (0), quarantined-but-rebuilt state (4), and recovery
// that provably lost durable history (5).
//
//   $ ./lookup_tool file.mlk --serve --wal state.wal
//   $ ./lookup_tool file.mlk --load state.snap --wal state.wal --query E::m
//
//===----------------------------------------------------------------------===//

#include "memlook/chg/DotExport.h"
#include "memlook/core/DifferentialCheck.h"
#include "memlook/core/DominanceLookupEngine.h"
#include "memlook/core/ExplainAmbiguity.h"
#include "memlook/core/GxxBfsEngine.h"
#include "memlook/core/NaivePropagationEngine.h"
#include "memlook/core/SubobjectLookupEngine.h"
#include "memlook/core/TableStatistics.h"
#include "memlook/frontend/CodeResolution.h"
#include "memlook/frontend/Parser.h"
#include "memlook/frontend/SourcePrinter.h"
#include "memlook/service/LookupService.h"
#include "memlook/service/SnapshotFile.h"
#include "memlook/support/AtomicFile.h"
#include "memlook/support/Deadline.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace memlook;

namespace {

int usage(const char *Prog) {
  std::cerr
      << "usage: " << Prog << " <file.mlk | -> [options]\n"
      << "  --serve          start an interactive lookup service REPL\n"
      << "  --query C::m     resolve member m in class C (repeatable)\n"
      << "  --explain        list candidate subobjects for ambiguities\n"
      << "  --table          print the full lookup table\n"
      << "  --engine NAME    figure8 (default), naive, killing,\n"
      << "                   rossie-friedman, gxx\n"
      << "  --self-check     audit all engines against each other\n"
      << "  --stats          print aggregate lookup-table statistics\n"
      << "  --emit-source F  re-emit the hierarchy as mini-language text\n"
      << "  --dot-chg FILE   write the class hierarchy graph as DOT\n"
      << "  --dot-sog C FILE write the subobject graph of class C\n"
      << "  --save FILE      write a checksummed snapshot (hierarchy +\n"
      << "                   tabulated table) for later --load\n"
      << "  --load FILE      restore from a snapshot; the input file is\n"
      << "                   the rebuild fallback. Combines with --serve\n"
      << "                   (warm start) and --query. Exits 4 when a bad\n"
      << "                   snapshot was quarantined and rebuilt.\n"
      << "  --wal FILE       durable mode for --serve/--load: commits\n"
      << "                   append to the write-ahead log before\n"
      << "                   publishing, and --load replays logged\n"
      << "                   transactions newer than the snapshot. Exits 5\n"
      << "                   when recovery provably lost durable history.\n";
  return 2;
}

/// Exit code for "the run succeeded, but only because the recovery
/// ladder quarantined a bad snapshot and rebuilt from source" -
/// distinct from usage (2) and hard failures (1), so supervisors can
/// alert on silent snapshot rot without treating it as downtime.
constexpr int ExitQuarantinedLoad = 4;

/// Exit code for "recovery succeeded but durable history was provably
/// lost": a corrupt WAL interior, a broken epoch chain, or a record
/// that no longer replays. The service is up and consistent, but
/// commits that were once acknowledged are gone - the loudest of the
/// degraded-success codes.
constexpr int ExitRecoveredWithLoss = 5;

/// Exit code for a broken accounting invariant at quiescent REPL exit:
/// Queries + Probes must equal the sum of the per-rung answer counters
/// (every query is answered by exactly one ladder rung). A mismatch
/// here means a counter was dropped or double-booked somewhere in the
/// service - a bug, not an operational condition.
constexpr int ExitAccountingViolation = 6;

std::unique_ptr<LookupEngine> makeEngine(const std::string &Name,
                                         const Hierarchy &H) {
  if (Name == "figure8")
    return std::make_unique<DominanceLookupEngine>(H);
  if (Name == "naive")
    return std::make_unique<NaivePropagationEngine>(
        H, NaivePropagationEngine::Killing::Disabled);
  if (Name == "killing")
    return std::make_unique<NaivePropagationEngine>(
        H, NaivePropagationEngine::Killing::Enabled);
  if (Name == "rossie-friedman")
    return std::make_unique<SubobjectLookupEngine>(H);
  if (Name == "gxx")
    return std::make_unique<GxxBfsEngine>(H);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// --serve: the long-lived service REPL
//===----------------------------------------------------------------------===//

void serveHelp() {
  std::cout
      << "queries:\n"
      << "  C::m [deadline-ms]   resolve m in C; with a deadline the answer\n"
      << "                       degrades along the ladder (0 = instant floor)\n"
      << "fast lane (resolved handles):\n"
      << "  resolve C::m         intern both names once, print a key number\n"
      << "  query-by-key N [ms]  full answer through key #N (re-resolves a\n"
      << "                       stale key transparently after commits)\n"
      << "  probe-by-key N       allocation-free probe through key #N: the\n"
      << "                       classification straight from the compact entry\n"
      << "edits (each line commits one transaction unless inside :begin):\n"
      << "  add-class C\n"
      << "  remove-class C\n"
      << "  add-base DERIVED BASE [virtual]\n"
      << "  remove-base DERIVED BASE\n"
      << "  add-member C m [static] [virtual]\n"
      << "  remove-member C m\n"
      << "  add-using C FROM m\n"
      << "transactions:\n"
      << "  :begin   start batching edits    :commit  apply atomically\n"
      << "  :abort   discard the batch\n"
      << "service:\n"
      << "  :audit   run the self-audit      :warm    build this epoch's table\n"
      << "  :health  cache health            :stats   operation counters\n"
      << "  :epoch   current epoch           :quit    exit (also EOF)\n"
      << "observability:\n"
      << "  :metrics [json]  full metrics exposition (Prometheus text, or\n"
      << "                   JSON with latency percentiles)\n"
      << "  :trace           recent trace-ring events and anomaly log\n";
}

void printAnswer(const Hierarchy &H, const std::string &Class,
                 const std::string &Member, const service::QueryAnswer &A) {
  std::cout << Class << "::" << Member << " -> ";
  if (!A.S.isOk())
    std::cout << "error: " << A.S.toString();
  else
    std::cout << formatLookupResult(H, A.Result);
  std::cout << "  [" << service::answerRungLabel(A.Rung) << ", epoch "
            << A.Epoch;
  if (A.Approximate)
    std::cout << ", approximate";
  if (A.DeadlineExpired)
    std::cout << ", deadline-expired";
  if (A.TableQuarantined)
    std::cout << ", table-quarantined";
  std::cout << "]\n";
}

void printProbe(const Hierarchy &H, const service::QueryKey &Key,
                const service::ProbeAnswer &A) {
  std::cout << Key.ClassName << "::" << Key.MemberName << " -> ";
  if (A.UnknownContext)
    std::cout << "error: no class named '" << Key.ClassName << "'";
  else if (A.Status == LookupStatus::Unambiguous)
    std::cout << "unambiguous: defined in " << H.className(A.DefiningClass)
              << " (" << accessSpelling(A.Access)
              << (A.SharedStatic ? ", shared static" : "") << ")";
  else if (A.Status == LookupStatus::Ambiguous)
    std::cout << "ambiguous";
  else
    std::cout << "not found";
  std::cout << "  [probe, " << service::answerRungLabel(A.Rung) << ", epoch "
            << A.Epoch;
  if (A.Approximate)
    std::cout << ", approximate";
  if (A.DeadlineExpired)
    std::cout << ", deadline-expired";
  if (A.TableQuarantined)
    std::cout << ", table-quarantined";
  std::cout << "]\n";
}

/// Records one edit-command line into \p Txn. Returns false (with
/// \p Err set) on a malformed line; actual validation happens at
/// commit, like any transaction.
bool recordEdit(service::Transaction &Txn,
                const std::vector<std::string> &Tok, std::string &Err) {
  auto Flag = [&](const char *Name, size_t From) {
    for (size_t I = From; I < Tok.size(); ++I)
      if (Tok[I] == Name)
        return true;
    return false;
  };
  const std::string &Cmd = Tok[0];
  if (Cmd == "add-class" && Tok.size() == 2) {
    Txn.addClass(Tok[1]);
  } else if (Cmd == "remove-class" && Tok.size() == 2) {
    Txn.removeClass(Tok[1]);
  } else if (Cmd == "add-base" && Tok.size() >= 3) {
    Txn.addBase(Tok[1], Tok[2],
                Flag("virtual", 3) ? InheritanceKind::Virtual
                                   : InheritanceKind::NonVirtual);
  } else if (Cmd == "remove-base" && Tok.size() == 3) {
    Txn.removeBase(Tok[1], Tok[2]);
  } else if (Cmd == "add-member" && Tok.size() >= 3) {
    Txn.addMember(Tok[1], Tok[2], Flag("static", 3), Flag("virtual", 3));
  } else if (Cmd == "remove-member" && Tok.size() == 3) {
    Txn.removeMember(Tok[1], Tok[2]);
  } else if (Cmd == "add-using" && Tok.size() == 4) {
    Txn.addUsing(Tok[1], Tok[2], Tok[3]);
  } else {
    Err = "malformed edit (try `help`)";
    return false;
  }
  return true;
}

int runServeOn(service::LookupService &Svc) {
  std::cout << "memlook service: epoch " << Svc.currentEpoch()
            << ", table " << (Svc.tableHealth().isOk() ? "warm" : "cold")
            << ". Type `help` for commands.\n";

  std::optional<service::Transaction> Pending;
  // Keys minted by `resolve`, addressed by 1-based number. Stored here
  // (not per query) because re-resolution after a commit mutates the
  // key in place - exactly the behavior the REPL demonstrates.
  std::vector<service::QueryKey> Keys;
  auto KeyAt = [&](const std::string &Tok) -> service::QueryKey * {
    char *End = nullptr;
    long N = std::strtol(Tok.c_str(), &End, 10);
    if (End == Tok.c_str() || *End != '\0' || N < 1 ||
        static_cast<size_t>(N) > Keys.size()) {
      std::cout << "error: no key #" << Tok << " (have " << Keys.size()
                << ")\n";
      return nullptr;
    }
    return &Keys[static_cast<size_t>(N) - 1];
  };
  std::string Line;
  while (std::getline(std::cin, Line)) {
    std::istringstream Splitter(Line);
    std::vector<std::string> Tok;
    for (std::string Word; Splitter >> Word;)
      Tok.push_back(Word);
    if (Tok.empty())
      continue;
    const std::string &Cmd = Tok[0];

    if (Cmd == ":quit" || Cmd == ":q") {
      break;
    } else if (Cmd == "help" || Cmd == ":help") {
      serveHelp();
    } else if (Cmd == ":epoch") {
      std::cout << "epoch " << Svc.currentEpoch() << '\n';
    } else if (Cmd == ":health") {
      Status S = Svc.tableHealth();
      std::cout << (S.isOk() ? "table warm" : S.toString()) << '\n';
    } else if (Cmd == ":warm") {
      Status S = Svc.warmCurrent();
      std::cout << (S.isOk() ? "table warm" : S.toString()) << '\n';
    } else if (Cmd == ":audit") {
      service::AuditReport Report = Svc.auditNow();
      std::cout << Report.toString() << '\n';
      for (const std::string &Mismatch : Report.Mismatches)
        std::cout << "  MISMATCH: " << Mismatch << '\n';
    } else if (Cmd == ":stats") {
      service::ServiceStats S = Svc.stats();
      std::cout << "commits " << S.Commits << ", rejects "
                << S.CommitRejects << ", conflicts " << S.CommitConflicts
                << ", aborts " << S.AbortedTxns << '\n'
                << "queries " << S.Queries << " (tabulated "
                << S.RungAnswers[0] << ", figure8 " << S.RungAnswers[1]
                << ", gxx " << S.RungAnswers[2] << "), unknown contexts "
                << S.UnknownContexts << '\n'
                << "fast lane: resolves " << S.Resolves << ", probes "
                << S.Probes << ", stale-key re-resolves "
                << S.StaleKeyReresolves
                << ", stale-context rejects " << S.StaleContextRejects
                << '\n'
                << "audits " << S.Audits << ", mismatches "
                << S.AuditMismatches << ", quarantines " << S.Quarantines
                << ", rebuilds " << S.TableRebuilds << '\n';
    } else if (Cmd == ":metrics") {
      if (Tok.size() >= 2 && Tok[1] == "json")
        std::cout << Svc.metricsJson();
      else
        std::cout << Svc.metricsText();
    } else if (Cmd == ":trace") {
      std::vector<service::TraceEvent> Events = Svc.drainTrace();
      service::ServiceStats S = Svc.stats();
      std::cout << "trace ring: " << Events.size() << " retained of "
                << S.TraceEventsRecorded << " recorded ("
                << S.TraceEventsOverwritten << " overwritten)\n";
      for (const service::TraceEvent &E : Events)
        std::cout << "  " << E.toString() << '\n';
      std::vector<service::AnomalyRecord> Anomalies = Svc.recentAnomalies();
      std::cout << "anomalies: " << Anomalies.size() << " retained of "
                << S.AnomaliesLogged << " logged (" << S.AnomaliesSuppressed
                << " suppressed)\n";
      for (const service::AnomalyRecord &R : Anomalies)
        std::cout << "  " << R.toString() << '\n';
    } else if (Cmd == ":begin") {
      if (Pending)
        std::cout << "error: transaction already open (" << Pending->size()
                  << " ops)\n";
      else {
        Pending.emplace(Svc.beginTxn());
        std::cout << "transaction open against epoch "
                  << Pending->baseEpoch() << '\n';
      }
    } else if (Cmd == ":commit") {
      if (!Pending) {
        std::cout << "error: no open transaction\n";
      } else {
        Status S = Svc.commit(*Pending);
        Pending.reset();
        if (S.isOk())
          std::cout << "committed: epoch " << Svc.currentEpoch() << '\n';
        else
          std::cout << "rolled back: " << S.toString() << '\n';
      }
    } else if (Cmd == ":abort") {
      if (!Pending) {
        std::cout << "error: no open transaction\n";
      } else {
        Svc.abort(*Pending);
        Pending.reset();
        std::cout << "aborted\n";
      }
    } else if (Cmd == "resolve" && Tok.size() == 2) {
      size_t Sep = Tok[1].find("::");
      if (Sep == std::string::npos) {
        std::cout << "error: want resolve C::m\n";
        continue;
      }
      Keys.push_back(
          Svc.resolve(Tok[1].substr(0, Sep), Tok[1].substr(Sep + 2)));
      const service::QueryKey &Key = Keys.back();
      std::cout << "key #" << Keys.size() << ": " << Key.ClassName
                << "::" << Key.MemberName << " (epoch " << Key.Epoch
                << ", context "
                << (Key.Context.isValid() ? "resolved" : "unknown")
                << ", member "
                << (Key.Member.isValid() ? "interned" : "unknown") << ")\n";
    } else if (Cmd == "query-by-key" && Tok.size() >= 2) {
      service::QueryKey *Key = KeyAt(Tok[1]);
      if (!Key)
        continue;
      Deadline D = Deadline::never();
      if (Tok.size() >= 3) {
        char *End = nullptr;
        long Millis = std::strtol(Tok[2].c_str(), &End, 10);
        if (End == Tok[2].c_str() || *End != '\0' || Millis < 0) {
          std::cout << "error: bad deadline '" << Tok[2] << "'\n";
          continue;
        }
        D = Deadline::afterMillis(Millis);
      }
      std::shared_ptr<const service::Snapshot> Snap = Svc.snapshot();
      printAnswer(*Snap->H, Key->ClassName, Key->MemberName,
                  Svc.queryOn(*Snap, *Key, D));
    } else if (Cmd == "probe-by-key" && Tok.size() == 2) {
      service::QueryKey *Key = KeyAt(Tok[1]);
      if (!Key)
        continue;
      std::shared_ptr<const service::Snapshot> Snap = Svc.snapshot();
      printProbe(*Snap->H, *Key, Svc.probeOn(*Snap, *Key));
    } else if (Cmd.find("::") != std::string::npos) {
      size_t Sep = Cmd.find("::");
      std::string Class = Cmd.substr(0, Sep);
      std::string Member = Cmd.substr(Sep + 2);
      Deadline D = Deadline::never();
      if (Tok.size() >= 2) {
        char *End = nullptr;
        long Millis = std::strtol(Tok[1].c_str(), &End, 10);
        if (End == Tok[1].c_str() || *End != '\0' || Millis < 0) {
          std::cout << "error: bad deadline '" << Tok[1] << "'\n";
          continue;
        }
        D = Deadline::afterMillis(Millis);
      }
      std::shared_ptr<const service::Snapshot> Snap = Svc.snapshot();
      printAnswer(*Snap->H, Class, Member,
                  Svc.queryOn(*Snap, Class, Member, D));
    } else if (Cmd[0] == ':') {
      std::cout << "error: unknown command '" << Cmd
                << "' (try `help`)\n";
    } else {
      // An edit command: batch it, or commit it as its own transaction.
      std::string Err;
      if (Pending) {
        if (recordEdit(*Pending, Tok, Err))
          std::cout << "recorded (" << Pending->size() << " ops)\n";
        else
          std::cout << "error: " << Err << '\n';
      } else {
        service::Transaction Txn = Svc.beginTxn();
        if (!recordEdit(Txn, Tok, Err)) {
          std::cout << "error: " << Err << '\n';
          continue;
        }
        Status S = Svc.commit(Txn);
        if (S.isOk())
          std::cout << "committed: epoch " << Svc.currentEpoch() << '\n';
        else
          std::cout << "rolled back: " << S.toString() << '\n';
      }
    }
  }
  if (Pending)
    Svc.abort(*Pending);
  // Exit summary: how the session's answers distributed across the
  // degradation ladder - the at-a-glance health line for a service run.
  service::ServiceStats S = Svc.stats();
  std::cout << "answers by rung: tabulated " << S.RungAnswers[0]
            << ", figure8 " << S.RungAnswers[1] << ", gxx "
            << S.RungAnswers[2] << " (" << S.Queries << " queries, "
            << S.Probes << " probes, " << S.Resolves << " keys resolved, "
            << S.StaleKeyReresolves << " stale-key re-resolves)\n";
  // And the observability one-liner: sampled latency spread plus how
  // loud the session was (anomalies are the things worth reading back
  // with :trace before they scroll away).
  LatencyHistogram Merged;
  for (size_t P = 0; P != service::NumQueryPaths; ++P)
    Merged.merge(Svc.latencySnapshot(static_cast<service::QueryPath>(P)));
  if (Merged.count() != 0)
    std::cout << "sampled latency: " << Merged.count() << " samples, p50 "
              << static_cast<uint64_t>(Merged.percentile(50)) << "ns, p99 "
              << static_cast<uint64_t>(Merged.percentile(99)) << "ns, max "
              << Merged.maxSeen() << "ns\n";
  std::cout << "anomalies: " << S.AnomaliesLogged << " logged, "
            << S.AnomaliesSuppressed << " suppressed\n";
  // The quiescent accounting invariant: every query and probe was
  // answered by exactly one ladder rung. With the REPL idle there is
  // no in-flight operation to excuse a mismatch.
  if (S.Queries + S.Probes !=
      S.RungAnswers[0] + S.RungAnswers[1] + S.RungAnswers[2]) {
    std::cerr << "error: accounting invariant violated: " << S.Queries
              << " queries + " << S.Probes << " probes != "
              << S.RungAnswers[0] + S.RungAnswers[1] + S.RungAnswers[2]
              << " rung answers\n";
    return ExitAccountingViolation;
  }
  return 0;
}

int runServe(Hierarchy H, service::ServiceOptions Options) {
  Expected<std::unique_ptr<service::LookupService>> SvcOr =
      service::LookupService::create(std::move(H), std::move(Options));
  if (!SvcOr.hasValue()) {
    std::cerr << "error: " << SvcOr.status().toString() << '\n';
    return 1;
  }
  return runServeOn(**SvcOr);
}

} // namespace

int main(int ArgC, char **ArgV) {
  if (ArgC < 2)
    return usage(ArgV[0]);

  std::string InputName = ArgV[1];
  std::vector<std::string> Queries;
  std::string EngineName = "figure8";
  std::string DotChgFile;
  std::string DotSogClass, DotSogFile;
  bool PrintTable = false;
  bool Explain = false;
  bool SelfCheck = false;
  bool PrintStats = false;
  bool Serve = false;
  std::string EmitSourceFile;
  std::string SaveFile, LoadFile, WalFile;

  for (int I = 2; I < ArgC; ++I) {
    std::string Arg = ArgV[I];
    if (Arg == "--serve") {
      Serve = true;
    } else if (Arg == "--table") {
      PrintTable = true;
    } else if (Arg == "--explain") {
      Explain = true;
    } else if (Arg == "--self-check") {
      SelfCheck = true;
    } else if (Arg == "--stats") {
      PrintStats = true;
    } else if (Arg == "--emit-source" && I + 1 < ArgC) {
      EmitSourceFile = ArgV[++I];
    } else if (Arg == "--query" && I + 1 < ArgC) {
      Queries.push_back(ArgV[++I]);
    } else if (Arg == "--engine" && I + 1 < ArgC) {
      EngineName = ArgV[++I];
    } else if (Arg == "--dot-chg" && I + 1 < ArgC) {
      DotChgFile = ArgV[++I];
    } else if (Arg == "--dot-sog" && I + 2 < ArgC) {
      DotSogClass = ArgV[++I];
      DotSogFile = ArgV[++I];
    } else if (Arg == "--save" && I + 1 < ArgC) {
      SaveFile = ArgV[++I];
    } else if (Arg == "--load" && I + 1 < ArgC) {
      LoadFile = ArgV[++I];
    } else if (Arg == "--wal" && I + 1 < ArgC) {
      WalFile = ArgV[++I];
    } else {
      std::cerr << ArgV[0] << ": error: unknown option '" << Arg << "'\n";
      return usage(ArgV[0]);
    }
  }

  if (!WalFile.empty() && !Serve && LoadFile.empty()) {
    std::cerr << ArgV[0] << ": error: --wal requires --serve or --load\n";
    return usage(ArgV[0]);
  }

  // Read the program text.
  std::string Source;
  if (InputName == "-") {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    Source = Buffer.str();
    InputName = "<stdin>";
  } else {
    std::ifstream File(InputName);
    if (!File) {
      std::cerr << ArgV[0] << ": error: cannot open '" << InputName
                << "'\n";
      return 1;
    }
    std::ostringstream Buffer;
    Buffer << File.rdbuf();
    Source = Buffer.str();
  }

  // Parse.
  DiagnosticEngine Diags;
  std::optional<ParsedProgram> Program = parseProgram(Source, Diags);
  Diags.print(std::cerr, InputName);
  if (!Program)
    return 1;
  Hierarchy &H = Program->H;

  // Restore mode: the snapshot file is the primary state and the parsed
  // hierarchy is the recovery ladder's rebuild fallback. Queries (and
  // --serve) run against the restored service; the batch-mode options
  // below do not apply.
  if (!LoadFile.empty()) {
    service::ServiceOptions Options;
    Options.WalPath = WalFile;
    service::RestoreReport Report;
    Expected<std::unique_ptr<service::LookupService>> SvcOr =
        service::LookupService::restore(LoadFile, std::move(H),
                                        std::move(Options), &Report);
    if (!SvcOr.hasValue()) {
      std::cerr << ArgV[0] << ": error: " << SvcOr.status().toString()
                << '\n';
      return 1;
    }
    std::cerr << Report.toString() << '\n';
    service::LookupService &Svc = **SvcOr;
    int RC = 0;
    if (Serve) {
      RC = runServeOn(Svc);
    } else {
      std::shared_ptr<const service::Snapshot> Snap = Svc.snapshot();
      for (const std::string &Query : Queries) {
        size_t Sep = Query.find("::");
        if (Sep == std::string::npos) {
          std::cerr << ArgV[0] << ": error: bad query '" << Query
                    << "' (want C::m)\n";
          return usage(ArgV[0]);
        }
        std::string Class = Query.substr(0, Sep);
        std::string Member = Query.substr(Sep + 2);
        printAnswer(*Snap->H, Class, Member,
                    Svc.queryOn(*Snap, Class, Member));
      }
    }
    if (RC == 0 && Report.DataLoss)
      return ExitRecoveredWithLoss;
    if (RC == 0 && (Report.FileQuarantined || Report.WalQuarantined))
      return ExitQuarantinedLoad;
    return RC;
  }

  // Service REPL mode takes over the parsed hierarchy entirely; the
  // batch-mode options below do not apply. A --wal here starts a fresh
  // durable history (restore-with-history is --load's job).
  if (Serve) {
    service::ServiceOptions Options;
    Options.WalPath = WalFile;
    return runServe(std::move(H), std::move(Options));
  }

  // Persist before anything else consumes the hierarchy: parse ->
  // tabulate -> atomically replace the snapshot file.
  if (!SaveFile.empty()) {
    std::shared_ptr<const service::LookupTable> Table =
        service::LookupTable::build(H);
    Status S = writeFileAtomic(SaveFile,
                               service::serializeSnapshot(/*Epoch=*/1, H,
                                                          Table.get()));
    if (!S.isOk()) {
      std::cerr << ArgV[0] << ": error: " << S.toString() << '\n';
      return 1;
    }
    std::cerr << "saved snapshot to " << SaveFile << '\n';
  }

  std::unique_ptr<LookupEngine> Engine = makeEngine(EngineName, H);
  if (!Engine) {
    std::cerr << ArgV[0] << ": error: unknown engine '" << EngineName
              << "'\n";
    return 2;
  }

  // In-file directives first, then command-line queries. `expect`
  // directives are verified; any mismatch fails the run.
  unsigned ExpectFailures = 0;
  auto RunQuery = [&](const std::string &Class, const std::string &Member,
                      const std::optional<LookupExpectation> &Expectation) {
    ClassId Id = H.findClass(Class);
    if (!Id.isValid()) {
      std::cout << Class << "::" << Member << " -> error: no class named '"
                << Class << "'\n";
      if (Expectation)
        ++ExpectFailures;
      return;
    }
    LookupResult R = Engine->lookup(Id, Member);
    std::cout << Class << "::" << Member << " -> "
              << formatLookupResult(H, R) << '\n';
    if (Explain && R.Status == LookupStatus::Ambiguous) {
      Symbol Sym = H.findName(Member);
      std::cout << "  "
                << formatAmbiguityCandidates(
                       H, Sym, explainAmbiguity(H, Id, Sym))
                << '\n';
    }
    if (!Expectation)
      return;

    bool Ok = false;
    std::string Wanted;
    switch (Expectation->ExpectKind) {
    case LookupExpectation::Kind::Ambiguous:
      Ok = R.Status == LookupStatus::Ambiguous;
      Wanted = "ambiguous";
      break;
    case LookupExpectation::Kind::NotFound:
      Ok = R.Status == LookupStatus::NotFound;
      Wanted = "notfound";
      break;
    case LookupExpectation::Kind::ResolvesTo:
      Ok = R.Status == LookupStatus::Unambiguous &&
           H.className(R.DefiningClass) == Expectation->DefiningClass;
      Wanted = Expectation->DefiningClass;
      break;
    }
    if (!Ok) {
      ++ExpectFailures;
      std::cout << "  EXPECT FAILED: wanted " << Wanted << '\n';
    }
  };

  for (const LookupDirective &Directive : Program->Lookups)
    RunQuery(Directive.ClassName, Directive.MemberName,
             Directive.Expectation);

  for (const std::string &Query : Queries) {
    size_t Sep = Query.find("::");
    if (Sep == std::string::npos) {
      std::cerr << ArgV[0] << ": error: query '" << Query
                << "' is not of the form C::m\n";
      return 2;
    }
    RunQuery(Query.substr(0, Sep), Query.substr(Sep + 2), std::nullopt);
  }

  // Code blocks: resolve every name use against the block's class.
  unsigned CodeErrors = 0;
  for (const CodeBlock &Block : Program->CodeBlocks) {
    std::cout << "code " << Block.ClassName << ":\n";
    for (const ResolvedUse &Use : resolveCodeBlock(H, *Engine, Block)) {
      std::cout << "  " << Use.Description << '\n';
      if (!useMatchesExpectation(H, Use)) {
        ++CodeErrors;
        std::cout << "    EXPECT FAILED: wanted " << Use.Use->Expected
                  << '\n';
      } else if (Use.Use && Use.Use->Expected.empty() &&
                 Use.UseKind != ResolvedUse::Kind::Member) {
        ++CodeErrors;
      }
    }
  }

  if (PrintTable) {
    std::cout << "lookup table (" << Engine->engineName() << "):\n";
    for (uint32_t Idx = 0; Idx != H.numClasses(); ++Idx)
      for (Symbol Member : H.allMemberNames()) {
        LookupResult R = Engine->lookup(ClassId(Idx), Member);
        if (R.Status == LookupStatus::NotFound)
          continue;
        std::cout << "  " << H.className(ClassId(Idx))
                  << "::" << H.spelling(Member) << " -> "
                  << formatLookupResult(H, R) << '\n';
      }
  }

  if (!DotChgFile.empty()) {
    std::ofstream Out(DotChgFile);
    writeHierarchyDot(H, Out);
    std::cout << "wrote " << DotChgFile << '\n';
  }

  if (!DotSogFile.empty()) {
    ClassId Id = H.findClass(DotSogClass);
    if (!Id.isValid()) {
      std::cerr << ArgV[0] << ": error: no class named '" << DotSogClass
                << "'\n";
      return 1;
    }
    auto Graph = SubobjectGraph::build(H, Id);
    if (!Graph) {
      std::cerr << ArgV[0]
                << ": error: subobject graph exceeds the budget\n";
      return 1;
    }
    std::ofstream Out(DotSogFile);
    Graph->writeDot(Out);
    std::cout << "wrote " << DotSogFile << '\n';
  }

  if (!EmitSourceFile.empty()) {
    std::ofstream Out(EmitSourceFile);
    printHierarchySource(H, Out);
    std::cout << "wrote " << EmitSourceFile << '\n';
  }

  if (PrintStats) {
    DominanceLookupEngine StatsEngine(H);
    std::cout << formatTableStatistics(
        H, computeTableStatistics(H, StatsEngine));
  }

  if (SelfCheck) {
    DifferentialReport Report = runDifferentialCheck(H);
    std::cout << "self-check: " << Report.PairsChecked << " pairs checked, "
              << Report.PairsSkipped << " skipped, "
              << Report.Mismatches.size() << " mismatches\n";
    for (const std::string &Mismatch : Report.Mismatches)
      std::cout << "  MISMATCH: " << Mismatch << '\n';
    if (!Report.passed())
      return 1;
  }

  if (ExpectFailures != 0) {
    std::cerr << ArgV[0] << ": error: " << ExpectFailures
              << " expect directive(s) failed\n";
    return 1;
  }
  if (CodeErrors != 0) {
    std::cerr << ArgV[0] << ": error: " << CodeErrors
              << " name use(s) failed to resolve\n";
    return 1;
  }
  return 0;
}
