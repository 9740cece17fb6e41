//===- memlook/memlook.h - Umbrella header ----------------------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella: pulls in the whole public API. Prefer the
/// individual headers in library code (see the LLVM guideline to
/// include as little as possible); this exists for tools, examples, and
/// quick experiments.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_MEMLOOK_H
#define MEMLOOK_MEMLOOK_H

// Support
#include "memlook/support/BitMatrix.h"
#include "memlook/support/BitVector.h"
#include "memlook/support/Diagnostics.h"
#include "memlook/support/DotWriter.h"
#include "memlook/support/Deadline.h"
#include "memlook/support/ResourceBudget.h"
#include "memlook/support/Rng.h"
#include "memlook/support/Status.h"
#include "memlook/support/StringInterner.h"
#include "memlook/support/StrongId.h"
#include "memlook/support/TopologicalSort.h"

// Class hierarchy graph and path calculus
#include "memlook/chg/DotExport.h"
#include "memlook/chg/Hierarchy.h"
#include "memlook/chg/HierarchyBuilder.h"
#include "memlook/chg/Path.h"

// Rossie-Friedman subobject model
#include "memlook/subobject/SubobjectCount.h"
#include "memlook/subobject/SubobjectGraph.h"

// Lookup engines and extensions
#include "memlook/core/AccessControl.h"
#include "memlook/core/DifferentialCheck.h"
#include "memlook/core/DominanceLookupEngine.h"
#include "memlook/core/EngineFactory.h"
#include "memlook/core/ExplainAmbiguity.h"
#include "memlook/core/GxxBfsEngine.h"
#include "memlook/core/LookupEngine.h"
#include "memlook/core/LookupResult.h"
#include "memlook/core/MostDominant.h"
#include "memlook/core/NaivePropagationEngine.h"
#include "memlook/core/QualifiedLookup.h"
#include "memlook/core/SubobjectLookupEngine.h"
#include "memlook/core/TableStatistics.h"
#include "memlook/core/TopsortShortcutEngine.h"
#include "memlook/core/UnqualifiedLookup.h"
#include "memlook/core/UsingDeclarations.h"

// Long-lived lookup service
#include "memlook/service/LookupService.h"
#include "memlook/service/Snapshot.h"
#include "memlook/service/Transaction.h"

// Front end
#include "memlook/frontend/Lexer.h"
#include "memlook/frontend/Parser.h"
#include "memlook/frontend/SourcePrinter.h"

// Compiler applications
#include "memlook/apps/CompleteObjectVTables.h"
#include "memlook/apps/HierarchySlicer.h"
#include "memlook/apps/ObjectLayout.h"
#include "memlook/apps/VTableBuilder.h"

// Workload generators
#include "memlook/workload/Generators.h"

#endif // MEMLOOK_MEMLOOK_H
