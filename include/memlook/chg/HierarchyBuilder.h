//===- memlook/chg/HierarchyBuilder.h - Fluent CHG builder ------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fluent programmatic builder for class hierarchies, used throughout
/// the tests, examples, and benchmarks. Bases are referenced by name and
/// must already exist, mirroring C++'s requirement that a base class be
/// defined before it is inherited from:
///
/// \code
///   HierarchyBuilder B;
///   B.addClass("A").withMember("m");
///   B.addClass("B").withBase("A");
///   B.addClass("C").withVirtualBase("B");
///   Hierarchy H = std::move(B).build();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_CHG_HIERARCHYBUILDER_H
#define MEMLOOK_CHG_HIERARCHYBUILDER_H

#include "memlook/chg/Hierarchy.h"
#include "memlook/support/Status.h"

namespace memlook {

/// Maps the first error in \p Diags to the Status channel (UnknownBase
/// -> UnknownClass, InheritanceCycle -> InheritanceCycle, ...). Returns
/// ok when \p Diags holds no errors. Shared by HierarchyBuilder's
/// tryBuild() and by the service's edit scripts, which finalize an
/// edited Hierarchy::draft().
Status statusFromDiagnostics(const DiagnosticEngine &Diags);

/// Fluent builder over Hierarchy. Errors in the described hierarchy
/// (unknown base, duplicate class, cycle) are *recorded* as structured
/// diagnostics, never asserted: the offending call becomes a no-op and
/// construction continues, so a whole batch of problems surfaces at
/// once. Callers choose the failure policy at the end:
///
///   * tryBuild() returns Expected<Hierarchy> - the recoverable channel
///     for untrusted descriptions;
///   * build() keeps the historical contract for trusted programmatic
///     callers (tests, generators): any recorded error or validation
///     failure is a caller bug and asserts.
class HierarchyBuilder {
public:
  class ClassHandle;

  HierarchyBuilder() = default;

  /// Seeds the builder with a draft of \p Source: its classes, bases,
  /// and members under the same ids and names (a finalized hierarchy is
  /// immutable; this is how a tool extends one: copy, add, finalize
  /// again). See Hierarchy::draft().
  static HierarchyBuilder fromHierarchy(const Hierarchy &Source);

  /// Creates class \p Name and returns a handle for attaching bases and
  /// members. A duplicate name records a DuplicateClass diagnostic and
  /// returns an inert handle.
  ClassHandle addClass(std::string_view Name);

  /// Returns a handle to the existing class \p Name, for incremental
  /// construction across helper functions. An unknown name records an
  /// UnknownBase diagnostic and returns an inert handle on which every
  /// fluent call is a no-op.
  ClassHandle getClass(std::string_view Name);

  /// Finalizes and returns the hierarchy. Consumes the builder; asserts
  /// that no construction error was recorded and validation succeeded.
  /// For untrusted descriptions use tryBuild() instead.
  Hierarchy build() &&;

  /// Recoverable twin of build(): finalizes and returns the hierarchy,
  /// or the Status describing the first construction/validation error.
  /// All diagnostics (including warnings) are appended to \p Diags when
  /// provided.
  Expected<Hierarchy> tryBuild(DiagnosticEngine *Diags = nullptr) &&;

  /// Construction errors recorded so far (unknown base, duplicate
  /// class, conflicting edge, ...). A non-empty error set means build()
  /// would assert and tryBuild() would return its first error.
  const DiagnosticEngine &diagnostics() const { return BuildDiags; }

  /// Access to the hierarchy under construction (e.g. to pre-intern
  /// names).
  Hierarchy &hierarchy() { return H; }

  /// Fluent per-class construction handle.
  class ClassHandle {
  public:
    /// Adds a non-virtual base named \p Name.
    ClassHandle &withBase(std::string_view Name,
                          AccessSpec Access = AccessSpec::Public);

    /// Adds a virtual base named \p Name.
    ClassHandle &withVirtualBase(std::string_view Name,
                                 AccessSpec Access = AccessSpec::Public);

    /// Declares a non-static member named \p Name.
    ClassHandle &withMember(std::string_view Name,
                            AccessSpec Access = AccessSpec::Public);

    /// Declares a static member named \p Name.
    ClassHandle &withStaticMember(std::string_view Name,
                                  AccessSpec Access = AccessSpec::Public);

    /// Declares a virtual (function) member named \p Name.
    ClassHandle &withVirtualMember(std::string_view Name,
                                   AccessSpec Access = AccessSpec::Public);

    /// Adds `using From::Name;`. \p From must already exist (it is
    /// validated as a base at build()).
    ClassHandle &withUsing(std::string_view From, std::string_view Name,
                           AccessSpec Access = AccessSpec::Public);

    /// The id of the class being built; invalid for an inert handle
    /// (unknown getClass() name or duplicate addClass() name).
    ClassId id() const { return Id; }

    /// False for an inert handle.
    bool valid() const { return Id.isValid(); }

  private:
    friend class HierarchyBuilder;
    ClassHandle(HierarchyBuilder &Builder, ClassId Id)
        : Builder(Builder), Id(Id) {}

    HierarchyBuilder &Builder;
    ClassId Id;
  };

private:
  Hierarchy H;
  DiagnosticEngine BuildDiags;
};

} // namespace memlook

#endif // MEMLOOK_CHG_HIERARCHYBUILDER_H
