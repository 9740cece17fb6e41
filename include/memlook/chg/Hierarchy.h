//===- memlook/chg/Hierarchy.h - C++ class hierarchy graph ------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Class Hierarchy Graph (CHG) of Section 2 of the paper: nodes are
/// classes, edges are direct inheritance relations partitioned into
/// virtual (E_v) and non-virtual (E_nv) edges. An edge X -> Y means X is a
/// direct base of Y. Each class carries the set M[X] of members declared
/// directly in it.
///
/// Beyond the paper's bare graph, the hierarchy records the C++ details
/// needed by the extensions in Section 6 and by the compiler applications:
/// per-member static/virtual flags and access, and per-edge access.
///
/// A Hierarchy is built incrementally, then finalize() validates it
/// (acyclicity, no duplicate direct bases - both C++ rules) and computes
/// the preprocessing artifacts the lookup algorithm needs: a topological
/// order of classes and the transitive base / virtual-base closures.
///
/// A finalized hierarchy is immutable. To change one, take a draft():
/// an unfinalized copy with the same class ids, which accepts the add
/// edits and their removal mirrors (removeMember, removeBase,
/// removeClass) and is then finalized on its own. The service's edit
/// scripts and HierarchyBuilder::fromHierarchy both work this way.
///
/// What finalize() derives from the classes and edges alone - the
/// topological order, both closures and the edge-attribute index - lives
/// in one immutable, reference-counted block. A draft shares its base's
/// block; createClass, addBase, removeBase and removeClass drop it, and
/// finalize() rebuilds it only when it was dropped. So a member-only
/// edit (the service's usual commit) finalizes without recomputing or
/// copying the O(|N|^2) closures, and consecutive epochs share one copy.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_CHG_HIERARCHY_H
#define MEMLOOK_CHG_HIERARCHY_H

#include "memlook/support/BitMatrix.h"
#include "memlook/support/Diagnostics.h"
#include "memlook/support/StringInterner.h"
#include "memlook/support/StrongId.h"

#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace memlook {

struct ClassTag {};

/// Dense id of a class in a Hierarchy.
using ClassId = StrongId<ClassTag>;

/// The two inheritance flavors of C++ (solid vs dashed edges in the
/// paper's figures).
enum class InheritanceKind : uint8_t { NonVirtual, Virtual };

/// C++ access specifiers, ordered from most to least permissive.
enum class AccessSpec : uint8_t { Public, Protected, Private };

/// Returns the more restrictive of two access specifiers. Composing
/// access along an inheritance path takes the minimum at each step.
inline AccessSpec restrictAccess(AccessSpec A, AccessSpec B) {
  return static_cast<uint8_t>(A) >= static_cast<uint8_t>(B) ? A : B;
}

/// Returns "public" / "protected" / "private".
const char *accessSpelling(AccessSpec Access);

/// One entry of a class's base-specifier list.
struct BaseSpecifier {
  ClassId Base;
  InheritanceKind Kind = InheritanceKind::NonVirtual;
  AccessSpec Access = AccessSpec::Public;
  SourceLoc Loc;
};

/// A member declared directly in a class (an element of M[X]).
///
/// The paper does not distinguish virtual and non-virtual members for
/// lookup; we record the flag anyway because the vtable application needs
/// it. Type names and enumerator constants introduced into class scope
/// behave exactly like static members for lookup (Section 6), so IsStatic
/// covers them too.
///
/// A using-declaration (`using B::m;`) is modeled as a declaration of m
/// in the class that contains it, with UsingFrom naming B. That is
/// exactly C++'s semantics - the introduced name hides every inherited
/// m - so the lookup algorithms need no change at all; only clients that
/// care about the *entity* behind the name (vtables, diagnostics)
/// resolve the target via core/UsingDeclarations.h.
struct MemberDecl {
  Symbol Name;
  bool IsStatic = false;
  bool IsVirtual = false;
  AccessSpec Access = AccessSpec::Public;
  SourceLoc Loc;
  /// For a using-declaration: the named base class; invalid otherwise.
  ClassId UsingFrom;

  bool isUsingDeclaration() const { return UsingFrom.isValid(); }
};

/// The class hierarchy graph plus per-class member declarations.
class Hierarchy {
public:
  /// Per-class record.
  struct ClassInfo {
    Symbol Name;
    SourceLoc Loc;
    /// Direct bases in base-specifier-list order (the order matters for
    /// object layout and for deterministic algorithm traversal).
    std::vector<BaseSpecifier> DirectBases;
    /// Classes that list this class as a direct base, in creation
    /// (= id) order.
    std::vector<ClassId> DirectDerived;
    /// Members declared directly in this class, in declaration order.
    std::vector<MemberDecl> Members;
  };

  //===--------------------------------------------------------------------===
  // Construction
  //===--------------------------------------------------------------------===

  /// Creates a class named \p Name. Returns an invalid id and reports to
  /// \p Diags if the name is already taken.
  ClassId createClass(std::string_view Name, SourceLoc Loc = SourceLoc(),
                      DiagnosticEngine *Diags = nullptr);

  /// Appends \p Base to \p Derived's base-specifier list. Duplicate direct
  /// bases are rejected (ill-formed in C++) with a diagnostic. Must not be
  /// called after finalize().
  bool addBase(ClassId Derived, ClassId Base,
               InheritanceKind Kind = InheritanceKind::NonVirtual,
               AccessSpec Access = AccessSpec::Public,
               SourceLoc Loc = SourceLoc(), DiagnosticEngine *Diags = nullptr);

  /// Declares member \p Name directly in \p Class. Redeclaring the same
  /// name in one class is folded into the first declaration (we model
  /// names, not overload sets) with a warning.
  void addMember(ClassId Class, std::string_view Name, bool IsStatic = false,
                 bool IsVirtual = false, AccessSpec Access = AccessSpec::Public,
                 SourceLoc Loc = SourceLoc(), DiagnosticEngine *Diags = nullptr);

  /// Adds `using From::Name;` to \p Class: a declaration of \p Name in
  /// \p Class whose entity is inherited from \p From. finalize()
  /// verifies that \p From is a (transitive) base of \p Class; whether
  /// Name is actually a member of From is a lookup question answered by
  /// validateUsingDeclarations() (core/UsingDeclarations.h).
  void addUsingDeclaration(ClassId Class, ClassId From, std::string_view Name,
                           AccessSpec Access = AccessSpec::Public,
                           SourceLoc Loc = SourceLoc(),
                           DiagnosticEngine *Diags = nullptr);

  /// Removes \p Class's declaration of \p Name (a member or a
  /// using-declaration). Returns false if \p Class declares no such name.
  bool removeMember(ClassId Class, std::string_view Name);

  /// Removes the direct edge \p Base -> \p Derived from both endpoints'
  /// lists. Returns false if there is no such edge.
  bool removeBase(ClassId Derived, ClassId Base);

  /// Removes \p Class together with its own bases and members. Returns
  /// false, changing nothing, while another class still names \p Class
  /// as a base or as a using-source. The surviving classes keep their
  /// creation order, so every later class's id moves down by one; every
  /// stored id is remapped, and ids held outside this hierarchy go stale.
  bool removeClass(ClassId Class);

  /// An unfinalized copy with the same class ids, bases, members and
  /// source locations, open to further edits and a finalize() of its own.
  /// Only the names still in use are interned again (class names in id
  /// order, then member names in declaration order): a name that was
  /// removed, or only ever queried, does not carry over, so a chain of
  /// drafts keeps the symbol space the size of the live hierarchy.
  /// The draft shares this hierarchy's finalized structure until a
  /// structural edit (createClass, addBase, removeBase, removeClass).
  Hierarchy draft() const;

  /// Non-mutating validation of the graph as described so far: reports
  /// inheritance cycles and using-declarations that do not name a
  /// (transitive) base, as structured Diagnostics. Duplicate classes and
  /// duplicate/conflicting base edges are rejected at insertion time
  /// (createClass / addBase), so a hierarchy that reached this point can
  /// only be ill-formed in those two global ways. Returns true iff the
  /// hierarchy would finalize successfully: it finalizes a draft().
  bool validate(DiagnosticEngine &Diags) const {
    return draft().finalize(Diags);
  }

  /// Validates the graph and computes the topological order and the base /
  /// virtual-base closures - or, on a draft whose classes and edges are
  /// unchanged, reuses its base's. Always re-checks the using-targets and
  /// recollects allMemberNames(). Returns false (and reports every cycle
  /// and bad using-target found) if the graph is ill-formed. Construction
  /// calls are invalid after a successful finalize().
  bool finalize(DiagnosticEngine &Diags);

  /// True once finalize() has succeeded.
  bool isFinalized() const { return Finalized; }

  //===--------------------------------------------------------------------===
  // Queries
  //===--------------------------------------------------------------------===

  uint32_t numClasses() const { return static_cast<uint32_t>(Classes.size()); }

  /// Total number of inheritance edges |E|.
  uint32_t numEdges() const { return NumEdges; }

  const ClassInfo &info(ClassId Id) const {
    assert(Id.isValid() && Id.index() < Classes.size() && "bad class id");
    return Classes[Id.index()];
  }

  /// Spelling of \p Id's name.
  std::string_view className(ClassId Id) const {
    return Names.spelling(info(Id).Name);
  }

  /// Finds a class by name; invalid id if absent.
  ClassId findClass(std::string_view Name) const;

  /// Interns a member name so it can be used in lookup queries. Query-side
  /// code may also use findMemberName() to avoid allocating for unknown
  /// names.
  Symbol internName(std::string_view Name) { return Names.intern(Name); }

  /// Finds an already-interned name; invalid Symbol if never seen.
  Symbol findName(std::string_view Name) const { return Names.find(Name); }

  /// Number of distinct interned names so far - class names, member
  /// names, and query-side internName() calls share one dense id space,
  /// so every valid Symbol's raw value is below this bound. The flat
  /// member dispatch of service::LookupTable is sized by it.
  uint32_t numInternedNames() const {
    return static_cast<uint32_t>(Names.size());
  }

  /// Spelling of an interned name.
  std::string_view spelling(Symbol Sym) const { return Names.spelling(Sym); }

  /// The member named \p Name declared directly in \p Class, if any.
  const MemberDecl *declaredMember(ClassId Class, Symbol Name) const;

  /// True iff \p Name is in M[Class].
  bool declaresMember(ClassId Class, Symbol Name) const {
    return declaredMember(Class, Name) != nullptr;
  }

  /// All distinct member names declared anywhere in the program, in
  /// first-declaration order.
  const std::vector<Symbol> &allMemberNames() const {
    assert(Finalized && "closures require finalize()");
    return MemberNames;
  }

  /// Classes in topological order: every base precedes its derived
  /// classes. Requires finalize().
  const std::vector<ClassId> &topologicalOrder() const {
    assert(Finalized && "topological order requires finalize()");
    return Graph->TopoOrder;
  }

  /// True iff \p Base is a (transitive, proper) base class of \p Derived:
  /// a nonempty CHG path Base -> ... -> Derived exists.
  bool isBaseOf(ClassId Base, ClassId Derived) const {
    assert(Finalized && "closures require finalize()");
    return closureBit(BasesWords, Derived, Base);
  }

  /// True iff \p Base is a virtual base of \p Derived: some CHG path from
  /// Base to Derived starts with a virtual edge (Section 2).
  bool isVirtualBaseOf(ClassId Base, ClassId Derived) const {
    assert(Finalized && "closures require finalize()");
    return closureBit(VirtualWords, Derived, Base);
  }

  /// The set of (transitive) bases of \p Derived as a bit-row view
  /// indexed by class index (valid while this hierarchy lives).
  BitRowView basesOf(ClassId Derived) const {
    assert(Finalized && "closures require finalize()");
    return closureRow(BasesWords, Derived);
  }

  /// The set of virtual bases of \p Derived as a bit-row view.
  BitRowView virtualBasesOf(ClassId Derived) const {
    assert(Finalized && "closures require finalize()");
    return closureRow(VirtualWords, Derived);
  }

  /// The inheritance kind of the direct edge Base -> Derived, or nullopt
  /// if no such edge exists.
  std::optional<InheritanceKind> edgeKind(ClassId Base, ClassId Derived) const;

  /// The access of the direct edge Base -> Derived, or nullopt.
  std::optional<AccessSpec> edgeAccess(ClassId Base, ClassId Derived) const;

  /// Sum over classes of |M[X]| (number of member declarations).
  uint32_t numMemberDecls() const { return NumMemberDecls; }

private:
  /// Everything finalize() derives from the classes and edges alone.
  /// Immutable once built; shared by every draft and epoch whose classes
  /// and edges are unchanged.
  struct Structure {
    std::vector<ClassId> TopoOrder;
    BitMatrix BasesClosure;   // row = derived, col = base
    BitMatrix VirtualClosure; // row = derived, col = virtual base
    // Direct-edge attribute index keyed by (base, derived) packed into
    // one 64-bit word, for O(1) edgeKind/edgeAccess.
    std::unordered_map<uint64_t, std::pair<InheritanceKind, AccessSpec>>
        EdgeIndex;
  };

  StringInterner Names;
  std::vector<ClassInfo> Classes;
  std::unordered_map<Symbol, ClassId> ClassByName;

  /// Null until finalize() builds it, and again after a structural edit.
  std::shared_ptr<const Structure> Graph;
  // The closures' addressing, copied out of Graph so the Lemma 4 test
  // (bounds asserts included) costs no more than a closure held by value.
  const uint64_t *BasesWords = nullptr;
  const uint64_t *VirtualWords = nullptr;
  size_t RowWords = 0;
  size_t ClosureDim = 0; // rows = columns = classes

  std::vector<Symbol> MemberNames;
  uint32_t NumEdges = 0;
  uint32_t NumMemberDecls = 0;
  bool Finalized = false;

  bool closureBit(const uint64_t *Words, ClassId Row, ClassId Col) const {
    assert(Row.index() < ClosureDim && Col.index() < ClosureDim &&
           "bad class id");
    return (Words[Row.index() * RowWords + Col.index() / 64] >>
            (Col.index() % 64)) &
           1;
  }

  BitRowView closureRow(const uint64_t *Words, ClassId Row) const {
    assert(Row.index() < ClosureDim && "bad class id");
    return BitRowView(Words + Row.index() * RowWords, ClosureDim);
  }

  /// Sorts the classes topologically and computes both closures and the
  /// edge index; null, after reporting the cycle, on a cyclic graph.
  std::shared_ptr<const Structure>
  deriveStructure(DiagnosticEngine &Diags) const;

  /// Reports every using-declaration whose source is not a (transitive)
  /// base of its class; true iff there is none.
  bool checkUsingTargets(DiagnosticEngine &Diags) const;

  static uint64_t edgeKey(ClassId Base, ClassId Derived) {
    return (static_cast<uint64_t>(Base.index()) << 32) | Derived.index();
  }
};

} // namespace memlook

#endif // MEMLOOK_CHG_HIERARCHY_H
