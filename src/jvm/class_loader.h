#ifndef JAGUAR_JVM_CLASS_LOADER_H_
#define JAGUAR_JVM_CLASS_LOADER_H_

/// \file class_loader.h
/// Namespace-isolating class loaders, mirroring Section 6.1: "a UDF can be
/// loaded with a special class loader that isolates the UDF's namespace from
/// that of other UDFs and prevents interactions between them."
///
/// A loader resolves names first in its own namespace, then (like Java's
/// delegation model) in its parent chain — typically a shared "system" loader
/// holding trusted library classes. Two UDF loaders with the same parent
/// cannot see each other's classes, even under identical class names.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "jvm/verifier.h"

namespace jaguar {
namespace jvm {

class ClassLoader;

/// A verified class bound to its defining loader, with lazily filled
/// resolution caches (the VM is single-threaded per invocation, matching
/// PREDATOR's serial expression evaluation).
struct LoadedClass {
  VerifiedClass cls;
  const ClassLoader* loader = nullptr;

  struct ResolvedMethod {
    const LoadedClass* target_class;
    const VerifiedMethod* method;
  };
  /// Per-constant-pool-index caches, sized on first use.
  mutable std::vector<std::optional<ResolvedMethod>> method_cache;
  mutable std::vector<const struct NativeMethod*> native_cache;
};

class ClassLoader {
 public:
  /// \param parent delegation parent (not owned); null for a root loader.
  explicit ClassLoader(const ClassLoader* parent = nullptr)
      : parent_(parent) {}

  /// Parses, **verifies**, and defines a class from untrusted bytes. Fails
  /// with AlreadyExists if this namespace already defines the name.
  Result<const LoadedClass*> LoadClass(Slice class_file_bytes);

  /// Defines an already-verified class (compiler output inside the process).
  Result<const LoadedClass*> DefineClass(VerifiedClass cls);

  /// Looks up `name` in this namespace, then the parent chain.
  Result<const LoadedClass*> FindClass(const std::string& name) const;

  const ClassLoader* parent() const { return parent_; }

 private:
  const ClassLoader* parent_;
  std::map<std::string, std::unique_ptr<LoadedClass>> classes_;
};

}  // namespace jvm
}  // namespace jaguar

#endif  // JAGUAR_JVM_CLASS_LOADER_H_
