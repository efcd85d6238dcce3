#ifndef JAGUAR_UDF_UDF_MANAGER_H_
#define JAGUAR_UDF_UDF_MANAGER_H_

/// \file udf_manager.h
/// Resolves function names to runners, honoring each UDF's registered design.
///
/// Native designs (Design 1 and its bounds-checked variant) are handled here
/// directly. The other designs — isolated processes (Design 2), the JagVM
/// (Design 3), SFI — are plugged in as *runner factories* by their modules, so
/// this module stays independent of them:
///
///     manager.SetRunnerFactory(UdfLanguage::kJJava, MakeJvmRunnerFactory(&vm));
///
/// Unregistered names fall back to the global native registry (builtins like
/// `length` and `randbytes` run as Design 1).

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "udf/quarantine.h"
#include "udf/udf.h"

namespace jaguar {

class UdfManager : public UdfResolver {
 public:
  /// \param catalog may be null (native-registry-only resolution; used by
  /// tests and by remote executor processes).
  explicit UdfManager(const Catalog* catalog) : catalog_(catalog) {}

  /// Builds (or returns the cached) runner for `name`.
  Result<UdfRunner*> Resolve(const std::string& name, TypeId* return_type,
                             std::vector<TypeId>* arg_types) override;

  /// Factory producing a runner for one catalog UDF entry of a given design.
  using RunnerFactory =
      std::function<Result<std::unique_ptr<UdfRunner>>(const UdfInfo&)>;

  /// Installs the factory for `lang` (kNativeIsolated, kJJava, kNativeSfi).
  void SetRunnerFactory(UdfLanguage lang, RunnerFactory factory);

  /// Drops cached runners (required after catalog mutations that change a
  /// UDF's registration, so a re-registered UDF runs its new design).
  void InvalidateCache() { cache_.clear(); }

  /// Attaches the per-UDF quarantine tracker (not owned; may be null to
  /// disable). Resolution rejects quarantined names and every runner built
  /// afterwards reports its invocation outcomes to the tracker.
  void set_quarantine(QuarantineTracker* quarantine) {
    quarantine_ = quarantine;
  }
  QuarantineTracker* quarantine() const { return quarantine_; }

 private:
  struct CachedRunner {
    std::unique_ptr<UdfRunner> runner;
    TypeId return_type;
    std::vector<TypeId> arg_types;
  };

  Result<CachedRunner> Build(const std::string& name);

  const Catalog* catalog_;
  std::map<UdfLanguage, RunnerFactory> factories_;
  std::map<std::string, CachedRunner> cache_;
  QuarantineTracker* quarantine_ = nullptr;
};

}  // namespace jaguar

#endif  // JAGUAR_UDF_UDF_MANAGER_H_
