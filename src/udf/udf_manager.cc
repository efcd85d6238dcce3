#include "udf/udf_manager.h"

#include "common/string_util.h"
#include "obs/metrics.h"

namespace jaguar {

void UdfManager::SetRunnerFactory(UdfLanguage lang, RunnerFactory factory) {
  factories_[lang] = std::move(factory);
}

Result<UdfManager::CachedRunner> UdfManager::Build(const std::string& name) {
  // Catalog registrations take precedence: a client can register a UDF that
  // shadows nothing (new name) or fail at registration time on a clash.
  if (catalog_ != nullptr) {
    Result<const UdfInfo*> info = catalog_->GetUdf(name);
    if (info.ok()) {
      const UdfInfo& udf = **info;
      switch (udf.language) {
        case UdfLanguage::kNative:
        case UdfLanguage::kNativeChecked: {
          JAGUAR_ASSIGN_OR_RETURN(
              const NativeUdfEntry* entry,
              NativeUdfRegistry::Global()->Lookup(udf.impl_name));
          return CachedRunner{std::make_unique<IntegratedNativeRunner>(entry),
                              udf.return_type, udf.arg_types};
        }
        default: {
          auto it = factories_.find(udf.language);
          if (it == factories_.end()) {
            return NotSupported(
                StringPrintf("no runner factory installed for %s UDF '%s'",
                             UdfLanguageToString(udf.language),
                             udf.name.c_str()));
          }
          JAGUAR_ASSIGN_OR_RETURN(std::unique_ptr<UdfRunner> runner,
                                  it->second(udf));
          return CachedRunner{std::move(runner), udf.return_type,
                              udf.arg_types};
        }
      }
    }
    if (!info.status().IsNotFound()) return info.status();
  }
  // Fallback: direct native-registry lookup (builtins, Design 1 defaults).
  JAGUAR_ASSIGN_OR_RETURN(const NativeUdfEntry* entry,
                          NativeUdfRegistry::Global()->Lookup(name));
  return CachedRunner{std::make_unique<IntegratedNativeRunner>(entry),
                      entry->return_type, entry->arg_types};
}

Result<UdfRunner*> UdfManager::Resolve(const std::string& name,
                                       TypeId* return_type,
                                       std::vector<TypeId>* arg_types) {
  static obs::Counter* cache_hits =
      obs::MetricsRegistry::Global()->GetCounter("udf.runner_cache_hits");
  static obs::Counter* cache_misses =
      obs::MetricsRegistry::Global()->GetCounter("udf.runner_cache_misses");
  const std::string key = ToLower(name);
  if (quarantine_ != nullptr) {
    JAGUAR_RETURN_IF_ERROR(quarantine_->CheckAllowed(key));
  }
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    cache_misses->Add();
    JAGUAR_ASSIGN_OR_RETURN(CachedRunner built, Build(name));
    if (quarantine_ != nullptr) {
      QuarantineTracker* tracker = quarantine_;
      built.runner->set_outcome_listener([tracker, key](const Status& s) {
        tracker->RecordOutcome(key, s);
      });
    }
    it = cache_.emplace(key, std::move(built)).first;
  } else {
    cache_hits->Add();
  }
  if (return_type != nullptr) *return_type = it->second.return_type;
  if (arg_types != nullptr) *arg_types = it->second.arg_types;
  return it->second.runner.get();
}

}  // namespace jaguar
