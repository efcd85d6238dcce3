#include "udf/quarantine.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace jaguar {

QuarantineTracker::QuarantineTracker(int threshold)
    : threshold_(threshold > 0 ? threshold : kDefaultThreshold) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();
  trips_ = reg->GetCounter("udf.quarantine.trips");
  rejections_ = reg->GetCounter("udf.quarantine.rejections");
  strikes_ = reg->GetCounter("udf.quarantine.strikes");
}

void QuarantineTracker::RecordOutcome(const std::string& name,
                                      const Status& outcome) {
  const bool strike = outcome.IsDeadlineExceeded() || outcome.IsIoError();
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[ToLower(name)];
  if (entry.quarantined) return;
  if (!strike) {
    entry.consecutive_strikes = 0;
    return;
  }
  strikes_->Add();
  if (++entry.consecutive_strikes >= threshold_) {
    entry.quarantined = true;
    trips_->Add();
    JAGUAR_LOG(kWarning) << "UDF '" << name << "' quarantined after "
                     << entry.consecutive_strikes
                     << " consecutive timeouts/crashes";
  }
}

Status QuarantineTracker::CheckAllowed(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(ToLower(name));
    if (it == entries_.end() || !it->second.quarantined) return Status::OK();
  }
  rejections_->Add();
  return SecurityViolation(
      "UDF '" + name + "' is quarantined after " + std::to_string(threshold_) +
      " consecutive timeouts/crashes; re-register it to re-enable");
}

void QuarantineTracker::Reset(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.erase(ToLower(name));
}

}  // namespace jaguar
