#ifndef JAGUAR_UDF_QUARANTINE_H_
#define JAGUAR_UDF_QUARANTINE_H_

/// \file quarantine.h
/// Per-UDF quarantine tracker.
///
/// Section 4 of the paper observes that a misbehaving UDF is not a one-off
/// event: a function that loops forever or crashes its executor will do so on
/// every invocation, and each incident costs the server a killed child and a
/// respawn. The tracker turns repeated incidents into a standing verdict —
/// after `threshold` *consecutive* timeouts/crashes a UDF is quarantined and
/// `UdfManager::Resolve` refuses to run it until it is re-registered (or
/// dropped), mirroring how a DBA would disable a known-bad extension.
///
/// Only failures that indicate a runaway or dead UDF count as strikes:
/// `DeadlineExceeded` (watchdog kill / budget abort) and `IoError` (executor
/// child died mid-crossing). Ordinary errors (bad arguments, runtime faults
/// inside the VM) are the UDF behaving badly but controllably, and any
/// successful invocation resets the streak.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "obs/metrics.h"

namespace jaguar {

class QuarantineTracker {
 public:
  /// \param threshold Consecutive strike count that trips quarantine.
  explicit QuarantineTracker(int threshold = kDefaultThreshold);

  /// Records the outcome of one invocation (or batch crossing) of `name`.
  /// Strikes accumulate on DeadlineExceeded/IoError; success resets.
  void RecordOutcome(const std::string& name, const Status& outcome);

  /// \return OK if `name` may run, SecurityViolation if quarantined.
  /// Bumps `udf.quarantine.rejections` when rejecting.
  Status CheckAllowed(const std::string& name);

  /// Clears any strikes/quarantine for `name` — called when the UDF is
  /// re-registered or dropped.
  void Reset(const std::string& name);

  int threshold() const { return threshold_; }

  static constexpr int kDefaultThreshold = 3;

 private:
  struct Entry {
    int consecutive_strikes = 0;
    bool quarantined = false;
  };

  const int threshold_;
  std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;  ///< Keyed by lower name.
  obs::Counter* trips_;
  obs::Counter* rejections_;
  obs::Counter* strikes_;
};

}  // namespace jaguar

#endif  // JAGUAR_UDF_QUARANTINE_H_
