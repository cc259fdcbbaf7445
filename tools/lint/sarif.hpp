// vn2-lint SARIF 2.1.0 interchange.
//
// `to_sarif` serializes findings as a single-run SARIF log (tool driver
// `vn2-lint`, one reportingDescriptor per rule, one result per finding,
// line-anchored physical locations with repo-relative URIs). The strict
// `findings_from_sarif` parser round-trips that shape — it is also how
// the checked-in `lint_baseline.sarif` is read.
//
// Baseline semantics (the ratchet): a finding matching a baseline entry
// (rule, file, line) is *suppressed* — grandfathered, reported only as a
// count; a baseline entry matching no current finding is *stale* and is
// itself an error, so the baseline can only ever shrink. The target
// state is an empty baseline.
#pragma once

#include "vn2_lint.hpp"

#include <optional>
#include <string>
#include <vector>

namespace vn2::lint {

/// Serializes `findings` as a SARIF 2.1.0 log. Every known rule id is
/// listed in the driver's rules array regardless of whether it fired, so
/// code-scanning UIs can show the full catalogue.
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

/// Strictly parses a SARIF 2.1.0 log produced by `to_sarif` (or any log
/// with the same run/result shape) back into findings. On malformed
/// input returns nullopt and, when `error` is non-null, stores a
/// one-line reason (the json::Error message, with its byte offset).
[[nodiscard]] std::optional<std::vector<Finding>> findings_from_sarif(
    const std::string& text, std::string* error = nullptr);

/// Result of subtracting a baseline from the current findings.
struct BaselineDiff {
  std::vector<Finding> active;      ///< not in the baseline: real failures
  std::vector<Finding> suppressed;  ///< grandfathered by the baseline
  std::vector<Finding> stale;       ///< baseline entries that no longer fire
};

/// Matches findings against baseline entries by (rule, file, line), each
/// baseline entry consuming at most one finding.
[[nodiscard]] BaselineDiff apply_baseline(
    const std::vector<Finding>& findings,
    const std::vector<Finding>& baseline);

}  // namespace vn2::lint
