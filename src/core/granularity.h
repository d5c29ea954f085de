#ifndef HIVESIM_CORE_GRANULARITY_H_
#define HIVESIM_CORE_GRANULARITY_H_

#include <string_view>

namespace hivesim::core {

/// The paper's practical reading of the granularity metric (Sections 3
/// and 8): how suitable a workload is for (geo-)distributed spot
/// training at its current scale.
enum class Suitability {
  /// g >= 8: communication is a rounding error; scale freely (doubling
  /// the fleet buys >= 1.8x).
  kExcellent,
  /// 2 <= g < 8: scales, but each doubling buys noticeably less.
  kGood,
  /// 0.5 <= g < 2: near the paper's break-even; add hardware only if it
  /// is cheap (doubling buys at most ~1.33x at g = 1).
  kMarginal,
  /// g < 0.5: communication dominates; "the task is no longer suitable
  /// for distributed training" (Section 4(C) on C-8 NLP at g = 0.4).
  kUnsuitable,
};

/// Buckets a measured granularity.
Suitability ClassifyGranularity(double granularity);

std::string_view SuitabilityName(Suitability s);

}  // namespace hivesim::core

#endif  // HIVESIM_CORE_GRANULARITY_H_
