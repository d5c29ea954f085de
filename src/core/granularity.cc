#include "core/granularity.h"

namespace hivesim::core {

Suitability ClassifyGranularity(double granularity) {
  if (granularity >= 8.0) return Suitability::kExcellent;
  if (granularity >= 2.0) return Suitability::kGood;
  if (granularity >= 0.5) return Suitability::kMarginal;
  return Suitability::kUnsuitable;
}

std::string_view SuitabilityName(Suitability s) {
  switch (s) {
    case Suitability::kExcellent:
      return "excellent";
    case Suitability::kGood:
      return "good";
    case Suitability::kMarginal:
      return "marginal";
    case Suitability::kUnsuitable:
      return "unsuitable";
  }
  return "?";
}

}  // namespace hivesim::core
