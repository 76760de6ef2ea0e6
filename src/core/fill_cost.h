// Fill-cost weights: a cacheable frame's fill cost is its wall-clock elapsed time plus these
// per-unit charges for the database work it performed (TxCacheClient::FrameEnd). The wall term
// captures real deployments; the weighted term keeps costs meaningful under the simulator,
// whose virtual clock does not advance while application code runs. sim::CostModel charges
// the same weights for database service time, so the fills the cost-aware policy ranks are
// priced in the currency the simulated bottleneck is measured in.
#ifndef SRC_CORE_FILL_COST_H_
#define SRC_CORE_FILL_COST_H_

#include "src/util/types.h"

namespace txcache {

inline constexpr WallClock kFillCostPerQuery = Millis(0.12);  // parse/plan/executor setup
inline constexpr WallClock kFillCostPerTuple = Millis(0.004);  // per heap version examined
inline constexpr WallClock kFillCostPerProbe = Millis(0.015);  // per index descent

}  // namespace txcache

#endif  // SRC_CORE_FILL_COST_H_
