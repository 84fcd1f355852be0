#pragma once
// DepList: a message's causal dependencies, inline up to a fixed count.

#include "common/small_vec.hpp"
#include "common/types.hpp"

namespace urcgc::causal {

/// Sized to what the sender's dependency builder produces on the paths
/// that carry traffic: its own predecessor (the intermediate causality
/// mode) plus one declared dependency, the most the load generators
/// declare. Such a list is decoded, parked and stored without touching
/// the heap; a longer one (general or temporal causality, a user that
/// declares several) takes one heap block.
using DepList = SmallVec<Mid, 2>;

}  // namespace urcgc::causal
