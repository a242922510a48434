#pragma once
// Micro-batched greedy-action kernel for the float agent's greedy_actions
// (QLearningAgent), which builds the serve layer's action tables.
//
// The kernel computes, for a batch of states, the argmax over the action
// row of a dense row-major double Q store — exactly the scan
// QTable::argmax performs one state at a time. The layout
// mirrors the hardware datapath in src/hw: each action column is a BRAM
// bank, a "gather" reads one bank for four states at once, and the running
// strictly-greater compare is the comparator tree, so ties break toward the
// lowest action index bit-exactly like the scalar scan (and the RTL).
//
// An AVX2 implementation is selected at runtime when the CPU supports it;
// otherwise the portable scalar loop runs. Both paths are exposed so the
// parity test can diff them on the same inputs.
//
// Preconditions (not checked — callers index only valid states):
// every states[i] < rows of the Q store, actions >= 1, bias is nullptr or
// holds `actions` entries.

#include <cstddef>
#include <cstdint>

namespace pmrl::rl {

/// Batched argmax over a row-major double Q store (`values[state*actions+a]`).
/// `bias`, when non-null, is added per action before comparison (the DVFS
/// "when indifferent, step down" selection prior); TD targets never see it.
void batch_argmax_f64(const double* values, std::size_t actions,
                      const double* bias, const std::uint64_t* states,
                      std::size_t count, std::uint32_t* out);

/// Forced-scalar variant (reference implementation for parity tests).
void batch_argmax_f64_scalar(const double* values, std::size_t actions,
                             const double* bias, const std::uint64_t* states,
                             std::size_t count, std::uint32_t* out);

/// Name of the dispatched implementation: "avx2" or "scalar".
const char* batch_argmax_backend();

}  // namespace pmrl::rl
