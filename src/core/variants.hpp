// Named NeaTS variants evaluated in the paper (Sec. IV-C1, Figure 2).
//
//   LeaTS   — Algorithm 1 restricted to linear functions only: faster
//             compression, slightly worse ratio.
//   SNeaTS  — model selection: the partitioner first runs on a sample (the
//             first 10% of the series), and the full run searches only the
//             kinds × error bounds of the top-5 most-used (kind, eps) pairs.

#pragma once

#include <span>

#include "core/neats.hpp"

namespace neats {

/// LeaTS: NeaTS with F = {Linear}.
inline Neats CompressLeaTS(std::span<const int64_t> values,
                           NeatsOptions options = {}) {
  options.partition.kinds = {FunctionKind::kLinear};
  return Neats::Compress(values, options);
}

/// SNeaTS: NeaTS with the model-selection procedure (top-5 pairs on the
/// first 10% of the data; the sample run is included in compression time).
inline Neats CompressSNeaTS(std::span<const int64_t> values,
                            const NeatsOptions& options = {}) {
  return Neats::CompressWithModelSelection(values, options, 0.1, 5);
}

}  // namespace neats
