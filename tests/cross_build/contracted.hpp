// Entry points of the contracted translation unit (contracted.cpp), which
// compiles the whole header-only library with -ffp-contract=fast -mfma: a
// second build of the same code, where the compiler may fuse any a * b + c.
// cross_build_test.cpp writes blobs in the default build and decodes them
// here, and the reverse.

#pragma once

#include <cstdint>
#include <vector>

namespace cross_build {

enum class Codec { kNeats, kNeatsLossy, kLeco };

/// Serialized blob of `values` compressed by the contracted build.
std::vector<uint8_t> Compress(Codec codec, const std::vector<int64_t>& values);

/// Full range decode of `blob` by the contracted build.
std::vector<int64_t> Decompress(Codec codec, const std::vector<uint8_t>& blob);

/// Scalar Access of every index in `idx` by the contracted build.
std::vector<int64_t> Access(Codec codec, const std::vector<uint8_t>& blob,
                            const std::vector<uint64_t>& idx);

/// PredictValue of the contracted build (kind as its numeric id).
double PredictValue(int kind, const double* params, int64_t xi);

}  // namespace cross_build
