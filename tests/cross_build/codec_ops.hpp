// Compress, decode and access helpers shared by the two builds: the default
// one (cross_build_test.cpp) and the contracted one (contracted.cpp) each
// instantiate them with their own codec types. NeaTS-L, the one lossy codec
// (the one with an epsilon()), compresses under kLossyEpsilon and decodes
// through Decompress; the lossless codecs decode through DecompressRange.

#pragma once

#include <cstdint>
#include <vector>

namespace cross_build {

/// The error bound every cross-build NeaTS-L blob is compressed under.
inline constexpr int64_t kLossyEpsilon = 50;

template <typename C>
concept LossyCodec = requires(const C& c) { c.epsilon(); };

template <typename C>
std::vector<uint8_t> CompressWith(const std::vector<int64_t>& values) {
  std::vector<uint8_t> blob;
  if constexpr (LossyCodec<C>) {
    C::Compress(values, kLossyEpsilon).Serialize(&blob);
  } else {
    C::Compress(values).Serialize(&blob);
  }
  return blob;
}

template <typename C>
std::vector<int64_t> DecodeAll(const std::vector<uint8_t>& blob) {
  const C codec = C::Deserialize(blob);
  std::vector<int64_t> out(codec.size());
  if constexpr (LossyCodec<C>) {
    codec.Decompress(&out);
  } else {
    codec.DecompressRange(0, codec.size(), out.data());
  }
  return out;
}

template <typename C>
std::vector<int64_t> AccessAll(const std::vector<uint8_t>& blob,
                               const std::vector<uint64_t>& idx) {
  const C codec = C::Deserialize(blob);
  std::vector<int64_t> out;
  for (uint64_t k : idx) out.push_back(codec.Access(k));
  return out;
}

}  // namespace cross_build
