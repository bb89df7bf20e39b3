// The contracted build (see contracted.hpp). CMake compiles this file with
// -ffp-contract=fast -mfma. The library's namespace is renamed for this
// translation unit, so none of its inline functions share a symbol with the
// default build's and the linker cannot merge the two builds.

#include "contracted.hpp"

#if !defined(__FMA__)
#error "contracted.cpp must be compiled with -mfma"
#endif

#define neats neats_contracted
#include "codecs/leco_codec.hpp"
#include "core/neats.hpp"
#include "core/neats_lossy.hpp"
#undef neats

#include "codec_ops.hpp"

namespace cross_build {
namespace {

namespace lib = ::neats_contracted;

template <typename F>
auto WithCodec(Codec codec, F&& f) {
  switch (codec) {
    case Codec::kNeats: return f(static_cast<lib::Neats*>(nullptr));
    case Codec::kNeatsLossy: return f(static_cast<lib::NeatsLossy*>(nullptr));
    case Codec::kLeco: break;
  }
  return f(static_cast<lib::LecoCodec*>(nullptr));
}

}  // namespace

std::vector<uint8_t> Compress(Codec codec, const std::vector<int64_t>& values) {
  return WithCodec(codec, [&](auto* type) {
    return CompressWith<std::remove_pointer_t<decltype(type)>>(values);
  });
}

std::vector<int64_t> Decompress(Codec codec, const std::vector<uint8_t>& blob) {
  return WithCodec(codec, [&](auto* type) {
    return DecodeAll<std::remove_pointer_t<decltype(type)>>(blob);
  });
}

std::vector<int64_t> Access(Codec codec, const std::vector<uint8_t>& blob,
                            const std::vector<uint64_t>& idx) {
  return WithCodec(codec, [&](auto* type) {
    return AccessAll<std::remove_pointer_t<decltype(type)>>(blob, idx);
  });
}

double PredictValue(int kind, const double* params, int64_t xi) {
  return lib::PredictValue(static_cast<lib::FunctionKind>(kind), params, xi);
}

}  // namespace cross_build
