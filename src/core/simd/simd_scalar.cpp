// Scalar fallback table: every primitive is the reference implementation.
// Always available; the dispatch layer guarantees supported_isas() contains
// it on every host. Also home of the out-of-line per-element references
// (tanh_ref, gelu_ref, gelu_grad_ref), so they compile with the simd TUs'
// -ffp-contract=off.

#include "core/simd/scalar_ref.hpp"
#include "core/simd/simd.hpp"

namespace orbit2::simd {

float tanh_ref(float x) { return detail::scalar_tanh_one(x); }
float gelu_ref(float x) { return detail::scalar_gelu_one(x); }
float gelu_grad_ref(float x) { return detail::scalar_gelu_grad_one(x); }

namespace detail {

const Ops* scalar_ops() {
  static const Ops table = {
      .isa = Isa::kScalar,
      .gemm_block_f64 = scalar_gemm_block_f64,
      .axpy_f32 = scalar_axpy_f32,
      .pv_rows_f32 = scalar_pv_rows_f32,
      .gelu_f32 = scalar_gelu_f32,
      .gelu_backward_f32 = scalar_gelu_backward_f32,
      .scale_f32 = scalar_scale_f32,
      .add_f32 = scalar_add_f32,
      .sub_f32 = scalar_sub_f32,
      .rsub_f32 = scalar_rsub_f32,
      .mul_f32 = scalar_mul_f32,
      .bf16_round_f32 = scalar_bf16_round_f32,
      .fft_butterfly_f64 = scalar_fft_butterfly_f64,
      .cmul_f64 = scalar_cmul_f64,
      .dot_f32 = scalar_dot_f32,
  };
  return &table;
}

}  // namespace detail
}  // namespace orbit2::simd
