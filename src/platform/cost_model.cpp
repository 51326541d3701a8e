#include "platform/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace hacc::platform {

int registers_needed(const KernelStatics& ks, xsycl::CommVariant variant) {
  switch (variant) {
    case xsycl::CommVariant::kSelect:
    case xsycl::CommVariant::kVISA:
    case xsycl::CommVariant::kNative:
      // Own state + partner state arriving in registers + accumulator.
      return ks.base_regs + 2 * ks.state_words + ks.accum_words;
    case xsycl::CommVariant::kMemory32:
      // Partner state streamed one word at a time through local memory.
      return ks.base_regs + ks.state_words + 2 + ks.accum_words;
    case xsycl::CommVariant::kMemoryObject:
      // Partner object read back whole, but no shuffle staging copies.
      return ks.base_regs + 2 * ks.state_words + ks.accum_words - ks.state_words / 2;
    case xsycl::CommVariant::kBroadcast:
      // Both particles resident plus redundantly recomputed partner terms
      // (mirror accumulator) — the paper's register-pressure increase.
      return ks.base_regs + 2 * ks.state_words + 2 * ks.accum_words +
             ks.state_words / 2;
  }
  return ks.base_regs;
}

CostBreakdown predict(const xsycl::OpCounters& ops, const KernelStatics& ks,
                      xsycl::CommVariant variant, const TuningChoice& tuning,
                      const PlatformModel& p) {
  CostBreakdown out;

  const double interactions = static_cast<double>(ops.interactions);
  const double math = tuning.fast_math ? p.fast_math_speedup : 1.0;
  // §5.3.2: broadcast kernels "must redundantly compute intermediate values
  // that could previously be communicated between work-items".
  constexpr double kBroadcastComputeOverhead = 1.25;
  const double redundancy =
      variant == xsycl::CommVariant::kBroadcast ? kBroadcastComputeOverhead : 1.0;
  out.compute = interactions * ks.flops_per_interaction * redundancy / math;

  out.comm = static_cast<double>(ops.select_words) * p.select_word_cost +
             static_cast<double>(ops.broadcast_ops) * p.broadcast_cost +
             static_cast<double>(ops.butterfly_words) * p.butterfly_word_cost +
             static_cast<double>(ops.local32_words) * p.local_word_cost +
             static_cast<double>(ops.localobj_bytes) * p.local_byte_cost +
             static_cast<double>(ops.barriers) * p.barrier_cost +
             static_cast<double>(ops.reduce_ops) * p.reduce_cost +
             static_cast<double>(ops.shift_ops) * p.shift_cost;

  // NVIDIA-style shared/L1 trade-off penalizes local-memory variants more
  // the larger the staged object (§5.4: "memory variants perform worst on
  // the register heavy energy and acceleration kernels").
  if (p.lds_l1_tradeoff > 0.0 && (variant == xsycl::CommVariant::kMemory32 ||
                                  variant == xsycl::CommVariant::kMemoryObject)) {
    out.comm *= 1.0 + p.lds_l1_tradeoff * ks.state_words / 16.0;
  }

  out.atomics = static_cast<double>(ops.atomic_f32_add) * p.atomic_add_cost +
                static_cast<double>(ops.atomic_f32_minmax) * p.atomic_minmax_cost +
                static_cast<double>(ops.atomic_i32) * p.atomic_int_cost;

  out.regs_needed = registers_needed(ks, variant);
  out.regs_available = p.regs_available(tuning.sg_size, tuning.large_grf);
  const double spill = std::max(0, out.regs_needed - out.regs_available);
  out.spills = interactions *
               (p.spill_cost_linear * spill + p.spill_cost_quadratic * spill * spill);

  out.occupancy = (tuning.large_grf && p.has_large_grf) ? p.large_grf_occupancy : 1.0;

  out.total = out.compute + out.comm + out.atomics + out.spills;
  const double flops_per_second =
      p.rank_peak_tflops * 1e12 * p.base_efficiency * out.occupancy;
  out.seconds = out.total / flops_per_second;
  return out;
}

double predict_seconds(const xsycl::OpCounters& ops, const KernelStatics& ks,
                       xsycl::CommVariant variant, const TuningChoice& tuning,
                       const PlatformModel& platform) {
  return predict(ops, ks, variant, tuning, platform).seconds;
}

}  // namespace hacc::platform
