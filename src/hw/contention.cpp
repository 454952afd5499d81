#include "hw/contention.h"

#include "common/check.h"
#include "hw/server.h"

namespace cocg::hw {

const std::vector<SessionSupply>& resolve_server(
    const ServerSpec& spec, const std::vector<PinnedDraw>& draws,
    ServerResolveScratch& scratch) {
  obs::StageScope profile_scope(scratch.prof);
  // Desired draw per session; per-pool totals. Per-device totals accumulate
  // in draw order within each bucket, matching the original map-based
  // implementation bit-for-bit.
  scratch.desired.clear();
  scratch.desired.resize(draws.size());
  auto& desired = scratch.desired;
  double cpu_total = 0.0, ram_total = 0.0;
  const std::size_t ngpus = static_cast<std::size_t>(spec.num_gpus);
  scratch.gpu_total.assign(ngpus, 0.0);
  scratch.vram_total.assign(ngpus, 0.0);
  for (std::size_t s = 0; s < draws.size(); ++s) {
    const auto& d = draws[s];
    COCG_EXPECTS(d.gpu_index >= 0 && d.gpu_index < spec.num_gpus);
    COCG_EXPECTS(d.draw.demand.non_negative());
    COCG_EXPECTS(d.draw.allocation.non_negative());
    desired[s] = ResourceVector::min(d.draw.demand, d.draw.allocation);
    cpu_total += desired[s][Dim::kCpuPct];
    ram_total += desired[s][Dim::kRamMb];
    scratch.gpu_total[d.gpu_index] += desired[s][Dim::kGpuPct];
    scratch.vram_total[d.gpu_index] += desired[s][Dim::kGpuMemMb];
  }

  const double cpu_scale =
      cpu_total > spec.cpu_capacity_pct ? spec.cpu_capacity_pct / cpu_total
                                        : 1.0;
  const double ram_scale =
      ram_total > spec.ram_mb ? spec.ram_mb / ram_total : 1.0;
  auto device_scale = [](const std::vector<double>& totals, int g,
                         double cap) {
    const double total = totals[static_cast<std::size_t>(g)];
    if (total <= cap) return 1.0;
    return cap / total;
  };

  scratch.out.clear();
  scratch.out.reserve(draws.size());
  for (std::size_t s = 0; s < draws.size(); ++s) {
    const auto& d = draws[s];
    SessionSupply sup;
    sup.sid = d.draw.sid;
    sup.supplied[Dim::kCpuPct] = desired[s][Dim::kCpuPct] * cpu_scale;
    sup.supplied[Dim::kRamMb] = desired[s][Dim::kRamMb] * ram_scale;
    sup.supplied[Dim::kGpuPct] =
        desired[s][Dim::kGpuPct] *
        device_scale(scratch.gpu_total, d.gpu_index, spec.gpu_capacity_pct);
    sup.supplied[Dim::kGpuMemMb] =
        desired[s][Dim::kGpuMemMb] *
        device_scale(scratch.vram_total, d.gpu_index, spec.gpu_mem_mb);
    sup.satisfaction = d.draw.demand.satisfaction_ratio(sup.supplied);
    scratch.out.push_back(sup);
  }
  return scratch.out;
}

std::vector<SessionSupply> resolve_server(const ServerSpec& spec,
                                          const std::vector<PinnedDraw>& draws) {
  ServerResolveScratch scratch;
  return resolve_server(spec, draws, scratch);  // copies scratch.out
}

}  // namespace cocg::hw
