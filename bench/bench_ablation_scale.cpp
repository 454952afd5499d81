// Ablation — scaling to larger servers and more co-located games (§IV-D).
//
// "When considering scales for larger servers with more CPUs, GPUs, and
// also more games that are co-located, our work is more expansive than the
// previous work." Sweep the server size (GPUs per server × CPU capacity)
// under a proportional five-game closed-loop mix and report per-GPU
// throughput for CoCG vs VBP — fine-grained co-location should keep its
// edge (or grow it) as the packing problem gets bigger.
#include <iostream>

#include "bench_util.h"
#include "core/baselines.h"
#include "core/cocg_scheduler.h"
#include "platform/cloud_platform.h"

using namespace cocg;

namespace {

double run_scale(std::unique_ptr<platform::Scheduler> sched, int gpus,
                 std::uint64_t seed) {
  platform::PlatformConfig pcfg;
  pcfg.seed = seed;
  platform::CloudPlatform cloud(pcfg, std::move(sched));
  hw::ServerSpec big;
  big.num_gpus = gpus;
  // CPU grows with the SKU but never below the baseline's full 4-core
  // pool — a 1-GPU box still has a whole CPU.
  big.cpu_capacity_pct = std::max(100.0, 100.0 * gpus / 2.0);
  big.ram_mb = std::max(8192.0, 8192.0 * gpus / 2.0);
  cloud.add_server(big);
  for (const auto& g : bench::paper_suite_static()) {
    cloud.add_source({&g, g.short_game ? gpus : std::max(1, gpus / 2), 16});
  }
  cloud.run(60 * 60 * 1000);
  return cloud.throughput() / gpus;  // per-GPU delivered game-seconds
}

}  // namespace

int main() {
  bench::banner("Ablation (§IV-D)", "scaling: per-GPU throughput vs size");

  auto fresh = [] {
    return core::train_suite(bench::paper_suite_static(),
                             bench::bench_offline_config(4646));
  };

  TablePrinter table({"GPUs per server", "VBP T/GPU", "CoCG T/GPU",
                      "CoCG advantage"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"gpus", "vbp_per_gpu", "cocg_per_gpu", "advantage"});
  for (int gpus : {1, 2, 4, 8}) {
    const double vbp =
        run_scale(std::make_unique<core::VbpScheduler>(fresh()), gpus, 4600);
    const double cocg = run_scale(
        std::make_unique<core::CocgScheduler>(fresh()), gpus, 4600);
    const double adv = vbp > 0 ? 100.0 * (cocg / vbp - 1.0) : 0.0;
    std::string gain = adv >= 0 ? "+" : "";
    gain += TablePrinter::fmt(adv, 1);
    gain += '%';
    table.add_row({std::to_string(gpus), TablePrinter::fmt(vbp, 0),
                   TablePrinter::fmt(cocg, 0), gain});
    csv.push_back({std::to_string(gpus), TablePrinter::fmt(vbp, 1),
                   TablePrinter::fmt(cocg, 1), TablePrinter::fmt(adv, 2)});
  }
  table.print(std::cout);
  bench::write_csv("ablation_scale", csv);
  std::cout << "\nExpected: CoCG's per-GPU throughput advantage holds or"
               " grows with server size — more co-residents mean more"
               " complementary-placement opportunities (§IV-D).\n";
  return 0;
}
