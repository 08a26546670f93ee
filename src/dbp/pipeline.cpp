#include "dbp/pipeline.h"

#include "schedulers/registry.h"
#include "sim/engine.h"
#include "support/assert.h"

namespace fjs {

PipelineResult run_pipeline(InstanceView instance,
                            const std::vector<double>& sizes,
                            const std::string& scheduler_key, Packer& packer,
                            double capacity) {
  const auto scheduler = make_scheduler(scheduler_key);
  // Clairvoyant mode is fine for non-clairvoyant schedulers too (they just
  // ignore the revealed lengths), and required for CDB/Profit/Doubler.
  const SimulationResult sim = simulate(instance, *scheduler,
                                        /*clairvoyant=*/true);
  // simulate() re-indexes jobs by arrival order; align the sizes.
  std::vector<double> aligned(sizes.size());
  const std::vector<JobId> order = instance.ids_by_arrival();
  FJS_CHECK(order.size() == sizes.size(), "pipeline: size mismatch");
  for (std::size_t i = 0; i < order.size(); ++i) {
    aligned[i] = sizes[order[i]];
  }

  PipelineResult result;
  result.scheduler = scheduler->name();
  result.packer = packer.name();
  result.span = sim.span();
  result.packing =
      run_packing(sim.instance, sim.schedule, aligned, packer, capacity);
  const Time lb = dbp_usage_lower_bound(sim.instance, aligned, capacity);
  result.usage_ratio_upper =
      lb > Time::zero() ? time_ratio(result.packing.total_usage, lb) : 0.0;
  return result;
}

std::vector<std::unique_ptr<Packer>> make_standard_packers() {
  std::vector<std::unique_ptr<Packer>> packers;
  packers.push_back(std::make_unique<FirstFitPacker>());
  packers.push_back(std::make_unique<BestFitPacker>());
  packers.push_back(std::make_unique<WorstFitPacker>());
  packers.push_back(std::make_unique<NextFitPacker>());
  packers.push_back(std::make_unique<CdFirstFitPacker>());
  return packers;
}

}  // namespace fjs
