#include "exp/experiment_spec.h"

#include <cstdio>

#include "util/check.h"
#include "util/random.h"

namespace dmasim {
namespace {

// Formats a CP-Limit as "cp=0.10" (two decimals are enough to tell the
// paper's sweep points apart; labels are cosmetic, matching uses the
// double itself).
std::string CpLabel(double cp_limit) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "cp=%.2f", cp_limit);
  return buffer;
}

}  // namespace

std::string SchemeSpec::Label() const {
  switch (kind) {
    case SchemeKind::kBaseline:
      return "baseline";
    case SchemeKind::kTa:
      return "DMA-TA";
    case SchemeKind::kTaPl:
      return "DMA-TA-PL(" + std::to_string(pl_groups) + ")";
  }
  return "?";
}

SchemeSpec BaselineScheme() { return SchemeSpec{SchemeKind::kBaseline, 2}; }
SchemeSpec TaScheme() { return SchemeSpec{SchemeKind::kTa, 2}; }
SchemeSpec TaPlScheme(int groups) {
  return SchemeSpec{SchemeKind::kTaPl, groups};
}

std::string RunPlan::Label() const {
  std::string label = workload.name + "/" + scheme.Label();
  if (!is_baseline) label += "/" + CpLabel(cp_limit);
  if (policy != PolicyKind::kDynamic) label += "/" + PolicyKindName(policy);
  return label;
}

std::string ValidateOptions(const SimulationOptions& options) {
  const MemorySystemConfig& memory = options.memory;
  if (memory.chips <= 0) return "chips must be positive";
  if (memory.pages_per_chip <= 0) return "pages_per_chip must be positive";
  if (memory.page_bytes <= 0) return "page_bytes must be positive";
  if (memory.chunk_bytes <= 0 || memory.chunk_bytes > memory.page_bytes) {
    return "chunk_bytes must be in (0, page_bytes]";
  }
  if (memory.bus_count <= 0) return "bus_count must be positive";
  if (memory.bus_bandwidth <= 0.0) return "bus_bandwidth must be positive";
  if (memory.dma.ta.enabled && memory.dma.ta.mu < 0.0) {
    return "ta.mu must be non-negative";
  }
  if (memory.dma.pl.enabled &&
      (memory.dma.pl.groups < 1 || memory.dma.pl.groups > memory.chips)) {
    return "pl.groups must be in [1, chips]";
  }
  if (options.server.disks <= 0) return "disks must be positive";
  if (memory.chip_model == ChipModelKind::kDdr4 &&
      (options.policy == PolicyKind::kStaticNap ||
       options.policy == PolicyKind::kStaticPowerdown)) {
    // MakePolicy would abort: the DDR4 cascade has no nap/powerdown.
    return "the ddr4 chip model has no nap/powerdown state for a static "
           "policy to target";
  }
  if (memory.monitor.enabled) {
    const MonitorConfig& monitor = memory.monitor;
    if (monitor.sampling_interval <= 0) {
      return "monitor.sampling_interval must be positive";
    }
    if (monitor.aggregation_interval <= 0) {
      return "monitor.aggregation_interval must be positive";
    }
    if (monitor.min_regions < 1) return "monitor.min_regions must be >= 1";
    if (monitor.max_regions < monitor.min_regions) {
      return "monitor.max_regions must be >= monitor.min_regions";
    }
    if (static_cast<std::uint64_t>(monitor.min_regions) >
        memory.TotalPages()) {
      return "monitor.min_regions must be <= total pages";
    }
  }
  return "";
}

std::string ValidateWorkloadPages(const WorkloadSpec& workload,
                                  const MemorySystemConfig& memory) {
  if (workload.pages <= memory.TotalPages()) return "";
  return "the workload draws from " + std::to_string(workload.pages) +
         " pages, but the memory holds " +
         std::to_string(memory.TotalPages()) + " (" +
         std::to_string(memory.chips) + " chips of " +
         std::to_string(memory.pages_per_chip) + " pages)";
}

RunGrid ExpandGrid(const ExperimentSpec& spec) {
  DMASIM_CHECK_MSG(!spec.workloads.empty(),
                   "ExperimentSpec needs at least one workload");

  // Normalize empty axes to a single "keep the template value" entry.
  const std::vector<int> chip_counts =
      spec.chip_counts.empty() ? std::vector<int>{0} : spec.chip_counts;
  const std::vector<int> bus_counts =
      spec.bus_counts.empty() ? std::vector<int>{0} : spec.bus_counts;
  const std::vector<Tick> epochs = spec.epoch_lengths.empty()
                                       ? std::vector<Tick>{0}
                                       : spec.epoch_lengths;
  const std::vector<double> gathers = spec.gather_depth_factors.empty()
                                          ? std::vector<double>{0.0}
                                          : spec.gather_depth_factors;
  const std::vector<std::uint64_t> seeds =
      spec.seeds.empty() ? std::vector<std::uint64_t>{0} : spec.seeds;
  std::vector<PolicyKind> policies = spec.policies;
  if (policies.empty()) policies.push_back(PolicyKind::kDynamic);

  RunGrid grid;
  for (const WorkloadSpec& workload : spec.workloads) {
    for (PolicyKind policy : policies) {
      for (int chips : chip_counts) {
        for (int buses : bus_counts) {
          for (std::uint64_t seed : seeds) {
            const int cell_id = grid.cell_count++;

            WorkloadSpec cell_workload = workload;
            SimulationOptions cell_base = spec.base;
            cell_base.policy = policy;
            if (chips != 0) cell_base.memory.chips = chips;
            if (buses != 0) cell_base.memory.bus_count = buses;
            cell_base.server.request_compute_time =
                workload.request_compute_time;
            if (seed != 0) {
              // Replace the trace seed and re-derive the server-side
              // seed so replicas perturb every stochastic component.
              cell_workload.seed = seed;
              std::uint64_t mix = seed;
              cell_base.server.seed = SplitMix64(mix);
            }

            // The cell's baseline run (calibration + savings anchor).
            {
              RunPlan plan;
              plan.run_id = static_cast<int>(grid.runs.size());
              plan.cell_id = cell_id;
              plan.is_baseline = true;
              plan.scheme = BaselineScheme();
              plan.policy = policy;
              plan.workload = cell_workload;
              plan.options = cell_base;
              plan.options.memory.dma.ta.enabled = false;
              plan.options.memory.dma.pl.enabled = false;
              grid.runs.push_back(std::move(plan));
            }

            for (const SchemeSpec& scheme : spec.schemes) {
              if (scheme.kind == SchemeKind::kBaseline) continue;
              for (double cp : spec.cp_limits) {
                for (Tick epoch : epochs) {
                  for (double gather : gathers) {
                    RunPlan plan;
                    plan.run_id = static_cast<int>(grid.runs.size());
                    plan.cell_id = cell_id;
                    plan.scheme = scheme;
                    plan.policy = policy;
                    plan.cp_limit = cp;
                    plan.epoch_length = epoch;
                    plan.gather_depth_factor = gather;
                    plan.workload = cell_workload;
                    plan.options = cell_base;
                    plan.options.memory.dma.ta.enabled = true;
                    // mu is resolved by the runner from the cell
                    // baseline's calibration.
                    plan.options.memory.dma.ta.mu = 0.0;
                    if (epoch != 0) {
                      plan.options.memory.dma.ta.epoch_length = epoch;
                    }
                    if (gather != 0.0) {
                      plan.options.memory.dma.ta.gather_depth_factor =
                          gather;
                    }
                    plan.options.memory.dma.pl.enabled =
                        scheme.kind == SchemeKind::kTaPl;
                    if (scheme.kind == SchemeKind::kTaPl) {
                      plan.options.memory.dma.pl.groups = scheme.pl_groups;
                    }
                    grid.runs.push_back(std::move(plan));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return grid;
}

}  // namespace dmasim
