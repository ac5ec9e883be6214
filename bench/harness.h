// Shared harness for the figure/table reproduction benches.
//
// Each bench binary regenerates one artefact of the paper's evaluation
// (Sec. 4): it builds the circuit, runs the sequential reference to obtain
// the baseline cost, then sweeps processor counts and synchronisation
// configurations on the deterministic machine-model engine and prints the
// speedup rows of the corresponding figure.  See DESIGN.md ("Substitutions")
// for why the figure speedups come from the deterministic machine model;
// wall-clock numbers of the real engines come from wallbench/.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pdes/machine.h"
#include "pdes/sequential.h"
#include "vhdl/kernel.h"

namespace vsim::bench {

struct Built {
  std::unique_ptr<pdes::LpGraph> graph;
  std::unique_ptr<vhdl::Design> design;
};

using BuildFn = std::function<Built()>;

struct SweepResult {
  std::size_t workers;
  pdes::Configuration config;
  double speedup;
  pdes::RunStats stats;
};

/// Sequential baseline: total event cost of the reference run.
double sequential_cost(const BuildFn& build, PhysTime until);

/// One machine-model run; returns stats (makespan inside).
pdes::RunStats run_machine(const BuildFn& build, pdes::RunConfig rc,
                           bool bipartite_partition = false);

/// Initial placement schemes for the placement ablation.
enum class Placement { kRoundRobin, kBlocks, kBipartite };
[[nodiscard]] const char* to_string(Placement p);
[[nodiscard]] pdes::Partition make_placement(const pdes::LpGraph& graph,
                                             Placement place,
                                             std::size_t workers);

/// One machine-model run from an explicit initial placement.  When
/// `final_partition` is non-null it receives the end-of-run LP->worker map,
/// which differs from the initial one after dynamic rebalancing (or
/// redistribute recovery) -- callers use it to report the achieved cut.
pdes::RunStats run_machine(const BuildFn& build, pdes::RunConfig rc,
                           Placement place,
                           pdes::Partition* final_partition = nullptr);

class Report;

/// Prints one figure: speedup-vs-processors for the four configurations.
/// Returns all rows for further inspection.  `max_history` models finite
/// Time Warp memory per LP (the paper: "optimistic demands huge amounts of
/// memory"); 0 disables the cap.  When `report` is given, every cell is
/// also appended to it as a row (section = `title`) for BENCH_<name>.json.
std::vector<SweepResult> speedup_figure(
    const std::string& title, const BuildFn& build, PhysTime until,
    const std::vector<std::size_t>& workers,
    const std::vector<pdes::Configuration>& configs,
    std::size_t max_history = 128, Report* report = nullptr);

/// Formats a number with fixed precision.
std::string fmt(double v, int prec = 2);

}  // namespace vsim::bench
