// Table 5-1 + Figure 5-1 reproduction: experimental validation of Algorithm
// ProximityDelay on the Figure 1-1 NAND3.
//
// Methodology (Section 5): 100 random input configurations; fall times of
// the three inputs drawn from [50 ps, 2000 ps]; separations s_ab and s_ac
// drawn from [-500 ps, +500 ps]; piecewise-linear inputs; delay and output
// rise time computed by the algorithm and compared against the full
// transistor-level simulation.  The paper used HSPICE as the dual-input
// macromodel; we report that oracle mode *and* the deployable tabulated
// mode side by side.
//
// Paper's numbers for reference:   delay           rise time
//   mean error                      1.4 %           -1.33 %
//   std-dev                         2.46 %           4.82 %
//   max / min                       8.54 / -6.94 %  11.51 / -13.15 %

#include <cstdio>
#include <random>

#include "bench_util.hpp"

using namespace prox;
using benchutil::ErrorStats;
using model::InputEvent;
using wave::Edge;

namespace {

void printStatsRow(const char* name, const ErrorStats& s) {
  std::printf("  %-12s %8.2f %8.2f %8.2f %8.2f\n", name, s.mean, s.stddev,
              s.maxv, s.minv);
}

}  // namespace

int main() {
  std::printf("=== Table 5-1 / Figure 5-1: model vs circuit simulation, "
              "100 random NAND3 configurations ===\n");
  const auto& cg = benchutil::nand3Model();
  model::GateSimulator sim(cg.gate);

  // Oracle dual-input macromodel (the paper's validation setup) with its own
  // correction characterization.
  model::OracleDualInputModel oracle(sim, *cg.singles);
  const auto oracleCorr =
      characterize::characterizeStepCorrection(sim, *cg.singles, oracle, 50e-12);
  const model::ProximityCalculator calcOracle(cg.gate, *cg.singles, oracle,
                                              oracleCorr);
  const model::ProximityCalculator calcTable = cg.calculator();

  std::mt19937 rng(1996);  // the year, for luck
  std::uniform_real_distribution<double> tauDist(50e-12, 2000e-12);
  std::uniform_real_distribution<double> sepDist(-500e-12, 500e-12);

  std::vector<double> dErrOracle, tErrOracle, dErrTable, tErrTable;
  int attempted = 0;
  const int target = 100;
  while (static_cast<int>(dErrOracle.size()) < target && attempted < 3 * target) {
    ++attempted;
    std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, tauDist(rng)},
                                {1, Edge::Falling, sepDist(rng), tauDist(rng)},
                                {2, Edge::Falling, sepDist(rng), tauDist(rng)}};
    const auto full = sim.simulate(evs, 0);
    if (!full.outputRefTime || !full.transitionTime || *full.delay <= 0.0) {
      continue;
    }
    const auto ro = calcOracle.compute(evs);
    const auto rt = calcTable.compute(evs);
    // Compare absolute output crossing times (reference-independent), scaled
    // by the simulated delay as in the paper's percentage convention.
    dErrOracle.push_back((ro.outputRefTime - *full.outputRefTime) /
                         *full.delay * 100.0);
    dErrTable.push_back((rt.outputRefTime - *full.outputRefTime) /
                        *full.delay * 100.0);
    tErrOracle.push_back((ro.transitionTime - *full.transitionTime) /
                         *full.transitionTime * 100.0);
    tErrTable.push_back((rt.transitionTime - *full.transitionTime) /
                        *full.transitionTime * 100.0);
  }

  std::printf("\n%zu configurations evaluated (%d attempted)\n",
              dErrOracle.size(), attempted);
  std::printf("\nTable 5-1 (errors in %%)\n");
  std::printf("  %-12s %8s %8s %8s %8s\n", "quantity", "mean", "std-dev",
              "max", "min");
  std::printf("  -- oracle dual-input macromodel (paper's Section 5 setup) --\n");
  printStatsRow("delay", benchutil::computeStats(dErrOracle));
  printStatsRow("rise time", benchutil::computeStats(tErrOracle));
  std::printf("  -- tabulated dual-input macromodel (deployable tables) --\n");
  printStatsRow("delay", benchutil::computeStats(dErrTable));
  printStatsRow("rise time", benchutil::computeStats(tErrTable));

  benchutil::printHistogram(dErrOracle, 2.0,
                            "Figure 5-1(a): delay error distribution (oracle)");
  benchutil::printHistogram(tErrOracle, 2.0,
                            "Figure 5-1(b): rise-time error distribution (oracle)");
  std::printf("\nPaper reference: delay mean 1.4%%, sigma 2.46%%, max 8.54%%, "
              "min -6.94%%;\n                rise time mean -1.33%%, sigma "
              "4.82%%, max 11.51%%, min -13.15%%.\n");
  std::printf("Total transistor-level simulations run: %ld\n",
              sim.simulationCount());
  return 0;
}
