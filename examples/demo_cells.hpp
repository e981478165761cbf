#pragma once
// The demo cell and demo netlist shared by the example tools, defined once
// so the tools cannot drift apart.  A drift in the cell or its grids would
// silently change configFingerprint and with it every checkpoint journal.

#include <string>
#include <unordered_map>
#include <vector>

#include "characterize/characterize.hpp"
#include "sta/delay_calc.hpp"
#include "sta/netlist.hpp"

namespace prox::examples {

/// The Figure 1-1 NAND3 that characterize_cell ships and
/// characterize_corners sweeps across corners, built in @p tech.
inline cells::CellSpec demoNand3(
    const cells::Technology& tech = cells::Technology::generic5v()) {
  cells::CellSpec spec;
  spec.type = cells::GateType::Nand;
  spec.fanin = 3;
  spec.tech = tech;
  spec.wn = 6e-6;
  spec.wp = 8e-6;
  spec.loadCap = 100e-15;
  return spec;
}

/// The grids demoNand3 is characterized on.  The production grids are
/// denser than the library default (this is the offline step, so spend the
/// simulation budget here); @p quick shrinks them for CI exercises of the
/// crash/resume machinery, where sweep breadth is not the point.
inline characterize::CharacterizationConfig demoGrids(bool quick) {
  characterize::CharacterizationConfig cfg;
  cfg.tauGrid = {50e-12,  100e-12, 200e-12,  400e-12, 700e-12,
                 1100e-12, 1600e-12, 2200e-12};
  cfg.dualTauIndices = {0, 2, 4, 6, 7};
  if (quick) {
    cfg.tauGrid = {50e-12, 200e-12, 700e-12, 2200e-12};
    cfg.dualTauIndices = {0, 1, 2, 3};
    cfg.vGrid = {0.1, 0.3, 1.0, 3.0, 8.0};
    cfg.wGrid = {-2.0, -1.0, -0.5, 0.0, 0.3, 0.6, 1.0};
    cfg.vGridTransition = {0.1, 0.3, 1.0, 3.0, 12.0};
    cfg.wGridTransition = {-2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 6.0};
    cfg.vtcStep = 0.02;
  }
  return cfg;
}

/// The three-stage chain a,b -> u1 -> y1; y1,@p side -> u2 -> y2;
/// y2,c -> u3 -> y3, built from @p cell of any fanin: pins beyond the
/// second ride on stable pad inputs p0, p1, ..., like the side input.
inline void addDemoChain(sta::Netlist& nl,
                         const characterize::CharacterizedGate& cell,
                         const std::string& side) {
  for (const std::string& pi : {std::string("a"), std::string("b"),
                                std::string("c"), side}) {
    nl.addPrimaryInput(pi);
  }
  std::vector<std::string> pads;
  for (int p = 0; p + 2 < cell.pinCount(); ++p) {
    pads.push_back("p" + std::to_string(p));
    nl.addPrimaryInput(pads.back());
  }
  auto stageInputs = [&](const std::string& first, const std::string& second) {
    std::vector<std::string> v{first};
    if (cell.pinCount() >= 2) v.push_back(second);
    v.insert(v.end(), pads.begin(), pads.end());
    return v;
  };
  nl.addInstance("u1", cell, stageInputs("a", "b"), "y1");
  nl.addInstance("u2", cell, stageInputs("y1", side), "y2");
  nl.addInstance("u3", cell, stageInputs("y2", "c"), "y3");
}

/// The input burst the demo chain is timed with: a and b switch close
/// together, so u1 sees two inputs in temporal proximity; c arrives late.
inline std::unordered_map<std::string, sta::Arrival> demoArrivals() {
  return {{"a", {0.0, 250e-12, wave::Edge::Rising}},
          {"b", {40e-12, 400e-12, wave::Edge::Rising}},
          {"c", {600e-12, 300e-12, wave::Edge::Rising}}};
}

}  // namespace prox::examples
