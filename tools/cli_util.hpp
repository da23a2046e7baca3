// Small argument-parsing helpers shared by the CLI tools. Header-only on
// purpose: tools/*.cpp each build into their own binary, so shared logic
// must not live in a tool translation unit.
#pragma once

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tufp/graph/dijkstra.hpp"

namespace tufp::cli {

// "a,b,,c" -> {"a", "b", "c"} (empty tokens skipped).
inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// The shared --sp-kernel vocabulary. Every tool that exposes the flag
// parses it here so the names — and the rejection text — cannot drift
// apart between binaries. Unknown names are a usage error: exit 2 with
// one canonical message.
inline SpKernel parse_sp_kernel(const std::string& tool,
                                const std::string& name) {
  if (name == "auto") return SpKernel::kAuto;
  if (name == "heap") return SpKernel::kHeap;
  if (name == "bucket") return SpKernel::kBucket;
  std::cerr << tool << ": unknown --sp-kernel '" << name
            << "' (expected auto|heap|bucket)\n";
  std::exit(2);
}

}  // namespace tufp::cli
