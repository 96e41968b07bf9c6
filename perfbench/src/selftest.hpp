#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Every self-test failure; empty when all pass.
[[nodiscard]] std::vector<std::string> run_self_tests();

}  // namespace perfbench
