// Event-loop layouts the end-to-end server suites run over. The instance
// names date from when these suites ran over two io models; with one
// tls::Service front end they now pick how many event loops it drives:
// "threaded" runs one loop per worker thread, so connections are spread
// round-robin and the in-flight cap is reserved from several loops at once;
// "reactor" runs every handshake and first read on a single loop.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "server/myproxy_server.hpp"

namespace myproxy::server::testing {

enum class LoopLayout { kLoopPerWorker, kSingleLoop };

/// Sets reactor_threads for `layout`; call after worker_threads is final.
inline void apply(LoopLayout layout, ServerConfig& config) {
  config.reactor_threads =
      layout == LoopLayout::kSingleLoop ? 1 : config.worker_threads;
}

inline auto all_loop_layouts() {
  return ::testing::Values(LoopLayout::kLoopPerWorker,
                           LoopLayout::kSingleLoop);
}

inline std::string loop_layout_name(
    const ::testing::TestParamInfo<LoopLayout>& info) {
  return info.param == LoopLayout::kSingleLoop ? "reactor" : "threaded";
}

}  // namespace myproxy::server::testing
