#include "trace.hpp"

#include <map>
#include <ostream>
#include <unordered_map>

namespace perfbench {

std::vector<LayerTotals> layer_totals(
    const std::vector<const std::vector<Span>*>& buffers) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const auto* spans : buffers) {
    for (const Span& span : *spans) {
      if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTotals> by_name;
  for (const auto* spans : buffers) {
    for (const Span& span : *spans) {
      LayerTotals& totals = by_name[span.name];
      totals.name = span.name;
      const std::int64_t duration = span.end_ns - span.start_ns;
      const auto it = child_ns.find(span.id);
      const std::int64_t children = it == child_ns.end() ? 0 : it->second;
      ++totals.count;
      totals.total_ms += static_cast<double>(duration) / 1e6;
      totals.self_ms += static_cast<double>(duration - children) / 1e6;
    }
  }
  std::vector<LayerTotals> out;
  for (auto& [name, totals] : by_name) out.push_back(std::move(totals));
  return out;
}

void write_spans(std::ostream& out,
                 const std::vector<const std::vector<Span>*>& buffers) {
  for (const auto* spans : buffers) {
    for (const Span& span : *spans) {
      out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"request\":" << span.request << ",\"name\":\"" << span.name
          << "\",\"start_us\":" << span.start_ns / 1000
          << ",\"end_us\":" << span.end_ns / 1000 << "}\n";
    }
  }
}

}  // namespace perfbench
