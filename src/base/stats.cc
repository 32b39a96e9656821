#include "src/base/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/base/log.h"

namespace multics {

void Distribution::Add(double sample) {
  samples_.push_back(sample);
  sum_ += sample;
  sum_sq_ += sample * sample;
  is_sorted_ = false;
}

double Distribution::min() const {
  CHECK(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Distribution::max() const {
  CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double Distribution::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return sum_ / static_cast<double>(samples_.size());
}

double Distribution::stddev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  const double n = static_cast<double>(samples_.size());
  const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

double Distribution::Percentile(double q) const {
  CHECK(!samples_.empty());
  if (!is_sorted_) {
    std::sort(samples_.begin(), samples_.end());
    is_sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples_.size())));
  if (rank > 0) {
    --rank;
  }
  return samples_[std::min(rank, samples_.size() - 1)];
}

std::string Distribution::Summary() const {
  std::ostringstream os;
  if (samples_.empty()) {
    os << "n=0";
    return os.str();
  }
  os << "n=" << samples_.size() << " mean=" << mean() << " p50=" << Percentile(0.5)
     << " p99=" << Percentile(0.99) << " max=" << max();
  return os.str();
}

void Distribution::Clear() {
  samples_.clear();
  is_sorted_ = true;
  sum_ = 0.0;
  sum_sq_ = 0.0;
}

namespace {

auto CounterLowerBound(auto& counters, std::string_view name) {
  return std::lower_bound(counters.begin(), counters.end(), name,
                          [](const auto& entry, std::string_view key) {
                            return entry.first < key;
                          });
}

}  // namespace

uint32_t CounterSet::SlotFor(std::string_view name) {
  auto it = CounterLowerBound(names_, name);
  if (it != names_.end() && it->first == name) {
    return it->second;
  }
  const uint32_t slot = static_cast<uint32_t>(cells_.size());
  cells_.push_back(0);
  names_.emplace(it, std::string(name), slot);
  return slot;
}

uint64_t CounterSet::Get(const std::string& name) const {
  auto it = CounterLowerBound(names_, name);
  return it != names_.end() && it->first == name ? cells_[it->second] : 0;
}

std::vector<std::pair<std::string, uint64_t>> CounterSet::Snapshot() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(names_.size());
  for (const auto& [name, slot] : names_) {
    out.emplace_back(name, cells_[slot]);
  }
  return out;
}

void CounterSet::Clear() {
  names_.clear();
  cells_.clear();
  ptr_cache_.Clear();
}

}  // namespace multics
