#include "obs/trace.h"

#include <utility>

namespace kgq {
namespace obs {

#if defined(KGQ_OBS_ENABLED)
namespace internal {
thread_local constinit ObsSink* tl_sink = nullptr;
thread_local constinit TraceContext* tl_trace = nullptr;
}  // namespace internal
#endif

TraceContext::TraceContext() : root_(std::make_unique<ProfileNode>()) {
  stack_.push_back(root_.get());
}

void TraceContext::OnCounter(std::string_view name, uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void TraceContext::OnHistogram(std::string_view name, uint64_t value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), HistogramStat{}).first;
  }
  HistogramStat& h = it->second;
  h.count += 1;
  h.sum += value;
  if (value < h.min) h.min = value;
  if (value > h.max) h.max = value;
}

void TraceContext::OnSpan(std::string_view path, uint64_t duration_ns) {
  auto it = spans_.find(path);
  if (it == spans_.end()) {
    it = spans_.emplace(std::string(path), SpanStat{}).first;
  }
  it->second.count += 1;
  it->second.total_ns += duration_ns;
}

ProfileNode* TraceContext::PushOp(std::string_view kind) {
  auto node = std::make_unique<ProfileNode>();
  node->kind = std::string(kind);
  ProfileNode* raw = node.get();
  stack_.back()->children.push_back(std::move(node));
  stack_.push_back(raw);
  return raw;
}

void TraceContext::PopOp() {
  if (stack_.size() > 1) stack_.pop_back();
}

ProfileNode* TraceContext::CurrentOp() {
  return stack_.size() > 1 ? stack_.back() : nullptr;
}

std::shared_ptr<const ProfileNode> TraceContext::TakeProfile() {
  std::unique_ptr<ProfileNode> root = std::move(root_);
  root_ = std::make_unique<ProfileNode>();
  stack_.clear();
  stack_.push_back(root_.get());
  if (root->children.empty()) return nullptr;
  if (root->children.size() == 1) {
    return std::shared_ptr<const ProfileNode>(std::move(root->children[0]));
  }
  return std::shared_ptr<const ProfileNode>(std::move(root));
}

uint64_t TraceContext::CounterValue(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const TraceContext::HistogramStat* TraceContext::FindHistogram(
    std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

const TraceContext::SpanStat* TraceContext::FindSpan(
    std::string_view path) const {
  auto it = spans_.find(path);
  return it == spans_.end() ? nullptr : &it->second;
}

}  // namespace obs
}  // namespace kgq
