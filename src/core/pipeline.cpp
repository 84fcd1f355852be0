#include "core/pipeline.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace urcgc::core {

SubrunPipeline::SubrunPipeline(int depth, std::size_t inbox_cap)
    : depth_(depth), inbox_cap_(inbox_cap) {
  URCGC_ASSERT_MSG(depth >= 1, "pipeline depth (max_subruns_in_flight) >= 1");
}

int SubrunPipeline::decisions_in_flight(SubrunId subrun,
                                        SubrunId decided_at) const {
  // Decisions are expected up to subrun-1 at the entry of `subrun`; the
  // initial decision has decided_at = -1, so a group that never decided
  // counts the full lag.
  const SubrunId lag = (subrun - 1) - decided_at;
  return static_cast<int>(std::max<SubrunId>(lag, 0));
}

int SubrunPipeline::generation_budget(SubrunId subrun,
                                      SubrunId decided_at) const {
  if (depth_ <= 1) return 1;
  return decisions_in_flight(subrun, decided_at) < depth_ ? depth_ : 1;
}

bool SubrunPipeline::stalled(SubrunId subrun, SubrunId decided_at) const {
  return depth_ > 1 && decisions_in_flight(subrun, decided_at) >= depth_;
}

SubrunPipeline::Window* SubrunPipeline::find(SubrunId subrun) {
  for (Window& w : windows_) {
    if (w.subrun == subrun) return &w;
  }
  return nullptr;
}

void SubrunPipeline::open_window(SubrunId subrun, std::size_t expected) {
  if (find(subrun) != nullptr) return;
  // Evict windows outside the depth-k span (anything <= subrun - k): their
  // subrun's decision round is long past, so the parked requests can never
  // join a quorum. The seed's single-window reset is the k=1 case.
  const SubrunId oldest = subrun - static_cast<SubrunId>(depth_);
  std::erase_if(windows_,
                [oldest](const Window& w) { return w.subrun <= oldest; });
  windows_.push_back(Window{subrun, {}});
  if (inbox_cap_ > 0) expected = std::min(expected, inbox_cap_);
  windows_.back().requests.reserve(expected);
  std::sort(windows_.begin(), windows_.end(),
            [](const Window& a, const Window& b) {
              return a.subrun < b.subrun;
            });
}

SubrunPipeline::Admit SubrunPipeline::admit(Request&& rq) {
  Window* window = find(rq.subrun);
  if (window == nullptr) return Admit::kClosed;
  for (const Request& held : window->requests) {
    if (held.from == rq.from) return Admit::kDuplicate;
  }
  if (inbox_cap_ > 0 && window->requests.size() >= inbox_cap_) {
    return Admit::kOverflow;
  }
  window->requests.push_back(std::move(rq));
  window_peak_ = std::max(window_peak_, window->requests.size());
  return Admit::kAccepted;
}

std::vector<Request> SubrunPipeline::take_window(SubrunId subrun) {
  for (auto it = windows_.begin(); it != windows_.end(); ++it) {
    if (it->subrun != subrun) continue;
    std::vector<Request> requests = std::move(it->requests);
    windows_.erase(it);
    return requests;
  }
  return {};
}

std::size_t SubrunPipeline::parked() const {
  std::size_t total = 0;
  for (const Window& w : windows_) total += w.requests.size();
  return total;
}

}  // namespace urcgc::core
