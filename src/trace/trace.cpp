#include "trace/trace.hpp"

#include <algorithm>
#include <ostream>

namespace urcgc::trace {

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kGenerated: return "generated";
    case EventKind::kProcessed: return "processed";
    case EventKind::kSent: return "sent";
    case EventKind::kDecision: return "decision";
    case EventKind::kCleaned: return "cleaned";
    case EventKind::kHalt: return "halt";
    case EventKind::kDiscarded: return "discarded";
    case EventKind::kRecovery: return "recovery";
    case EventKind::kFlowBlocked: return "flow-blocked";
    case EventKind::kRequestDropped: return "request-dropped";
    case EventKind::kJoined: return "joined";
    case EventKind::kCount: break;
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::vector<EventKind> keep,
                             obs::Registry* metrics)
    : keep_(std::move(keep)), metrics_(metrics) {
  if (metrics_ != nullptr) {
    m_events_.reserve(static_cast<std::size_t>(EventKind::kCount));
    for (std::size_t i = 0; i < static_cast<std::size_t>(EventKind::kCount);
         ++i) {
      m_events_.push_back(metrics_->counter(
          "trace.events." +
          std::string(to_string(static_cast<EventKind>(i)))));
    }
  }
}

void TraceRecorder::record(TraceEvent event) {
  // Count before the keep-filter: the registry tallies every observed
  // event, while the in-memory log stays filterable.
  if (metrics_ != nullptr) {
    metrics_->add(event.process,
                  m_events_[static_cast<std::size_t>(event.kind)]);
  }
  if (!keep_.empty() &&
      std::find(keep_.begin(), keep_.end(), event.kind) == keep_.end()) {
    return;
  }
  events_.push_back(event);
}

void TraceRecorder::on_generated(ProcessId p, const core::AppMessage& msg,
                                 Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kGenerated;
  event.process = p;
  event.mid = msg.mid;
  event.deps.assign(msg.deps.begin(), msg.deps.end());
  record(std::move(event));
}

void TraceRecorder::on_processed(ProcessId p, const core::AppMessage& msg,
                                 Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kProcessed;
  event.process = p;
  event.mid = msg.mid;
  record(event);
}

void TraceRecorder::on_sent(ProcessId p, stats::MsgClass cls,
                            std::size_t bytes, Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kSent;
  event.process = p;
  event.msg_class = cls;
  event.bytes = bytes;
  record(event);
}

void TraceRecorder::on_decision_made(ProcessId coordinator,
                                     const core::Decision& d, Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kDecision;
  event.process = coordinator;
  event.subrun = d.decided_at;
  event.full_group = d.full_group;
  event.alive = d.alive_count();
  if (d.full_group) event.clean_upto = d.clean_upto;
  event.max_processed = d.max_processed;
  event.alive_mask = d.alive;
  record(std::move(event));
}

void TraceRecorder::on_history_cleaned(ProcessId p, std::size_t purged,
                                       Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kCleaned;
  event.process = p;
  event.bytes = purged;
  record(event);
}

void TraceRecorder::on_halt(ProcessId p, core::HaltReason reason, Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kHalt;
  event.process = p;
  event.reason = reason;
  record(event);
}

void TraceRecorder::on_discarded(ProcessId p, const Mid& mid, Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kDiscarded;
  event.process = p;
  event.mid = mid;
  record(event);
}

void TraceRecorder::on_recovery_attempt(ProcessId p, ProcessId target,
                                        ProcessId origin, Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kRecovery;
  event.process = p;
  event.peer = target;
  event.origin = origin;
  record(event);
}

void TraceRecorder::on_flow_blocked(ProcessId p, Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kFlowBlocked;
  event.process = p;
  record(event);
}

void TraceRecorder::on_request_dropped(ProcessId p, ProcessId from,
                                       SubrunId rq_subrun, Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kRequestDropped;
  event.process = p;
  event.peer = from;
  event.subrun = rq_subrun;
  record(event);
}

void TraceRecorder::on_joined(ProcessId p, const std::vector<Seq>& baseline,
                              Tick at) {
  TraceEvent event;
  event.at = at;
  event.kind = EventKind::kJoined;
  event.process = p;
  event.clean_upto = baseline;
  record(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::filter(EventKind kind) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : events_) {
    if (event.kind == kind) out.push_back(event);
  }
  return out;
}

void TraceRecorder::write_jsonl(std::ostream& os) const {
  for (const TraceEvent& event : events_) {
    os << "{\"at\":" << event.at << ",\"kind\":\"" << to_string(event.kind)
       << "\",\"p\":" << event.process;
    switch (event.kind) {
      case EventKind::kGenerated:
      case EventKind::kProcessed:
      case EventKind::kDiscarded:
        os << ",\"origin\":" << event.mid.origin
           << ",\"seq\":" << event.mid.seq;
        if (event.kind == EventKind::kGenerated && !event.deps.empty()) {
          os << ",\"deps\":[";
          for (std::size_t i = 0; i < event.deps.size(); ++i) {
            if (i > 0) os << ",";
            os << "[" << event.deps[i].origin << "," << event.deps[i].seq
               << "]";
          }
          os << "]";
        }
        break;
      case EventKind::kSent:
        os << ",\"class\":\"" << stats::to_string(event.msg_class)
           << "\",\"bytes\":" << event.bytes;
        break;
      case EventKind::kDecision:
        os << ",\"subrun\":" << event.subrun << ",\"full_group\":"
           << (event.full_group ? "true" : "false")
           << ",\"alive\":" << event.alive;
        if (!event.clean_upto.empty()) {
          os << ",\"clean_upto\":[";
          for (std::size_t i = 0; i < event.clean_upto.size(); ++i) {
            if (i > 0) os << ",";
            os << event.clean_upto[i];
          }
          os << "]";
        }
        if (!event.max_processed.empty()) {
          os << ",\"max_processed\":[";
          for (std::size_t i = 0; i < event.max_processed.size(); ++i) {
            if (i > 0) os << ",";
            os << event.max_processed[i];
          }
          os << "]";
        }
        if (!event.alive_mask.empty()) {
          os << ",\"alive_mask\":[";
          for (std::size_t i = 0; i < event.alive_mask.size(); ++i) {
            if (i > 0) os << ",";
            os << (event.alive_mask[i] ? 1 : 0);
          }
          os << "]";
        }
        break;
      case EventKind::kCleaned:
        os << ",\"purged\":" << event.bytes;
        break;
      case EventKind::kHalt:
        os << ",\"reason\":\"" << core::to_string(event.reason) << "\"";
        break;
      case EventKind::kRecovery:
        os << ",\"target\":" << event.peer
           << ",\"origin\":" << event.origin;
        break;
      case EventKind::kRequestDropped:
        os << ",\"from\":" << event.peer << ",\"subrun\":" << event.subrun;
        break;
      case EventKind::kJoined:
        if (!event.clean_upto.empty()) {
          os << ",\"baseline\":[";
          for (std::size_t i = 0; i < event.clean_upto.size(); ++i) {
            if (i > 0) os << ",";
            os << event.clean_upto[i];
          }
          os << "]";
        }
        break;
      case EventKind::kFlowBlocked:
      case EventKind::kCount:
        break;
    }
    os << "}\n";
  }
}

void TraceRecorder::write_text(std::ostream& os, Tick ticks_per_rtd) const {
  for (const TraceEvent& event : events_) {
    const double rtd =
        static_cast<double>(event.at) / static_cast<double>(ticks_per_rtd);
    os << rtd << " rtd  p" << event.process << " " << to_string(event.kind);
    switch (event.kind) {
      case EventKind::kGenerated:
      case EventKind::kProcessed:
      case EventKind::kDiscarded:
        os << " " << urcgc::to_string(event.mid);
        break;
      case EventKind::kSent:
        os << " " << stats::to_string(event.msg_class) << " (" << event.bytes
           << " B)";
        break;
      case EventKind::kDecision:
        os << " subrun " << event.subrun << (event.full_group ? " [stable]"
                                                              : "")
           << " alive=" << event.alive;
        break;
      case EventKind::kCleaned:
        os << " " << event.bytes << " messages";
        break;
      case EventKind::kHalt:
        os << " (" << core::to_string(event.reason) << ")";
        break;
      case EventKind::kRecovery:
        os << " from p" << event.peer << " for p" << event.origin
           << "'s sequence";
        break;
      case EventKind::kRequestDropped:
        os << " from p" << event.peer << " for subrun " << event.subrun;
        break;
      case EventKind::kJoined:
        os << " baseline=[";
        for (std::size_t i = 0; i < event.clean_upto.size(); ++i) {
          if (i > 0) os << ",";
          os << event.clean_upto[i];
        }
        os << "]";
        break;
      case EventKind::kFlowBlocked:
      case EventKind::kCount:
        break;
    }
    os << "\n";
  }
}

}  // namespace urcgc::trace
