#include "core/schedule.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/assert.h"

namespace fjs {

Schedule::Schedule(std::size_t job_count) : starts_(job_count) {}

Schedule Schedule::from_starts(const std::vector<Time>& starts) {
  Schedule s(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    s.starts_[i] = starts[i];
  }
  return s;
}

bool Schedule::is_set(JobId id) const {
  FJS_REQUIRE(id < starts_.size(), "Schedule: job id out of range");
  return starts_[id].has_value();
}

bool Schedule::complete() const {
  return std::all_of(starts_.begin(), starts_.end(),
                     [](const auto& s) { return s.has_value(); });
}

void Schedule::set_start(JobId id, Time start) {
  FJS_REQUIRE(id < starts_.size(), "Schedule: job id out of range");
  FJS_REQUIRE(!starts_[id].has_value(), "Schedule: job started twice");
  starts_[id] = start;
}

Time Schedule::start(JobId id) const {
  FJS_REQUIRE(id < starts_.size(), "Schedule: job id out of range");
  FJS_REQUIRE(starts_[id].has_value(), "Schedule: job has no start time");
  return *starts_[id];
}

void Schedule::require_covered_by(InstanceView inst) const {
  FJS_REQUIRE(starts_.size() <= inst.size(),
              "Schedule: instance has fewer jobs than the schedule");
}

Interval Schedule::active_interval(InstanceView inst, JobId id) const {
  FJS_REQUIRE(id < inst.size(), "Schedule: job id out of range");
  return inst.job(id).active_interval(start(id));
}

IntervalSet Schedule::active_set(InstanceView inst) const {
  FJS_REQUIRE(inst.size() == starts_.size(),
              "Schedule: instance size mismatch");
  std::vector<Interval> intervals;
  intervals.reserve(starts_.size());
  for (JobId id = 0; id < starts_.size(); ++id) {
    intervals.push_back(active_interval(inst, id));
  }
  return IntervalSet(std::move(intervals));
}

Time Schedule::span(InstanceView inst) const {
  return active_set(inst).measure();
}

void Schedule::validate(InstanceView inst) const {
  FJS_REQUIRE(inst.size() == starts_.size(),
              "Schedule: instance size mismatch");
  for (JobId id = 0; id < starts_.size(); ++id) {
    const Job& j = inst.job(id);
    FJS_REQUIRE(starts_[id].has_value(),
                "Schedule: " + j.to_string() + " never started");
    const Time s = *starts_[id];
    FJS_REQUIRE(s >= j.arrival,
                "Schedule: " + j.to_string() + " started before arrival");
    FJS_REQUIRE(s <= j.deadline,
                "Schedule: " + j.to_string() + " started after its deadline");
  }
}

bool Schedule::is_valid(InstanceView inst) const {
  if (inst.size() != starts_.size()) {
    return false;
  }
  for (JobId id = 0; id < starts_.size(); ++id) {
    const Job& j = inst.job(id);
    if (!starts_[id].has_value() || *starts_[id] < j.arrival ||
        *starts_[id] > j.deadline) {
      return false;
    }
  }
  return true;
}

std::size_t Schedule::concurrency_at(InstanceView inst, Time t) const {
  require_covered_by(inst);
  std::size_t count = 0;
  for (JobId id = 0; id < starts_.size(); ++id) {
    if (starts_[id].has_value() &&
        active_interval(inst, id).contains(t)) {
      ++count;
    }
  }
  return count;
}

std::size_t Schedule::max_concurrency(InstanceView inst) const {
  // Sweep over start/end events; +1 sorts before -1 at the same tick only
  // matters for closed intervals — with half-open intervals an end at t and
  // a start at t do NOT overlap, so process ends first.
  require_covered_by(inst);
  std::vector<std::pair<Time, int>> events;
  events.reserve(starts_.size() * 2);
  for (JobId id = 0; id < starts_.size(); ++id) {
    if (!starts_[id].has_value()) {
      continue;
    }
    const Interval iv = active_interval(inst, id);
    events.emplace_back(iv.lo, +1);
    events.emplace_back(iv.hi, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) {
                return a.first < b.first;
              }
              return a.second < b.second;  // ends (-1) before starts (+1)
            });
  std::size_t current = 0;
  std::size_t peak = 0;
  for (const auto& [t, delta] : events) {
    if (delta > 0) {
      ++current;
      peak = std::max(peak, current);
    } else {
      FJS_CHECK(current > 0, "concurrency underflow");
      --current;
    }
  }
  return peak;
}

std::vector<std::pair<Time, std::size_t>> Schedule::concurrency_profile(
    InstanceView inst) const {
  require_covered_by(inst);
  std::vector<std::pair<Time, int>> events;
  for (JobId id = 0; id < starts_.size(); ++id) {
    if (!starts_[id].has_value()) {
      continue;
    }
    const Interval iv = active_interval(inst, id);
    events.emplace_back(iv.lo, +1);
    events.emplace_back(iv.hi, -1);
  }
  std::sort(events.begin(), events.end());
  std::vector<std::pair<Time, std::size_t>> profile;
  std::size_t current = 0;
  for (std::size_t i = 0; i < events.size();) {
    const Time t = events[i].first;
    std::ptrdiff_t delta = 0;
    for (; i < events.size() && events[i].first == t; ++i) {
      delta += events[i].second;
    }
    if (delta == 0) {
      continue;  // concurrency unchanged at this tick
    }
    current = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(current) + delta);
    profile.emplace_back(t, current);
  }
  return profile;
}

Time Schedule::makespan_end(InstanceView inst) const {
  require_covered_by(inst);
  Time end = Time::zero();
  for (JobId id = 0; id < starts_.size(); ++id) {
    if (starts_[id].has_value()) {
      end = std::max(end, active_interval(inst, id).hi);
    }
  }
  return end;
}

Time Schedule::total_delay(InstanceView inst) const {
  require_covered_by(inst);
  Time total = Time::zero();
  for (JobId id = 0; id < starts_.size(); ++id) {
    if (starts_[id].has_value()) {
      total += *starts_[id] - inst.job(id).arrival;
    }
  }
  return total;
}

std::string Schedule::to_string(InstanceView inst) const {
  require_covered_by(inst);
  std::ostringstream os;
  for (JobId id = 0; id < starts_.size(); ++id) {
    os << inst.job(id).to_string() << " -> ";
    if (starts_[id].has_value()) {
      os << "start " << starts_[id]->to_string() << " active "
         << active_interval(inst, id).to_string();
    } else {
      os << "(unscheduled)";
    }
    os << '\n';
  }
  return os.str();
}

void Schedule::write(std::ostream& os) const {
  os << starts_.size() << '\n';
  for (const auto& start : starts_) {
    if (start.has_value()) {
      os << start->to_string() << '\n';
    } else {
      os << "-\n";
    }
  }
}

Schedule Schedule::parse(std::istream& is) {
  std::size_t n = 0;
  FJS_REQUIRE(static_cast<bool>(is >> n), "Schedule::parse: bad count");
  Schedule sched(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string token;
    FJS_REQUIRE(static_cast<bool>(is >> token),
                "Schedule::parse: missing start");
    if (token != "-") {
      sched.starts_[i] = Time::from_units(std::stod(token));
    }
  }
  return sched;
}

ScheduleMetrics compute_metrics(const Instance& inst, const Schedule& sched) {
  ScheduleMetrics m;
  m.span = sched.span(inst);
  m.makespan_end = sched.makespan_end(inst);
  m.max_concurrency = sched.max_concurrency(inst);
  m.total_delay = sched.total_delay(inst);
  m.total_work = inst.total_work();
  m.span_over_work = m.total_work > Time::zero()
                         ? time_ratio(m.span, m.total_work)
                         : 0.0;
  return m;
}

}  // namespace fjs
