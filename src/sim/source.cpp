#include "sim/source.h"

#include <algorithm>

namespace fjs {

StaticSource::StaticSource(const Instance& instance) {
  const InstanceView view = instance.view();
  specs_.reserve(view.size());
  // Release in arrival order so engine job ids follow arrival order; ids of
  // the realized instance then match ids_by_arrival of the input.
  if (view.sorted_by_arrival()) {
    // Already in (arrival, id) order — skip the O(n log n) id sort.
    for (std::size_t i = 0; i < view.size(); ++i) {
      const JobId id = static_cast<JobId>(i);
      specs_.push_back(JobSpec{.arrival = view.arrival(id),
                               .deadline = view.deadline(id),
                               .length = view.length(id)});
    }
    return;
  }
  for (const JobId id : view.ids_by_arrival()) {
    specs_.push_back(JobSpec{.arrival = view.arrival(id),
                             .deadline = view.deadline(id),
                             .length = view.length(id)});
  }
}

SourceAction StaticSource::begin() {
  // begin() runs once per simulation and the source is single-use (one
  // engine per source), so hand the specs over without copying.
  SourceAction action;
  action.releases = std::move(specs_);
  return action;
}

}  // namespace fjs
