#include "dbp/simulator.h"

#include <algorithm>
#include <cmath>

#include "core/interval_set.h"
#include "offline/lower_bound.h"
#include "support/assert.h"

namespace fjs {

DbpResult pack_items(const std::vector<DbpItem>& items, Packer& packer,
                     double capacity) {
  FJS_REQUIRE(capacity > 0.0, "dbp: capacity must be positive");
  for (const DbpItem& item : items) {
    FJS_REQUIRE(item.size > 0.0 && item.size <= capacity + 1e-12,
                "dbp: item size outside (0, capacity]");
    FJS_REQUIRE(!item.active.empty(), "dbp: empty item interval");
  }
  packer.reset();

  struct Ev {
    Time time;
    bool is_start;
    std::size_t index;
  };
  std::vector<Ev> events;
  events.reserve(items.size() * 2);
  for (std::size_t i = 0; i < items.size(); ++i) {
    events.push_back(Ev{items[i].active.lo, true, i});
    events.push_back(Ev{items[i].active.hi, false, i});
  }
  // Ends before starts at the same tick: half-open intervals do not
  // overlap, so a departing item frees capacity for one arriving "now".
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    if (a.is_start != b.is_start) {
      return !a.is_start;
    }
    return a.index < b.index;
  });

  struct Bin {
    double load = 0.0;
    std::size_t count = 0;
    Time opened_at;  ///< start of the current non-empty period
    IntervalSet usage;
  };
  std::vector<Bin> bins;
  std::vector<double> loads;
  DbpResult result;
  result.assignment.assign(items.size(), static_cast<std::size_t>(-1));

  std::size_t open_now = 0;
  for (const Ev& ev : events) {
    const DbpItem& item = items[ev.index];
    if (ev.is_start) {
      const std::size_t choice = packer.place(item, loads, capacity);
      FJS_REQUIRE(choice <= bins.size(), "dbp: packer chose a bad bin index");
      if (choice == bins.size()) {
        bins.emplace_back();
        loads.push_back(0.0);
      }
      Bin& bin = bins[choice];
      FJS_REQUIRE(bin.load + item.size <= capacity + 1e-9,
                  "dbp: packer " + packer.name() + " overflowed a bin");
      if (bin.count == 0) {
        bin.opened_at = ev.time;
        ++open_now;
        result.peak_open_bins = std::max(result.peak_open_bins, open_now);
      }
      bin.load += item.size;
      ++bin.count;
      loads[choice] = bin.load;
      result.assignment[ev.index] = choice;
    } else {
      const std::size_t choice = result.assignment[ev.index];
      FJS_CHECK(choice < bins.size(), "dbp: end event for unplaced item");
      Bin& bin = bins[choice];
      bin.load -= item.size;
      if (bin.load < 0.0) {
        bin.load = 0.0;  // absorb float dust
      }
      --bin.count;
      loads[choice] = bin.load;
      if (bin.count == 0) {
        bin.usage.add(Interval(bin.opened_at, ev.time));
        --open_now;
      }
    }
  }

  result.bins_opened = bins.size();
  result.total_usage = Time::zero();
  for (const Bin& bin : bins) {
    FJS_CHECK(bin.count == 0, "dbp: bin left non-empty after all events");
    const Time usage = bin.usage.measure();
    result.per_bin_usage.push_back(usage);
    result.total_usage += usage;
  }
  return result;
}

DbpResult run_packing(InstanceView instance, const Schedule& schedule,
                      const std::vector<double>& sizes, Packer& packer,
                      double capacity) {
  FJS_REQUIRE(sizes.size() == instance.size(),
              "dbp: sizes must align with instance jobs");
  schedule.validate(instance);
  std::vector<DbpItem> items;
  items.reserve(instance.size());
  for (JobId id = 0; id < instance.size(); ++id) {
    items.push_back(DbpItem{.job = id, .size = sizes[id],
                            .active = schedule.active_interval(instance, id)});
  }
  // Item index == JobId here, so the assignment stays id-aligned.
  return pack_items(items, packer, capacity);
}

Time dbp_usage_lower_bound(InstanceView instance,
                           const std::vector<double>& sizes,
                           double capacity) {
  FJS_REQUIRE(sizes.size() == instance.size(),
              "dbp: sizes must align with instance jobs");
  double volume_ticks = 0.0;
  for (JobId id = 0; id < instance.size(); ++id) {
    volume_ticks +=
        sizes[id] * static_cast<double>(instance.length(id).ticks());
  }
  const Time volume_bound =
      Time(static_cast<std::int64_t>(std::ceil(volume_ticks / capacity)));
  return std::max(best_lower_bound(instance), volume_bound);
}

}  // namespace fjs
